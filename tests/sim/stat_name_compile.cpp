// Compile-only check that StatName rejects a name missing from kStatNames:
// this file compiles as is and must fail with ODCM_UNKNOWN_STAT_NAME defined.
#include "sim/stat_names.hpp"

#ifdef ODCM_UNKNOWN_STAT_NAME
constexpr odcm::sim::StatName kName("qp_created");  // not a table entry
#else
constexpr odcm::sim::StatName kName("qp_created_rc");
#endif

static_assert(kName.view().starts_with("qp_created"));
