// perfbench_host: one repetition of one host-cost benchmark workload.
//
//   perfbench_host --workload startup|collective|hybrid --seed N
//                  [--steps N] [--trace 0|1] [--trace-out FILE]
//                  [--hybrid-cap N] [--hybrid-registration eager|on_demand]
//
// The two --hybrid-* knobs exist only to reproduce the known defects listed
// in README.md; run.py always uses the defaults (cap 64, eager).
//
// Builds the workload's jobs through the simulator's public API, runs them
// once, and prints one JSON object on stdout with what the run cost the
// host (wall time, set-up time, time inside Engine::run, per-step times,
// RSS at phase boundaries), what it did (events, layer counters, rank-0
// operation spans), whether its outputs were correct, and a digest of its
// virtual-time results. run.py launches one process per repetition and
// turns these records into the benchmark's metrics (see README.md).
//
// Every job runs under its own try/catch: an exception or an Engine::run
// deadlock fails that job (and its remaining steps) and the process goes
// on. A crash or hang ends the process; run.py counts that repetition as
// failed.
//
// With --trace 1 a telemetry::Telemetry session is attached to every job,
// the rank-0 spans are written to --trace-out once at the end, and the
// engine-only dispatch probe runs. Telemetry observation never schedules
// events, so the virtual digest must not change.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/graph500.hpp"
#include "core/config.hpp"
#include "mpi/mpi.hpp"
#include "shmem/job.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace odcm;
using telemetry::JsonValue;
using shmem::RankId;
using shmem::ShmemPe;
using shmem::SymAddr;

// ---------------------------------------------------------------------------
// Host clock, memory and hashing helpers.

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current resident set size in MiB (from /proc/self/statm).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// Stateless 64-bit mix of a seed with up to three coordinates; every
/// generated input (peers, values, roots) is a pure function of the seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0) {
  sim::Rng rng(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
               (b * 0xc2b2ae3d27d4eb4fULL) ^ (c * 0x165667b19e3779f9ULL));
  rng.next_u64();
  return rng.next_u64();
}

/// FNV-1a over the virtual-time outputs of a repetition.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char ch : s) byte(static_cast<std::uint8_t>(ch));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Spans: the benchmark's own record of every call it makes into a layer.

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
  int step = -1;    ///< workload step, -1 outside the step loop
  std::string job;
  double host_start = 0;  ///< seconds since the repetition started
  double host_end = 0;
  sim::Time v_start = 0;
  sim::Time v_end = 0;
};

class SpanLog {
 public:
  explicit SpanLog(double t0) : t0_(t0) {}

  int open(std::string name, int parent, int step, const std::string& job,
           sim::Time v) {
    spans_.push_back(Span{std::move(name), parent, step, job,
                          host_now() - t0_, 0, v, v});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, sim::Time v) {
    spans_[id].host_end = host_now() - t0_;
    spans_[id].v_end = v;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  double t0_;
  std::vector<Span> spans_{};
};

// ---------------------------------------------------------------------------
// Per-job bookkeeping shared by all PEs of one job.

struct JobCtx {
  std::string label;
  SpanLog* log = nullptr;
  int run_span = -1;
  std::uint32_t steps = 0;
  /// Host time at each of rank 0's global-barrier returns: the post-init
  /// barrier, then the barrier that ends every step.
  std::vector<double> marks{};
  double mem_init_mb = 0;
  /// Per step: 1 while every data check of the step passed.
  std::vector<std::uint8_t> step_ok{};
  std::string first_error{};

  void fail(std::uint32_t step, const std::string& what) {
    if (step < step_ok.size()) step_ok[step] = 0;
    if (first_error.empty()) first_error = label + ": " + what;
  }
};

/// Await `op`; on rank 0 wrap it in a span.
sim::Task<> timed(JobCtx& ctx, ShmemPe& pe, const char* name, int step,
                  sim::Task<> op) {
  if (pe.rank() != 0) {
    co_await std::move(op);
    co_return;
  }
  int id = ctx.log->open(name, ctx.run_span, step, ctx.label,
                         pe.engine().now());
  co_await std::move(op);
  ctx.log->close(id, pe.engine().now());
}

/// The global barrier that closes initialization (step < 0) or a step.
sim::Task<> boundary(JobCtx& ctx, ShmemPe& pe, int step) {
  co_await timed(ctx, pe, step < 0 ? "init_barrier" : "barrier", step,
                 pe.barrier_all());
  if (pe.rank() != 0) co_return;
  ctx.marks.push_back(host_now());
  if (step < 0) ctx.mem_init_mb = rss_mb();
}

// ---------------------------------------------------------------------------
// Job configurations.

shmem::ShmemJobConfig base_config(std::uint32_t pes, std::uint32_t ppn,
                                  core::ConduitConfig conduit,
                                  std::uint64_t heap_bytes,
                                  std::uint64_t seed) {
  shmem::ShmemJobConfig config;
  config.job.ranks = pes;
  config.job.ranks_per_node = ppn;
  config.job.conduit = conduit;
  config.job.fabric.seed = seed;
  config.shmem.heap_bytes = heap_bytes;
  config.shmem.modeled_heap_bytes = 256ULL << 20;
  return config;
}

// ---------------------------------------------------------------------------
// Workload programs. Each returns the per-PE coroutine for one job.

using Program = std::function<sim::Task<>(ShmemPe&)>;

// startup: waves of first-touch puts to seeded random peers. PE i writes
// its own 4-byte slot i on the target; two slot banks alternate by wave so
// a fast PE's next wave cannot clobber a slot its target has not checked.
struct StartupPlan {
  std::uint32_t n = 0;
  std::uint32_t waves = 0;
  std::vector<RankId> peer{};                          // [wave * n + src]
  std::vector<std::vector<std::vector<RankId>>> in{};  // [wave][target]
  std::uint64_t seed = 0;

  StartupPlan(std::uint32_t pes, std::uint32_t w, std::uint64_t s)
      : n(pes), waves(w), peer(static_cast<std::size_t>(pes) * w),
        in(w, std::vector<std::vector<RankId>>(pes)), seed(s) {
    for (std::uint32_t wave = 0; wave < w; ++wave) {
      for (RankId src = 0; src < pes; ++src) {
        auto dst = static_cast<RankId>(
            (src + 1 + mix(seed, 1, wave, src) % (pes - 1)) % pes);
        peer[static_cast<std::size_t>(wave) * n + src] = dst;
        in[wave][dst].push_back(src);
      }
    }
  }
  [[nodiscard]] std::uint32_t value(RankId src, std::uint32_t wave) const {
    return static_cast<std::uint32_t>(mix(seed, 2, wave, src)) | 1U;
  }
  [[nodiscard]] SymAddr slot(SymAddr base, RankId src,
                             std::uint32_t wave) const {
    return base + 4ULL * ((wave % 2) * static_cast<std::uint64_t>(n) + src);
  }
};

void check_wave(JobCtx& ctx, ShmemPe& pe, const StartupPlan& plan,
                SymAddr base, std::uint32_t wave) {
  for (RankId src : plan.in[wave][pe.rank()]) {
    auto got = pe.local_read<std::uint32_t>(plan.slot(base, src, wave));
    if (got != plan.value(src, wave)) {
      ctx.fail(wave, "put from pe" + std::to_string(src) + " to pe" +
                         std::to_string(pe.rank()) + " wave " +
                         std::to_string(wave) + " did not land");
    }
  }
}

Program startup_program(JobCtx& ctx, std::shared_ptr<StartupPlan> plan) {
  return [&ctx, plan](ShmemPe& pe) -> sim::Task<> {
    co_await timed(ctx, pe, "start_pes", -1, pe.start_pes());
    SymAddr base = pe.heap().allocate(8ULL * plan->n, 8);
    co_await boundary(ctx, pe, -1);
    for (std::uint32_t w = 0; w < plan->waves; ++w) {
      if (w > 0) check_wave(ctx, pe, *plan, base, w - 1);
      RankId dst = plan->peer[static_cast<std::size_t>(w) * plan->n +
                              pe.rank()];
      SymAddr slot = plan->slot(base, pe.rank(), w);
      std::uint32_t value = plan->value(pe.rank(), w);
      // First touch (a handshake under on-demand connections), then a
      // warm put over the connection it left behind.
      co_await timed(ctx, pe, "put_first", static_cast<int>(w),
                     pe.put_value<std::uint32_t>(dst, slot, ~value));
      co_await timed(ctx, pe, "put_warm", static_cast<int>(w),
                     pe.put_value<std::uint32_t>(dst, slot, value));
      co_await boundary(ctx, pe, static_cast<int>(w));
    }
    check_wave(ctx, pe, *plan, base, plan->waves - 1);
    co_await pe.finalize();
  };
}

// collective: fcollect 8 B, fcollect 4 KiB, int64 sum-reduce of 4 KiB,
// barrier. Inputs are seeded per (step, PE, element).
constexpr std::uint32_t kBigBlock = 4096;
constexpr std::uint32_t kReduceCount = kBigBlock / 8;

std::uint64_t word8(std::uint64_t seed, std::uint32_t step, RankId pe) {
  return mix(seed, 3, step, pe);
}
/// Word k of a 4 KiB block is the block's seeded base plus k.
std::uint64_t base4k(std::uint64_t seed, std::uint32_t step, RankId pe) {
  return mix(seed, 4, step, pe);
}
// Reduce inputs are a(e) + pe * b(e) with a, b < 2^20, so the sum over PEs
// has a closed form and never overflows.
std::pair<std::int64_t, std::int64_t> reduce_ab(std::uint64_t seed,
                                                std::uint32_t step,
                                                std::uint32_t e) {
  return {static_cast<std::int64_t>(mix(seed, 5, step, e) % (1U << 20)),
          static_cast<std::int64_t>(mix(seed, 6, step, e) % (1U << 20))};
}

struct CollectiveBuffers {
  SymAddr src8, dst8, src4k, dst4k, rsrc, rdst;
};

sim::Task<> collective_round(JobCtx& ctx, ShmemPe& pe,
                             const CollectiveBuffers& buf, std::uint64_t seed,
                             std::uint32_t step, int span_step) {
  const std::uint32_t n = pe.n_pes();
  const RankId me = pe.rank();
  pe.local_write<std::uint64_t>(buf.src8, word8(seed, step, me));
  const std::uint64_t base = base4k(seed, step, me);
  for (std::uint32_t k = 0; k < kBigBlock / 8; ++k) {
    pe.local_write<std::uint64_t>(buf.src4k + 8ULL * k, base + k);
  }
  for (std::uint32_t e = 0; e < kReduceCount; ++e) {
    auto [a, b] = reduce_ab(seed, step, e);
    pe.local_write<std::int64_t>(buf.rsrc + 8ULL * e,
                                 a + static_cast<std::int64_t>(me) * b);
  }

  co_await timed(ctx, pe, "fcollect_8", span_step,
                 pe.fcollect(buf.dst8, buf.src8, 8));
  co_await timed(ctx, pe, "fcollect_4k", span_step,
                 pe.fcollect(buf.dst4k, buf.src4k, kBigBlock));
  co_await timed(ctx, pe, "reduce", span_step,
                 pe.reduce<std::int64_t>(buf.rdst, buf.rsrc, kReduceCount,
                                         shmem::ReduceOp::kSum));

  if (span_step < 0) co_return;  // warm-up round: no step to account
  for (RankId src = 0; src < n; ++src) {
    if (pe.local_read<std::uint64_t>(buf.dst8 + 8ULL * src) !=
        word8(seed, step, src)) {
      ctx.fail(step, "fcollect_8 block " + std::to_string(src) + " at pe" +
                         std::to_string(me));
      break;
    }
  }
  // Full 4 KiB check on rank 0 and one seeded PE per step; a full check on
  // every PE would cost more host time than the collective itself.
  if (me == 0 || me == mix(seed, 7, step) % n) {
    for (RankId src = 0; src < n; ++src) {
      const std::uint64_t expect = base4k(seed, step, src);
      for (std::uint32_t k = 0; k < kBigBlock / 8; ++k) {
        SymAddr at = buf.dst4k + static_cast<std::uint64_t>(src) * kBigBlock +
                     8ULL * k;
        if (pe.local_read<std::uint64_t>(at) != expect + k) {
          ctx.fail(step, "fcollect_4k block " + std::to_string(src) +
                             " at pe" + std::to_string(me));
          src = n;
          break;
        }
      }
    }
  }
  const auto pes = static_cast<std::int64_t>(n);
  for (std::uint32_t e = 0; e < kReduceCount; ++e) {
    auto [a, b] = reduce_ab(seed, step, e);
    if (pe.local_read<std::int64_t>(buf.rdst + 8ULL * e) !=
        pes * a + b * pes * (pes - 1) / 2) {
      ctx.fail(step, "reduce element " + std::to_string(e) + " at pe" +
                         std::to_string(me));
      break;
    }
  }
}

Program collective_program(JobCtx& ctx, std::uint64_t seed) {
  return [&ctx, seed](ShmemPe& pe) -> sim::Task<> {
    const std::uint32_t n = pe.n_pes();
    co_await timed(ctx, pe, "start_pes", -1, pe.start_pes());
    CollectiveBuffers buf{};
    buf.src8 = pe.heap().allocate(8, 8);
    buf.dst8 = pe.heap().allocate(8ULL * n, 8);
    buf.src4k = pe.heap().allocate(kBigBlock, 8);
    buf.dst4k = pe.heap().allocate(static_cast<std::uint64_t>(n) * kBigBlock,
                                   8);
    buf.rsrc = pe.heap().allocate(kBigBlock, 8);
    buf.rdst = pe.heap().allocate(kBigBlock, 8);
    // Warm every connection the steps use before timing starts.
    co_await collective_round(ctx, pe, buf, seed, ctx.steps, -1);
    co_await boundary(ctx, pe, -1);
    for (std::uint32_t s = 0; s < ctx.steps; ++s) {
      co_await collective_round(ctx, pe, buf, seed, s, static_cast<int>(s));
      co_await boundary(ctx, pe, static_cast<int>(s));
    }
    co_await pe.finalize();
  };
}

// hybrid: Graph500 BFS from a fresh seeded root, then a 256 KiB MPI ring
// exchange (rendezvous tier).
constexpr std::uint32_t kRingBytes = 256 * 1024;
constexpr std::uint32_t kRingTag = 7;
/// Symmetric heap graph500_pe bump-allocates per call (parents, tail and
/// the 2 * edges + 16 entry queue of 16 B each), rounded up.
constexpr std::uint64_t kGraph500HeapPerCall = 528ULL * 1024;

/// Word k of a ring payload: the sender's seeded base mixed with k.
std::uint64_t ring_word(std::uint64_t base, std::uint32_t k) {
  return base ^ (0x100000001b3ULL * k);
}

Program hybrid_program(JobCtx& ctx, std::uint64_t seed,
                       std::vector<std::unique_ptr<mpi::MpiComm>>& comms,
                       std::vector<std::uint32_t> roots) {
  return [&ctx, seed, &comms, roots](ShmemPe& pe) -> sim::Task<> {
    const std::uint32_t n = pe.n_pes();
    const RankId me = pe.rank();
    mpi::MpiComm& comm = *comms[me];
    co_await timed(ctx, pe, "start_pes", -1, pe.start_pes());
    co_await boundary(ctx, pe, -1);
    for (std::uint32_t s = 0; s < ctx.steps; ++s) {
      apps::Graph500Params params;
      params.seed = mix(seed, 9);
      params.root = roots[s];
      apps::KernelResult result;
      co_await timed(ctx, pe, "bfs", static_cast<int>(s),
                     apps::graph500_pe(pe, comm, params, result));
      if (!result.verified) ctx.fail(s, result.error);

      std::vector<std::byte> out(kRingBytes);
      const std::uint64_t mine = mix(seed, 8, s, me);
      for (std::uint32_t k = 0; k < kRingBytes / 8; ++k) {
        std::uint64_t w = ring_word(mine, k);
        std::memcpy(out.data() + 8ULL * k, &w, 8);
      }
      const RankId left = (me + n - 1) % n;
      int span = me == 0 ? ctx.log->open("ring", ctx.run_span,
                                         static_cast<int>(s), ctx.label,
                                         pe.engine().now())
                         : -1;
      auto request = comm.isend((me + 1) % n, kRingTag, out);
      std::vector<std::byte> in = co_await comm.recv(left, kRingTag);
      (void)co_await comm.wait(request);
      if (span >= 0) ctx.log->close(span, pe.engine().now());
      const std::uint64_t theirs = mix(seed, 8, s, left);
      bool ok = in.size() == kRingBytes;
      for (std::uint32_t k = 0; ok && k < kRingBytes / 8; ++k) {
        std::uint64_t w = 0;
        std::memcpy(&w, in.data() + 8ULL * k, 8);
        ok = w == ring_word(theirs, k);
      }
      if (!ok) {
        ctx.fail(s, "mpi ring payload from pe" + std::to_string(left) +
                        " at pe" + std::to_string(me));
      }
      co_await boundary(ctx, pe, static_cast<int>(s));
    }
    co_await pe.finalize();
  };
}

// ---------------------------------------------------------------------------
// Running one job and summarizing it.

struct JobSpec {
  std::string label;
  shmem::ShmemJobConfig config;
  std::uint32_t steps = 0;
  bool with_mpi = false;
  /// Builds the per-PE program once the job (and its comms) exist.
  std::function<Program(JobCtx&, std::vector<std::unique_ptr<mpi::MpiComm>>&)>
      make_program;
  /// Application payload bytes the workload's own calls move as active
  /// messages (computed from the operation sizes, not counted).
  std::uint64_t am_bytes = 0;
};

struct RepTotals {
  std::uint32_t jobs = 0;
  std::uint32_t jobs_failed = 0;
  std::uint32_t steps = 0;
  std::uint32_t steps_failed = 0;
  double setup_s = 0;
  double run_host_s = 0;
  std::uint64_t events = 0;
  double phase_init = 0, phase_work = 0, phase_finalize = 0;
  double mem_setup_mb = 0, mem_init_mb = 0;
  /// Workload step s: step s of every job of the repetition, summed.
  std::vector<double> step_host_ms{};
  std::uint64_t am_bytes = 0;
  std::map<std::string, std::int64_t> counters{};  // summed over PEs, jobs
  std::map<std::string, sim::Time> phases{};
  std::uint64_t od_reg_heap_bytes = 0;  // heap under on-demand registration
  /// Sums over every PE of every job, for the PE-mean fidelity anchors.
  double pes = 0, pmi_vs = 0, start_pes_vs = 0, endpoints = 0, peers = 0;
  JsonValue handshake = JsonValue::object();
  std::vector<std::string> errors{};
  Digest digest{};
};

void add_fidelity(shmem::ShmemJob& job, RepTotals& totals) {
  for (RankId r = 0; r < job.n_pes(); ++r) {
    ShmemPe& pe = job.pe(r);
    totals.pmi_vs += sim::to_seconds(pe.stats().phase_time("pmi_exchange"));
    totals.start_pes_vs +=
        sim::to_seconds(pe.stats().phase_time("start_pes_total"));
    totals.endpoints += static_cast<double>(pe.endpoints_created());
    totals.peers += static_cast<double>(pe.communicating_peers());
  }
  totals.pes += job.n_pes();
}

void run_job(const JobSpec& spec, bool trace, SpanLog& log,
             RepTotals& totals) {
  JobCtx ctx;
  ctx.label = spec.label;
  ctx.log = &log;
  ctx.steps = spec.steps;
  ctx.step_ok.assign(spec.steps, 1);
  totals.jobs += 1;
  totals.steps += spec.steps;

  int setup_span = log.open("setup", -1, -1, spec.label, 0);
  double t0 = host_now();
  auto engine = std::make_unique<sim::Engine>();
  std::unique_ptr<shmem::ShmemJob> job;
  std::vector<std::unique_ptr<mpi::MpiComm>> comms;
  try {
    job = std::make_unique<shmem::ShmemJob>(*engine, spec.config);
    if (spec.with_mpi) {
      for (RankId r = 0; r < job->n_pes(); ++r) {
        comms.push_back(
            std::make_unique<mpi::MpiComm>(job->conduit_job().conduit(r)));
      }
    }
  } catch (const std::exception& e) {
    log.close(setup_span, 0);
    totals.jobs_failed += 1;
    totals.steps_failed += spec.steps;
    totals.errors.push_back(spec.label + ": construction: " + e.what());
    totals.digest.str(spec.label + ": not constructed");
    return;
  }
  double t1 = host_now();
  log.close(setup_span, 0);
  totals.setup_s += t1 - t0;
  totals.mem_setup_mb = std::max(totals.mem_setup_mb, rss_mb());

  telemetry::Telemetry tel(trace);
  tel.attach(job->conduit_job());

  bool ok = true;
  double run0 = 0, run1 = 0;
  try {
    job->spawn_all(spec.make_program(ctx, comms));
    ctx.run_span = log.open("run", -1, -1, spec.label, engine->now());
    run0 = host_now();
    engine->run();
    run1 = host_now();
    log.close(ctx.run_span, engine->now());
  } catch (const std::exception& e) {
    run1 = host_now();
    ok = false;
    totals.errors.push_back(spec.label + ": " + e.what());
  }
  tel.finish(engine->now());
  tel.detach();

  totals.run_host_s += run1 - run0;
  totals.events += engine->events_executed();
  if (!ctx.first_error.empty()) totals.errors.push_back(ctx.first_error);

  // A step passed when rank 0 reached its closing barrier and every data
  // check of the step held.
  std::uint32_t steps_done =
      ctx.marks.empty() ? 0 : static_cast<std::uint32_t>(ctx.marks.size() - 1);
  for (std::uint32_t s = 0; s < spec.steps; ++s) {
    if (!ok || s >= steps_done || ctx.step_ok[s] == 0) {
      totals.steps_failed += 1;
    }
  }
  totals.step_host_ms.resize(spec.steps, 0.0);
  for (std::size_t i = 1; i < ctx.marks.size(); ++i) {
    totals.step_host_ms[i - 1] += 1e3 * (ctx.marks[i] - ctx.marks[i - 1]);
  }
  totals.am_bytes += spec.am_bytes;
  if (!ok) totals.jobs_failed += 1;
  if (ok && ctx.marks.size() == spec.steps + 1) {
    totals.phase_init += ctx.marks.front() - run0;
    totals.phase_work += ctx.marks.back() - ctx.marks.front();
    totals.phase_finalize += run1 - ctx.marks.back();
  }
  totals.mem_init_mb = std::max(totals.mem_init_mb, ctx.mem_init_mb);

  // Layer counters and virtual phase totals, summed over PEs.
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, sim::Time> phases;
  for (RankId r = 0; r < job->n_pes(); ++r) {
    const sim::StatSet& stats = job->pe(r).stats();
    for (const auto& [name, v] : stats.counters()) counters[name] += v;
    for (const auto& [name, v] : stats.phases()) phases[name] += v;
  }
  for (const auto& [name, v] : counters) totals.counters[name] += v;
  for (const auto& [name, v] : phases) totals.phases[name] += v;
  if (spec.config.shmem.registration == shmem::RegistrationMode::kOnDemand) {
    totals.od_reg_heap_bytes +=
        static_cast<std::uint64_t>(job->n_pes()) * spec.config.shmem.heap_bytes;
  }
  add_fidelity(*job, totals);
  if (const auto* hs = tel.metrics().histogram("conn/handshake_time")) {
    totals.handshake = JsonValue::object();
    totals.handshake.set("p50_vus", sim::to_usec(hs->percentile(50)));
    totals.handshake.set("p99_vus", sim::to_usec(hs->percentile(99)));
    totals.handshake.set("count", hs->count());
  }

  // Virtual-time digest: events, makespan, counters, phases and every
  // rank-0 span of this job.
  Digest& d = totals.digest;
  d.str(spec.label);
  d.u64(ok ? 1 : 0);
  d.u64(engine->events_executed());
  d.u64(engine->now());
  for (const auto& [name, v] : counters) {
    d.str(name);
    d.u64(static_cast<std::uint64_t>(v));
  }
  for (const auto& [name, v] : phases) {
    d.str(name);
    d.u64(v);
  }
  for (const Span& span : log.spans()) {
    if (span.job != spec.label || span.name == "setup") continue;
    d.str(span.name);
    d.u64(static_cast<std::uint64_t>(span.step));
    d.u64(span.v_start);
    d.u64(span.v_end);
  }

  comms.clear();
  job.reset();
  engine.reset();
}

// ---------------------------------------------------------------------------
// Engine-only dispatch probe: no-op callbacks through schedule_at/run that
// capture what the simulator's own callbacks capture (a pointer, or a
// coroutine handle via Engine::delay), at a steady queue depth.

struct ProbeState {
  sim::Engine* engine;
  sim::Rng rng;
  std::uint64_t left;
  std::uint64_t fired = 0;
};

struct Tick {
  ProbeState* st;
  void operator()() const {
    ++st->fired;
    if (st->left == 0) return;
    --st->left;
    st->engine->schedule_at(st->engine->now() + 1 + st->rng.next_below(997),
                            Tick{st});
  }
};

sim::Task<> probe_task(sim::Engine& engine, std::uint64_t hops,
                       std::uint64_t seed) {
  sim::Rng rng(seed);
  for (std::uint64_t i = 0; i < hops; ++i) {
    co_await engine.delay(1 + rng.next_below(997));
  }
}

double dispatch_probe_ns(std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr std::uint64_t kDepth = 512;  // per callback kind
  sim::Engine engine;
  ProbeState st{&engine, sim::Rng(seed), kEvents / 2};
  for (std::uint64_t i = 0; i < kDepth; ++i) {
    engine.schedule_at(1 + st.rng.next_below(997), Tick{&st});
    engine.spawn(probe_task(engine, kEvents / (2 * kDepth), mix(seed, 10, i)));
  }
  double t0 = host_now();
  engine.run();
  double t1 = host_now();
  return 1e9 * (t1 - t0) / static_cast<double>(engine.events_executed());
}

// ---------------------------------------------------------------------------
// Workload definitions.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t steps = 0;
  bool trace = false;
  std::string trace_out;
  std::uint32_t hybrid_cap = 64;
  bool hybrid_on_demand_reg = false;
};

std::vector<JobSpec> workload_jobs(const Args& args) {
  const std::string& workload = args.workload;
  const std::uint64_t seed = args.seed;
  const std::uint32_t steps = args.steps;
  std::vector<JobSpec> jobs;
  if (workload == "startup") {
    constexpr std::uint32_t kPes = 4096;
    constexpr std::uint32_t kPpn = 16;
    // Two 4-byte slot banks of one slot per PE.
    const std::uint64_t heap = 8ULL * kPes;
    auto plan = std::make_shared<StartupPlan>(kPes, steps, seed);
    auto program = [plan](JobCtx& ctx,
                          std::vector<std::unique_ptr<mpi::MpiComm>>&) {
      return startup_program(ctx, plan);
    };
    JobSpec current{"current", base_config(kPes, kPpn, core::current_design(),
                                           heap, seed),
                    steps, false, program};
    JobSpec proposed{"proposed",
                     base_config(kPes, kPpn, core::proposed_design(), heap,
                                 seed),
                     steps, false, program};
    proposed.config.shmem.registration = shmem::RegistrationMode::kOnDemand;
    proposed.config.shmem.reg_chunk_bytes = 4096;
    jobs.push_back(std::move(current));
    jobs.push_back(std::move(proposed));
  } else if (workload == "collective") {
    constexpr std::uint32_t kPes = 128;
    const std::uint64_t heap =
        16ULL + 8ULL * kPes + 3ULL * kBigBlock +
        static_cast<std::uint64_t>(kPes) * kBigBlock + 4096;
    JobSpec spec{"proposed",
                 base_config(kPes, 8, core::proposed_design(), heap, seed),
                 steps, false,
                 [seed](JobCtx& ctx,
                        std::vector<std::unique_ptr<mpi::MpiComm>>&) {
                   return collective_program(ctx, seed);
                 }};
    // Per round (the warm-up round included): two ring fcollects deliver
    // N - 1 blocks to each PE; the reduce tree moves one 4 KiB partial up
    // and one result down per non-root PE.
    const std::uint64_t ring = static_cast<std::uint64_t>(kPes) * (kPes - 1);
    spec.am_bytes = (steps + 1ULL) * (ring * 8 + ring * kBigBlock +
                                      2ULL * (kPes - 1) * kBigBlock);
    jobs.push_back(std::move(spec));
  } else {  // hybrid
    constexpr std::uint32_t kPes = 256;
    core::ConduitConfig conduit = core::proposed_design();
    conduit.max_active_connections = args.hybrid_cap;
    conduit.eager_threshold = 8 * 1024;
    conduit.rendezvous_threshold = 64 * 1024;
    conduit.qp_credits = 16;
    apps::Graph500Params defaults;
    std::vector<std::uint32_t> roots;
    for (std::uint32_t s = 0; s < steps; ++s) {
      roots.push_back(
          static_cast<std::uint32_t>(mix(seed, 11, s) % defaults.vertices));
    }
    // Registration stays eager: MpiComm cannot be built on an on-demand
    // registration job, because its AM handler id collides with the
    // registration protocol's (known defect, see README.md).
    JobSpec spec{"proposed",
                 base_config(kPes, 8, conduit,
                             kGraph500HeapPerCall * steps + 64 * 1024, seed),
                 steps, true,
                 [seed, roots](JobCtx& ctx,
                               std::vector<std::unique_ptr<mpi::MpiComm>>&
                                   comms) {
                   return hybrid_program(ctx, seed, comms, roots);
                 }};
    if (args.hybrid_on_demand_reg) {
      spec.config.shmem.registration = shmem::RegistrationMode::kOnDemand;
    }
    spec.am_bytes = static_cast<std::uint64_t>(steps) * kPes * kRingBytes;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

JsonValue span_json(const Span& span) {
  JsonValue v = JsonValue::object();
  v.set("name", span.name);
  v.set("job", span.job);
  v.set("parent", span.parent);
  v.set("step", span.step);
  v.set("host_start_s", span.host_start);
  v.set("host_end_s", span.host_end);
  v.set("v_start_ns", span.v_start);
  v.set("v_end_ns", span.v_end);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--steps") {
      args.steps = static_cast<std::uint32_t>(std::stoul(value));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--hybrid-cap") {
      args.hybrid_cap = static_cast<std::uint32_t>(std::stoul(value));
    } else if (flag == "--hybrid-registration") {
      if (value != "eager" && value != "on_demand") {
        throw std::invalid_argument("bad --hybrid-registration " + value);
      }
      args.hybrid_on_demand_reg = value == "on_demand";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "startup" && args.workload != "collective" &&
      args.workload != "hybrid") {
    throw std::invalid_argument("--workload must be startup, collective or "
                                "hybrid");
  }
  if (args.steps == 0) throw std::invalid_argument("--steps is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_host: " << e.what() << "\n";
    return 2;
  }

  const double t0 = host_now();
  SpanLog log(t0);
  RepTotals totals;
  const std::vector<JobSpec> jobs = workload_jobs(args);
  for (const JobSpec& spec : jobs) run_job(spec, args.trace, log, totals);
  const double host_s = host_now() - t0;

  JsonValue out = JsonValue::object();
  out.set("workload", args.workload);
  out.set("seed", args.seed);
  out.set("trace", args.trace);
  out.set("jobs", totals.jobs);
  out.set("jobs_failed", totals.jobs_failed);
  out.set("steps", totals.steps);
  out.set("steps_failed", totals.steps_failed);
  JsonValue errors = JsonValue::array();
  for (const auto& e : totals.errors) errors.push(e);
  out.set("errors", std::move(errors));
  out.set("digest", totals.digest.hex());
  out.set("host_s", host_s);
  out.set("setup_s", totals.setup_s);
  out.set("run_host_s", totals.run_host_s);
  out.set("events", totals.events);
  out.set("phase_init_host_s", totals.phase_init);
  out.set("phase_work_host_s", totals.phase_work);
  out.set("phase_finalize_host_s", totals.phase_finalize);
  out.set("mem_setup_mb", totals.mem_setup_mb);
  out.set("mem_init_mb", totals.mem_init_mb);
  JsonValue steps = JsonValue::array();
  for (double ms : totals.step_host_ms) steps.push(ms);
  out.set("step_host_ms", std::move(steps));
  JsonValue counters = JsonValue::object();
  for (const auto& [name, v] : totals.counters) counters.set(name, v);
  out.set("counters", std::move(counters));
  JsonValue phases = JsonValue::object();
  for (const auto& [name, v] : totals.phases) phases.set(name, v);
  out.set("phases_vns", std::move(phases));
  out.set("od_reg_heap_bytes", totals.od_reg_heap_bytes);
  JsonValue fidelity = JsonValue::object();
  const double pes = std::max(totals.pes, 1.0);
  fidelity.set("pmi.exchange_vs", totals.pmi_vs / pes);
  fidelity.set("shmem.start_pes_vs", totals.start_pes_vs / pes);
  fidelity.set("shmem.endpoints_per_pe", totals.endpoints / pes);
  fidelity.set("shmem.peers_per_pe", totals.peers / pes);
  out.set("fidelity", std::move(fidelity));
  out.set("am_bytes", totals.am_bytes);
  out.set("handshake", totals.handshake);

  // Rank-0 operation samples inside steps, in virtual microseconds and
  // host milliseconds, from the repetition's last (proposed-design) job:
  // on startup the current design's puts never touch a cold connection.
  JsonValue ops = JsonValue::object();
  std::map<std::string, std::pair<JsonValue, JsonValue>> samples;
  for (const Span& span : log.spans()) {
    if (span.step < 0 || span.job != jobs.back().label) continue;
    auto& [vus, hms] = samples[span.name];
    if (vus.is_null()) {
      vus = JsonValue::array();
      hms = JsonValue::array();
    }
    vus.push(sim::to_usec(span.v_end - span.v_start));
    hms.push(1e3 * (span.host_end - span.host_start));
  }
  for (auto& [name, pair] : samples) {
    JsonValue op = JsonValue::object();
    op.set("vus", std::move(pair.first));
    op.set("host_ms", std::move(pair.second));
    ops.set(name, std::move(op));
  }
  out.set("ops", std::move(ops));
  out.set("spans", static_cast<std::uint64_t>(log.spans().size()));
  out.set("peak_rss_mb", peak_rss_mb());

  if (args.trace) {
    std::vector<double> probes;
    for (int i = 0; i < 3; ++i) {
      probes.push_back(dispatch_probe_ns(mix(args.seed, 12, i)));
    }
    std::sort(probes.begin(), probes.end());
    out.set("dispatch_ns", probes[1]);
    if (!args.trace_out.empty()) {
      JsonValue spans = JsonValue::array();
      for (const Span& span : log.spans()) spans.push(span_json(span));
      std::ofstream file(args.trace_out);
      spans.write(file, 1);
      if (!file) {
        std::cerr << "perfbench_host: cannot write " << args.trace_out << "\n";
        return 1;
      }
    }
  }
  out.write(std::cout);
  std::cout << "\n";
  return 0;
}
