#include "core/observer.hpp"

namespace odcm::core {

std::string format(const ProtocolEvent& event) {
  std::string out = "t=" + std::to_string(event.time) + " pe" +
                    std::to_string(event.self) +
                    " peer=" + std::to_string(event.peer) + " ";
  if (event.kind == ProtocolEvent::Kind::kPhaseChange) {
    out += to_string(event.from);
    out += "->";
    out += to_string(event.to);
    out += " role=";
    out += to_string(event.role);
    return out;
  }
  out += to_string(event.kind);
  if (event.attempt != 0) out += " attempt=" + std::to_string(event.attempt);
  if (event.detail != 0) out += " detail=" + std::to_string(event.detail);
  return out;
}

}  // namespace odcm::core
