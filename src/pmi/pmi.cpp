#include "pmi/pmi.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace odcm::pmi {

JobManager::JobManager(sim::Engine& engine, PmiConfig config)
    : engine_(engine), config_(config) {
  if (config_.ranks == 0 || config_.ranks_per_node == 0) {
    throw std::invalid_argument("JobManager: ranks and ranks_per_node > 0");
  }
  if (config_.tree_fanout < 2) {
    throw std::invalid_argument("JobManager: tree_fanout must be >= 2");
  }
  sim::require_rate(config_.ipc_bytes_per_ns,
                    "JobManager: pmi.ipc_bytes_per_ns");
  sim::require_rate(config_.oob_bytes_per_ns,
                    "JobManager: pmi.oob_bytes_per_ns");
  nodes_ = (config_.ranks + config_.ranks_per_node - 1) /
           config_.ranks_per_node;
  daemon_free_.assign(nodes_, 0);
  clients_.reserve(config_.ranks);
  for (RankId rank = 0; rank < config_.ranks; ++rank) {
    clients_.push_back(std::make_unique<PmiClient>(*this, rank));
  }
}

JobManager::~JobManager() = default;

NodeId JobManager::node_of(RankId rank) const {
  if (rank >= config_.ranks) {
    throw std::out_of_range("JobManager::node_of: bad rank");
  }
  return rank / config_.ranks_per_node;
}

PmiClient& JobManager::client(RankId rank) {
  if (rank >= clients_.size()) {
    throw std::out_of_range("JobManager::client: bad rank");
  }
  return *clients_[rank];
}

std::uint32_t JobManager::tree_depth() const {
  std::uint32_t depth = 1;
  std::uint64_t covered = config_.tree_fanout;
  while (covered < nodes_) {
    covered *= config_.tree_fanout;
    ++depth;
  }
  return depth;
}

sim::Time JobManager::reserve_daemon(NodeId node, sim::Time busy) {
  sim::Time start = std::max(engine_.now(), daemon_free_[node]);
  daemon_free_[node] = start + busy;
  return start + busy;
}

sim::Time JobManager::fence_cost(std::uint64_t bytes,
                                 std::uint64_t entries) const {
  std::uint32_t depth = tree_depth();
  // Gather up + broadcast down the tree; the root serializes `fanout`
  // copies of the full store on the way back down.
  auto wire = static_cast<sim::Time>(
      static_cast<double>(bytes) * config_.tree_fanout /
      config_.oob_bytes_per_ns);
  return 2 * depth * config_.oob_latency + wire +
         entries * config_.fence_per_entry;
}

sim::Time JobManager::allgather_cost(std::uint64_t bytes,
                                     std::uint64_t entries) const {
  std::uint32_t depth = tree_depth();
  auto wire = static_cast<sim::Time>(
      static_cast<double>(bytes) * config_.tree_fanout /
      config_.oob_bytes_per_ns);
  return 2 * depth * config_.oob_latency + wire +
         entries * config_.allgather_per_entry;
}

JobManager::Round& JobManager::fence_round(std::uint32_t index) {
  while (fence_rounds_.size() <= index) {
    fence_rounds_.push_back(std::make_unique<Round>(engine_));
  }
  return *fence_rounds_[index];
}

JobManager::Round& JobManager::ring_round(std::uint32_t index) {
  while (ring_rounds_.size() <= index) {
    auto round = std::make_unique<Round>(engine_);
    round->values.resize(config_.ranks);
    ring_rounds_.push_back(std::move(round));
  }
  return *ring_rounds_[index];
}

void JobManager::arrive_ring(std::uint32_t index, RankId rank,
                             std::string value) {
  Round& round = ring_round(index);
  if (round.completed) {
    throw std::logic_error("JobManager: ring round already completed");
  }
  round.values[rank] = std::move(value);
  if (++round.arrived < config_.ranks) {
    return;
  }
  // Constant per-rank data movement: the ring exchange costs one daemon
  // tree traversal plus per-hop neighbor delivery, independent of N.
  std::uint64_t bytes = 0;
  for (const auto& contribution : round.values) bytes += contribution.size();
  // Each value moves to exactly two neighbors.
  stats_.add("pmi/oob_bytes", static_cast<std::int64_t>(bytes));
  sim::Time cost = 2 * tree_depth() * config_.oob_latency +
                   4 * config_.oob_latency;
  engine_.schedule_after(cost, [this, index] {
    Round& round = ring_round(index);
    round.completed = true;
    round.gate.open();
  });
}

JobManager::Round& JobManager::allgather_round(std::uint32_t index) {
  while (allgather_rounds_.size() <= index) {
    auto round = std::make_unique<Round>(engine_);
    round->values.resize(config_.ranks);
    allgather_rounds_.push_back(std::move(round));
  }
  return *allgather_rounds_[index];
}

void JobManager::arrive_fence(std::uint32_t index) {
  Round& round = fence_round(index);
  if (round.completed) {
    throw std::logic_error("JobManager: fence round already completed");
  }
  if (++round.arrived < config_.ranks) {
    return;
  }
  // Last arrival: snapshot the staged entries and run the dissemination.
  auto flushing = std::make_shared<std::map<std::string, std::string>>(
      std::move(staged_));
  staged_.clear();
  std::uint64_t bytes = staged_bytes_;
  staged_bytes_ = 0;
  std::uint64_t entries = flushing->size();
  stats_.add("pmi/oob_bytes",
             static_cast<std::int64_t>(bytes * 2 * tree_depth()));
  engine_.schedule_after(fence_cost(bytes, entries),
                         [this, index, flushing] {
                           for (auto& [key, value] : *flushing) {
                             visible_[key] = std::move(value);
                           }
                           Round& round = fence_round(index);
                           round.completed = true;
                           ++fences_completed_;
                           round.gate.open();
                         });
}

void JobManager::arrive_allgather(std::uint32_t index,
                                  std::uint64_t value_bytes) {
  Round& round = allgather_round(index);
  if (round.completed) {
    throw std::logic_error("JobManager: allgather round already completed");
  }
  round.bytes += value_bytes;
  if (++round.arrived < config_.ranks) {
    return;
  }
  const std::uint64_t bytes = round.bytes;
  stats_.add("pmi/oob_bytes",
             static_cast<std::int64_t>(bytes * 2 * tree_depth()));
  engine_.schedule_after(allgather_cost(bytes, config_.ranks),
                         [this, index] {
                           Round& round = allgather_round(index);
                           round.completed = true;
                           round.gate.open();
                         });
}

PmiClient::PmiClient(JobManager& manager, RankId rank)
    : manager_(manager), rank_(rank), node_(manager.node_of(rank)) {}

sim::Task<> PmiClient::put(std::string key, std::string value) {
  co_await charge_put(key, value.size());
  // Nothing runs between `charge_put` staging the entry and this store.
  manager_.staged_[key] = std::move(value);
}

sim::Task<> PmiClient::charge_put(std::string key,
                                  std::uint64_t value_bytes) {
  const PmiConfig& cfg = manager_.config();
  const std::uint64_t bytes = key.size() + value_bytes;
  manager_.stats_.add("pmi/puts");
  manager_.stats_.add("pmi/put_bytes", static_cast<std::int64_t>(bytes));
  auto busy = cfg.put_overhead +
              static_cast<sim::Time>(static_cast<double>(bytes) /
                                     cfg.ipc_bytes_per_ns);
  sim::Time done = manager_.reserve_daemon(node_, busy);
  co_await manager_.engine().delay(done - manager_.engine().now());
  manager_.staged_bytes_ += bytes;
  manager_.staged_[std::move(key)].clear();
}

sim::Task<std::optional<std::string>> PmiClient::get(std::string key) {
  const PmiConfig& cfg = manager_.config();
  manager_.stats_.add("pmi/gets");
  // The reply size is not known until the lookup; charge for the key on the
  // request and for the value on the reply.
  sim::Time done = manager_.reserve_daemon(
      node_, cfg.get_overhead +
                 static_cast<sim::Time>(static_cast<double>(key.size()) /
                                        cfg.ipc_bytes_per_ns));
  co_await manager_.engine().delay(done - manager_.engine().now());
  auto it = manager_.visible_.find(key);
  if (it == manager_.visible_.end()) {
    co_return std::nullopt;
  }
  std::string value = it->second;
  co_await manager_.engine().delay(static_cast<sim::Time>(
      static_cast<double>(value.size()) / cfg.ipc_bytes_per_ns));
  co_return value;
}

sim::Task<> PmiClient::charge_gets(std::uint64_t count,
                                   std::uint64_t value_bytes) {
  const PmiConfig& cfg = manager_.config();
  auto per_get = cfg.get_overhead +
                 static_cast<sim::Time>(static_cast<double>(value_bytes) /
                                        cfg.ipc_bytes_per_ns);
  sim::Time done = manager_.reserve_daemon(node_, count * per_get);
  co_await manager_.engine().delay(done - manager_.engine().now());
}

sim::Task<> PmiClient::fence() {
  CollectiveTicket ticket = ifence_start();
  co_await wait(ticket);
}

CollectiveTicket PmiClient::ifence_start() {
  std::uint32_t index = next_fence_++;
  manager_.stats_.add("pmi/fences_started");
  manager_.arrive_fence(index);
  return CollectiveTicket{index};
}

sim::Task<> PmiClient::wait(CollectiveTicket ticket) {
  co_await manager_.fence_round(ticket.round).gate.wait();
}

CollectiveTicket PmiClient::iallgather_start(std::string value) {
  CollectiveTicket ticket = iallgather_start(std::uint64_t{value.size()});
  // The round cannot complete before the engine runs again.
  manager_.allgather_round(ticket.round).values[rank_] = std::move(value);
  return ticket;
}

CollectiveTicket PmiClient::iallgather_start(std::uint64_t value_bytes) {
  std::uint32_t index = next_allgather_++;
  manager_.stats_.add("pmi/iallgathers_started");
  manager_.arrive_allgather(index, value_bytes);
  return CollectiveTicket{index};
}

sim::Task<std::pair<std::string, std::string>> PmiClient::ring(
    std::string value) {
  std::uint32_t index = next_ring_++;
  manager_.stats_.add("pmi/rings");
  manager_.arrive_ring(index, rank_, std::move(value));
  JobManager::Round& round = manager_.ring_round(index);
  co_await round.gate.wait();
  const PmiConfig& cfg = manager_.config();
  std::uint32_t n = manager_.ranks();
  RankId left = (rank_ + n - 1) % n;
  RankId right = (rank_ + 1) % n;
  std::uint64_t bytes = round.values[left].size() +
                        round.values[right].size();
  sim::Time done = manager_.reserve_daemon(
      node_, cfg.get_overhead +
                 static_cast<sim::Time>(static_cast<double>(bytes) /
                                        cfg.ipc_bytes_per_ns));
  co_await manager_.engine().delay(done - manager_.engine().now());
  co_return std::make_pair(round.values[left], round.values[right]);
}

sim::Task<std::span<const std::string>> PmiClient::iallgather_wait(
    CollectiveTicket ticket) {
  JobManager::Round& round = manager_.allgather_round(ticket.round);
  co_await round.gate.wait();
  // Bulk delivery of the gathered table over local IPC, serialized on the
  // node daemon.
  const PmiConfig& cfg = manager_.config();
  sim::Time done = manager_.reserve_daemon(
      node_, cfg.get_overhead +
                 static_cast<sim::Time>(static_cast<double>(round.bytes) /
                                        cfg.ipc_bytes_per_ns));
  co_await manager_.engine().delay(done - manager_.engine().now());
  co_return round.values;
}

}  // namespace odcm::pmi
