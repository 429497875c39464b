// ConduitJob: owns the shared substrates and orchestrates per-PE programs.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/conduit.hpp"

namespace odcm::core {

ConduitJob::ConduitJob(sim::Engine& engine, JobConfig config)
    : engine_(engine), config_(config) {
  if (config_.ranks == 0 || config_.ranks_per_node == 0) {
    throw std::invalid_argument("ConduitJob: ranks and ranks_per_node > 0");
  }
  if (config_.conduit.barrier_fanout == 0) {
    throw std::invalid_argument(
        "ConduitJob: conduit.barrier_fanout must be >= 1");
  }
  const ConduitConfig& cc = config_.conduit;
  const bool on_demand = cc.connection_mode == ConnectionMode::kOnDemand;
  if (on_demand && cc.conn_rto == 0) {
    // The backoff doubles a zero timeout forever, so every handshake would
    // burn its whole retry budget at one virtual instant.
    throw std::invalid_argument(
        "ConduitJob: conduit.conn_rto must be > 0 in on-demand mode");
  }
  if (!on_demand && cc.max_active_connections != 0) {
    throw std::invalid_argument(
        "ConduitJob: conduit.max_active_connections is on-demand mode only "
        "and must be 0 in static mode");
  }
  if (!on_demand && cc.pmi_mode == PmiMode::kRing) {
    // The ring disseminates UD endpoints for on-demand handshakes; the
    // static mesh exchanges its QP tables through put/fence/get or
    // iallgather and has no ring path.
    throw std::invalid_argument(
        "ConduitJob: conduit.pmi_mode kRing is on-demand mode only; static "
        "mode takes kBlocking or kNonBlocking");
  }
  if (cc.eager_threshold != 0 && cc.rendezvous_threshold != 0 &&
      cc.rendezvous_threshold <= cc.eager_threshold) {
    // select_tier tests the rendezvous bound first, so the pipelined tier
    // (eager_threshold, rendezvous_threshold] would be empty.
    throw std::invalid_argument(
        "ConduitJob: conduit.rendezvous_threshold must exceed "
        "conduit.eager_threshold when both are set");
  }
  if (cc.tiering_enabled() && cc.bulk_chunk_bytes == 0) {
    throw std::invalid_argument(
        "ConduitJob: conduit.bulk_chunk_bytes must be >= 1 when tiering is "
        "enabled");
  }
  std::uint32_t nodes = (config_.ranks + config_.ranks_per_node - 1) /
                        config_.ranks_per_node;
  config_.fabric.nodes = nodes;
  config_.pmi.ranks = config_.ranks;
  config_.pmi.ranks_per_node = config_.ranks_per_node;

  fabric_ = std::make_unique<fabric::Fabric>(engine_, config_.fabric);
  pmi_ = std::make_unique<pmi::JobManager>(engine_, config_.pmi);

  node_barriers_.reserve(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    node_barriers_.push_back(std::make_unique<NodeBarrier>(engine_));
  }

  if (on_demand) {
    ud_directory_.resize(config_.ranks);
  }
  conduits_.reserve(config_.ranks);
  for (RankId rank = 0; rank < config_.ranks; ++rank) {
    fabric_->hca(node_of(rank)).attach_pe(rank);
    conduits_.push_back(std::make_unique<Conduit>(*this, rank));
  }
}

NodeId ConduitJob::node_of(RankId rank) const {
  if (rank >= config_.ranks) {
    throw std::out_of_range("ConduitJob::node_of: bad rank");
  }
  return rank / config_.ranks_per_node;
}

std::uint32_t ConduitJob::ranks_on_node(NodeId node) const {
  std::uint32_t first = node * config_.ranks_per_node;
  if (first >= config_.ranks) {
    throw std::out_of_range("ConduitJob::ranks_on_node: bad node");
  }
  return std::min(config_.ranks_per_node, config_.ranks - first);
}

Conduit& ConduitJob::conduit(RankId rank) {
  if (rank >= conduits_.size()) {
    throw std::out_of_range("ConduitJob::conduit: bad rank");
  }
  return *conduits_[rank];
}

void ConduitJob::spawn_all(std::function<sim::Task<>(Conduit&)> body) {
  auto shared_body =
      std::make_shared<std::function<sim::Task<>(Conduit&)>>(std::move(body));
  auto join = std::make_shared<sim::JoinCounter>(engine_);
  join->add(config_.ranks);
  for (RankId rank = 0; rank < config_.ranks; ++rank) {
    engine_.spawn(
        [](ConduitJob& job, RankId r,
           std::shared_ptr<std::function<sim::Task<>(Conduit&)>> fn,
           std::shared_ptr<sim::JoinCounter> barrier) -> sim::Task<> {
          co_await (*fn)(job.conduit(r));
          barrier->finish();
          // Finalize only after every PE finished its program, so no one
          // tears down QPs a peer is still using.
          co_await barrier->wait();
          co_await job.conduit(r).finalize();
        }(*this, rank, shared_body, join));
  }
}

void ConduitJob::add_observer(ProtocolObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) ==
      observers_.end()) {
    observers_.push_back(observer);
  }
}

void ConduitJob::remove_observer(ProtocolObserver* observer) {
  observers_.erase(std::remove(observers_.begin(),
                                     observers_.end(), observer),
                         observers_.end());
}

void ConduitJob::verify_ud_round(std::uint32_t round,
                                 std::span<const std::string> values) {
  if (ud_verified_round_ == round) return;
  for (RankId r = 0; r < values.size(); ++r) {
    if (decode_endpoint(values[r]) != ud_endpoint(r)) {
      throw std::logic_error("ConduitJob: the iallgather endpoint of rank " +
                             std::to_string(r) +
                             " differs from the one it published");
    }
  }
  ud_verified_round_ = round;
}

sim::StatSet ConduitJob::aggregate_stats() const {
  sim::StatSet total;
  for (const auto& conduit : conduits_) {
    total.merge(conduit->stats_);
  }
  return total;
}

}  // namespace odcm::core
