// The conduit: active messages, RMA, and — the paper's contribution —
// on-demand connection management with piggybacked upper-layer payloads.
//
// One `Conduit` per PE, playing the role GASNet's ibv/mvapich2x conduits
// play under OpenSHMEM. The `ConduitJob` owns the shared substrates (fabric,
// PMI job manager) and the per-node structures (intra-node barriers).
//
// Connection establishment (on-demand mode) follows Fig. 4 of the paper:
//
//   client                                server
//   ------                                ------
//   create RC QP (RESET→INIT)
//   ConnectRequest(lid, qpn, payload) --->
//                                         create RC QP (RESET→INIT)
//                                         set_remote; INIT→RTR→RTS
//                                         consume payload
//   <--- ConnectReply(lid, qpn, payload)
//   set_remote; INIT→RTR→RTS
//   consume payload
//
// The request travels over UD, so the client retransmits on timeout; the
// server dedupes by peer state and re-sends a cached reply when the reply
// itself was lost. Simultaneous requests (collision) resolve
// deterministically: the request from the lower-ranked PE is served, the
// higher-ranked PE's own attempt is absorbed into its server role.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/lru.hpp"
#include "core/observer.hpp"
#include "core/rank_index.hpp"
#include "core/wire.hpp"
#include "fabric/fabric.hpp"
#include "pmi/pmi.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace odcm::core {

using fabric::NodeId;
using fabric::RankId;

class ConduitJob;

/// PMI key under which `rank` publishes its UD endpoint (blocking PMI mode).
[[nodiscard]] std::string ud_endpoint_key(RankId rank);

/// Handler invoked for each received active message. Handlers may suspend;
/// each invocation runs as its own task.
using AmHandler =
    std::function<sim::Task<>(RankId src, std::vector<std::byte> payload)>;

/// Provider of the opaque payload appended to connection request/reply
/// packets (OpenSHMEM: serialized segment triplets, §IV-C). `peer` is the
/// rank the packet is addressed to, so upper layers that piggyback
/// peer-specific state (the on-demand registration mode records the peer
/// as a sharer of every rkey it hands out) know who will consume it.
using PayloadProvider = std::function<std::vector<std::byte>(RankId peer)>;
/// Consumer of the peer's piggybacked payload.
using PayloadConsumer =
    std::function<void(RankId peer, std::span<const std::byte> payload)>;

/// First active-message handler id available to upper layers; smaller ids
/// are reserved for conduit-internal protocols (barrier).
inline constexpr std::uint16_t kFirstUserHandler = 16;

/// Every upper-layer AM handler id is assigned here, in one place, so two
/// layers sharing a conduit can never claim the same id. Applications and
/// tests take ids above the last of them.
/// OpenSHMEM collectives data plane (kinds multiplexed inside).
inline constexpr std::uint16_t kShmemCollDataHandler = kFirstUserHandler;
/// OpenSHMEM symmetric-segment exchange.
inline constexpr std::uint16_t kShmemSegInfoHandler = kFirstUserHandler + 1;
/// OpenSHMEM on-demand registration protocol (rkey faults /
/// invalidations); only registered when `ShmemConfig::registration ==
/// kOnDemand`.
inline constexpr std::uint16_t kShmemRegHandler = kFirstUserHandler + 2;
/// MPI point-to-point, rendezvous and collectives.
inline constexpr std::uint16_t kMpiHandler = kFirstUserHandler + 3;

namespace detail {
constexpr bool distinct_ids(std::initializer_list<std::uint16_t> ids) {
  for (const std::uint16_t* a = ids.begin(); a != ids.end(); ++a) {
    for (const std::uint16_t* b = a + 1; b != ids.end(); ++b) {
      if (*a == *b) return false;
    }
  }
  return true;
}
}  // namespace detail
static_assert(detail::distinct_ids({kShmemCollDataHandler,
                                    kShmemSegInfoHandler, kShmemRegHandler,
                                    kMpiHandler}),
              "upper-layer AM handler ids must be distinct");

/// Conduit-internal AM id of the rendezvous RTS/CTS exchange. Internal
/// handlers never consume flow-control credits, so a rendezvous handshake
/// (or an eviction notice) can always make progress even when the data
/// window toward the peer is exhausted.
inline constexpr std::uint16_t kRendezvousHandler = 5;

/// Which data path a transfer of a given size takes (DESIGN.md §5.17).
enum class BulkTier : std::uint8_t { kEager, kPipelined, kRendezvous };

/// One target-resolved span of a rendezvous transfer: where the data lands
/// (or is read from) and under which rkey. On-demand registration answers
/// with one range per pinned chunk; eager registration with a single range.
struct RdvRange {
  fabric::VirtAddr va = 0;
  std::uint64_t len = 0;
  fabric::RKey rkey = 0;
};

/// Target-side hook resolving an RTS into the sink ranges the CTS will
/// carry. May suspend (the on-demand registration mode pins cold chunks
/// here — the "RTS triggers a chunk fault" composition). When absent the
/// CTS echoes `(raddr, len)` with rkey 0.
using RendezvousSink = std::function<sim::Task<std::vector<RdvRange>>(
    RankId src, RdvOp op, fabric::VirtAddr raddr, std::uint64_t len)>;

/// Initiator-side hook run when the CTS arrives, before any data moves.
/// Returning false aborts the transfer (`rendezvous` returns false and
/// the caller retries with a fresh RTS) — the on-demand registration mode
/// uses this to reject a CTS whose rkeys lost a race with an invalidation.
using OnCts = std::function<bool(const std::vector<RdvRange>& ranges)>;

class Conduit {
 public:
  Conduit(ConduitJob& job, RankId rank);
  ~Conduit();
  Conduit(const Conduit&) = delete;
  Conduit& operator=(const Conduit&) = delete;

  [[nodiscard]] RankId rank() const noexcept { return rank_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::uint32_t size() const noexcept;
  [[nodiscard]] ConduitJob& job() noexcept { return job_; }
  [[nodiscard]] const ConduitConfig& config() const noexcept;
  [[nodiscard]] fabric::Hca& hca();
  [[nodiscard]] pmi::PmiClient& pmi();
  [[nodiscard]] sim::Engine& engine();

  // ---- lifecycle ----

  /// Bring up the conduit according to the configured connection/PMI mode.
  /// Static mode connects to every peer here; on-demand mode only creates
  /// the UD endpoint and publishes it.
  [[nodiscard]] sim::Task<> init();

  /// Tear down connections (charging QP destruction) and stop listeners.
  /// Must run after every PE finished application communication.
  [[nodiscard]] sim::Task<> finalize();

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }

  // ---- connection-payload hooks (§IV-C) ----

  /// Install the opaque payload provider/consumer used on connection
  /// packets. Must be called before communication with a peer.
  void set_payload_hooks(PayloadProvider provider, PayloadConsumer consumer);

  /// Declare the upper layer ready to serve incoming connections (its
  /// segments are registered). Until then incoming requests are held
  /// (paper §IV-E: the reply is delayed, the client retransmits).
  void set_ready();

  // ---- active messages (core API) ----

  /// Register `handler` under `id` (>= kFirstUserHandler).
  void register_handler(std::uint16_t id, AmHandler handler);

  /// Send an active message; establishes the connection on demand.
  /// Same-node destinations are routed over the shm transport when
  /// `intranode_transport == kShm` (no connection involved). `payload` is
  /// sealed in place and handed to the receiving handler as the same
  /// buffer; reserve `AmPacket::kTrailerSize` spare bytes to keep the
  /// seal from reallocating.
  [[nodiscard]] sim::Task<> am_send(RankId dst, std::uint16_t handler,
                                    std::vector<std::byte> payload);

  // ---- intra-node shared-memory transport (transport selection) ----

  /// True when traffic toward `dst` rides the shm transport: same node and
  /// `intranode_transport == kShm`. Such peers never handshake, never bind
  /// an RC QP, and never occupy an LRU slot or connection-cap budget.
  [[nodiscard]] bool shm_routes(RankId dst) const;

  /// Cross-map `[base, base + len)` of this PE's segment into the node's
  /// shm domain (charges `shm_attach_cost`; no-op when the shm transport
  /// is disabled). The upper layer calls this during its node-local
  /// bootstrap, before any same-node peer may address the segment.
  [[nodiscard]] sim::Task<> shm_export(fabric::AddressSpace& space,
                                       fabric::VirtAddr base,
                                       std::uint64_t len);

  // ---- RMA (extended API) ----

  /// RC QP connected to `dst`, establishing the connection if needed.
  [[nodiscard]] sim::Task<fabric::QueuePair*> connected_qp(RankId dst);

  /// One RMA toward `dst` (DESIGN.md §5.20). A same-node peer under the
  /// shm transport gets a copy through the node's shm domain (`rkey` is
  /// unused); any other peer gets the credited RC loop: connect on demand,
  /// take a flow-control credit, report kRdmaIssued, post the verb, and
  /// return the credit on every path. `wr`'s spans must stay valid until
  /// the returned task completes.
  [[nodiscard]] sim::Task<fabric::Completion> rma(RankId dst,
                                                  fabric::VirtAddr raddr,
                                                  fabric::RKey rkey,
                                                  fabric::RmaRequest wr);
  /// `rma` with an atomic request (`op`, `operand`, `compare` as in
  /// `fabric::apply_atomic`).
  [[nodiscard]] sim::Task<fabric::Completion> atomic(
      RankId dst, fabric::VirtAddr raddr, fabric::RKey rkey,
      fabric::WcOpcode op, std::uint64_t operand, std::uint64_t compare = 0);

  // ---- large-message tiering + flow control (DESIGN.md §5.17) ----

  /// The tier a transfer of `len` bytes takes under the current config.
  /// With both thresholds 0 (the default) everything is kEager.
  [[nodiscard]] BulkTier select_tier(std::uint64_t len) const noexcept {
    const ConduitConfig& cfg = config();
    if (cfg.rendezvous_threshold != 0 && len > cfg.rendezvous_threshold) {
      return BulkTier::kRendezvous;
    }
    if (cfg.eager_threshold != 0 && len > cfg.eager_threshold) {
      return BulkTier::kPipelined;
    }
    return BulkTier::kEager;
  }

  /// Install the target-side rendezvous sink resolver (upper layer).
  void set_rendezvous_sink(RendezvousSink sink) {
    rendezvous_sink_ = std::move(sink);
  }

  /// Rendezvous transfer of a write or read `wr`: RTS → (target posts
  /// sink) → CTS → fragment stream. Returns false when `on_cts` rejected
  /// the grant (caller retries).
  [[nodiscard]] sim::Task<bool> rendezvous(RankId dst, fabric::VirtAddr raddr,
                                           fabric::RmaRequest wr,
                                           OnCts on_cts = {});

  /// Pipelined (mid-tier) transfer of a write or read `wr`: split into
  /// `bulk_chunk_bytes` fragments streamed under the credit window (no
  /// RTS/CTS round trip).
  [[nodiscard]] sim::Task<> fragmented(RankId dst, fabric::VirtAddr raddr,
                                       fabric::RKey rkey,
                                       fabric::RmaRequest wr);

  /// Acquire one flow-control credit toward `dst`, suspending while the
  /// window is exhausted. Returns the credit epoch to pass to
  /// `release_credit`, or nullopt when the connection was torn down during
  /// the stall (the caller must loop back through `connected_qp`). With
  /// `qp_credits == 0` this returns immediately without suspending.
  [[nodiscard]] sim::Task<std::optional<std::uint32_t>> acquire_credit(
      RankId dst);
  void release_credit(RankId dst, std::uint32_t epoch);

  // ---- barriers ----

  /// Barrier across all PEs. With the rc intra-node transport this is an
  /// AM tree over every rank; with shm it is hierarchical — PEs arrive at
  /// the node barrier over shared memory and only node leaders run the AM
  /// tree, so same-node pairs never consume RC connections.
  /// Tree barrier over active messages across all PEs (forces O(fanout)
  /// connections per PE in on-demand mode).
  [[nodiscard]] sim::Task<> barrier_global();

  /// Shared-memory barrier among the PEs of this node (§IV-E).
  [[nodiscard]] sim::Task<> barrier_intranode();

  /// The barrier used during initialization, per `init_barrier_mode`.
  [[nodiscard]] sim::Task<> barrier_init();

  // ---- accounting (Figs 1, 5, 9; Table I) ----

  [[nodiscard]] sim::StatSet& stats() noexcept { return stats_; }
  [[nodiscard]] const sim::StatSet& stats() const noexcept { return stats_; }
  /// Number of peers this PE holds an established connection to.
  [[nodiscard]] std::uint64_t connected_peer_count() const;
  /// Number of distinct peers this PE reached over the shm transport.
  [[nodiscard]] std::uint64_t shm_peer_count() const noexcept {
    return shm_peer_count_;
  }
  /// IB endpoints (QPs) this PE created, including bulk-modeled ones.
  [[nodiscard]] std::uint64_t endpoints_created() const;
  /// Connection phase / role toward `rank` (diagnostics and checkers).
  [[nodiscard]] PeerPhase peer_phase(RankId rank) const;
  [[nodiscard]] PeerRole peer_role(RankId rank) const;
  /// Evicted-but-not-yet-destroyed QPs currently parked (diagnostics; under
  /// eviction churn this stays bounded because drain resolution reclaims).
  [[nodiscard]] std::size_t retired_qp_count() const noexcept {
    return retired_qps_.size();
  }
  /// Whether this PE has learned `rank`'s UD endpoint (on-demand mode).
  [[nodiscard]] bool knows_ud_endpoint(RankId rank) const noexcept {
    return ud_learned_.contains(rank);
  }
  /// Number of peers this PE holds a connection slot for (any phase).
  [[nodiscard]] std::size_t touched_peer_count() const noexcept {
    return peer_slots_.size();
  }
  /// Heap bytes of this PE's per-peer state: the learned-endpoint set, the
  /// peer index and slots, and the shm first-contact bits (DESIGN.md §5.21).
  [[nodiscard]] std::size_t memory_footprint() const noexcept;

  /// Report an upper-layer protocol event (e.g. the shmem registration
  /// protocol's kReg* kinds) into the job-wide observer stream. `self` and
  /// `time` are filled in here, exactly like conduit-internal events.
  void report_event(ProtocolEvent event) { notify(event); }

 private:
  friend class ConduitJob;

  struct Peer {
    // Aliases keep the historical `Peer::Phase` / `Peer::Role` spelling;
    // the enums live in observer.hpp so protocol observers can see them.
    using Role = PeerRole;
    using Phase = PeerPhase;
    RankId rank = 0;  // dense key; set once when the slot is created
    Role role = Role::kNone;
    Phase phase = Phase::kIdle;
    fabric::QueuePair* qp = nullptr;
    std::unique_ptr<sim::Gate> established{};
    std::unique_ptr<sim::Gate> drained{};  // opened when the drain acks
    fabric::UdPayload cached_reply{};      // server: resent on dup request
    fabric::EndpointAddr reply_to{};       // client's UD endpoint
    sim::Time last_used = 0;               // LRU clock for eviction
    /// The peer sent a disconnect notice while our side of the handshake
    /// was still completing; honor it as soon as we reach kConnected —
    /// but only if the connection we end up with is the one the notice
    /// named (`drain_notice_qpn` is the peer QP the notice was sent
    /// from). If the handshake instead completes a *newer* epoch (the
    /// peer served our retransmitted request after its drain resolved),
    /// the notice is stale and must be dropped, or we would tear down a
    /// live connection and desynchronize the two sides for good.
    bool remote_drain_pending = false;
    fabric::Qpn drain_notice_qpn = 0;
    /// Bumped every time ensure_connected spawns a client_connect for
    /// this slot. The coroutine re-checks it after every suspension: if
    /// the slot was taken over, torn down, and re-initiated while the
    /// coroutine slept (long backoff windows make this real), the stale
    /// coroutine must stand down instead of double-driving the slot.
    std::uint32_t connect_serial = 0;
    /// Most recently retired (evicted, not yet destroyed) QP of this slot;
    /// reclaimed when the drain resolves (see `reclaim_retired`).
    fabric::QueuePair* retired_qp = nullptr;
    /// Bumped when a client handshake fails after exhausting its retry
    /// budget; waiters parked in `ensure_connected` compare epochs across
    /// their wait and rethrow `fail_reason` (the slot itself returns to
    /// kIdle so a later attempt can retry).
    std::uint32_t fail_epoch = 0;
    std::string fail_reason{};
    /// Flow-control window toward this peer (DESIGN.md §5.17): granted in
    /// full when the connection reaches kConnected, consumed per send,
    /// returned on completion. Leaving kConnected flushes the pool (the
    /// "evicted QP returns its credits" rule) and bumps `credit_epoch` so
    /// stragglers releasing after the teardown are accounted separately
    /// instead of leaking into the next epoch's window.
    std::uint32_t credit_pool = 0;
    std::uint32_t credit_epoch = 0;
    std::unique_ptr<sim::Trigger> credit_free{};
    // Intrusive (last_used, rank)-ordered list of kConnected peers; the
    // head is the eviction victim (core/lru.hpp).
    Peer* lru_prev = nullptr;
    Peer* lru_next = nullptr;
    bool in_lru = false;
  };

  Peer& peer(RankId rank);
  /// The peer slot for `rank`, or nullptr if never touched (const paths).
  [[nodiscard]] const Peer* find_peer(RankId rank) const noexcept;
  /// Every touched peer slot in ascending rank order (deterministic;
  /// finalize tears connections down in rank order). O(k log k) in the
  /// touched peers, never O(N).
  [[nodiscard]] std::vector<Peer*> peers_by_rank();

  /// Report `event` (with `self` and `time` filled in) to the job's protocol
  /// observers.
  void notify(ProtocolEvent event);
  /// Move `peer_rank`'s state machine to `next`, reporting the transition.
  /// Every phase mutation must go through here so observers see the full
  /// event stream.
  void set_phase(RankId peer_rank, Peer& p, PeerPhase next);

  // Listener loops (detached root tasks).
  sim::Task<> ud_listener();
  sim::Task<> srq_listener();

  // Connection protocol.
  [[nodiscard]] sim::Task<> ensure_connected(RankId dst);
  sim::Task<> client_connect(RankId dst, std::uint32_t serial);
  sim::Task<> self_connect();
  void handle_conn_request(ConnectPacket packet,
                           fabric::EndpointAddr reply_to);
  sim::Task<> serve_request(RankId src, fabric::EndpointAddr client_addr,
                            std::vector<std::byte> payload,
                            fabric::EndpointAddr reply_to, bool collision);
  void handle_conn_reply(ConnectPacket packet);
  sim::Task<> finish_client(RankId src, fabric::EndpointAddr server_addr,
                            std::vector<std::byte> payload);
  static void open_established(sim::Engine& engine, Peer& peer);

  // UD endpoint resolution through PMI.
  sim::Task<> publish_ud_endpoint();
  sim::Task<fabric::EndpointAddr> resolve_ud(RankId dst);
  /// Learn `rank`'s endpoint as PMI (or the ring) delivered it: it must
  /// equal the job directory's entry.
  void learn_ud(RankId rank, fabric::EndpointAddr addr);
  /// Ring bootstrap: forward the UD endpoint table around the IB ring
  /// (N-1 hops over the RC connection to the right neighbor).
  sim::Task<> ring_distribute();
  struct RingEntry {
    RankId rank;
    fabric::EndpointAddr addr;
  };

  // Adaptive connection management (eviction).
  [[nodiscard]] std::uint64_t active_connection_count() const {
    return connected_count_;
  }
  void maybe_evict(RankId just_connected);
  /// Send the eviction notice over `qp`, the QP of the epoch being
  /// evicted (captured when the eviction was decided).
  sim::Task<> evict_connection(RankId victim, fabric::QueuePair* qp);
  void retire_qp(RankId rank, Peer& peer);
  /// Destroy the slot's retired QP once its work queue drains (called at
  /// the drain-resolution points, so `retired_qps_` stays bounded under
  /// eviction churn instead of growing until finalize).
  void reclaim_retired(Peer& peer);
#ifndef NDEBUG
  /// Reference implementation of victim selection (the historical O(N)
  /// scan); the LRU list must agree with it on every eviction.
  [[nodiscard]] Peer* debug_reference_victim(RankId just_connected);
#endif
  /// `notice_qpn` is the peer QP the notice arrived from; it identifies
  /// the connection epoch being drained (QPNs are never reused) so stale
  /// notices from an already-resolved epoch can be discarded.
  void handle_disconnect_notice(RankId src, fabric::Qpn notice_qpn);
  void handle_disconnect_ack(RankId src);
  /// The peer-side QPN of the epoch this slot currently holds: the live
  /// QP's remote if bound, else the retired (draining) QP's remote.
  [[nodiscard]] static fabric::Qpn current_remote_qpn(const Peer& p);
  /// Retire our side and ack the peer's eviction notice.
  void perform_passive_drain(RankId src);
  /// Post-establishment bookkeeping shared by client/server completion:
  /// honor a deferred remote drain, else run the eviction policy.
  void after_established(RankId src);

  // Intra-node shm transport internals.
  [[nodiscard]] fabric::ShmDomain& shm_domain();
  /// Deliver an AM to a same-node peer through its SRQ after charging the
  /// shm cost model — dispatch stays transport-independent.
  sim::Task<> shm_am_send(RankId dst, std::uint16_t handler,
                          std::vector<std::byte> payload);
  /// The shm half of `rma`: charge the shm cost model, then carry `wr`
  /// out on the cross-mapped target bytes.
  sim::Task<fabric::Completion> shm_rma(RankId dst, fabric::VirtAddr raddr,
                                        fabric::RmaRequest wr);
  /// The RC half of `rma`: the connect → credit → verb → release loop.
  sim::Task<fabric::Completion> rc_rma(RankId dst, fabric::VirtAddr raddr,
                                       fabric::RKey rkey,
                                       fabric::RmaRequest wr);
  /// First-contact accounting for the shm path (Table I peer counts).
  void mark_shm_peer(RankId dst);

  // Static mesh setup.
  sim::Task<> static_connect_all();
  sim::Task<> static_connect_bulk();
  /// Materialize a bulk-modeled connection into real QPs on first use.
  fabric::QueuePair* materialize_bulk(RankId dst);

  // Large-message tiering internals (core/bulk.cpp).
  /// Target/initiator halves of the RTS/CTS exchange (AM kRendezvousHandler).
  sim::Task<> handle_rendezvous(RankId src, std::vector<std::byte> payload);
  /// Shared fragment streamer of the pipelined and rendezvous tiers:
  /// fragments `ranges` into `bulk_chunk_bytes` pieces of the write or read
  /// `wr`, issued strictly in order under the credit/window bound. `seq`
  /// keys the fragment-ordering invariant per (pair, stream).
  sim::Task<> stream_fragments(RankId dst, std::uint32_t seq,
                               std::vector<RdvRange> ranges,
                               fabric::RmaRequest wr);
  /// One pending rendezvous at the initiator, keyed by seq: the CTS opens
  /// the gate and deposits the granted ranges.
  struct RdvPending {
    explicit RdvPending(sim::Engine& engine)
        : gate(std::make_unique<sim::Gate>(engine)) {}
    std::unique_ptr<sim::Gate> gate;
    std::vector<RdvRange> ranges{};
  };

  // AM dispatch.
  /// `src_qpn` is the sender-side QP the message arrived from (0 for
  /// paths that do not track it); the disconnect-notice handler uses it
  /// to tell connection epochs apart.
  sim::Task<> dispatch_am(AmPacket packet, fabric::Qpn src_qpn);
  void handle_barrier_arrive(RankId src, std::uint32_t round);
  void handle_barrier_release(std::uint32_t round);
  /// The AM-tree leg of barrier_global. With the shm transport the tree
  /// runs over node leaders only (virtual rank = node index); otherwise
  /// over all ranks.
  [[nodiscard]] sim::Task<> barrier_tree();
  [[nodiscard]] std::uint32_t barrier_vrank() const;
  [[nodiscard]] std::uint32_t barrier_vsize() const;
  [[nodiscard]] RankId barrier_actual_rank(std::uint64_t vrank) const;

  struct BarrierRound {
    explicit BarrierRound(sim::Engine& engine)
        : arrivals(engine), release(engine) {}
    sim::Gate arrivals;
    sim::Gate release;
    std::uint32_t arrived = 0;
  };
  BarrierRound& barrier_round(std::uint32_t round);

  ConduitJob& job_;
  RankId rank_;
  NodeId node_;
  bool initialized_ = false;
  bool finalized_ = false;

  fabric::QueuePair* ud_qp_ = nullptr;
  // Flat indexed peer storage: `peer_index_` maps a RankId to an index into
  // `peer_slots_` (a deque, so references stay stable across inserts —
  // `Peer&` is held across co_await throughout the protocol code). The
  // index is sized by the peers this PE touched, not by the job.
  RankIndex peer_index_{};
  std::deque<Peer> peer_slots_{};
  /// Exact count of kConnected peers, maintained by `set_phase`.
  std::uint64_t connected_count_ = 0;
  /// Connected peers ordered by (last_used, rank): O(1) victim selection.
  LruList<Peer> lru_{};
  bool bulk_connected_ = false;  // static bulk model in effect
  std::uint64_t bulk_endpoints_ = 0;
  /// Same-node peers reached over the shm transport, one bit per local
  /// rank (sized lazily on first shm op).
  std::vector<bool> shm_peers_{};
  std::uint64_t shm_peer_count_ = 0;

  PayloadProvider payload_provider_{};
  PayloadConsumer payload_consumer_{};
  std::unique_ptr<sim::Gate> ready_gate_{};

  // Peers whose UD endpoint this PE learned; the endpoints themselves live
  // once per job (`ConduitJob::ud_endpoint`).
  RankSet ud_learned_;
  std::optional<pmi::CollectiveTicket> ud_ticket_{};
  std::unique_ptr<sim::Gate> ud_table_gate_{};
  bool ud_resolving_ = false;
  std::unique_ptr<sim::Mailbox<RingEntry>> ring_entries_{};

  // Flat handler table indexed by handler id (ids are small and dense);
  // dispatch is a bounds check + vector load instead of a map lookup.
  std::vector<AmHandler> handlers_{};
  // QPs of evicted connections: kept alive (deactivated) so in-flight
  // traffic stays safe. Normally reclaimed when the drain resolves
  // (`reclaim_retired`); anything still here at finalize is destroyed
  // then as a backstop.
  std::vector<fabric::QueuePair*> retired_qps_{};
  std::uint32_t barrier_next_round_ = 0;
  std::map<std::uint32_t, std::unique_ptr<BarrierRound>> barrier_rounds_{};

  std::unique_ptr<sim::JoinCounter> listeners_done_{};
  std::uint32_t listener_count_ = 0;
  std::uint64_t pending_evictions_ = 0;
  std::unique_ptr<sim::Trigger> evictions_settled_{};

  // Large-message tiering state.
  RendezvousSink rendezvous_sink_{};
  std::map<std::uint32_t, RdvPending> rdv_pending_{};
  /// Stream sequence shared by rendezvous and pipelined transfers so every
  /// concurrent stream toward one peer carries a distinct (pair, seq) key
  /// for the fragment-ordering invariant.
  std::uint32_t rdv_seq_ = 0;

  sim::StatSet stats_{};
};

/// A whole simulated job: fabric + PMI + one conduit per PE.
class ConduitJob {
 public:
  ConduitJob(sim::Engine& engine, JobConfig config);
  ConduitJob(const ConduitJob&) = delete;
  ConduitJob& operator=(const ConduitJob&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const JobConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t ranks() const noexcept { return config_.ranks; }
  [[nodiscard]] NodeId node_of(RankId rank) const;
  /// Number of PEs on the given node (the last node may be partial).
  [[nodiscard]] std::uint32_t ranks_on_node(NodeId node) const;

  [[nodiscard]] fabric::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] pmi::JobManager& pmi() noexcept { return *pmi_; }
  [[nodiscard]] Conduit& conduit(RankId rank);

  /// Spawn `body` for every PE and orchestrate finalization: each PE's
  /// conduit is finalized after all bodies completed. The caller then runs
  /// the engine to completion.
  void spawn_all(std::function<sim::Task<>(Conduit&)> body);

  /// Aggregate stats over all conduits.
  [[nodiscard]] sim::StatSet aggregate_stats() const;

  /// Attach a protocol observer (e.g. `check::InvariantChecker`,
  /// `telemetry::ConnectionTimeline`). Observers are notified in attachment
  /// order; attaching one twice is a no-op. Every observer must outlive the
  /// job run or detach itself first.
  void add_observer(ProtocolObserver* observer);
  void remove_observer(ProtocolObserver* observer);

  /// `rank`'s UD endpoint, written once when the rank creates its UD QP
  /// (on-demand mode). Every PE reads this one copy; what it learned is
  /// its own `RankSet`.
  [[nodiscard]] const fabric::EndpointAddr& ud_endpoint(RankId rank) const {
    return ud_directory_.at(rank);
  }

 private:
  friend class Conduit;

  /// Check that every value of iallgather round `round` decodes to the
  /// directory entry of its rank; the first PE to finish the round pays
  /// for it, the others find it done.
  void verify_ud_round(std::uint32_t round,
                       std::span<const std::string> values);

  struct NodeBarrier {
    explicit NodeBarrier(sim::Engine& engine) : trigger(engine) {}
    sim::Trigger trigger;
    std::uint32_t arrived = 0;
    std::uint64_t round = 0;
  };

  sim::Engine& engine_;
  JobConfig config_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<pmi::JobManager> pmi_;
  std::vector<std::unique_ptr<Conduit>> conduits_{};
  std::vector<std::unique_ptr<NodeBarrier>> node_barriers_{};
  std::vector<ProtocolObserver*> observers_{};
  std::vector<fabric::EndpointAddr> ud_directory_{};
  std::optional<std::uint32_t> ud_verified_round_{};
};

}  // namespace odcm::core
