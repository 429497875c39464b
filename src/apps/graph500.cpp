#include <algorithm>
#include <cstring>
#include <deque>
#include <set>
#include <vector>

#include "apps/graph500.hpp"
#include "sim/random.hpp"

namespace odcm::apps {

namespace {

constexpr std::uint64_t kNoParent = ~0ULL;

/// Deterministic edge list shared by every PE (and by the validator).
std::vector<std::pair<std::uint32_t, std::uint32_t>> generate_edges(
    const Graph500Params& params) {
  sim::Rng rng(params.seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(params.edges);
  for (std::uint32_t e = 0; e < params.edges; ++e) {
    auto u = static_cast<std::uint32_t>(rng.next_below(params.vertices));
    auto v = static_cast<std::uint32_t>(rng.next_below(params.vertices));
    edges.emplace_back(u, v);
  }
  return edges;
}

/// Serial BFS levels (kNoParent level marker = unreachable).
std::vector<std::uint64_t> serial_levels(
    const Graph500Params& params,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  std::vector<std::vector<std::uint32_t>> adj(params.vertices);
  for (auto [u, v] : edges) {
    if (u == v) continue;
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<std::uint64_t> level(params.vertices, kNoParent);
  std::deque<std::uint32_t> queue{params.root};
  level[params.root] = 0;
  while (!queue.empty()) {
    std::uint32_t u = queue.front();
    queue.pop_front();
    for (std::uint32_t v : adj[u]) {
      if (level[v] == kNoParent) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return level;
}

}  // namespace

sim::Task<> graph500_pe(shmem::ShmemPe& pe, mpi::MpiComm& comm,
                        Graph500Params params, KernelResult& result) {
  const std::uint32_t p = pe.n_pes();
  const std::uint32_t block = (params.vertices + p - 1) / p;
  const std::uint32_t my_first = pe.rank() * block;
  auto owner = [&](std::uint32_t v) { return v / block; };

  // ---- symmetric data structures ----
  // parent[] for my block, an incoming (vertex, parent) queue with an
  // atomic tail, sized for the worst case (every edge endpoint lands here).
  const std::uint32_t queue_cap = 2 * params.edges + 16;
  shmem::SymAddr parent_addr = pe.heap().allocate(8ULL * block, 8);
  shmem::SymAddr tail_addr = pe.heap().allocate(8, 8);
  shmem::SymAddr queue_addr = pe.heap().allocate(16ULL * queue_cap, 8);

  for (std::uint32_t i = 0; i < block; ++i) {
    pe.local_write<std::uint64_t>(parent_addr + 8ULL * i, kNoParent);
  }
  pe.local_write<std::uint64_t>(tail_addr, 0);

  // ---- graph generation (deterministic, every PE keeps its own cut) ----
  auto edges = generate_edges(params);
  std::vector<std::vector<std::uint32_t>> adj(block);
  for (auto [u, v] : edges) {
    if (u == v) continue;
    if (owner(u) == pe.rank()) adj[u - my_first].push_back(v);
    if (owner(v) == pe.rank()) adj[v - my_first].push_back(u);
  }
  // Only the verifying rank reads the edge list again.
  if (!(params.verify && pe.rank() == 0)) {
    edges.clear();
    edges.shrink_to_fit();
  }
  co_await compute(pe, params.compute_ns_per_edge * params.edges);

  co_await comm.barrier();

  // ---- level-synchronized hybrid BFS ----
  std::vector<std::uint32_t> frontier;
  if (owner(params.root) == pe.rank()) {
    pe.local_write<std::uint64_t>(parent_addr + 8ULL * (params.root - my_first),
                                  params.root);
    frontier.push_back(params.root);
  }

  std::vector<std::byte> entry(16);
  while (true) {
    // Data plane: push (neighbor, me) to the neighbor's owner via
    // fetch-add + put (OpenSHMEM one-sided).
    for (std::uint32_t u : frontier) {
      for (std::uint32_t v : adj[u - my_first]) {
        RankId dst = owner(v);
        std::uint64_t slot = co_await pe.atomic_fetch_add(dst, tail_addr, 1);
        if (slot >= queue_cap) {
          throw std::runtime_error("graph500: queue overflow");
        }
        std::uint64_t vertex = v;
        std::uint64_t parent = u;
        std::memcpy(entry.data(), &vertex, 8);
        std::memcpy(entry.data() + 8, &parent, 8);
        co_await pe.put(dst, queue_addr + 16ULL * slot, entry);
      }
      co_await compute(pe, params.compute_ns_per_edge *
                               static_cast<double>(adj[u - my_first].size()));
    }

    // Control plane: everyone finished pushing this level.
    co_await comm.barrier();

    // Drain the incoming queue, building the next frontier.
    frontier.clear();
    std::uint64_t received = pe.local_read<std::uint64_t>(tail_addr);
    for (std::uint64_t s = 0; s < received; ++s) {
      std::uint64_t vertex = pe.local_read<std::uint64_t>(queue_addr + 16 * s);
      std::uint64_t parent =
          pe.local_read<std::uint64_t>(queue_addr + 16 * s + 8);
      std::uint32_t local = static_cast<std::uint32_t>(vertex) - my_first;
      if (pe.local_read<std::uint64_t>(parent_addr + 8ULL * local) ==
          kNoParent) {
        pe.local_write<std::uint64_t>(parent_addr + 8ULL * local, parent);
        frontier.push_back(static_cast<std::uint32_t>(vertex));
      }
    }
    pe.local_write<std::uint64_t>(tail_addr, 0);

    // Control plane: termination detection.
    std::vector<std::int64_t> next{static_cast<std::int64_t>(frontier.size())};
    co_await comm.allreduce<std::int64_t>(next, mpi::ReduceOp::kSum);
    if (next[0] == 0) break;
  }

  co_await comm.barrier();

  // ---- validation (rank 0 gathers parents and checks everything) ----
  if (params.verify && pe.rank() == 0) {
    std::vector<std::uint64_t> parent(static_cast<std::size_t>(block) * p,
                                      kNoParent);
    std::vector<std::byte> chunk(8ULL * block);
    for (RankId r = 0; r < p; ++r) {
      co_await pe.get(r, parent_addr, chunk);
      std::memcpy(parent.data() + static_cast<std::size_t>(r) * block,
                  chunk.data(), chunk.size());
    }
    std::vector<std::uint64_t> reference = serial_levels(params, edges);

    // Visited set must match serial reachability.
    for (std::uint32_t v = 0; v < params.vertices; ++v) {
      bool visited = parent[v] != kNoParent;
      bool reachable = reference[v] != kNoParent;
      if (visited != reachable) {
        result.fail("graph500: visited set mismatch at vertex " +
                    std::to_string(v));
      }
    }
    // Every parent edge must exist and levels must be consistent.
    std::set<std::pair<std::uint32_t, std::uint32_t>> edge_set;
    for (auto [u, v] : edges) {
      edge_set.emplace(std::min(u, v), std::max(u, v));
    }
    for (std::uint32_t v = 0; v < params.vertices; ++v) {
      if (parent[v] == kNoParent || v == params.root) continue;
      auto pv = static_cast<std::uint32_t>(parent[v]);
      if (edge_set.find({std::min(v, pv), std::max(v, pv)}) ==
          edge_set.end()) {
        result.fail("graph500: parent edge missing for vertex " +
                    std::to_string(v));
      }
      if (reference[v] != reference[pv] + 1) {
        result.fail("graph500: level inconsistency at vertex " +
                    std::to_string(v));
      }
    }
    if (parent[params.root] != params.root) {
      result.fail("graph500: root parent wrong");
    }
  }
  co_await comm.barrier();
}

}  // namespace odcm::apps
