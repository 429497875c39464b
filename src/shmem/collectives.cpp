// OpenSHMEM collectives over conduit active messages.
//
//   broadcast : k-ary tree rooted at `root`
//   fcollect  : ring allgather (bandwidth-optimal, N-1 steps)
//   reduce    : k-ary tree reduce to PE 0, then tree broadcast of the result
//
// Every collective operation is keyed by (kind, per-PE sequence number);
// since the operations are collective, the sequence numbers align across
// PEs and data for distinct operations cannot mix.
#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "shmem/job.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

using detail::coll_key;
using detail::kBcastKind;
using core::kShmemCollDataHandler;
using detail::kAlltoallKind;
using detail::kCollectKind;
using detail::kReduceKind;

ShmemPe::CollectState& ShmemPe::collect_state(std::uint64_t key) {
  for (auto& [k, state] : coll_states_) {
    if (k == key) return *state;
  }
  coll_states_.emplace_back(key, std::make_unique<CollectState>(engine()));
  return *coll_states_.back().second;
}

void ShmemPe::drop_collect_state(std::uint64_t key) {
  for (auto& entry : coll_states_) {
    if (entry.first == key) {
      entry = std::move(coll_states_.back());
      coll_states_.pop_back();
      return;
    }
  }
}

sim::Task<> ShmemPe::handle_coll_data(RankId /*src*/,
                                      std::vector<std::byte> payload) {
  core::wire::Reader reader(payload);
  auto kind = reader.read_int<std::uint8_t>();
  auto seq = reader.read_int<std::uint64_t>();
  collect_state(coll_key(kind, seq)).chunks.push(std::move(payload));
  co_return;
}

namespace {

/// Every collective frame opens with `kind (u8) | seq (u64)`.
constexpr std::size_t kCollHeaderSize = 1 + 8;

/// A frame `kind | seq | [idx (u32) |] body`, allocated once with room for
/// the AM trailer so `am_send`'s seal does not reallocate.
std::vector<std::byte> coll_frame(std::uint8_t kind, std::uint64_t seq,
                                  std::optional<std::uint32_t> idx,
                                  std::span<const std::byte> body) {
  std::vector<std::byte> out;
  out.reserve(kCollHeaderSize + (idx ? 4 : 0) + body.size() +
              core::AmPacket::kTrailerSize);
  core::wire::put_u8(out, kind);
  core::wire::put_int<std::uint64_t>(out, seq);
  if (idx) core::wire::put_int<std::uint32_t>(out, *idx);
  core::wire::put_bytes(out, body);
  return out;
}

/// A copy of `frame` for one more destination, trailer room included.
std::vector<std::byte> copy_frame(const std::vector<std::byte>& frame) {
  std::vector<std::byte> out;
  out.reserve(frame.size() + core::AmPacket::kTrailerSize);
  out.assign(frame.begin(), frame.end());
  return out;
}

/// A received frame past its `kind | seq` header.
std::span<const std::byte> frame_body(const std::vector<std::byte>& frame) {
  return std::span<const std::byte>(frame).subspan(kCollHeaderSize);
}

/// The parts of a received indexed frame (`kind | seq | idx | block`).
struct IndexedBlock {
  std::uint32_t idx;
  std::span<const std::byte> block;
};

IndexedBlock read_indexed(const std::vector<std::byte>& frame) {
  std::span<const std::byte> body = frame_body(frame);
  auto idx = core::wire::Reader(body).read_int<std::uint32_t>();
  return {idx, body.subspan(4)};
}

}  // namespace

sim::Task<> ShmemPe::send_down_tree(std::uint32_t vrank, RankId root,
                                    std::vector<std::byte> frame) {
  const std::uint32_t n = n_pes();
  const std::uint32_t fanout = config().collective_fanout;
  const std::uint64_t first = static_cast<std::uint64_t>(vrank) * fanout + 1;
  const std::uint64_t end = std::min<std::uint64_t>(first + fanout, n);
  for (std::uint64_t child = first; child < end; ++child) {
    const auto dst = static_cast<RankId>((child + root) % n);
    // Kept out of the co_await operand: GCC 12 mis-evaluates a
    // conditional expression there and sends the moved-from buffer.
    std::vector<std::byte> message =
        child + 1 == end ? std::move(frame) : copy_frame(frame);
    co_await conduit_.am_send(dst, kShmemCollDataHandler, std::move(message));
  }
}

sim::Task<> ShmemPe::broadcast(RankId root, SymAddr addr, std::uint32_t len) {
  stats().add("shmem_broadcast");
  const std::uint32_t n = n_pes();
  if (n == 1) co_return;
  const std::uint64_t seq = bcast_seq_++;
  const std::uint64_t key = coll_key(kBcastKind, seq);
  const std::uint32_t vrank = (rank_ + n - root) % n;

  // A non-root forwards the frame it received: its body is the data just
  // placed in the local window.
  std::vector<std::byte> message;
  if (vrank != 0) {
    message = co_await collect_state(key).chunks.pop();
    std::span<const std::byte> data = frame_body(message);
    if (data.size() != len) {
      throw std::runtime_error("ShmemPe::broadcast: length mismatch");
    }
    auto window = local_window(addr, len);
    std::copy(data.begin(), data.end(), window.begin());
  } else {
    message = coll_frame(kBcastKind, seq, std::nullopt, local_window(addr, len));
  }
  co_await send_down_tree(vrank, root, std::move(message));
  drop_collect_state(key);
}

sim::Task<> ShmemPe::fcollect(SymAddr dest, SymAddr src,
                              std::uint32_t block_len) {
  stats().add("shmem_fcollect");
  const std::uint32_t n = n_pes();
  // Place the local contribution.
  {
    auto source = local_window(src, block_len);
    auto target = local_window(
        dest + static_cast<std::uint64_t>(rank_) * block_len, block_len);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  const std::uint64_t seq = collect_seq_++;
  const std::uint64_t key = coll_key(kCollectKind, seq);
  const RankId right = (rank_ + 1) % n;
  CollectState& state = collect_state(key);

  // Ring step: send a frame right, take one from the left. A frame's
  // (kind, seq, origin idx, block) are the same at every hop, so after
  // placing the block a PE forwards the received frame as is.
  std::vector<std::byte> message =
      coll_frame(kCollectKind, seq, rank_, local_window(src, block_len));
  for (std::uint32_t step = 0; step + 1 < n; ++step) {
    co_await conduit_.am_send(right, kShmemCollDataHandler, std::move(message));
    message = co_await state.chunks.pop();
    auto [idx, block] = read_indexed(message);
    if (block.size() != block_len || idx >= n) {
      throw std::runtime_error("ShmemPe::fcollect: bad chunk");
    }
    auto target = local_window(
        dest + static_cast<std::uint64_t>(idx) * block_len, block_len);
    std::copy(block.begin(), block.end(), target.begin());
  }
  drop_collect_state(key);
}

sim::Task<> ShmemPe::collect(SymAddr dest, SymAddr src,
                             std::uint32_t my_len) {
  stats().add("shmem_collect");
  const std::uint32_t n = n_pes();
  std::vector<std::uint32_t> lengths(n, 0);
  lengths[rank_] = my_len;

  // Both passes are ring allgathers forwarding the received frame as is
  // (see fcollect).
  if (n > 1) {
    // Pass 1: ring-allgather the lengths (plain AM payloads, no symmetric
    // scratch memory needed).
    const std::uint64_t seq = collect_seq_++;
    const std::uint64_t key = coll_key(kCollectKind, seq);
    const RankId right = (rank_ + 1) % n;
    CollectState& state = collect_state(key);
    std::vector<std::byte> message =
        coll_frame(kCollectKind, seq, rank_,
                   std::as_bytes(std::span<const std::uint32_t>(&my_len, 1)));
    for (std::uint32_t step = 0; step + 1 < n; ++step) {
      co_await conduit_.am_send(right, kShmemCollDataHandler,
                                std::move(message));
      message = co_await state.chunks.pop();
      auto [idx, block] = read_indexed(message);
      if (idx >= n) throw std::runtime_error("ShmemPe::collect: bad index");
      lengths[idx] = core::wire::Reader(block).read_int<std::uint32_t>();
    }
    drop_collect_state(key);
  }

  std::vector<std::uint64_t> offsets(n, 0);
  for (std::uint32_t r = 1; r < n; ++r) {
    offsets[r] = offsets[r - 1] + lengths[r - 1];
  }

  // Place the local contribution.
  if (my_len > 0) {
    auto source = local_window(src, my_len);
    auto target = local_window(dest + offsets[rank_], my_len);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  // Pass 2: ring-allgather the variable-size blocks.
  const std::uint64_t seq = collect_seq_++;
  const std::uint64_t key = coll_key(kCollectKind, seq);
  const RankId right = (rank_ + 1) % n;
  CollectState& state = collect_state(key);
  std::vector<std::byte> message =
      coll_frame(kCollectKind, seq, rank_, local_window(src, my_len));
  for (std::uint32_t step = 0; step + 1 < n; ++step) {
    co_await conduit_.am_send(right, kShmemCollDataHandler,
                              std::move(message));
    message = co_await state.chunks.pop();
    auto [idx, block] = read_indexed(message);
    if (idx >= n || block.size() != lengths[idx]) {
      throw std::runtime_error("ShmemPe::collect: bad chunk");
    }
    if (!block.empty()) {
      auto target = local_window(dest + offsets[idx], block.size());
      std::copy(block.begin(), block.end(), target.begin());
    }
  }
  drop_collect_state(key);
}

sim::Task<> ShmemPe::alltoall(SymAddr dest, SymAddr src,
                              std::uint32_t block_len) {
  stats().add("shmem_alltoall");
  const std::uint32_t n = n_pes();
  // Own block moves locally.
  {
    auto source = local_window(
        src + static_cast<std::uint64_t>(rank_) * block_len, block_len);
    auto target = local_window(
        dest + static_cast<std::uint64_t>(rank_) * block_len, block_len);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  const std::uint64_t seq = collect_seq_++;
  const std::uint64_t key = coll_key(kAlltoallKind, seq);
  // Rotated send order spreads load (classic alltoall schedule).
  for (std::uint32_t offset = 1; offset < n; ++offset) {
    RankId peer = (rank_ + offset) % n;
    auto block = local_window(
        src + static_cast<std::uint64_t>(peer) * block_len, block_len);
    co_await conduit_.am_send(peer, kShmemCollDataHandler,
                              coll_frame(kAlltoallKind, seq, rank_, block));
  }
  CollectState& state = collect_state(key);
  for (std::uint32_t received = 0; received + 1 < n; ++received) {
    std::vector<std::byte> incoming = co_await state.chunks.pop();
    auto [idx, data] = read_indexed(incoming);
    if (idx >= n || data.size() != block_len) {
      throw std::runtime_error("ShmemPe::alltoall: bad block");
    }
    auto target = local_window(
        dest + static_cast<std::uint64_t>(idx) * block_len, block_len);
    std::copy(data.begin(), data.end(), target.begin());
  }
  drop_collect_state(key);
}

sim::Task<> ShmemPe::reduce_impl(SymAddr dest, SymAddr src,
                                 std::uint32_t count, std::uint32_t elem,
                                 Combiner combine) {
  stats().add("shmem_reduce");
  const std::uint32_t n = n_pes();
  const std::uint32_t bytes = count * elem;
  // Start from the local contribution.
  {
    auto source = local_window(src, bytes);
    auto target = local_window(dest, bytes);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  const std::uint64_t seq = reduce_seq_++;
  const std::uint64_t key = coll_key(kReduceKind, seq);
  const std::uint32_t fanout = config().collective_fanout;
  CollectState& state = collect_state(key);

  std::uint32_t children = 0;
  for (std::uint32_t c = 1; c <= fanout; ++c) {
    if (static_cast<std::uint64_t>(rank_) * fanout + c < n) ++children;
  }

  // Combine the children's partial results.
  for (std::uint32_t received = 0; received < children; ++received) {
    std::vector<std::byte> frame = co_await state.chunks.pop();
    std::span<const std::byte> partial = frame_body(frame);
    if (partial.size() != bytes) {
      throw std::runtime_error("ShmemPe::reduce: bad partial");
    }
    auto acc = local_window(dest, bytes);
    for (std::uint32_t e = 0; e < count; ++e) {
      combine(acc.subspan(static_cast<std::size_t>(e) * elem, elem),
              partial.subspan(static_cast<std::size_t>(e) * elem, elem));
    }
  }

  // The result travels down the tree: PE 0 frames its accumulator, every
  // other PE forwards the frame its parent sent (body == the result).
  std::vector<std::byte> result;
  if (rank_ != 0) {
    // Send the partial up, then wait for the final result from the parent.
    RankId parent = (rank_ - 1) / fanout;
    co_await conduit_.am_send(
        parent, kShmemCollDataHandler,
        coll_frame(kReduceKind, seq, std::nullopt, local_window(dest, bytes)));

    result = co_await state.chunks.pop();
    std::span<const std::byte> data = frame_body(result);
    if (data.size() != bytes) {
      throw std::runtime_error("ShmemPe::reduce: bad result");
    }
    auto target = local_window(dest, bytes);
    std::copy(data.begin(), data.end(), target.begin());
  } else {
    result =
        coll_frame(kReduceKind, seq, std::nullopt, local_window(dest, bytes));
  }
  co_await send_down_tree(rank_, /*root=*/0, std::move(result));
  drop_collect_state(key);
}

}  // namespace odcm::shmem
