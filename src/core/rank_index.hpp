// Per-PE views over job-wide, rank-indexed state (DESIGN.md §5.21).
//
// Every rank publishes its UD endpoint and its symmetric-segment triplet
// exactly once, into a job-wide directory. A PE keeps only which of those
// entries it has learned (`RankSet`, N bits or one "all" flag) and a
// sparse `rank → slot` index over the peers it actually touched
// (`RankIndex`), so per-PE state grows with the peers it talks to, not
// with the job size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace odcm::core {

/// The ranks whose published directory entry one PE has learned. Starts
/// empty and allocates its N-bit set on the first `insert`; `insert_all`
/// (a full exchange, e.g. a bulk path or an allgather) collapses it to a
/// flag and releases the bits.
class RankSet {
 public:
  explicit RankSet(std::uint32_t universe) : universe_(universe) {}

  [[nodiscard]] bool contains(std::uint32_t rank) const noexcept {
    if (all_) return rank < universe_;
    const std::size_t word = rank / 64;
    return word < words_.size() && ((words_[word] >> (rank % 64)) & 1) != 0;
  }

  void insert(std::uint32_t rank) {
    if (all_) return;
    if (words_.empty()) {
      words_.assign((static_cast<std::size_t>(universe_) + 63) / 64, 0);
    }
    words_[rank / 64] |= std::uint64_t{1} << (rank % 64);
  }

  void insert_all() noexcept {
    all_ = true;
    std::vector<std::uint64_t>().swap(words_);
  }

  /// Heap bytes held by the set.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::uint32_t universe_;
  bool all_ = false;
  std::vector<std::uint64_t> words_{};
};

/// Open-addressed `rank → slot` map sized by the ranks inserted (linear
/// probing, load factor at most 1/2, Fibonacci hashing). Lookups never
/// allocate; an insert allocates only when it doubles the table.
class RankIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  RankIndex() { rehash(kMinCapacity); }

  /// The slot of `rank`, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint32_t rank) const noexcept {
    // An empty entry holds slot kNone, so a key match on one (its rank
    // field is stale or 0) still answers kNone.
    for (std::size_t i = home(rank);; i = (i + 1) & mask_) {
      const Entry& e = entries_[i];
      if (e.rank == rank || e.slot == kNone) return e.slot;
    }
  }

  /// Map `rank` (not yet present) to `slot`.
  void insert(std::uint32_t rank, std::uint32_t slot) {
    if (2 * (size_ + 1) > entries_.size()) rehash(2 * entries_.size());
    place(rank, slot);
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Heap bytes held by the table.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return entries_.capacity() * sizeof(Entry);
  }

 private:
  struct Entry {
    std::uint32_t rank = 0;
    std::uint32_t slot = kNone;
  };
  static constexpr std::size_t kMinCapacity = 8;

  [[nodiscard]] std::size_t home(std::uint32_t rank) const noexcept {
    return static_cast<std::size_t>(
        (rank * std::uint64_t{0x9E3779B97F4A7C15}) >> shift_);
  }

  void place(std::uint32_t rank, std::uint32_t slot) noexcept {
    std::size_t i = home(rank);
    while (entries_[i].slot != kNone) i = (i + 1) & mask_;
    entries_[i] = Entry{rank, slot};
  }

  void rehash(std::size_t capacity) {
    std::vector<Entry> old(capacity);
    old.swap(entries_);
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Entry& e : old) {
      if (e.slot != kNone) place(e.rank, e.slot);
    }
  }

  std::vector<Entry> entries_{};
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace odcm::core
