// Deterministic discrete-event engine.
//
// The engine owns a priority queue of (time, sequence, slot) event keys, a
// same-time run of keys at the current time (DESIGN.md §5.23), a slot table
// holding each pending event's callback, and a virtual clock. By default
// events scheduled for the same time fire in insertion order, which makes
// every simulation run bit-for-bit reproducible.
// Coroutine tasks suspend by scheduling their own resumption as events (see
// `delay`, `sync.hpp`).
//
// Schedule perturbation: a `SchedulePolicy` with the seeded-shuffle tie-break
// dispatches same-time events in a deterministically permuted order instead,
// and can add bounded deterministic latency jitter to future events. One
// insertion-order run explores exactly one interleaving of the simulated
// protocols; sweeping tie-break seeds turns the same workload into a
// concurrency explorer (see `check::torture`). Every permutation is a pure
// function of `(policy.seed, event sequence number)`, so a failing schedule
// replays bit-identically from the same policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace odcm::sim {

/// How the engine orders events that share a virtual timestamp, and whether
/// it perturbs event latency. The default reproduces the historical
/// insertion-order dispatch bit-for-bit.
struct SchedulePolicy {
  enum class TieBreak : std::uint8_t {
    /// Same-time events fire in insertion order (the historical behavior).
    kInsertion = 0,
    /// Same-time events fire in an order permuted by a stateless hash of
    /// `(seed, sequence number)` — deterministic and fully replayable, but a
    /// different interleaving per seed.
    kSeededShuffle = 1,
  };
  TieBreak tie_break = TieBreak::kInsertion;
  std::uint64_t seed = 1;
  /// Upper bound (inclusive) on deterministic extra latency added to events
  /// scheduled strictly in the future (t > now); events at the current time
  /// — task spawns, gate wakeups — are never delayed, only permuted. 0
  /// disables jitter. Applies in either tie-break mode.
  Time jitter_max = 0;

  [[nodiscard]] bool perturbs() const noexcept {
    return tie_break != TieBreak::kInsertion || jitter_max != 0;
  }

  /// Tie-break key of the event with sequence number `seq`: `seq` itself
  /// under kInsertion, a stateless hash of `(seed, seq)` under the shuffle.
  [[nodiscard]] std::uint64_t tie(std::uint64_t seq) const noexcept;

  /// Dispatch time of event `seq` scheduled at `t` while the clock reads
  /// `now`: `t` plus its jitter draw if `t > now`, else `t` unchanged.
  [[nodiscard]] Time perturbed_time(Time t, Time now,
                                    std::uint64_t seq) const noexcept;
};

/// Move-only `void()` callable stored inline: no heap allocation per event.
/// Captures larger than `kCapacity` bytes, over-aligned, or with a throwing
/// move constructor are rejected at compile time; there is no heap
/// fallback. Capture a pointer to (or a `shared_ptr` of) bigger state.
class Callback {
 public:
  static constexpr std::size_t kCapacity = 64;

  Callback() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Callback>>>
  Callback(F&& fn) {  // implicit, so lambdas convert at call sites
    static_assert(sizeof(Fn) <= kCapacity,
                  "sim::Callback: capture exceeds the inline capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "sim::Callback: capture is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "sim::Callback: capture must be nothrow-movable");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "sim::Callback: callable must be invocable as void()");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = std::exchange(other.ops_, nullptr);
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      std::exchange(ops_, nullptr)->destroy(storage_);
    }
  }

  alignas(std::max_align_t) std::byte storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Single-threaded discrete-event scheduler with a virtual clock.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  /// Releases the captures of still-queued events, then returns the pooled
  /// coroutine frames of this thread to the heap (`detail::FramePool`).
  ~Engine();

  /// Current virtual time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Install the tie-break/jitter policy. Applies to events scheduled from
  /// now on (already-queued events keep their keys); install before running
  /// for a coherent, replayable schedule.
  void set_schedule_policy(const SchedulePolicy& policy) noexcept {
    policy_ = policy;
  }
  [[nodiscard]] const SchedulePolicy& schedule_policy() const noexcept {
    return policy_;
  }

  /// Schedule `fn` to run at absolute virtual time `t` (>= now()).
  void schedule_at(Time t, Callback fn);

  /// Schedule `fn` to run `dt` nanoseconds from now.
  void schedule_after(Time dt, Callback fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Awaitable that suspends the calling task for `dt` virtual nanoseconds.
  ///
  ///   co_await engine.delay(5 * usec);
  [[nodiscard]] auto delay(Time dt) {
    struct Awaiter {
      Engine& engine;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        engine.schedule_after(dt, [handle] { handle.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Launch a detached root task. The engine assumes ownership of the
  /// coroutine frame; the task starts when the event queue reaches the
  /// current time. `run()` returns only after all root tasks finish.
  void spawn(Task<> task);

  /// Run until the event queue drains. Rethrows the first exception that
  /// escaped a root task. Throws `std::runtime_error` if root tasks remain
  /// unfinished when the queue empties (deadlock in the simulated system).
  void run();

  /// Run until the event queue drains, without the root-task completion
  /// check. Useful for tests that intentionally leave tasks blocked.
  void drain();

  /// Number of root tasks spawned and not yet finished.
  [[nodiscard]] std::size_t live_root_tasks() const noexcept {
    return live_roots_;
  }

  /// Total events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

 private:
  friend void detail::finish_root(Engine&, std::exception_ptr) noexcept;

  /// Queue key of one pending event; its callback lives in `slots_[slot]`.
  /// The slot takes no part in the order, so slot recycling cannot reorder
  /// events.
  struct Event {
    Time time;
    std::uint64_t tie;  ///< seq (insertion) or hash(seed, seq) (shuffle)
    std::uint64_t seq;
    std::uint64_t slot;
  };
  static_assert(sizeof(Event) == 32);
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;  // hash-collision backstop: stay deterministic
    }
  };

  void run_loop();

  std::priority_queue<Event, std::vector<Event>, EventLater> queue_{};
  /// Keys at `now_` in dispatch order, consumed from `run_head_`: a key
  /// scheduled at `now_` that sorts after the run's last key is appended
  /// here instead of pushed on the heap. `run_loop` pops whichever of the
  /// heap top and the run front sorts first, so the dispatch order is the
  /// heap's total order under every policy.
  std::vector<Event> run_{};
  std::size_t run_head_ = 0;
  std::vector<Callback> slots_{};
  std::vector<std::uint64_t> free_slots_{};  ///< recycled `slots_` indices
  SchedulePolicy policy_{};
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::size_t live_roots_ = 0;
  std::exception_ptr root_exception_{};
};

/// Spawn a value-returning task as a detached root, discarding its result.
/// Useful for fire-and-forget operations (e.g. non-blocking puts) whose
/// completion the engine must still wait for.
template <typename T>
void spawn_discard(Engine& engine, Task<T> task) {
  engine.spawn([](Task<T> inner) -> Task<> {
    (void)co_await std::move(inner);
  }(std::move(task)));
}

}  // namespace odcm::sim
