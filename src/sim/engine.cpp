#include "sim/engine.hpp"

#include <utility>

namespace odcm::sim {

namespace {

// Stateless SplitMix64-style finalizer over (seed, seq): the permutation and
// jitter of every event are pure functions of the policy and the event's
// sequence number, so a perturbed schedule replays bit-identically and is
// independent of queue contents at scheduling time.
std::uint64_t mix_seeded(std::uint64_t seed, std::uint64_t seq) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (seq + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Distinct stream for the latency jitter so tie order and jitter are
// independent draws.
constexpr std::uint64_t kJitterSalt = 0x6a09e667f3bcc909ULL;

}  // namespace

std::uint64_t SchedulePolicy::tie(std::uint64_t seq) const noexcept {
  return tie_break == TieBreak::kSeededShuffle ? mix_seeded(seed, seq) : seq;
}

Time SchedulePolicy::perturbed_time(Time t, Time now,
                                    std::uint64_t seq) const noexcept {
  if (jitter_max == 0 || t <= now) return t;
  // Bounded extra latency on future events only: same-time wakeups (gate
  // opens, task spawns) keep their timestamp so zero-latency semantics
  // survive; they are still permuted by the tie-break.
  return t + static_cast<Time>(mix_seeded(seed ^ kJitterSalt, seq) %
                               (static_cast<std::uint64_t>(jitter_max) + 1));
}

Engine::~Engine() {
  // Destroy queued callbacks first: their captures may own coroutine frames,
  // which then land in the pool before it is trimmed.
  queue_ = {};
  run_.clear();
  slots_.clear();
  free_slots_.clear();
  detail::FramePool::local().trim();
}

void Engine::schedule_at(Time t, Callback fn) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time is in the past");
  }
  if (!fn) {
    throw std::logic_error("Engine::schedule_at: empty callback");
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t tie = policy_.tie(seq);
  t = policy_.perturbed_time(t, now_, seq);
  std::uint64_t slot = 0;
  if (free_slots_.empty()) {
    slot = slots_.size();
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  const Event event{t, tie, seq, slot};
  if (t == now_ &&
      (run_head_ == run_.size() || EventLater{}(event, run_.back()))) {
    run_.push_back(event);
  } else {
    queue_.push(event);
  }
}

void Engine::spawn(Task<> task) {
  if (!task.valid()) {
    throw std::logic_error("Engine::spawn: empty task");
  }
  auto handle = task.release();
  handle.promise().detached_engine = this;
  ++live_roots_;
  schedule_at(now_, [handle] { handle.resume(); });
}

void Engine::run_loop() {
  while (true) {
    Event event{};
    if (run_head_ != run_.size() &&
        (queue_.empty() || EventLater{}(queue_.top(), run_[run_head_]))) {
      event = run_[run_head_++];
      if (run_head_ == run_.size()) {
        run_.clear();
        run_head_ = 0;
      }
    } else if (!queue_.empty()) {
      event = queue_.top();
      queue_.pop();
    } else {
      break;
    }
    // Move the callback out before running it: it may schedule events,
    // which can grow `slots_` or reuse this slot.
    Callback fn = std::move(slots_[event.slot]);
    free_slots_.push_back(event.slot);
    now_ = event.time;
    ++events_executed_;
    fn();
    if (root_exception_) {
      std::exception_ptr exception = std::exchange(root_exception_, nullptr);
      std::rethrow_exception(exception);
    }
  }
}

void Engine::run() {
  run_loop();
  if (live_roots_ != 0) {
    throw std::runtime_error(
        "Engine::run: event queue drained with root tasks still blocked "
        "(simulated deadlock)");
  }
}

void Engine::drain() { run_loop(); }

namespace detail {

void finish_root(Engine& engine, std::exception_ptr exception) noexcept {
  --engine.live_roots_;
  if (exception && !engine.root_exception_) {
    engine.root_exception_ = exception;
  }
}

}  // namespace detail

}  // namespace odcm::sim
