// Coroutine task type used by every simulated entity (PE programs, protocol
// state machines, daemons).
//
// `Task<T>` is a lazily-started coroutine: creating one does nothing until it
// is either `co_await`ed by another task (structured, value-returning use) or
// handed to `Engine::spawn` as a detached root task. Completion resumes the
// awaiting parent via symmetric transfer, so arbitrarily deep call chains use
// O(1) stack.
//
// Coroutine frames come from `detail::FramePool`, a per-thread free list per
// 16-byte size class, so the per-message coroutine layers (send, connect,
// dispatch) recycle frames instead of going to the heap each time.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/asan.hpp"

namespace odcm::sim {

class Engine;

template <typename T>
class Task;

namespace detail {

// Called from a root task's final suspend; defined in engine.cpp.
void finish_root(Engine& engine, std::exception_ptr exception) noexcept;

/// Recycles coroutine frames through one free list per 16-byte size class
/// up to 4 KiB; larger frames go straight to the heap. Each list keeps at
/// most `kCap` frames, and `~Engine` trims the whole pool, so the pool
/// bounds its footprint instead of holding a job's peak frame population.
/// Under ASan a pooled frame is poisoned, so a use after free of a
/// coroutine frame is still reported.
class FramePool {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxPooledBytes = 4096;
  static constexpr std::size_t kCap = 256;

  /// The calling thread's pool.
  static FramePool& local() noexcept {
    static constinit thread_local FramePool pool;
    return pool;
  }

  void* allocate(std::size_t bytes) {
    if (bytes == 0 || bytes > kMaxPooledBytes) return ::operator new(bytes);
    const std::size_t index = class_of(bytes);
    Node* node = heads_[index];
    if (node == nullptr) return ::operator new(class_bytes(index));
    asan_unpoison(node, class_bytes(index));
    heads_[index] = node->next;
    --counts_[index];
    return node;
  }

  void deallocate(void* frame, std::size_t bytes) noexcept {
    if (bytes == 0 || bytes > kMaxPooledBytes) {
      ::operator delete(frame);
      return;
    }
    const std::size_t index = class_of(bytes);
    if (counts_[index] >= kCap) {
      ::operator delete(frame);
      return;
    }
    heads_[index] = ::new (frame) Node{heads_[index]};
    ++counts_[index];
    asan_poison(frame, class_bytes(index));
  }

  /// Return every pooled frame to the heap.
  void trim() noexcept {
    for (std::size_t index = 0; index < kClasses; ++index) {
      while (Node* node = heads_[index]) {
        asan_unpoison(node, class_bytes(index));
        heads_[index] = node->next;
        ::operator delete(node);
      }
      counts_[index] = 0;
    }
  }

  /// Frames pooled in the size class of a `bytes`-byte frame.
  [[nodiscard]] std::size_t cached(std::size_t bytes) const noexcept {
    if (bytes == 0 || bytes > kMaxPooledBytes) return 0;
    return counts_[class_of(bytes)];
  }

  /// Frames pooled across all size classes.
  [[nodiscard]] std::size_t cached_total() const noexcept {
    std::size_t total = 0;
    for (std::uint32_t count : counts_) total += count;
    return total;
  }

 private:
  struct Node {
    Node* next;
  };
  static constexpr std::size_t kClasses = kMaxPooledBytes / kGranule;

  static constexpr std::size_t class_of(std::size_t bytes) noexcept {
    return (bytes - 1) / kGranule;
  }
  static constexpr std::size_t class_bytes(std::size_t index) noexcept {
    return (index + 1) * kGranule;
  }

  Node* heads_[kClasses]{};
  std::uint32_t counts_[kClasses]{};
};

struct PromiseBase {
  static void* operator new(std::size_t bytes) {
    return FramePool::local().allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    FramePool::local().deallocate(frame, bytes);
  }

  std::coroutine_handle<> continuation{};
  Engine* detached_engine = nullptr;
  std::exception_ptr exception{};

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> self) const noexcept {
      PromiseBase& promise = self.promise();
      if (promise.continuation) {
        return promise.continuation;
      }
      if (promise.detached_engine != nullptr) {
        // Detached root task: nobody owns the handle, so the frame is
        // destroyed here (legal: the coroutine is suspended at final
        // suspend) and the engine is notified of completion.
        Engine* engine = promise.detached_engine;
        std::exception_ptr exception = promise.exception;
        self.destroy();
        finish_root(*engine, exception);
      }
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise : PromiseBase {
  std::optional<T> value{};

  Task<T> get_return_object() noexcept;
  void return_value(T result) { value.emplace(std::move(result)); }
};

template <>
struct TaskPromise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() const noexcept {}
};

}  // namespace detail

/// A lazily-started coroutine producing `T` (or nothing for `T = void`).
///
/// Ownership: a `Task` owns its coroutine frame and destroys it on
/// destruction. `Engine::spawn` takes over ownership for detached roots.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle handle) noexcept : handle_(handle) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { destroy(); }

  /// True if this task still refers to a coroutine frame.
  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }

  /// Relinquish ownership of the coroutine handle (used by Engine::spawn).
  Handle release() noexcept { return std::exchange(handle_, {}); }

  // Awaiter interface: `co_await task` starts the child and suspends the
  // parent until the child completes.
  bool await_ready() const noexcept { return false; }

  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> continuation) noexcept {
    handle_.promise().continuation = continuation;
    return handle_;
  }

  T await_resume() {
    promise_type& promise = handle_.promise();
    if (promise.exception) {
      std::rethrow_exception(promise.exception);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(*promise.value);
    }
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace odcm::sim
