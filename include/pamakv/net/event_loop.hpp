// EventLoop: a minimal epoll reactor with monotonic timers.
//
// One loop runs on one thread. File descriptors are registered with a
// callback invoked with the ready-event mask; Post() marshals a closure
// onto the loop thread (used by the acceptor to hand new connections to
// another loop, and by Stop()), woken via an eventfd. All handler and fd
// bookkeeping is only touched from the loop thread, so handlers need no
// locks of their own; destruction of a handler that is mid-dispatch is
// deferred to the end of the dispatch round.
//
// Timers are one-shot (re-arm from inside the callback for periodic
// behavior), ordered by deadline then arm order, and kept in a min-heap
// with lazy cancellation. Time is read through an injectable util::Clock:
// under the default SteadyClock the epoll_wait timeout makes timers fire
// on real time; under a FakeClock the loop parks until the clock's wake
// hook interrupts it, so tests drive every timer path by Advance() alone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pamakv/util/clock.hpp"

namespace pamakv::net {

/// Handle for cancelling a pending timer. 0 is never issued.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class EventLoop {
 public:
  using Handler = std::function<void(std::uint32_t events)>;

  explicit EventLoop(util::Clock& clock = util::SteadyClock::Instance());
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...). Loop thread only
  /// (use Post from other threads).
  void Add(int fd, std::uint32_t events, Handler handler);
  /// Changes the interest mask of a registered fd. Loop thread only.
  void Mod(int fd, std::uint32_t events);
  /// Unregisters `fd`; safe to call from inside its own handler (the
  /// callback object is destroyed after the dispatch round). Does not
  /// close the fd. Loop thread only.
  void Del(int fd);

  /// Schedules `cb` to run on the loop thread once `delay` has elapsed on
  /// the loop's clock. One-shot; re-arming from inside the callback is
  /// supported (a re-arm with zero delay fires on the next round, never
  /// in the same one). Loop thread only (use Post from other threads).
  TimerId RunAfter(std::chrono::nanoseconds delay, std::function<void()> cb);
  /// Cancels a pending timer. Returns false when `id` already fired or
  /// was already cancelled. Loop thread only.
  bool Cancel(TimerId id);
  /// Pending (armed, not yet fired/cancelled) timers. Loop thread only.
  [[nodiscard]] std::size_t pending_timers() const noexcept {
    return timers_.size();
  }

  /// The clock this loop schedules against.
  [[nodiscard]] util::Clock& clock() const noexcept { return *clock_; }

  /// epoll_wait returns since Run() started. Thread-safe. A parked loop
  /// holds this steady, which is how tests prove an error path (e.g. an
  /// EMFILE'd listener) backs off instead of busy-spinning the reactor.
  [[nodiscard]] std::uint64_t cycles() const noexcept {
    return cycles_.load(std::memory_order_relaxed);
  }
  /// Mod calls (EPOLL_CTL_MOD syscalls) since construction. Thread-safe.
  [[nodiscard]] std::uint64_t mods() const noexcept {
    return mods_.load(std::memory_order_relaxed);
  }

  /// Runs a closure on the loop thread (immediately when already on it).
  /// Thread-safe.
  void Post(std::function<void()> fn);

  /// Dispatches events until Stop(). Claims the calling thread as the
  /// loop thread.
  void Run();
  /// Thread-safe; Run() returns after the current dispatch round.
  void Stop();

 private:
  void Wake();
  void DrainPosted();
  void FireExpiredTimers();
  /// epoll_wait timeout (ms) until the nearest timer deadline; -1 when no
  /// timer is armed.
  [[nodiscard]] int NextTimeoutMs();

  struct TimerEntry {
    std::int64_t deadline_ns;
    std::function<void()> cb;
  };

  util::Clock* clock_;
  int epoll_fd_;
  int wake_fd_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> mods_{0};
  std::thread::id loop_thread_;

  std::unordered_map<int, std::unique_ptr<Handler>> handlers_;
  /// Handlers removed during dispatch live here until the round ends.
  std::vector<std::unique_ptr<Handler>> graveyard_;

  /// Armed timers by id; the heap holds (deadline, id) pairs and is
  /// pruned lazily — a cancelled id is simply absent from the map when
  /// popped. Equal deadlines fire in arm order because ids ascend.
  std::unordered_map<TimerId, TimerEntry> timers_;
  std::vector<std::pair<std::int64_t, TimerId>> timer_heap_;
  TimerId next_timer_id_ = 1;

  std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;
  /// The batch DrainPosted is running. Swapped with posted_ each round, so
  /// both keep their capacity and steady posting never reallocates.
  std::vector<std::function<void()>> draining_;
};

}  // namespace pamakv::net
