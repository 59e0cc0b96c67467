#include "pamakv/net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "pamakv/net/syscall.hpp"

namespace pamakv::net {

namespace {
[[noreturn]] void ThrowErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Min-heap ordering for (deadline, id) pairs: std::pair's operator> gives
/// earliest deadline first, lowest id first among equals.
constexpr auto kHeapGreater =
    std::greater<std::pair<std::int64_t, TimerId>>{};
}  // namespace

EventLoop::EventLoop(util::Clock& clock) : clock_(&clock) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) ThrowErrno("epoll_create1");
  wake_fd_ = sys::EventFd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    ThrowErrno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    ThrowErrno("epoll_ctl(wake)");
  }
  // A manual clock wakes the loop whenever it jumps, so due timers fire
  // without the epoll timeout ever mattering.
  clock_->RegisterWake(this, [this] { Wake(); });
}

EventLoop::~EventLoop() {
  clock_->UnregisterWake(this);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::Add(int fd, std::uint32_t events, Handler handler) {
  auto boxed = std::make_unique<Handler>(std::move(handler));
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ThrowErrno("epoll_ctl(add)");
  }
  handlers_[fd] = std::move(boxed);
}

void EventLoop::Mod(int fd, std::uint32_t events) {
  mods_.fetch_add(1, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    ThrowErrno("epoll_ctl(mod)");
  }
}

void EventLoop::Del(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  // The handler may be the one currently executing; keep the object alive
  // until the dispatch round finishes.
  graveyard_.push_back(std::move(it->second));
  handlers_.erase(it);
}

TimerId EventLoop::RunAfter(std::chrono::nanoseconds delay,
                            std::function<void()> cb) {
  const TimerId id = next_timer_id_++;
  const std::int64_t deadline =
      clock_->NowNanos() + std::max<std::int64_t>(delay.count(), 0);
  timers_.emplace(id, TimerEntry{deadline, std::move(cb)});
  timer_heap_.emplace_back(deadline, id);
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), kHeapGreater);
  return id;
}

bool EventLoop::Cancel(TimerId id) {
  // Lazy: the heap entry stays and is skipped when popped.
  return timers_.erase(id) > 0;
}

int EventLoop::NextTimeoutMs() {
  while (!timer_heap_.empty() &&
         timers_.find(timer_heap_.front().second) == timers_.end()) {
    // Prune cancelled entries so they don't shorten the wait.
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), kHeapGreater);
    timer_heap_.pop_back();
  }
  if (timer_heap_.empty()) return -1;
  const std::int64_t remaining_ns =
      timer_heap_.front().first - clock_->NowNanos();
  if (remaining_ns <= 0) return 0;
  // Round up so the wait never returns just short of the deadline.
  const std::int64_t ms = (remaining_ns + 999'999) / 1'000'000;
  return static_cast<int>(std::min<std::int64_t>(ms, 60'000));
}

void EventLoop::FireExpiredTimers() {
  const std::int64_t now = clock_->NowNanos();
  // Timers armed by the callbacks below belong to the next round, even at
  // zero delay — otherwise an immediate re-arm could starve the fds.
  const TimerId round_ceiling = next_timer_id_;
  while (!timer_heap_.empty() && timer_heap_.front().first <= now) {
    const TimerId id = timer_heap_.front().second;
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), kHeapGreater);
    timer_heap_.pop_back();
    const auto it = timers_.find(id);
    if (it == timers_.end()) continue;  // cancelled
    if (id >= round_ceiling) {
      // Re-armed during this sweep; push back and stop — its deadline is
      // necessarily >= every other due entry's.
      timer_heap_.emplace_back(it->second.deadline_ns, id);
      std::push_heap(timer_heap_.begin(), timer_heap_.end(), kHeapGreater);
      break;
    }
    auto cb = std::move(it->second.cb);
    timers_.erase(it);
    cb();  // may RunAfter/Cancel freely
  }
}

void EventLoop::Post(std::function<void()> fn) {
  // acquire pairs with Run()'s release store so loop_thread_ is visible.
  if (running_.load(std::memory_order_acquire) &&
      std::this_thread::get_id() == loop_thread_) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  Wake();
}

void EventLoop::Wake() {
  const std::uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(wake_fd_, &one, sizeof one);
  } while (n < 0 && errno == EINTR);
  // EAGAIN means the counter is already nonzero — the wake is pending.
}

void EventLoop::DrainPosted() {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    draining_.swap(posted_);
  }
  // Cleared even if a closure throws, so none can run twice.
  struct ClearOnExit {
    std::vector<std::function<void()>>& v;
    ~ClearOnExit() { v.clear(); }
  } clear{draining_};
  for (auto& fn : draining_) fn();
}

void EventLoop::Run() {
  loop_thread_ = std::this_thread::get_id();
  running_.store(true, std::memory_order_release);
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    const int n = sys::EpollWait(epoll_fd_, events, 64, NextTimeoutMs());
    cycles_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("epoll_wait");
    }
    // Due timers fire before fd dispatch: a wake from FakeClock::Advance
    // reaches them with the post-jump time, ahead of any I/O the test
    // performs afterwards.
    FireExpiredTimers();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        ssize_t r;
        do {
          r = ::read(wake_fd_, &drain, sizeof drain);
        } while (r < 0 && errno == EINTR);
        continue;
      }
      // Look the handler up per event: an earlier callback in this batch
      // may have Del()ed this fd already.
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      (*it->second)(events[i].events);
    }
    graveyard_.clear();
    DrainPosted();
  }
  // One final drain so a Stop() racing with Post() leaves no orphans.
  DrainPosted();
  running_.store(false, std::memory_order_release);
}

void EventLoop::Stop() {
  running_.store(false, std::memory_order_release);
  Wake();
}

}  // namespace pamakv::net
