// One-op helpers for CacheService tests. CacheService has one entry point
// for keyed requests, ExecuteBatch; each helper here stages a batch of one
// and runs it there, the way a connection runs a single command, so a test
// sees exactly what a client would (a flash-resident key defers, then
// serves). HeldBatch holds every flash completion until the test releases
// it: the seam between a read's schedule and its completion, where the
// race tests mutate the key.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pamakv/net/batch.hpp"
#include "pamakv/net/cache_service.hpp"

namespace pamakv::net::ops {

/// Runs ops as one batch, as a connection does, holding every flash
/// completion (posted home) until Release.
class HeldBatch {
 public:
  HeldBatch() {
    batch.post_home = [this](std::function<void()> fn) {
      std::lock_guard<std::mutex> lock(mu_);
      held_.push_back(std::move(fn));
      cv_.notify_all();
    };
    batch.on_complete = [this] { completed_ = true; };
  }

  BatchOp& Add(Verb verb, std::string_view key) {
    BatchOp& op = batch.Push();
    op.verb = verb;
    op.key = key;
    op.with_cas = verb == Verb::kGets || verb == Verb::kGats;
    op.touch = verb == Verb::kGat || verb == Verb::kGats;
    return op;
  }

  /// Runs the batch; true when no op waits on flash.
  bool Execute(CacheService& service) {
    completed_ = service.ExecuteBatch(batch);
    return completed_;
  }

  /// Blocks until a completion is held (an IO-thread read posts it).
  bool WaitHeld(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return !held_.empty(); });
  }

  [[nodiscard]] std::size_t held() {
    std::lock_guard<std::mutex> lock(mu_);
    return held_.size();
  }

  /// Runs the held completion at `i` (oldest first by default).
  void Release(std::size_t i = 0) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn = std::move(held_[i]);
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    fn();
  }

  /// Releases completions in arrival order until the batch has finished,
  /// waiting for the ones an IO thread has yet to post.
  void ReleaseAll() {
    while (!completed_) {
      if (held() == 0 && !WaitHeld(std::chrono::seconds(10))) {
        ADD_FAILURE() << "a flash completion never arrived";
        return;
      }
      Release();
    }
  }

  [[nodiscard]] bool completed() const { return completed_; }

  [[nodiscard]] std::string Reply(std::size_t i) const {
    const auto& out = batch.op(i).out;
    return std::string(out.data(), out.size());
  }

  Batch batch;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> held_;
  bool completed_ = false;
};

/// Runs one op (`fill` sets its arguments) as a batch of one, to the end,
/// and returns its wire reply.
template <typename Fill>
std::string RunOne(CacheService& service, Verb verb, std::string_view key,
                   Fill&& fill) {
  HeldBatch b;
  fill(b.Add(verb, key));
  if (!b.Execute(service)) b.ReleaseAll();
  return b.Reply(0);
}

/// get/gets: appends the VALUE block to `out` on a hit.
inline bool Get(CacheService& service, std::string_view key,
                std::vector<char>& out, bool with_cas = false) {
  const std::string reply = RunOne(
      service, with_cas ? Verb::kGets : Verb::kGet, key, [](BatchOp&) {});
  out.insert(out.end(), reply.begin(), reply.end());
  return !reply.empty();
}

/// One of the six storage verbs (`verb` is kSet, kAdd, ... kCas).
inline StoreStatus Store(CacheService& service, Verb verb,
                         std::string_view key, std::uint32_t flags,
                         std::int64_t exptime_s, std::string_view value,
                         std::uint64_t cas_unique = 0) {
  const std::string reply = RunOne(service, verb, key, [&](BatchOp& op) {
    op.flags = flags;
    op.exptime = exptime_s;
    op.value = value;
    op.cas = cas_unique;
  });
  for (const StoreStatus status :
       {StoreStatus::kStored, StoreStatus::kNotStored, StoreStatus::kExists,
        StoreStatus::kNotFound}) {
    if (reply == StoreReplyText(status)) return status;
  }
  ADD_FAILURE() << "unexpected store reply: " << reply;
  return StoreStatus::kNotStored;
}

/// set with no TTL; true when stored.
inline bool Set(CacheService& service, std::string_view key,
                std::uint32_t flags, std::string_view value) {
  return Store(service, Verb::kSet, key, flags, 0, value) ==
         StoreStatus::kStored;
}

/// Parses an incr/decr wire reply.
inline ArithmeticResult ParseArithmetic(const std::string& reply) {
  if (reply == kNotFoundReply) {
    return ArithmeticResult{ArithmeticResult::Status::kNotFound, 0};
  }
  if (reply.rfind("CLIENT_ERROR", 0) == 0) {
    return ArithmeticResult{ArithmeticResult::Status::kNonNumeric, 0};
  }
  return ArithmeticResult{ArithmeticResult::Status::kOk,
                          std::strtoull(reply.c_str(), nullptr, 10)};
}

inline ArithmeticResult IncrDecr(CacheService& service, std::string_view key,
                                 std::uint64_t delta, bool increment) {
  return ParseArithmetic(
      RunOne(service, increment ? Verb::kIncr : Verb::kDecr, key,
             [delta](BatchOp& op) { op.delta = delta; }));
}

/// touch: true when the key was cached.
inline bool Touch(CacheService& service, std::string_view key,
                  std::int64_t exptime_s) {
  return RunOne(service, Verb::kTouch, key, [exptime_s](BatchOp& op) {
           op.exptime = exptime_s;
         }) == kTouchedReply;
}

/// delete: true when the key was cached.
inline bool Del(CacheService& service, std::string_view key) {
  return RunOne(service, Verb::kDelete, key, [](BatchOp&) {}) ==
         kDeletedReply;
}

}  // namespace pamakv::net::ops
