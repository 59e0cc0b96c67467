// ShardExecutor: routes a connection's staged Batch to shard owners.
//
// Shard-affine execution: Bind() assigns each CacheService shard to
// exactly one event loop (shard s -> loops[s % loops.size()]), and
// Execute() hands each per-shard sub-batch to its owner — inline when the
// owner is the requesting connection's own loop, via EventLoop::Post
// (eventfd marshaling) otherwise. One handoff and one lock acquisition
// are amortized across the whole sub-batch instead of one mutex
// round-trip per op, which is what turns a deep pipeline from N lock
// acquisitions into ~num_shards.
//
// Striped read fast path: a sub-batch of pure reads (get/gets) for a
// non-home shard may execute on the requesting thread under
// CacheService::TryExecuteOps (mutex try_lock) — correct because every
// shard op still runs under that shard's mutex; affinity is a throughput
// optimization, not a safety requirement. On contention it falls back to
// the owner post, so the owner thread never blocks behind a reader.
//
// Unbound (Bind never called, or called with no loops), every sub-batch
// executes inline on the caller: the synchronous mode the equivalence
// and zero-allocation tests drive, and what a --loop-threads=1 server
// effectively runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "pamakv/net/batch.hpp"

namespace pamakv::net {

class CacheService;
class EventLoop;

struct ShardExecutorConfig {
  /// Enable the striped read fast path for all-read remote sub-batches.
  bool inline_reads = true;
};

class ShardExecutor {
 public:
  explicit ShardExecutor(CacheService& service,
                         const ShardExecutorConfig& config = {});

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Assigns shard owners round-robin over `loops`. Empty => every
  /// sub-batch executes inline on the calling thread. Call before any
  /// Execute; not thread-safe against in-flight batches.
  void Bind(const std::vector<EventLoop*>& loops);

  /// Routes and runs `batch`. Returns true when every sub-batch completed
  /// synchronously (the caller sequences the responses immediately);
  /// false when at least one sub-batch is running on another loop — the
  /// batch is in flight and `batch.on_complete` will be posted to `home`
  /// once the last sub-batch finishes. `home` may be null only when the
  /// executor is unbound.
  bool Execute(Batch& batch, EventLoop* home);

  // ---- counters (relaxed; exported via server stats) ----
  [[nodiscard]] std::uint64_t Batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t BatchedOps() const noexcept {
    return batched_ops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t OwnerPosts() const noexcept {
    return owner_posts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t InlineReadBatches() const noexcept {
    return inline_read_batches_.load(std::memory_order_relaxed);
  }

  /// "STAT batch_*" lines for the server's stats surface.
  void AppendExecutorStats(std::vector<char>& out) const;

 private:
  void ExecuteGroup(Batch& batch, std::uint32_t shard);
  /// A remote sub-batch on its owner loop: runs the group, and the last
  /// sub-batch to finish posts the completion home.
  void RunRemoteGroup(Batch& batch, std::uint32_t shard);

  CacheService* service_;
  bool inline_reads_;
  /// Owner loop per shard index; empty => unbound (inline execution).
  std::vector<EventLoop*> owners_;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_ops_{0};
  std::atomic<std::uint64_t> owner_posts_{0};
  std::atomic<std::uint64_t> inline_read_batches_{0};
};

}  // namespace pamakv::net
