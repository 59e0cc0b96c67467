#include "pamakv/net/shard_executor.hpp"

#include "pamakv/cache/string_keys.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/event_loop.hpp"
#include "pamakv/net/protocol.hpp"

namespace pamakv::net {

namespace {

/// Verbs the striped read path may run off the owner thread: pure lookups.
/// gat/gats mutate deadlines and wheel state, so they stay owner-affine.
bool IsReadOnlyVerb(Verb v) noexcept {
  return v == Verb::kGet || v == Verb::kGets;
}

}  // namespace

ShardExecutor::ShardExecutor(CacheService& service,
                             const ShardExecutorConfig& config)
    : service_(&service), inline_reads_(config.inline_reads) {}

void ShardExecutor::Bind(const std::vector<EventLoop*>& loops) {
  owners_.clear();
  if (loops.empty()) return;
  const std::size_t shards = service_->shard_count();
  owners_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    owners_.push_back(loops[s % loops.size()]);
  }
}

void ShardExecutor::ExecuteGroup(Batch& batch, std::uint32_t shard) {
  const auto& idx = batch.groups[shard];
  service_->ExecuteOps(shard, batch, idx.data(), idx.size());
}

void ShardExecutor::RunRemoteGroup(Batch& batch, std::uint32_t shard) {
  ExecuteGroup(batch, shard);
  if (batch.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Posting a copy of on_complete would copy its (possibly heap-held)
    // target; the batch outlives the flight, so a reference suffices.
    batch.home->Post([&batch] { batch.on_complete(); });
  }
}

bool ShardExecutor::Execute(Batch& batch, EventLoop* home) {
  const std::size_t shards = service_->shard_count();
  if (batch.groups.size() < shards) batch.groups.resize(shards);
  for (const std::uint32_t s : batch.active_shards) batch.groups[s].clear();
  batch.active_shards.clear();
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    BatchOp& op = batch.op(i);
    op.id = HashStringKey(op.key);
    op.shard = static_cast<std::uint32_t>(service_->ShardIndexForId(op.id));
    if (batch.groups[op.shard].empty()) batch.active_shards.push_back(op.shard);
    batch.groups[op.shard].push_back(i);
  }
  batch.home = home;
  batch.executor = this;
  batch.failed.store(false, std::memory_order_relaxed);
  // +1 dispatch guard: completion cannot fire while sub-batches are still
  // being handed out below, even if a remote one finishes instantly.
  batch.pending.store(
      static_cast<std::uint32_t>(batch.active_shards.size()) + 1,
      std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_ops_.fetch_add(batch.size(), std::memory_order_relaxed);

  for (const std::uint32_t s : batch.active_shards) {
    EventLoop* owner = owners_.empty() ? nullptr : owners_[s];
    if (owner == nullptr || owner == home) {
      ExecuteGroup(batch, s);
      batch.pending.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (inline_reads_) {
      const auto& idx = batch.groups[s];
      bool all_reads = true;
      for (const std::uint32_t i : idx) {
        if (!IsReadOnlyVerb(batch.op(i).verb)) {
          all_reads = false;
          break;
        }
      }
      // Striped read: a pure-lookup sub-batch may run right here under the
      // shard mutex, skipping the owner-thread hop. try_lock only — the
      // fallback is the post, never a block.
      if (all_reads &&
          service_->TryExecuteOps(s, batch, idx.data(), idx.size())) {
        inline_read_batches_.fetch_add(1, std::memory_order_relaxed);
        batch.pending.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
    }
    owner_posts_.fetch_add(1, std::memory_order_relaxed);
    // Two words of capture: within std::function's inline buffer.
    owner->Post([&batch, s] { batch.executor->RunRemoteGroup(batch, s); });
  }
  // Drop the dispatch guard. Reaching zero here means every sub-batch
  // already finished (all inline, or a remote one beat us to its
  // decrement) — the acq_rel ordering makes their writes visible, so the
  // caller may sequence responses immediately.
  return batch.pending.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

void ShardExecutor::AppendExecutorStats(std::vector<char>& out) const {
  AppendStat(out, "executor_batches", Batches());
  AppendStat(out, "executor_batched_ops", BatchedOps());
  AppendStat(out, "executor_owner_posts", OwnerPosts());
  AppendStat(out, "executor_striped_reads", InlineReadBatches());
}

}  // namespace pamakv::net
