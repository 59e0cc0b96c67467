// Batch: a connection's staged pipeline of parsed requests, grouped by
// shard for execution.
//
// Every command runs as part of a batch; a single command is a batch of
// one. The connection stages up to --batch-depth complete commands into
// one Batch (keys and payloads copied out of the receive buffer, so the rx
// vector may grow or compact while the batch is in flight), and
// CacheService::ExecuteBatch groups the ops by shard and runs each shard's
// ops in request order under that shard's lock, on the calling thread.
// Each op writes its wire reply into its own `out` buffer. When every
// shard's ops have finished, the connection concatenates the per-op
// buffers back in request order — the re-sequencing step that keeps the
// response stream in request order whichever shard finished first.
//
// An op whose key lives on the flash tier stops its shard's ops: its read
// is submitted once the shard lock is released, and its completion —
// posted to the connection's home loop — finishes the op and resumes the
// shard's remaining ops. Ops of other shards are not held up.
//
// Allocation discipline matches the rest of the request path: BatchOp
// slots, their key/value strings, the per-op output buffers and the
// per-shard index groups all keep their capacity across batches (Push and
// Reset move a size watermark, nothing is freed), so a warm connection
// runs the staged path without touching the heap.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv::net {

/// The flash read a deferred op waits on. Armed by the service (under the
/// shard lock) when the op's key is flash-resident; the engine has already
/// been charged the miss, and `cas` pins the slot version so the
/// completion can detect a delete or overwrite that raced the read.
struct FlashRead {
  bool armed = false;
  std::uint64_t cas = 0;
  flash::ReadTicket ticket;
};

/// One staged command (one key of a multi-key retrieval becomes one op).
struct BatchOp {
  Verb verb = Verb::kGet;
  KeyId id = 0;              ///< HashStringKey(key), stamped by the service
  std::uint32_t shard = 0;   ///< destination shard, stamped by the service
  std::string key;
  std::string value;         ///< storage payload
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;
  std::uint64_t delta = 0;   ///< incr/decr amount
  std::uint64_t cas = 0;     ///< cas unique
  bool noreply = false;
  bool with_cas = false;     ///< gets/gats: emit the CAS stamp
  bool touch = false;        ///< gat/gats: refresh the deadline
  bool append_end = false;   ///< last key of a retrieval: append "END\r\n"
  /// The op produced its reply (including an in-band SERVER_ERROR). Ops
  /// skipped after a mid-batch failure stay false so the connection's
  /// metrics only observe verbs the engine actually served.
  bool executed = false;
  FlashRead flash;           ///< set while the op waits on a flash read
  std::vector<char> out;     ///< this op's wire reply bytes
};

/// A reusable batch of staged ops plus its execution state. Owned by the
/// Connection; referenced by flash-read completions while in flight, so
/// it must outlive the flight (the server defers connection teardown
/// until the batch completes).
class Batch {
 public:
  /// Runs a closure on the connection's home loop.
  using Poster = std::function<void(std::function<void()>)>;

  /// Next op slot, field-reset but with key/value/out capacity intact.
  BatchOp& Push() {
    if (size_ == ops_.size()) ops_.emplace_back();
    BatchOp& op = ops_[size_++];
    op.verb = Verb::kGet;
    op.id = 0;
    op.shard = 0;
    op.key.clear();
    op.value.clear();
    op.flags = 0;
    op.exptime = 0;
    op.delta = 0;
    op.cas = 0;
    op.noreply = false;
    op.with_cas = false;
    op.touch = false;
    op.append_end = false;
    op.executed = false;
    op.flash.armed = false;
    op.out.clear();
    return op;
  }
  void Reset() noexcept { size_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] BatchOp& op(std::size_t i) noexcept { return ops_[i]; }
  [[nodiscard]] const BatchOp& op(std::size_t i) const noexcept {
    return ops_[i];
  }

  // ---- execution state (set up by CacheService::ExecuteBatch) ----
  /// One shard's ops, in request order.
  struct ShardGroup {
    std::vector<std::uint32_t> ops;  ///< op indices (capacity kept)
    std::uint32_t next = 0;          ///< first op not yet run
    /// A flash read for ops[next] is being submitted; a completion that
    /// lands meanwhile (a tier without an IO thread completes inline)
    /// sets `landed` and leaves the resume to the submitting loop, so
    /// synchronous completions loop instead of recursing.
    bool submitting = false;
    bool landed = false;
  };
  /// Indexed by shard.
  std::vector<ShardGroup> groups;
  /// Shards with a non-empty group this batch, in first-op order.
  std::vector<std::uint32_t> active_shards;
  /// Shard groups still running, plus one dispatch guard held by
  /// ExecuteBatch. The decrement that reaches zero owns completion.
  std::atomic<std::uint32_t> pending{0};
  /// A non-storage op hit bad_alloc mid-batch: the connection must close.
  std::atomic<bool> failed{false};
  /// Where flash-read completions run: the connection's home loop. Empty,
  /// they run on the thread the tier completes them on — inline on the
  /// submitting thread for a tier without an IO thread (tests, benches).
  /// A tier with an IO thread needs a poster.
  Poster post_home;
  /// Invoked through post_home once the last deferred op and the ops
  /// behind it have finished. Bound once by the Connection, so completion
  /// allocates nothing per batch.
  std::function<void()> on_complete;

 private:
  std::vector<BatchOp> ops_;
  std::size_t size_ = 0;  ///< staged ops; slots beyond keep their capacity
};

}  // namespace pamakv::net
