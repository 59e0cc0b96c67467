// Batch: a connection's staged pipeline of parsed requests, grouped by
// shard for shard-affine execution.
//
// The connection stages up to --batch-depth complete commands into one
// Batch (keys and payloads copied out of the receive buffer, so the rx
// vector may grow or compact while the batch is in flight), the
// ShardExecutor routes the ops to their shard owners, and each op writes
// its wire reply into its own `out` buffer. When every sub-batch has
// completed, the connection concatenates the per-op buffers back in
// request order — the re-sequencing step that makes batched execution
// byte-identical to the serial path regardless of which shard finished
// first.
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

#include "pamakv/net/protocol.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv::net {

class EventLoop;
class ShardExecutor;

/// One staged command (one key of a multi-key retrieval becomes one op).
struct BatchOp {
  Verb verb = Verb::kGet;
  KeyId id = 0;              ///< HashStringKey(key), stamped by the executor
  std::uint32_t shard = 0;   ///< destination shard, stamped by the executor
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
  /// metrics only observe verbs the engine actually served — the same
  /// accounting the serial path gets by dropping the connection at the
  /// failing op.
  bool executed = false;
  std::vector<char> out;     ///< this op's wire reply bytes
};

/// A reusable batch of staged ops plus the executor's completion state.
/// Owned by the Connection; referenced by owner-loop closures while in
/// flight, so it must outlive the flight (the server defers connection
/// teardown until the batch completes).
class Batch {
 public:
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
    op.out.clear();
    return op;
  }
  void Reset() noexcept { size_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] BatchOp& op(std::size_t i) noexcept { return ops_[i]; }
  [[nodiscard]] const BatchOp& op(std::size_t i) const noexcept {
    return ops_[i];
  }

  // ---- executor state (set up by ShardExecutor::Execute) ----
  /// Per-shard op indices (inner vectors keep capacity across batches).
  std::vector<std::vector<std::uint32_t>> groups;
  /// Shards with a non-empty group this batch, in first-op order.
  std::vector<std::uint32_t> active_shards;
  /// Sub-batches still running, plus one dispatch guard held by Execute.
  /// The decrement that reaches zero-after-guard owns completion.
  std::atomic<std::uint32_t> pending{0};
  /// A non-storage op hit bad_alloc mid-batch: the connection must close
  /// (the serial path drops the connection in the same situation).
  std::atomic<bool> failed{false};
  /// The connection's serving loop: remote sub-batch completion posts
  /// `on_complete` here.
  EventLoop* home = nullptr;
  /// The executor running this batch. Remote sub-batch closures reach it
  /// through the batch, which keeps them small enough for std::function's
  /// inline storage: a cross-loop post allocates nothing.
  ShardExecutor* executor = nullptr;
  /// Invoked on the home loop once every sub-batch is done. Bound once by
  /// Connection::set_executor, so completion allocates nothing per batch.
  std::function<void()> on_complete;

 private:
  std::vector<BatchOp> ops_;
  std::size_t size_ = 0;  ///< staged ops; slots beyond keep their capacity
};

}  // namespace pamakv::net
