// Connection: per-client protocol state machine with reusable buffers.
//
// The byte-level core is socket-free: Ingest() accepts whatever fragment
// of the request stream just arrived (any split, any garbage), consumes
// complete commands, and appends responses to the output buffer. The
// event loop wraps it with nonblocking read/write; tests drive Ingest()
// directly, which is also how the zero-allocation harness measures the
// read→parse→respond path without socket noise.
//
// Buffer discipline: one receive and one transmit vector per connection,
// trimmed by moving a consumed-offset and compacted by memmove — they
// grow to the connection's high-water mark once and are then reused, so
// steady-state request handling performs no heap allocation (the same
// rule PR 1 enforced inside the engine).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "pamakv/net/batch.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv::net {

class EventLoop;
class ShardExecutor;

/// Shared per-server instrumentation hooks a Connection records into.
/// All pointers may be null (that series is simply not recorded); the
/// whole struct is optional — a connection without one (the default, and
/// what the zero-allocation harness drives) takes no timestamps at all.
/// Histogram::Observe is wait-free, so one struct is safely shared by
/// every connection across all loop threads.
struct ConnectionMetrics {
  util::Clock* clock = nullptr;
  /// Service time per command verb, µs: command dispatch through response
  /// bytes appended (for `set`, payload completion through STORED).
  util::Histogram* service_us[kNumVerbs] = {};
};

/// Socket-facing result of OnReadable/FlushOutput.
enum class IoStatus : std::uint8_t {
  kOk,        ///< progress made, keep the connection
  kWouldBlock,///< kernel buffer empty/full, retry on the next event
  kClosed,    ///< peer closed or protocol demands close
};

class Connection {
 public:
  /// fd < 0 builds a detached connection (tests, alloc harness).
  explicit Connection(CacheService& service, int fd = -1);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Feeds raw bytes into the state machine. Returns false when the
  /// connection must close (quit, fatal protocol violation); pending
  /// output should still be flushed first.
  bool Ingest(const char* data, std::size_t n);

  /// Unsent response bytes (test access; the loop uses FlushOutput).
  [[nodiscard]] std::string_view pending_output() const noexcept {
    return {tx_.data() + tx_head_, tx_.size() - tx_head_};
  }
  /// Drops `n` bytes of pending output (tests; FlushOutput does this
  /// after write()).
  void ConsumeOutput(std::size_t n);

  // ---- socket plumbing (fd >= 0 only) ----
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Reads until EAGAIN/EOF, ingesting as it goes. Stops early (returns
  /// kOk, bytes left in the kernel buffer) once the tx backlog reaches
  /// the pause threshold — backpressure starts inside a single read
  /// burst, not only between epoll rounds.
  IoStatus OnReadable();
  /// Writes pending output until EAGAIN or drained.
  IoStatus FlushOutput();
  [[nodiscard]] bool wants_write() const noexcept {
    return tx_head_ < tx_.size();
  }
  /// Unsent response bytes (the backpressure watermark input).
  [[nodiscard]] std::size_t tx_backlog() const noexcept {
    return tx_.size() - tx_head_;
  }
  /// True once Ingest decided the connection should close.
  [[nodiscard]] bool closing() const noexcept { return closing_; }

  // ---- batched (shard-affine) execution ----
  /// Switches Ingest to the batched path: complete pipelined commands are
  /// staged into a Batch (up to `depth` ops) and handed to `executor`,
  /// which routes per-shard sub-batches to their owner loops; responses
  /// are re-sequenced into request order when the batch completes.
  /// `home` is the loop this connection is served on (null only with an
  /// unbound executor, which runs fully inline — the test/bench mode).
  /// `on_done` fires on the home loop after an asynchronous batch has
  /// been sequenced (the server flushes output and re-arms timers there);
  /// it may destroy the connection. nullptr executor restores the serial
  /// path.
  void set_executor(ShardExecutor* executor, std::size_t depth,
                    EventLoop* home, std::function<void()> on_done);
  /// A dispatched batch has sub-batches still running on other loops.
  [[nodiscard]] bool batch_in_flight() const noexcept {
    return batch_in_flight_;
  }
  /// Completion hook: runs on the home loop when the last sub-batch of an
  /// asynchronous batch finishes (wired as Batch::on_complete). Public
  /// for the multi-loop test harness; the server never calls it directly.
  void OnBatchComplete();

  /// Set by the serving loop when close was requested mid-flight: the fd
  /// is already torn down, the Connection object waits for the batch (or
  /// the in-flight flash read).
  bool close_deferred = false;

  // ---- flash victim tier (serial path only) ----
  /// Wires the asynchronous flash-read continuation: completions are
  /// posted to `loop` (nullptr completes synchronously on the submitting
  /// thread — detached test connections), and `on_done` fires on that
  /// loop whenever a completion produced output or finished the request
  /// (the server flushes and re-arms there; it may destroy the
  /// connection). The flash path engages whenever the service has a tier
  /// attached and the connection runs serially.
  void set_flash(EventLoop* loop, std::function<void()> on_done);
  /// A flash read is in flight; Ingest only accumulates until it lands.
  [[nodiscard]] bool flash_in_flight() const noexcept {
    return flash_in_flight_;
  }
  /// Completion entry point (public for the test harness; normally
  /// reached via the tier's IO thread posting to the wired loop).
  void OnFlashComplete(bool ok, std::string payload);

  // ---- lifecycle state (owned by the serving loop; see server.cpp) ----
  /// A request is in flight: a partial command line, a set awaiting its
  /// payload, an oversized payload still being swallowed, or a batch
  /// executing on the shard owners.
  [[nodiscard]] bool mid_request() const noexcept {
    return awaiting_data_ || discard_remaining_ > 0 ||
           rx_head_ < rx_.size() || batch_in_flight_ || flash_in_flight_;
  }
  /// Records I/O activity at `now_ns` and tracks when the current
  /// in-flight request started (-1 when none is in flight; 0 is a valid
  /// timestamp under an injected clock).
  void Touch(std::int64_t now_ns) noexcept {
    last_activity_ns_ = now_ns;
    if (mid_request()) {
      if (request_start_ns_ < 0) request_start_ns_ = now_ns;
    } else {
      request_start_ns_ = -1;
    }
  }
  [[nodiscard]] std::int64_t last_activity_ns() const noexcept {
    return last_activity_ns_;
  }
  [[nodiscard]] std::int64_t request_start_ns() const noexcept {
    return request_start_ns_;
  }

  /// Backpressure: while paused the loop deregisters EPOLLIN and
  /// OnReadable refuses to ingest more, until the backlog drains below
  /// the low-water mark.
  [[nodiscard]] bool paused() const noexcept { return paused_; }
  void set_paused(bool paused) noexcept { paused_ = paused; }
  /// The epoll interest mask the loop last armed for this connection, so
  /// the loop re-arms only when the mask changes.
  [[nodiscard]] std::uint32_t armed_events() const noexcept {
    return armed_events_;
  }
  void set_armed_events(std::uint32_t events) noexcept {
    armed_events_ = events;
  }
  /// tx backlog at which OnReadable stops pulling bytes (0 = never).
  void set_pause_threshold(std::size_t bytes) noexcept {
    pause_threshold_ = bytes;
  }

  /// Wires the per-verb latency hooks (nullptr disables; the default).
  /// The struct must outlive the connection — the Server owns one.
  void set_metrics(const ConnectionMetrics* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Scratch slots for the serving loop's per-connection lifecycle timer
  /// (the Connection itself never touches the loop).
  std::uint64_t lifecycle_timer = 0;
  std::int64_t armed_deadline_ns = 0;

 private:
  /// Consumes as many complete commands as the buffer holds.
  void ProcessBuffer();
  /// Executes one parsed command line; storage verbs switch to data mode.
  void ExecuteLine(const Command& cmd);
  void ExecuteRetrieval(const Command& cmd);
  /// Completes the staged storage verb once its payload has arrived.
  void FinishStorage(std::string_view data);
  /// Records `verb`'s service time from `start_ns` to now, when wired.
  void ObserveVerb(Verb verb, std::int64_t start_ns) noexcept;
  void ReleaseConsumed();
  void FatalClientError(std::string_view message);

  // ---- batched path ----
  /// What StageNextCommand decided about the bytes at rx_head_.
  enum class StageStatus : std::uint8_t {
    kStaged,    ///< consumed input (an op staged, or discard progressed)
    kNeedMore,  ///< incomplete command; wait for more bytes
    kBarrier,   ///< must not batch: drain the batch, then run serially
  };
  /// Stages complete batchable commands and dispatches batches until the
  /// input runs dry, a batch goes into flight, or the connection closes.
  void ProcessBatched();
  /// Parses (without consuming on kNeedMore/kBarrier) the next command.
  StageStatus StageNextCommand();
  /// Appends every op's reply to tx_ in request order and resets the
  /// batch; closes the connection when the batch failed.
  void SequenceBatch();

  CacheService* service_;
  int fd_;
  std::vector<char> rx_;
  std::size_t rx_head_ = 0;   ///< first unconsumed byte in rx_
  std::size_t rx_scan_ = 0;   ///< resume offset for the newline scan
  std::vector<char> tx_;
  std::size_t tx_head_ = 0;   ///< first unsent byte in tx_

  // Pending storage verb (set/add/replace/append/prepend/cas): command
  // line seen, waiting for <bytes>CRLF of payload. The key is copied out
  // of rx_ because the buffer may grow/compact while we wait for the rest
  // of the payload.
  bool awaiting_data_ = false;
  Verb pending_verb_ = Verb::kSet;
  char pending_key_[kMaxKeyBytes];
  std::size_t pending_key_len_ = 0;
  std::uint32_t pending_flags_ = 0;
  std::int64_t pending_exptime_ = 0;
  std::uint64_t pending_bytes_ = 0;
  std::uint64_t pending_cas_ = 0;
  bool pending_noreply_ = false;
  /// Oversized store: swallow this many raw bytes without buffering them.
  std::uint64_t discard_remaining_ = 0;
  bool closing_ = false;

  std::int64_t last_activity_ns_ = 0;
  std::int64_t request_start_ns_ = -1;  ///< -1: no request in flight
  bool paused_ = false;
  std::uint32_t armed_events_ = 0;
  std::size_t pause_threshold_ = 0;
  const ConnectionMetrics* metrics_ = nullptr;

  // Batched execution (null executor_ = serial path, the default).
  ShardExecutor* executor_ = nullptr;
  std::size_t batch_depth_ = 0;
  EventLoop* home_loop_ = nullptr;
  Batch batch_;
  bool batch_in_flight_ = false;
  std::function<void()> on_batch_done_;
  std::int64_t batch_start_ns_ = -1;  ///< dispatch time for verb metrics

  // ---- flash continuation state ----
  /// Which verb the in-flight flash read belongs to.
  enum class FlashOp : std::uint8_t { kNone, kRetrieval, kStorage,
                                      kArithmetic };
  /// True when the serial path should consult flash (tier attached and
  /// not running batched).
  [[nodiscard]] bool FlashActive() const noexcept;
  /// Arms the continuation for the op the service just deferred; the
  /// actual submit happens in PumpFlash once the rx cursor is settled.
  void StageFlashWait(FlashOp op);
  /// Submits armed reads. Synchronous completions (no IO thread) loop
  /// here instead of recursing.
  void PumpFlash();
  /// Finishes the deferred verb with the read's payload; may arm another
  /// wait (multi-key retrievals).
  void DispatchFlashCompletion(bool ok, std::string_view payload);
  /// Runs the keys left after a mid-retrieval deferral; appends END when
  /// the list drains without another deferral.
  void ContinueFlashRetrieval();

  CacheService::FlashPending flash_pending_;
  FlashOp flash_op_ = FlashOp::kNone;
  bool flash_in_flight_ = false;
  bool flash_submit_needed_ = false;
  bool in_flash_pump_ = false;
  EventLoop* flash_loop_ = nullptr;
  std::function<void()> on_flash_done_;
  // The deferred op's arguments, copied out of rx_ (the buffer may grow
  // or compact while the read is in flight).
  std::string flash_key_;
  std::vector<std::string> flash_rest_keys_;  ///< multi-get remainder
  std::size_t flash_rest_pos_ = 0;
  bool flash_with_cas_ = false;
  bool flash_touch_ = false;
  std::int64_t flash_exptime_ = 0;
  std::string flash_value_;
  std::uint32_t flash_flags_ = 0;
  std::uint64_t flash_cas_ = 0;
  std::uint64_t flash_delta_ = 0;
  bool flash_increment_ = false;
  bool flash_noreply_ = false;
  Verb flash_wire_verb_ = Verb::kGet;
  std::int64_t flash_start_ns_ = -1;  ///< defer time for verb metrics
};

}  // namespace pamakv::net
