// Connection: per-client protocol state machine with reusable buffers.
//
// The byte-level core is socket-free: Ingest() accepts whatever fragment
// of the request stream just arrived (any split, any garbage), consumes
// complete commands, and appends responses to the output buffer. The
// event loop wraps it with nonblocking read/write; tests drive Ingest()
// directly, which is also how the zero-allocation harness measures the
// read→parse→respond path without socket noise.
//
// One execution path: every complete command is staged into the
// connection's Batch and run by CacheService::ExecuteBatch on the calling
// loop; a single command is a batch of one. Commands that cannot share a
// batch (stats, flush_all, version, bgsave, quit, and every error reply)
// wait until the staged ops have run and are answered by the staging loop
// itself, so replies always leave in request order.
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

/// Batch depth of a connection nobody configured (server/main.cpp's
/// --batch-depth default).
inline constexpr std::size_t kDefaultBatchDepth = 64;

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

  // ---- batched execution ----
  /// Max commands staged into one batch; 0 is taken as 1 (a single
  /// command is a batch of one). A multi-key retrieval is never split, so
  /// a batch may exceed the depth by its keys.
  void set_batch_depth(std::size_t depth) noexcept {
    batch_depth_ = depth == 0 ? 1 : depth;
  }
  /// Wires where asynchronous work finishes. A flash read's completion is
  /// run through `post` (the serving loop's Post; empty runs it on the
  /// tier's completing thread, inline for a tier without an IO thread),
  /// and `on_done` fires after a batch that waited on flash has been
  /// sequenced (the server flushes output and re-arms there; it may
  /// destroy the connection).
  void set_home(Batch::Poster post, std::function<void()> on_done);
  /// A batch is waiting on a flash read.
  [[nodiscard]] bool batch_in_flight() const noexcept {
    return batch_in_flight_;
  }
  /// Completion hook: runs on the home loop when the last deferred op of
  /// an in-flight batch finishes (wired as Batch::on_complete).
  void OnBatchComplete();
  /// Unconsumed request bytes buffered while a batch is in flight stop
  /// the reading at this many: rx_ then holds at most this plus one read
  /// chunk until the batch completes.
  static constexpr std::size_t kInFlightRxBytes = 64 * 1024;
  /// True while reading must wait for the in-flight batch (the loop
  /// disarms EPOLLIN, as it does for backpressure).
  [[nodiscard]] bool rx_full() const noexcept {
    return batch_in_flight_ && rx_.size() - rx_head_ >= kInFlightRxBytes;
  }
  /// Allocated size of the receive buffer: its high-water mark (tests).
  [[nodiscard]] std::size_t rx_capacity() const noexcept {
    return rx_.capacity();
  }

  /// Set by the serving loop when close was requested mid-flight: the fd
  /// is already torn down, the Connection object waits for the batch.
  bool close_deferred = false;

  // ---- lifecycle state (owned by the serving loop; see server.cpp) ----
  /// A request is in flight: a partial command line, a set awaiting its
  /// payload, an oversized payload still being swallowed, or a batch
  /// waiting on a flash read.
  [[nodiscard]] bool mid_request() const noexcept {
    return discard_remaining_ > 0 || rx_head_ < rx_.size() || batch_in_flight_;
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
  /// Records `verb`'s service time from `start_ns` to now, when wired.
  void ObserveVerb(Verb verb, std::int64_t start_ns) noexcept;
  void ReleaseConsumed();
  void FatalClientError(std::string_view message);

  /// What StageNextCommand did with the bytes at rx_head_.
  enum class StageStatus : std::uint8_t {
    kStaged,    ///< consumed input (an op staged, a barrier run, discard)
    kNeedMore,  ///< incomplete command; wait for more bytes
    kBarrier,   ///< must not batch: run the staged ops first
  };
  /// Stages complete commands and executes batches until the input runs
  /// dry, a batch waits on flash, or the connection closes.
  void ProcessInput();
  /// Parses the next command and stages it. A command that cannot share
  /// a batch — a barrier verb, a parse error, an oversized store, a bad
  /// data chunk, a line too long — returns kBarrier while ops are staged
  /// and is answered here once the batch is empty.
  StageStatus StageNextCommand();
  /// Runs stats / flush_all / version / bgsave / quit.
  void RunBarrierVerb(const Command& cmd);
  /// kBarrier while ops are staged; otherwise closes with CLIENT_ERROR.
  StageStatus Fatal(std::string_view message);
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

  /// Oversized store: swallow this many raw bytes without buffering them.
  std::uint64_t discard_remaining_ = 0;
  bool closing_ = false;

  std::int64_t last_activity_ns_ = 0;
  std::int64_t request_start_ns_ = -1;  ///< -1: no request in flight
  bool paused_ = false;
  std::uint32_t armed_events_ = 0;
  std::size_t pause_threshold_ = 0;
  const ConnectionMetrics* metrics_ = nullptr;

  std::size_t batch_depth_ = kDefaultBatchDepth;
  Batch batch_;
  bool batch_in_flight_ = false;
  std::function<void()> on_batch_done_;
  std::int64_t batch_start_ns_ = -1;  ///< dispatch time for verb metrics
};

}  // namespace pamakv::net
