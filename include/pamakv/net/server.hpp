// Server: TCP front end binding CacheService to the memcached protocol.
//
// One nonblocking listen socket + N event-loop threads. The acceptor runs
// on loop 0 and hands each accepted connection to a loop round-robin (via
// EventLoop::Post, so every connection is owned and touched by exactly
// one loop thread); request handling then locks only the CacheService
// shard the key routes to. Start() with port 0 binds an ephemeral port —
// port() reports the real one, which is how the in-process integration
// tests run against real sockets without fixed-port collisions.
//
// Connection lifecycle (all knobs in ServerConfig, all off by default
// except backpressure; every behavior is exercised under a FakeClock in
// tests/net_server_test.cpp):
//
//  * accept limits — at max_conns the acceptor sheds the new socket with
//    "SERVER_ERROR too many connections" before closing it;
//  * idle reaping — a per-connection timer closes a connection exactly
//    idle_timeout_ms after its last I/O activity;
//  * request deadline — a connection mid-request (partial command line or
//    a set awaiting payload) is closed request_timeout_ms after the
//    request's first byte, so a stalled sender cannot pin buffers;
//  * tx backpressure — once the unsent response backlog reaches
//    tx_pause_bytes the loop stops reading the client (EPOLLIN off) until
//    it drains to tx_resume_bytes; a backlog above tx_cap_bytes
//    hard-closes the connection;
//  * graceful drain — Shutdown(grace) stops accepting, lets in-flight
//    requests complete and tx buffers flush, then force-closes whatever
//    remains when the grace deadline (on the injected clock) expires.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pamakv/net/connection.hpp"
#include "pamakv/net/event_loop.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv::net {

class CacheService;
class ShardExecutor;

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 11211;  ///< 0 => ephemeral, see Server::port()
  std::size_t threads = 1;     ///< event-loop threads

  // ---- shard-affine execution (DESIGN.md §12) ----
  /// Max pipelined commands staged into one batch before dispatching to
  /// the shard owner loops. 0 (the default) keeps the serial per-command
  /// path; server/main.cpp turns it on at 64.
  std::size_t batch_depth = 0;
  /// Striped read fast path: an all-read sub-batch for a remote shard may
  /// run on the requesting loop under try_lock instead of hopping to the
  /// owner. Only meaningful with batch_depth > 0.
  bool striped_reads = true;

  // ---- lifecycle knobs ----
  std::size_t max_conns = 0;          ///< shed accepts above this (0 = off)
  std::int64_t idle_timeout_ms = 0;   ///< reap idle connections (0 = off)
  std::int64_t request_timeout_ms = 0;  ///< in-flight request cap (0 = off)
  std::size_t tx_pause_bytes = 256 * 1024;   ///< stop reading above (0 = off)
  std::size_t tx_resume_bytes = 64 * 1024;   ///< resume reading below
  std::size_t tx_cap_bytes = 0;       ///< hard-close above (0 = off)
  /// How long the acceptor stays disarmed after an accept error that
  /// cannot be shed (fd/memory exhaustion) before retrying. See Accept().
  std::int64_t accept_retry_ms = 10;
  /// Clock for timers/timeouts; nullptr => the real SteadyClock. Tests
  /// inject a FakeClock and drive every timeout with Advance().
  util::Clock* clock = nullptr;

  // ---- expiry reaping ----
  /// Period of the background expiry sweep on loop 0 (0 = off, the
  /// default — lazy expiry on access still runs; the sweep only bounds
  /// how long dead-but-unread items hold memory). server/main.cpp turns
  /// it on at 1000ms.
  std::int64_t reap_interval_ms = 0;
  /// Max expired items collected per shard per sweep — bounds the time a
  /// sweep holds each shard lock; the leftover carries to the next sweep.
  std::size_t reap_batch = 1024;
};

class Server {
 public:
  Server(const ServerConfig& config, CacheService& service);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Wires per-verb service-time histograms (pamakv_service_time_us{verb}),
  /// the tx-flush histogram (pamakv_tx_flush_us) and connection gauges
  /// into `registry`. Call before Start(); `registry` must outlive the
  /// server. Connections accepted afterwards record into the histograms.
  void EnableMetrics(util::MetricsRegistry& registry);

  /// Binds, listens and spawns the loop threads. Throws std::system_error
  /// on socket errors (e.g. port in use).
  void Start();
  /// Stops the loops, joins the threads, closes every connection
  /// immediately (in-flight requests are dropped). Safe to call twice;
  /// the destructor calls it.
  void Stop();
  /// Graceful drain: stops accepting, lets every connection finish its
  /// in-flight request and flush its tx buffer, closing each as it goes
  /// quiescent; connections still busy when `grace` expires (on the
  /// configured clock) are force-closed. Blocks until the loops are down
  /// and returns true when the drain completed without force-closing.
  bool Shutdown(std::chrono::milliseconds grace);
  /// True once Shutdown has marked every loop draining (and armed the
  /// grace deadline) — the point from which a test may Advance() a fake
  /// clock to trigger the forced path.
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Actual bound port (differs from config when config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint64_t total_connections() const noexcept {
    return total_connections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t curr_connections() const noexcept {
    return curr_connections_.load(std::memory_order_relaxed);
  }
  /// Accepts shed with SERVER_ERROR because max_conns was reached.
  [[nodiscard]] std::uint64_t rejected_connections() const noexcept {
    return rejected_connections_.load(std::memory_order_relaxed);
  }
  /// Connections closed by the idle/request deadline timers.
  [[nodiscard]] std::uint64_t timed_out_connections() const noexcept {
    return timed_out_connections_.load(std::memory_order_relaxed);
  }
  /// Connections hard-closed for exceeding tx_cap_bytes.
  [[nodiscard]] std::uint64_t overflow_closes() const noexcept {
    return overflow_closes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t backpressure_pauses() const noexcept {
    return backpressure_pauses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t backpressure_resumes() const noexcept {
    return backpressure_resumes_.load(std::memory_order_relaxed);
  }
  /// Connections accepted through the reserved fd and shed with
  /// "SERVER_ERROR out of file descriptors" during EMFILE/ENFILE.
  [[nodiscard]] std::uint64_t emfile_sheds() const noexcept {
    return emfile_sheds_.load(std::memory_order_relaxed);
  }
  /// Times the acceptor disarmed itself (accept_retry_ms backoff) because
  /// an accept error could not be shed.
  [[nodiscard]] std::uint64_t accept_pauses() const noexcept {
    return accept_pauses_.load(std::memory_order_relaxed);
  }
  /// Connections dropped because their handler threw (bad_alloc during
  /// registration or request processing).
  [[nodiscard]] std::uint64_t error_closes() const noexcept {
    return error_closes_.load(std::memory_order_relaxed);
  }
  /// Background expiry sweeps completed (reap_interval_ms > 0 only).
  [[nodiscard]] std::uint64_t reap_sweeps() const noexcept {
    return reap_sweeps_.load(std::memory_order_relaxed);
  }
  /// Expired items reclaimed by background sweeps (lazy on-access expiry
  /// is counted by the engine's `expired` stat, not here).
  [[nodiscard]] std::uint64_t reaped_items() const noexcept {
    return reaped_items_.load(std::memory_order_relaxed);
  }
  /// Sweeps abandoned because the reap path threw (bad_alloc growing a
  /// collection buffer, or the svc.reap failpoint); the timer re-arms and
  /// the items are retried next period.
  [[nodiscard]] std::uint64_t reap_failures() const noexcept {
    return reap_failures_.load(std::memory_order_relaxed);
  }
  /// epoll_wait returns summed across the loop threads; a bounded delta
  /// while the server sits in an error state proves nothing busy-spins.
  /// Valid only while the server is running.
  [[nodiscard]] std::uint64_t LoopIterations() const;
  /// Interest-mask re-arms (epoll_ctl MOD) summed across the loop threads.
  [[nodiscard]] std::uint64_t EpollMods() const;

  /// Connections currently mid-request, summed across loops (blocks on a
  /// round-trip through every loop thread; valid only while running).
  [[nodiscard]] std::size_t MidRequestConnections();

  /// Appends the server-level "STAT name value" lines (connection and
  /// lifecycle counters) — wired into the `stats` command via
  /// CacheService::SetExtraStats.
  void AppendServerStats(std::vector<char>& out) const;

 private:
  /// Per-loop world: the loop, its thread, and the connections it owns.
  struct Loop {
    explicit Loop(util::Clock& clock) : loop(clock) {}
    EventLoop loop;
    std::thread thread;
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    bool draining = false;  ///< loop-thread only
  };

  void Accept();
  /// EMFILE/ENFILE: momentarily releases the reserved fd so one accept
  /// can succeed, sheds that connection with an explanation, and retakes
  /// the reserve. Returns false when accept still failed (shedding is
  /// impossible; the caller must disarm instead).
  bool ShedOverflowAccept();
  /// Deregisters the listener and re-arms it accept_retry_ms later — a
  /// listener left readable under level-triggered epoll would otherwise
  /// spin the loop at 100% CPU until fds freed up.
  void PauseAccepting();
  void Register(Loop& loop, int fd);
  void HandleEvents(Loop& loop, Connection& conn, std::uint32_t events);
  /// Tail of request handling shared by HandleEvents and OnBatchDone:
  /// flush output, apply backpressure watermarks and the tx cap, close a
  /// quiescent draining connection, refresh the epoll interest mask and
  /// lifecycle timers. `open` false forces a close (read side saw EOF).
  void PostProcess(Loop& loop, Connection& conn, bool open);
  /// Runs on the home loop after a connection's asynchronous work — a
  /// sequenced batch (set_executor) or a flash-read completion
  /// (set_flash) — finalizes a deferred close or post-processes the
  /// fresh output.
  void OnBatchDone(Loop& loop, Connection& conn);
  void CloseConnection(Loop& loop, int fd);
  /// Earliest idle/request deadline for `conn`, 0 when none applies.
  [[nodiscard]] std::int64_t NextDeadlineNs(const Connection& conn) const;
  /// (Re)arms the per-connection lifecycle timer when the next deadline
  /// moved earlier than what is armed; timers are otherwise lazy — they
  /// fire, recheck against fresh timestamps, and re-arm.
  void ArmLifecycleTimer(Loop& loop, Connection& conn);
  void OnLifecycleTimer(Loop& loop, int fd);
  /// Arms the next background expiry sweep on loop 0 (reap_interval_ms
  /// from now); each firing sweeps then re-arms until the loop drains.
  void ArmReapTimer();
  /// Joins loop threads and releases sockets/maps (Stop and Shutdown
  /// converge here).
  void Teardown();

  ServerConfig config_;
  CacheService* service_;
  util::Clock* clock_;
  /// Shard-affine batch router; non-null only with batch_depth > 0 while
  /// the server is running (built in Start, released in Teardown).
  std::unique_ptr<ShardExecutor> executor_;
  /// Latency hooks shared by every connection; inert until EnableMetrics
  /// fills it (clock_ set <=> enabled).
  ConnectionMetrics conn_metrics_;
  util::Histogram* tx_flush_us_ = nullptr;
  int listen_fd_ = -1;
  /// Reserved fd (an open /dev/null) sacrificed during EMFILE so accept
  /// can momentarily succeed; -1 outside Start..Teardown.
  int spare_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_forced_{false};
  std::atomic<std::uint64_t> total_connections_{0};
  std::atomic<std::uint64_t> curr_connections_{0};
  std::atomic<std::uint64_t> rejected_connections_{0};
  std::atomic<std::uint64_t> timed_out_connections_{0};
  std::atomic<std::uint64_t> overflow_closes_{0};
  std::atomic<std::uint64_t> backpressure_pauses_{0};
  std::atomic<std::uint64_t> backpressure_resumes_{0};
  std::atomic<std::uint64_t> emfile_sheds_{0};
  std::atomic<std::uint64_t> accept_pauses_{0};
  std::atomic<std::uint64_t> error_closes_{0};
  std::atomic<std::uint64_t> reap_sweeps_{0};
  std::atomic<std::uint64_t> reaped_items_{0};
  std::atomic<std::uint64_t> reap_failures_{0};
};

}  // namespace pamakv::net
