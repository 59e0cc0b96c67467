// The benchmark harness: an in-process pamakv server assembled from the
// same public constructors server/main.cpp uses, the three ways a request
// stream can be executed (loopback TCP, socketless ExecuteOps, bare
// CacheEngine calls), and the client-side tally every run reports from.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/batch.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/server.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/policy/pama.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/metrics.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pamakv::perfbench {

// Topology every run uses; sized for a 4-core host.
inline constexpr std::size_t kLoopThreads = 2;
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kConnections = 2;
inline constexpr std::size_t kBatchDepth = 64;

// ---- /proc readings ----

[[nodiscard]] std::vector<pid_t> ListThreads();
/// Threads in `after` that are not in `before`.
[[nodiscard]] std::vector<pid_t> NewThreads(const std::vector<pid_t>& before,
                                            const std::vector<pid_t>& after);
struct ThreadUsage {
  std::uint64_t cpu_ns = 0;
  std::uint64_t read_syscalls = 0;
  std::uint64_t write_syscalls = 0;
};
/// Summed over `tids`; throws when a thread's /proc entries are unreadable.
[[nodiscard]] ThreadUsage ReadUsage(const std::vector<pid_t>& tids);
[[nodiscard]] double RssMb();
[[nodiscard]] std::uint64_t DirBytes(const std::string& dir);
[[nodiscard]] std::uint64_t ThreadCpuNs();

// ---- server assembly ----

struct StackOptions {
  WorkloadSpec spec;
  std::string data_dir;   ///< persistence on when non-empty
  std::string flash_dir;  ///< flash tier on when non-empty
  /// Wrap every shard's policy in TimedPolicy and the persister in
  /// TimedSink; the engine is then assembled here instead of MakeEngine.
  bool traced = false;
  util::Clock* clock = nullptr;  ///< service clock; nullptr = steady clock
};

/// Builds pama engines the way MakeEngine("pama", ...) does, with the
/// policy wrapped in TimedPolicy.
[[nodiscard]] std::unique_ptr<CacheEngine> MakeTimedPamaEngine(Bytes bytes);
[[nodiscard]] net::CacheService::EngineFactory EngineFactoryFor(bool traced);
[[nodiscard]] net::CacheServiceConfig ServiceConfigFor(const WorkloadSpec& spec,
                                                       util::Clock* clock);

class ServerStack {
 public:
  /// Recovers (when persistence/flash are on) and starts listening.
  explicit ServerStack(const StackOptions& options);
  ~ServerStack();
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  /// Graceful drain, farewell snapshot, persister stop — as on SIGTERM.
  void DrainStop();

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] net::CacheService& service() { return *service_; }
  [[nodiscard]] net::Server& server() { return *server_; }
  [[nodiscard]] util::MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] flash::FlashTier* flash() { return flash_.get(); }
  /// Decision counters summed over shards (PamaPolicy, wrapped or not).
  [[nodiscard]] PamaPolicy::Decisions Decisions() const;

  std::vector<pid_t> loop_tids;  ///< spawned by Server::Start
  std::vector<pid_t> bg_tids;    ///< spawned by Persister::Start
  std::vector<pid_t> io_tids;    ///< spawned by FlashTier::StartIo
  double persist_recover_s = 0.0;
  double flash_recover_s = 0.0;

 private:
  StackOptions options_;
  util::MetricsRegistry registry_;
  std::unique_ptr<net::CacheService> service_;
  std::unique_ptr<persist::Persister> persister_;
  std::unique_ptr<TimedSink> timed_sink_;
  std::unique_ptr<flash::FlashTier> flash_;
  std::unique_ptr<net::Server> server_;
  bool stopped_ = false;
};

// ---- client-side accounting ----

/// Latency histogram of fixed size: exact below 256 ns, then 128 buckets
/// per power of two (under 0.8% wide) up to 2^32 ns. Its memory does not
/// grow with the number of samples, so the client's share of rss_mb stays
/// the same however fast the server answers.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}
  void Add(std::uint32_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }
  void Merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// The sample of rank ceil(q * total), in µs, interpolated linearly
  /// inside its bucket. Throws when the histogram is empty.
  [[nodiscard]] double QuantileUs(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kBuckets =
      (2u << kSubBits) + (32 - kSubBits - 1) * (1u << kSubBits);
  static std::size_t Index(std::uint32_t ns);
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ops = 0;             ///< answered without failure
  std::uint64_t gets = 0;            ///< get + gets
  std::uint64_t get_hits = 0;
  std::uint64_t penalty_missed_us = 0;
  std::uint64_t sets = 0;            ///< set + cas
  std::uint64_t set_refused = 0;     ///< NOT_STORED replies to sets
  std::uint64_t fills = 0;           ///< write-allocate sets after a miss
  std::uint64_t fill_refused = 0;    ///< of those, answered NOT_STORED
  std::uint64_t user_bytes = 0;      ///< payload bytes of stores sent
  std::uint64_t server_errors = 0;
  std::uint64_t bad = 0;             ///< protocol violations, payload mismatches
  std::uint64_t transport_errors = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  LatencyHistogram get_lat;  ///< get/gets latency (when recorded)
  LatencyHistogram set_lat;  ///< set/cas latency (when recorded)

  /// Accounts one executed round; `lat_ns` may be empty (not recorded).
  void Add(const std::vector<Op>& round, const std::vector<Reply>& replies,
           const std::vector<std::int64_t>& lat_ns);
  void Merge(const Tally& other);
  [[nodiscard]] std::uint64_t failed() const {
    return server_errors + bad + transport_errors;
  }
};

// ---- backends: execute one round of ops, one reply per op ----

class TcpBackend {
 public:
  /// With a `clock`, each round first advances it by `ns_per_op` per op,
  /// so the service's time follows the request stream, not the host.
  explicit TcpBackend(std::uint16_t port, util::FakeClock* clock = nullptr,
                      std::int64_t ns_per_op = 0);
  ~TcpBackend();
  TcpBackend(const TcpBackend&) = delete;
  TcpBackend& operator=(const TcpBackend&) = delete;

  /// Writes the round as one block, then times each reply from that write
  /// until it is parsed. Throws std::runtime_error on a transport failure.
  void Execute(const std::vector<Op>& ops, std::vector<Reply>& replies,
               std::vector<std::int64_t>& lat_ns);
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

 private:
  int fd_ = -1;
  util::FakeClock* clock_;
  std::int64_t ns_per_op_;
  std::string tx_;
  std::vector<char> rx_;
  std::size_t rx_head_ = 0;  ///< first unparsed byte
  std::size_t rx_tail_ = 0;  ///< end of received bytes
};

/// Runs each round through CacheService::ExecuteOps, one call per shard
/// group as the executor would, with no sockets and no threads.
class ServiceBackend {
 public:
  /// `clock` and `ns_per_op` as for TcpBackend.
  explicit ServiceBackend(net::CacheService& service,
                          util::FakeClock* clock = nullptr,
                          std::int64_t ns_per_op = 0)
      : service_(service), clock_(clock), ns_per_op_(ns_per_op) {}
  void Execute(const std::vector<Op>& ops, std::vector<Reply>& replies,
               std::vector<std::int64_t>& lat_ns);

 private:
  net::CacheService& service_;
  util::FakeClock* clock_;
  std::int64_t ns_per_op_;
  net::Batch batch_;
  std::vector<std::vector<std::uint32_t>> groups_;  ///< op indices per shard
  std::vector<std::uint32_t> active_;  ///< shards in first-op order
};

/// Maps each op onto CacheEngine::Get/Set/Del/Touch on the shard the
/// service would route it to; every call is a cache.engine span.
class EngineBackend {
 public:
  explicit EngineBackend(Bytes capacity_bytes);
  void Execute(const std::vector<Op>& ops, std::vector<Reply>& replies,
               std::vector<std::int64_t>& lat_ns);

 private:
  std::vector<std::unique_ptr<CacheEngine>> engines_;
  std::string key_;
  std::uint32_t next_op_ = 0;
};

/// Drives `gen` through `backend` until `stop()` returns true between
/// rounds: primary round, then follow-ups until none remain.
template <class Backend, class Stop>
void Drive(Generator& gen, Backend& backend, Tally& tally, bool record_latency,
           Stop stop) {
  std::vector<Op> ops;
  std::vector<Op> next;
  std::vector<Reply> replies;
  std::vector<std::int64_t> lat;
  static const std::vector<std::int64_t> kNoLatency;
  while (!stop()) {
    gen.NextRound(ops);
    while (!ops.empty()) {
      backend.Execute(ops, replies, lat);
      tally.Add(ops, replies, record_latency ? lat : kNoLatency);
      gen.FollowUps(ops, replies, next);
      ops.swap(next);
    }
  }
}

/// Stores every key once (`conn` of `conns` takes every conns-th key) in
/// rounds of `depth` sets, TTLs drawn as the workload draws them.
template <class Backend>
void Preload(const WorkloadSpec& spec, Generator& gen, Backend& backend,
             Tally& tally, std::size_t conn, std::size_t conns) {
  std::vector<Op> ops;
  std::vector<Reply> replies;
  std::vector<std::int64_t> lat;
  static const std::vector<std::int64_t> kNoLatency;
  constexpr std::size_t kDepth = 32;
  for (std::uint64_t k = conn; k < spec.keys;) {
    ops.clear();
    for (; k < spec.keys && ops.size() < kDepth; k += conns) {
      Op op;
      op.kind = OpKind::kSet;
      op.key = k;
      op.ttl_s = gen.Ttl();
      ops.push_back(op);
    }
    backend.Execute(ops, replies, lat);
    tally.Add(ops, replies, kNoLatency);
  }
}

}  // namespace pamakv::perfbench
