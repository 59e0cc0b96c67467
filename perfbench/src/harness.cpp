#include "harness.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <chrono>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "pamakv/cache/penalty_bands.hpp"
#include "pamakv/cache/sharded_cache.hpp"
#include "pamakv/cache/string_keys.hpp"
#include "pamakv/sim/experiment.hpp"

namespace pamakv::perfbench {
namespace {

constexpr std::int64_t kSpinNs = 50'000;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::string TaskFile(pid_t tid, const char* what) {
  std::string path = "/proc/self/task/";
  path += std::to_string(tid);
  path += '/';
  path += what;
  return path;
}

}  // namespace

// ---- /proc readings ----

std::vector<pid_t> ListThreads() {
  std::vector<pid_t> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') tids.push_back(std::atoi(e->d_name));
  }
  ::closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<pid_t> NewThreads(const std::vector<pid_t>& before,
                              const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

ThreadUsage ReadUsage(const std::vector<pid_t>& tids) {
  ThreadUsage u;
  for (const pid_t tid : tids) {
    std::ifstream sched(TaskFile(tid, "schedstat"));
    std::uint64_t cpu_ns = 0;
    if (!(sched >> cpu_ns)) {
      throw std::runtime_error("empty read of " + TaskFile(tid, "schedstat"));
    }
    u.cpu_ns += cpu_ns;
    std::ifstream io(TaskFile(tid, "io"));
    std::string name;
    std::uint64_t value = 0;
    int found = 0;
    while (io >> name >> value) {
      if (name == "syscr:") {
        u.read_syscalls += value;
        ++found;
      } else if (name == "syscw:") {
        u.write_syscalls += value;
        ++found;
      }
    }
    if (found != 2) {
      throw std::runtime_error("empty read of " + TaskFile(tid, "io"));
    }
  }
  return u;
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmRSS in /proc/self/status");
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::error_code ec;
    const auto size = e.file_size(ec);
    if (!ec) total += size;
  }
  return total;
}

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ---- server assembly ----

std::unique_ptr<CacheEngine> MakeTimedPamaEngine(Bytes bytes) {
  // Mirrors MakeEngine("pama", bytes, SizeClassConfig{}); the replay
  // equivalence check proves the two build the same engine.
  const SchemeOptions defaults;
  PamaConfig pama = defaults.pama;
  pama.penalty_aware = true;
  pama.use_bloom = true;
  EngineConfig cfg;
  cfg.size_classes = SizeClassConfig{};
  cfg.capacity_bytes = bytes;
  cfg.hit_time_us = defaults.hit_time_us;
  cfg.seed = defaults.engine_seed;
  cfg.penalty_band_bounds = PenaltyBandTable::PaperDefault().bounds();
  cfg.ghost_segments = static_cast<std::uint32_t>(
      std::max<std::size_t>(pama.reference_segments + 1, 2));
  return std::make_unique<CacheEngine>(
      cfg, std::make_unique<TimedPolicy>(std::make_unique<PamaPolicy>(pama)));
}

net::CacheService::EngineFactory EngineFactoryFor(bool traced) {
  if (traced) return [](Bytes bytes) { return MakeTimedPamaEngine(bytes); };
  return [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  };
}

net::CacheServiceConfig ServiceConfigFor(const WorkloadSpec& spec,
                                         util::Clock* clock) {
  net::CacheServiceConfig cfg;
  cfg.shards = kShards;
  cfg.capacity_bytes = static_cast<Bytes>(spec.capacity_mb) * 1024 * 1024;
  cfg.default_penalty_us = 1'000;
  cfg.clock = clock;
  return cfg;
}

ServerStack::ServerStack(const StackOptions& options) : options_(options) {
  // Same order as server/main.cpp: service, persistence recovery, flash
  // recovery, then the server and its metrics.
  service_ = std::make_unique<net::CacheService>(
      ServiceConfigFor(options.spec, options.clock),
      EngineFactoryFor(options.traced));
  if (!options.data_dir.empty()) {
    persist::PersistConfig cfg;
    cfg.data_dir = options.data_dir;
    cfg.fsync_mode = persist::ParseFsyncSpec("interval:100",
                                             &cfg.fsync_interval_ms);
    persister_ = std::make_unique<persist::Persister>(*service_, cfg);
    const std::int64_t start = NowNs();
    (void)persister_->Recover();
    persist_recover_s = SecondsSince(start);
    service_->ReanchorNow();
    if (options.traced) {
      timed_sink_ = std::make_unique<TimedSink>(*persister_);
      service_->SetPersistence(timed_sink_.get());
    } else {
      service_->SetPersistence(persister_.get());
    }
    const auto before = ListThreads();
    persister_->Start();
    bg_tids = NewThreads(before, ListThreads());
  }
  if (!options.flash_dir.empty()) {
    flash::FlashConfig cfg;
    cfg.dir = options.flash_dir;
    cfg.shards = kShards;
    // pamakv-server's defaults (--flash-segment-mb=4, --flash-cap-mb=1024).
    cfg.segment_bytes = 4u * 1024 * 1024;
    cfg.cap_bytes = 1024u * 1024 * 1024;
    flash_ = std::make_unique<flash::FlashTier>(cfg);
    service_->AttachFlash(flash_.get());
    const std::int64_t start = NowNs();
    service_->RecoverFlash();
    flash_recover_s = SecondsSince(start);
    const auto before = ListThreads();
    flash_->StartIo();
    io_tids = NewThreads(before, ListThreads());
  }
  net::ServerConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  cfg.threads = kLoopThreads;
  cfg.batch_depth = kBatchDepth;
  cfg.striped_reads = true;
  cfg.tx_pause_bytes = 256 * 1024;
  cfg.tx_resume_bytes = cfg.tx_pause_bytes / 4;
  cfg.reap_interval_ms = 1'000;
  server_ = std::make_unique<net::Server>(cfg, *service_);
  service_->RegisterMetrics(registry_);
  server_->EnableMetrics(registry_);
  const auto before = ListThreads();
  server_->Start();
  loop_tids = NewThreads(before, ListThreads());
  if (loop_tids.size() != kLoopThreads) {
    throw std::runtime_error("Server::Start spawned " +
                             std::to_string(loop_tids.size()) +
                             " threads, expected the loop threads");
  }
}

ServerStack::~ServerStack() {
  if (!stopped_) server_->Stop();
  // Reverse of construction: the server goes before the flash tier whose
  // completions it runs, the persister before the service it logs.
  server_.reset();
  flash_.reset();
  if (persister_ != nullptr) persister_->Stop();
  persister_.reset();
  service_.reset();
}

void ServerStack::DrainStop() {
  // The snapshot deadline is read on the service's clock, which is the
  // one the persister checks it against.
  const std::int64_t deadline = service_->NowNs() + 5'000'000'000LL;
  server_->Shutdown(std::chrono::milliseconds(5'000));
  stopped_ = true;
  if (persister_ != nullptr) {
    persister_->SnapshotNow(deadline);
    persister_->Stop();
  }
}

PamaPolicy::Decisions ServerStack::Decisions() const {
  PamaPolicy::Decisions sum;
  for (std::size_t i = 0; i < service_->shard_count(); ++i) {
    const AllocationPolicy* p = &service_->shard_engine(i).policy();
    if (const auto* timed = dynamic_cast<const TimedPolicy*>(p)) {
      p = &timed->inner();
    }
    const auto* pama = dynamic_cast<const PamaPolicy*>(p);
    if (pama == nullptr) throw std::runtime_error("shard policy is not pama");
    const auto& d = pama->decisions();
    sum.migrations += d.migrations;
    sum.intra_class += d.intra_class;
    sum.self_evictions += d.self_evictions;
    sum.suppressed += d.suppressed;
    sum.refusals += d.refusals;
  }
  return sum;
}

// ---- client-side accounting ----

std::size_t LatencyHistogram::Index(std::uint32_t ns) {
  constexpr std::uint32_t kLinear = 2u << kSubBits;
  if (ns < kLinear) return ns;
  // Bucket width 2^shift, where shift keeps kSubBits + 1 leading bits.
  const int shift = 31 - std::countl_zero(ns) - kSubBits;
  return kLinear + static_cast<std::size_t>(shift - 1) * (1u << kSubBits) +
         ((ns >> shift) - (1u << kSubBits));
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHistogram::QuantileUs(double q) const {
  if (total_ == 0) throw std::runtime_error("no latency samples recorded");
  constexpr std::uint32_t kLinear = 2u << kSubBits;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total_)));
  double below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (c == 0 || below + c < rank) {
      below += c;
      continue;
    }
    double lo = static_cast<double>(i);
    double width = 1;
    if (i >= kLinear) {
      const std::size_t k = i - kLinear;
      const int shift = static_cast<int>(k >> kSubBits) + 1;
      lo = std::ldexp(static_cast<double>((k & ((1u << kSubBits) - 1)) +
                                          (1u << kSubBits)),
                      shift);
      width = std::ldexp(1.0, shift);
    }
    // The bucket's samples are taken as spread evenly across it.
    return (lo + width * (rank - below - 0.5) / c) / 1e3;
  }
  throw std::runtime_error("latency histogram quantile out of range");
}

void Tally::Add(const std::vector<Op>& round,
                const std::vector<Reply>& replies,
                const std::vector<std::int64_t>& lat_ns) {
  for (std::size_t i = 0; i < round.size(); ++i) {
    const Op& op = round[i];
    const ReplyStatus st = replies[i].status;
    ++attempted;
    if (st == ReplyStatus::kServerError) {
      ++server_errors;
      continue;
    }
    if (st == ReplyStatus::kBad) {
      ++bad;
      continue;
    }
    ++ops;
    const std::uint32_t lat =
        lat_ns.empty() ? 0
                       : static_cast<std::uint32_t>(std::min<std::int64_t>(
                             lat_ns[i], 0xffffffffLL));
    switch (op.kind) {
      case OpKind::kGet:
      case OpKind::kGets:
        ++gets;
        if (st == ReplyStatus::kHit) {
          ++get_hits;
        } else {
          penalty_missed_us += PenaltyOf(op.key);
        }
        if (!lat_ns.empty()) get_lat.Add(lat);
        break;
      case OpKind::kSet:
      case OpKind::kCas:
        ++sets;
        if (st == ReplyStatus::kNotStored) ++set_refused;
        if (op.fill) {
          ++fills;
          if (st == ReplyStatus::kNotStored) ++fill_refused;
        }
        user_bytes += op.counter ? 1 : SizeOf(op.key);
        if (!lat_ns.empty()) set_lat.Add(lat);
        break;
      default:
        break;
    }
  }
}

void Tally::Merge(const Tally& o) {
  attempted += o.attempted;
  ops += o.ops;
  gets += o.gets;
  get_hits += o.get_hits;
  penalty_missed_us += o.penalty_missed_us;
  sets += o.sets;
  set_refused += o.set_refused;
  fills += o.fills;
  fill_refused += o.fill_refused;
  user_bytes += o.user_bytes;
  server_errors += o.server_errors;
  bad += o.bad;
  transport_errors += o.transport_errors;
  bytes_sent += o.bytes_sent;
  bytes_received += o.bytes_received;
  get_lat.Merge(o.get_lat);
  set_lat.Merge(o.set_lat);
}

// ---- backends ----

TcpBackend::TcpBackend(std::uint16_t port, util::FakeClock* clock,
                       std::int64_t ns_per_op)
    : clock_(clock), ns_per_op_(ns_per_op) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  rx_.resize(1 << 20);
}

TcpBackend::~TcpBackend() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpBackend::Execute(const std::vector<Op>& ops,
                         std::vector<Reply>& replies,
                         std::vector<std::int64_t>& lat_ns) {
  tx_.clear();
  for (const Op& op : ops) AppendRequest(tx_, op);
  replies.resize(ops.size());
  lat_ns.resize(ops.size());
  if (clock_ != nullptr) {
    clock_->Advance(std::chrono::nanoseconds(
        ns_per_op_ * static_cast<std::int64_t>(ops.size())));
  }
  const std::int64_t start = NowNs();
  for (std::size_t sent = 0; sent < tx_.size();) {
    const ssize_t n =
        ::send(fd_, tx_.data() + sent, tx_.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  bytes_sent += tx_.size();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (;;) {
      const std::size_t used = ParseReply(
          ops[i], std::string_view(rx_.data() + rx_head_, rx_tail_ - rx_head_),
          replies[i]);
      if (used > 0) {
        rx_head_ += used;
        lat_ns[i] = NowNs() - start;
        break;
      }
      if (rx_head_ > 0) {
        std::memmove(rx_.data(), rx_.data() + rx_head_, rx_tail_ - rx_head_);
        rx_tail_ -= rx_head_;
        rx_head_ = 0;
      }
      if (rx_tail_ == rx_.size()) rx_.resize(rx_.size() * 2);
      // Spin briefly before blocking: a reply usually lands within tens of
      // microseconds, and waking a descheduled client thread on a virtual
      // CPU costs as much again and varies with the host's load.
      const std::int64_t spin_until = NowNs() + kSpinNs;
      ssize_t n = -1;
      do {
        n = ::recv(fd_, rx_.data() + rx_tail_, rx_.size() - rx_tail_,
                   MSG_DONTWAIT);
      } while (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
               NowNs() < spin_until);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        n = ::recv(fd_, rx_.data() + rx_tail_, rx_.size() - rx_tail_, 0);
      }
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error(n == 0 ? std::string("server closed")
                                        : std::string("recv: ") +
                                              std::strerror(errno));
      }
      rx_tail_ += static_cast<std::size_t>(n);
      bytes_received += static_cast<std::uint64_t>(n);
    }
  }
}

void ServiceBackend::Execute(const std::vector<Op>& ops,
                             std::vector<Reply>& replies,
                             std::vector<std::int64_t>& lat_ns) {
  if (clock_ != nullptr) {
    clock_->Advance(std::chrono::nanoseconds(
        ns_per_op_ * static_cast<std::int64_t>(ops.size())));
  }
  // Stage the ops exactly as Connection::Stage does for these verbs.
  batch_.Reset();
  groups_.resize(service_.shard_count());
  active_.clear();
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    net::BatchOp& b = batch_.Push();
    AppendKey(b.key, op);
    switch (op.kind) {
      case OpKind::kGet:
      case OpKind::kGets:
        b.verb = op.kind == OpKind::kGet ? net::Verb::kGet : net::Verb::kGets;
        b.with_cas = op.kind == OpKind::kGets;
        b.append_end = true;
        break;
      case OpKind::kSet:
      case OpKind::kCas:
        b.verb = op.kind == OpKind::kSet ? net::Verb::kSet : net::Verb::kCas;
        if (op.counter) {
          b.value.push_back('0');
        } else {
          AppendValue(b.value, op.key);
        }
        b.flags = PenaltyOf(op.key);
        b.exptime = op.ttl_s;
        b.cas = op.cas;
        break;
      case OpKind::kIncr:
        b.verb = net::Verb::kIncr;
        b.delta = 1;
        break;
      case OpKind::kDelete:
        b.verb = net::Verb::kDelete;
        break;
      case OpKind::kTouch:
        b.verb = net::Verb::kTouch;
        b.exptime = op.ttl_s;
        break;
    }
    b.id = HashStringKey(b.key);
    b.shard = static_cast<std::uint32_t>(service_.ShardIndexForId(b.id));
    if (groups_[b.shard].empty()) active_.push_back(b.shard);
    groups_[b.shard].push_back(i);
  }
  batch_.failed.store(false, std::memory_order_relaxed);
  for (const std::uint32_t s : active_) {
    Tracer::SetOp(groups_[s].front());
    SpanScope span(SpanName::kServiceOps);
    service_.ExecuteOps(s, batch_, groups_[s].data(), groups_[s].size());
  }
  for (const std::uint32_t s : active_) groups_[s].clear();
  replies.resize(ops.size());
  lat_ns.assign(ops.size(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& out = batch_.op(i).out;
    const std::string_view bytes(out.data(), out.size());
    if (ParseReply(ops[i], bytes, replies[i]) != bytes.size()) {
      replies[i].status = ReplyStatus::kBad;
    }
  }
}

EngineBackend::EngineBackend(Bytes capacity_bytes) {
  for (std::size_t i = 0; i < kShards; ++i) {
    engines_.push_back(MakeTimedPamaEngine(capacity_bytes / kShards));
  }
}

void EngineBackend::Execute(const std::vector<Op>& ops,
                            std::vector<Reply>& replies,
                            std::vector<std::int64_t>& lat_ns) {
  replies.resize(ops.size());
  lat_ns.assign(ops.size(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    key_.clear();
    AppendKey(key_, op);
    const KeyId id = HashStringKey(key_);
    CacheEngine& e = *engines_[ShardedCache::ShardIndexFor(id, kShards)];
    const Bytes size = op.counter ? 8 : SizeOf(op.key);
    const MicroSecs penalty = PenaltyOf(op.key);
    Reply& r = replies[i];
    r = Reply{};
    Tracer::SetOp(next_op_++);
    SpanScope span(SpanName::kEngineOp);
    switch (op.kind) {
      case OpKind::kGet:
      case OpKind::kGets:
        r.status = e.Get(id, size, penalty).hit ? ReplyStatus::kHit
                                                : ReplyStatus::kMiss;
        r.cas = 1;
        break;
      case OpKind::kSet:
      case OpKind::kCas:
        r.status = e.Set(id, size, penalty).stored ? ReplyStatus::kStored
                                                   : ReplyStatus::kNotStored;
        break;
      case OpKind::kIncr:
        if (e.Get(id, size, penalty).hit) {
          (void)e.Set(id, size, penalty);
          r.status = ReplyStatus::kNumber;
        } else {
          r.status = ReplyStatus::kNotFound;
        }
        break;
      case OpKind::kDelete:
        r.status = e.Del(id) ? ReplyStatus::kDeleted : ReplyStatus::kNotFound;
        break;
      case OpKind::kTouch:
        r.status =
            e.Touch(id, 0) ? ReplyStatus::kTouched : ReplyStatus::kNotFound;
        break;
    }
  }
}

}  // namespace pamakv::perfbench
