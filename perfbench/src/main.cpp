// pamabench: one benchmark run of one workload against a fresh in-process
// pamakv server over loopback TCP.
//
//   pamabench --workload hot-get --seed 1 --seconds 10 --trace 0 --work-dir D
//             [--spans-dir S]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics (see perfbench/README.md), after the replay-equivalence check.
// The last line of stdout is one JSON object; lines before it starting
// with '#' are for people. Exits nonzero when a payload check or the
// replay-equivalence check fails.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "pamakv/net/protocol.hpp"

namespace pamakv::perfbench {
namespace {

namespace fs = std::filesystem;

/// A measured phase is cut into slices of this length.
constexpr double kSliceSeconds = 0.25;
/// Timing metrics come from the fastest 1/kFastShare of the slices.
constexpr std::size_t kFastShare = 4;
constexpr unsigned kCheckScale = 8;
constexpr std::uint64_t kCheckPrimaryOps = 60'000;
constexpr double kWarmTolerance = 0.005;
constexpr int kWarmMinWindows = 3;
/// Pipeline depth while warming up: the cache's state depends only on the
/// request stream (TTLs run on the logical clock), so set-up runs deeper
/// than the measured workload to finish sooner.
constexpr std::size_t kWarmDepth = 32;
constexpr int kWarmMaxWindows = 40;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string spans_dir;  ///< where --trace 1 writes its spans; "" = nowhere
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--spans-dir") {
      a.spans_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.work_dir.empty() || a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: pamabench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR [--spans-dir DIR]");
  }
  return a;
}

/// A workload's spec plus the samplers its generators share.
struct Workload {
  explicit Workload(const WorkloadSpec& s)
      : spec(s), keys(s.keys, s.alpha), ttls(60, 1.0) {}
  WorkloadSpec spec;
  ZipfSampler keys;
  ZipfSampler ttls;
};

// ---- live phases over loopback TCP ----

struct Client {
  Generator gen;
  std::unique_ptr<TcpBackend> backend;
};

/// The workload's logical clock, starting at the real wall time; nullptr
/// when the workload runs on the real clock.
std::unique_ptr<util::FakeClock> LogicalClockFor(const WorkloadSpec& spec) {
  if (spec.logical_ns_per_op <= 0) return nullptr;
  auto clock = std::make_unique<util::FakeClock>();
  clock->SetWallBase(util::SteadyClock::Instance().WallNowNs());
  return clock;
}

std::unique_ptr<TcpBackend> Connect(const WorkloadSpec& spec,
                                    std::uint16_t port,
                                    util::FakeClock* clock) {
  return std::make_unique<TcpBackend>(port, clock, spec.logical_ns_per_op);
}

std::vector<Client> MakeClients(const Workload& w, std::uint64_t seed,
                                std::uint16_t port, util::FakeClock* clock) {
  std::vector<Client> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(Client{Generator(w.spec, w.keys, w.ttls, seed, c),
                             Connect(w.spec, port, clock)});
  }
  return clients;
}

struct Progress {
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> penalty_us{0};  ///< of missed gets
};

/// One warm-up window's hit ratio and missed penalty per get.
struct WarmWindow {
  double hit_ratio = 0.0;
  double penalty_us_per_get = 0.0;
};

struct PhaseResult {
  Tally tally;                 ///< the whole phase
  std::vector<Tally> slices;   ///< the phase cut into equal time slices
  std::vector<double> slice_s;  ///< wall time of each slice
  double wall_s = 0.0;
  std::uint64_t client_cpu_ns = 0;
};

using DoneFn = std::function<bool(const Progress&, double elapsed_s)>;

/// Runs every client on its own thread until `done` (polled every few ms)
/// says stop, or — for a preload — until each has stored its keys. With
/// `slice_s` > 0 the phase is cut into slices of that length, each with its
/// own tally; `at_boundary` runs on this thread at every slice boundary
/// (including the start and the end).
PhaseResult RunPhase(const Workload& w, std::vector<Client>& clients,
                     bool preload, bool record, const DoneFn& done,
                     double slice_s = 0.0,
                     const std::function<void()>& at_boundary = {}) {
  const std::size_t n = clients.size();
  std::vector<std::vector<Tally>> tallies(n);
  std::vector<std::uint64_t> cpu(n, 0);
  std::vector<std::string> errors(n);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> slice{0};
  std::atomic<std::size_t> running{n};
  Progress progress;
  if (at_boundary) at_boundary();
  const std::int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      const std::uint64_t cpu0 = ThreadCpuNs();
      std::vector<Tally>& done_slices = tallies[c];
      Tally t;
      TcpBackend& be = *clients[c].backend;
      std::uint64_t sent0 = be.bytes_sent;
      std::uint64_t recv0 = be.bytes_received;
      const auto close_slice = [&] {
        t.bytes_sent = be.bytes_sent - sent0;
        t.bytes_received = be.bytes_received - recv0;
        sent0 = be.bytes_sent;
        recv0 = be.bytes_received;
        done_slices.push_back(std::move(t));
        t = Tally{};
      };
      try {
        if (preload) {
          Preload(w.spec, clients[c].gen, be, t, c, n);
        } else {
          std::uint64_t last_gets = 0;
          std::uint64_t last_hits = 0;
          std::uint64_t last_penalty = 0;
          Drive(clients[c].gen, be, t, record, [&] {
            progress.gets.fetch_add(t.gets - last_gets,
                                    std::memory_order_relaxed);
            progress.hits.fetch_add(t.get_hits - last_hits,
                                    std::memory_order_relaxed);
            progress.penalty_us.fetch_add(t.penalty_missed_us - last_penalty,
                                          std::memory_order_relaxed);
            while (done_slices.size() < slice.load(std::memory_order_acquire)) {
              close_slice();
            }
            last_gets = t.gets;
            last_hits = t.get_hits;
            last_penalty = t.penalty_missed_us;
            return stop.load(std::memory_order_acquire);
          });
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
        ++t.transport_errors;
      }
      close_slice();
      cpu[c] = ThreadCpuNs() - cpu0;
      running.fetch_sub(1);
    });
  }
  PhaseResult r;
  if (!preload) {
    // A sliced phase stops only where a slice ends, so every slice is full.
    std::int64_t slice_start = start;
    while (running.load() == n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const bool slice_due =
          slice_s > 0 && SecondsSince(slice_start) >= slice_s;
      if (slice_s > 0 && !slice_due) continue;
      if (done(progress, SecondsSince(start))) break;
      if (slice_due) {
        if (at_boundary) at_boundary();
        r.slice_s.push_back(SecondsSince(slice_start));
        slice_start = NowNs();
        slice.fetch_add(1, std::memory_order_release);
      }
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    if (at_boundary) at_boundary();
    r.slice_s.push_back(SecondsSince(slice_start));
  } else {
    for (auto& t : threads) t.join();
  }
  r.wall_s = SecondsSince(start);
  r.slices.resize(r.slice_s.size());
  for (std::size_t c = 0; c < n; ++c) {
    if (!errors[c].empty()) {
      std::printf("# client %zu transport error: %s\n", c, errors[c].c_str());
    }
    for (std::size_t k = 0; k < tallies[c].size(); ++k) {
      r.tally.Merge(tallies[c][k]);
      if (k < r.slices.size()) r.slices[k].Merge(tallies[c][k]);
    }
    r.client_cpu_ns += cpu[c];
  }
  return r;
}

/// The slices a phase's timing metrics are taken from, in time order. A
/// shared host now and then takes CPU time away from the benchmark for a
/// second or more, and a slice it hit reads slower for reasons outside the
/// program; the guest cannot see this (steal reads ~0 in a Firecracker
/// guest). So the slices are ranked by their own throughput and the
/// fastest 1/kFastShare are used. The first slice is left out (it starts
/// as set-up ends, and on a guest that had been idle it ran at half speed
/// while the guest woke up), and so is the last (the clients stop in it).
std::vector<std::size_t> FastestSlices(const PhaseResult& r) {
  if (r.slices.size() < 3) {
    throw std::runtime_error("the measured phase is too short to slice");
  }
  std::vector<std::size_t> used(r.slices.size() - 2);
  std::iota(used.begin(), used.end(), 1);
  const auto rate = [&](std::size_t k) {
    return static_cast<double>(r.slices[k].ops) / r.slice_s[k];
  };
  std::stable_sort(used.begin(), used.end(), [&](std::size_t x, std::size_t y) {
    return rate(x) > rate(y);
  });
  used.resize(std::max<std::size_t>(1, used.size() / kFastShare));
  std::sort(used.begin(), used.end());
  return used;
}

/// The get and set latencies of `slices` of `r`, pooled.
std::pair<LatencyHistogram, LatencyHistogram> PooledLatency(
    const PhaseResult& r, const std::vector<std::size_t>& slices) {
  std::pair<LatencyHistogram, LatencyHistogram> lat;
  for (const std::size_t k : slices) {
    lat.first.Merge(r.slices[k].get_lat);
    lat.second.Merge(r.slices[k].set_lat);
  }
  return lat;
}

DoneFn AfterSeconds(double seconds) {
  return [seconds](const Progress&, double elapsed) {
    return elapsed >= seconds;
  };
}

/// Stops once two consecutive windows of `window` gets differ in hit ratio
/// by less than kWarmTolerance, after kWarmMinWindows windows and at least
/// `min_gets` gets.
DoneFn WhenHitRatioSettles(std::uint64_t window, std::uint64_t min_gets,
                           std::vector<WarmWindow>* windows_out) {
  struct State {
    std::uint64_t next = 0, gets = 0, hits = 0, penalty = 0;
    double prev = -1.0;
    int windows = 0;
  };
  auto st = std::make_shared<State>();
  st->next = window;
  return [st, window, min_gets, windows_out](const Progress& p, double) {
    const std::uint64_t gets = p.gets.load(std::memory_order_relaxed);
    if (gets < st->next) return false;
    const std::uint64_t hits = p.hits.load(std::memory_order_relaxed);
    const std::uint64_t penalty = p.penalty_us.load(std::memory_order_relaxed);
    const double n = static_cast<double>(gets - st->gets);
    const double hr = Ratio(static_cast<double>(hits - st->hits), n);
    const bool settled = st->windows + 1 >= kWarmMinWindows &&
                         gets >= min_gets &&
                         std::fabs(hr - st->prev) < kWarmTolerance;
    windows_out->push_back(
        {hr, Ratio(static_cast<double>(penalty - st->penalty), n)});
    st->prev = hr;
    st->gets = gets;
    st->hits = hits;
    st->penalty = penalty;
    st->next = gets + window;
    ++st->windows;
    return settled || st->windows >= kWarmMaxWindows;
  };
}

// ---- set-up ----

struct Setup {
  /// The service's logical clock (workloads with logical_ns_per_op), kept
  /// across the restart so recovery sees the time the snapshot was taken.
  std::unique_ptr<util::FakeClock> clock;
  std::unique_ptr<ServerStack> stack;
  std::vector<Client> clients;
  double seconds = 0.0;
  std::vector<WarmWindow> warm_windows;
  std::string steps;                 ///< time of each set-up step, for people
  std::uint64_t failed = 0;
  std::uint64_t bad = 0;
};

StackOptions OptionsFor(const WorkloadSpec& spec, const fs::path& dir,
                        bool traced, util::Clock* clock) {
  StackOptions o;
  o.spec = spec;
  o.traced = traced;
  o.clock = clock;
  if (spec.persist) o.data_dir = (dir / "data").string();
  if (spec.flash) o.flash_dir = (dir / "flash").string();
  return o;
}

/// Builds a server in fresh directories under `dir` and brings it to the
/// workload's steady state. Everything here counts toward setup_s.
Setup DoSetup(const Workload& w, std::uint64_t seed, const fs::path& dir,
              bool traced) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Setup s;
  s.clock = LogicalClockFor(w.spec);
  const StackOptions opts = OptionsFor(w.spec, dir, traced, s.clock.get());
  if (!opts.data_dir.empty()) fs::create_directories(opts.data_dir);
  if (!opts.flash_dir.empty()) fs::create_directories(opts.flash_dir);
  const std::int64_t start = NowNs();
  s.stack = std::make_unique<ServerStack>(opts);
  s.clients = MakeClients(w, seed, s.stack->port(), s.clock.get());
  const auto account = [&](const PhaseResult& r) {
    s.failed += r.tally.failed();
    s.bad += r.tally.bad;
  };
  const auto step = [&](const char* name, std::int64_t since) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s %.2fs", name, SecondsSince(since));
    s.steps += buf;
  };
  if (w.spec.preload) {
    const std::int64_t t = NowNs();
    account(RunPhase(w, s.clients, true, false, nullptr));
    step("preload", t);
  }
  if (w.spec.restart) {
    const std::int64_t t = NowNs();
    for (Client& c : s.clients) c.backend.reset();
    s.stack->DrainStop();
    s.stack.reset();
    s.stack = std::make_unique<ServerStack>(opts);
    for (Client& c : s.clients) {
      c.backend = Connect(w.spec, s.stack->port(), s.clock.get());
    }
    step("restart", t);
  }
  if (w.spec.warm_window_gets > 0) {
    const std::int64_t t = NowNs();
    for (Client& c : s.clients) c.gen.set_depth(kWarmDepth);
    account(RunPhase(w, s.clients, false, false,
                     WhenHitRatioSettles(w.spec.warm_window_gets,
                                         w.spec.warm_min_gets,
                                         &s.warm_windows)));
    for (Client& c : s.clients) c.gen.set_depth(w.spec.depth);
    step("warm", t);
  }
  s.seconds = SecondsSince(start);
  return s;
}

std::string WarmText(const std::vector<WarmWindow>& windows) {
  if (windows.empty()) return "";
  std::string text = ", warm-up windows (hit ratio/penalty us per get)";
  char buf[48];
  for (const WarmWindow& w : windows) {
    std::snprintf(buf, sizeof buf, " %.4f/%.0f", w.hit_ratio,
                  w.penalty_us_per_get);
    text += buf;
  }
  return text;
}

void Teardown(Setup& s) {
  s.clients.clear();
  s.stack.reset();
  s.clock.reset();
  // Hand freed payload memory back so the next server's rss_mb is its own.
  malloc_trim(0);
}

// ---- server-side snapshots around a measured phase ----

struct LiveSnapshot {
  util::MetricsSnapshot metrics;
  std::map<std::string, std::uint64_t> server_stats;
  CacheStats cache;
  net::ServiceCounters counters;
  flash::ShardStats flash;
  PamaPolicy::Decisions decisions;
  ThreadUsage loops, bg, io;
  std::uint64_t data_bytes = 0;
  std::uint64_t flash_bytes = 0;
};

LiveSnapshot Capture(ServerStack& stack, const StackOptions& opts) {
  LiveSnapshot s;
  s.metrics = stack.registry().Snapshot();
  std::vector<char> out;
  stack.server().AppendServerStats(out);
  const std::string text(out.begin(), out.end());
  std::size_t pos = 0;
  while ((pos = text.find("STAT ", pos)) != std::string::npos) {
    const std::size_t sp = text.find(' ', pos + 5);
    const std::size_t eol = text.find("\r\n", sp);
    s.server_stats[text.substr(pos + 5, sp - pos - 5)] =
        std::stoull(text.substr(sp + 1, eol - sp - 1));
    pos = eol;
  }
  // The flash tier turns the batched path off, and with it the executor.
  if (opts.flash_dir.empty() && s.server_stats.count("executor_batches") == 0) {
    throw std::runtime_error("server stats read came back without executor_*");
  }
  s.cache = stack.service().TotalStats();
  s.counters = stack.service().TotalCounters();
  if (flash::FlashTier* f = stack.flash()) {
    for (std::size_t i = 0; i < f->shard_count(); ++i) {
      const auto& st = f->shard_stats(i);
      s.flash.demotes += st.demotes;
      s.flash.read_failures += st.read_failures;
      s.flash.gc_rewrites += st.gc_rewrites;
    }
    s.flash_bytes = DirBytes(opts.flash_dir);
  }
  if (!opts.data_dir.empty()) s.data_bytes = DirBytes(opts.data_dir);
  s.decisions = stack.Decisions();
  s.loops = ReadUsage(stack.loop_tids);
  s.bg = ReadUsage(stack.bg_tids);
  s.io = ReadUsage(stack.io_tids);
  return s;
}

/// The histogram's growth between two snapshots; throws when the series
/// is missing, so an unwired registry fails the run instead of reading 0.
util::HistogramSnapshot HistogramDelta(const LiveSnapshot& a,
                                       const LiveSnapshot& b,
                                       const std::string& name,
                                       const std::string& labels) {
  const auto find = [&](const util::MetricsSnapshot& m) {
    for (const auto& s : m.samples) {
      if (s.name == name && s.labels == labels &&
          s.kind == util::MetricKind::kHistogram) {
        return &s.histogram;
      }
    }
    throw std::runtime_error("registry has no histogram " + name + labels);
  };
  const util::HistogramSnapshot* before = find(a.metrics);
  util::HistogramSnapshot d = *find(b.metrics);
  d.total = 0;
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] -= before->counts[i];
    d.total += d.counts[i];
  }
  d.sum -= before->sum;
  return d;
}

std::uint64_t StatDelta(const LiveSnapshot& a, const LiveSnapshot& b,
                        const std::string& name) {
  const auto x = a.server_stats.find(name);
  const auto y = b.server_stats.find(name);
  if (x == a.server_stats.end() || y == b.server_stats.end()) return 0;
  return y->second - x->second;
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintConfig(const Args& a, const WorkloadSpec& spec) {
  std::printf(
      "# config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %ld, \"loop_threads\": %zu, \"shards\": %zu, "
      "\"connections\": %zu, \"pipeline\": %zu, \"capacity_mb\": %llu, "
      "\"keys\": %llu}\n",
      spec.name.c_str(), static_cast<unsigned long long>(a.seed),
      FormatNumber(a.seconds).c_str(), a.trace ? 1 : 0,
      ::sysconf(_SC_NPROCESSORS_ONLN), kLoopThreads, kShards, kConnections,
      spec.depth, static_cast<unsigned long long>(spec.capacity_mb),
      static_cast<unsigned long long>(spec.keys));
}

// ---- --trace 0: end-to-end metrics ----

int RunEndToEnd(const Args& a, const Workload& w) {
  const fs::path setup_dir = fs::path(a.work_dir) / "setup";
  std::vector<double> setup_s;
  std::uint64_t extra_failed = 0;
  std::uint64_t extra_bad = 0;
  for (std::size_t i = 1; i < w.spec.setups; ++i) {
    Setup extra = DoSetup(w, a.seed, setup_dir, false);
    std::printf("# setup: %.3f s (%s)\n", extra.seconds, extra.steps.c_str());
    setup_s.push_back(extra.seconds);
    extra_failed += extra.failed;
    extra_bad += extra.bad;
    Teardown(extra);
  }
  Setup s = DoSetup(w, a.seed, setup_dir, false);
  s.failed += extra_failed;
  s.bad += extra_bad;
  setup_s.push_back(s.seconds);
  std::printf("# setup: %.3f s (%s)%s\n", s.seconds, s.steps.c_str(),
              WarmText(s.warm_windows).c_str());
  // The server's CPU time is read at every slice boundary.
  std::vector<std::uint64_t> server_cpu_ns;
  std::vector<pid_t> server_tids = s.stack->loop_tids;
  server_tids.insert(server_tids.end(), s.stack->bg_tids.begin(),
                     s.stack->bg_tids.end());
  server_tids.insert(server_tids.end(), s.stack->io_tids.begin(),
                     s.stack->io_tids.end());
  PhaseResult r = RunPhase(
      w, s.clients, false, true, AfterSeconds(a.seconds), kSliceSeconds,
      [&] { server_cpu_ns.push_back(ReadUsage(server_tids).cpu_ns); });
  // The client's own memory is fixed-size (latency histograms), so this is
  // the server's growth plus a constant.
  const double rss = RssMb();
  std::map<std::string, std::vector<double>> per_slice;
  for (std::size_t k = 0; k < r.slices.size(); ++k) {
    const Tally& t = r.slices[k];
    if (t.gets == 0 || t.sets == 0) {
      throw std::runtime_error("a measured slice completed no gets or no sets");
    }
    const double ops = static_cast<double>(t.ops);
    per_slice["throughput_kops"].push_back(ops / r.slice_s[k] / 1e3);
    per_slice["get_p50_us"].push_back(t.get_lat.QuantileUs(0.50));
    per_slice["hit_ratio"].push_back(Ratio(t.get_hits, t.gets));
    per_slice["cpu_us_per_op"].push_back(
        Ratio((server_cpu_ns[k + 1] - server_cpu_ns[k]) / 1e3, ops));
  }
  // Throughput and CPU per op are the median of the fastest slices' values,
  // latency quantiles come from those slices' latencies pooled; hit_ratio
  // and penalty_us_per_get are counts, pooled over the whole phase.
  const std::vector<std::size_t> used = FastestSlices(r);
  const auto med = [&](const char* name) {
    std::vector<double> v;
    for (const std::size_t k : used) v.push_back(per_slice[name][k]);
    return Median(v);
  };
  const auto [get_lat, set_lat] = PooledLatency(r, used);
  for (const char* name :
       {"throughput_kops", "get_p50_us", "cpu_us_per_op", "hit_ratio"}) {
    std::printf("# slices %-16s", name);
    for (const double v : per_slice[name]) std::printf(" %.4g", v);
    std::printf("\n");
  }
  std::printf("# slices used (the fastest 1/%zu):", kFastShare);
  for (const std::size_t k : used) std::printf(" %zu", k);
  std::printf("\n");
  std::printf("# get_p99_us %.3f, set_p99_us %.3f (not gated: a host stall "
              "that spans a run moves them several-fold)\n",
              get_lat.QuantileUs(0.99), set_lat.QuantileUs(0.99));
  const std::vector<Metric> metrics = {
      {"throughput_kops", med("throughput_kops"), "kops"},
      {"get_p50_us", get_lat.QuantileUs(0.50), "us"},
      {"set_p50_us", set_lat.QuantileUs(0.50), "us"},
      {"hit_ratio", Ratio(r.tally.get_hits, r.tally.gets), "ratio"},
      {"penalty_us_per_get",
       Ratio(static_cast<double>(r.tally.penalty_missed_us), r.tally.gets),
       "us"},
      {"cpu_us_per_op", med("cpu_us_per_op"), "us"},
      {"setup_s", Median(setup_s), "s"},
      {"rss_mb", rss, "MB"},
  };
  const Tally& t = r.tally;
  // Set-up requests that failed count too; the rest of set-up is not in
  // `attempted`.
  const std::uint64_t failed = t.failed() + s.failed;
  const std::uint64_t attempted = t.attempted + s.failed;
  std::printf("# measured %.3f s in %zu slices: %llu ops (%llu gets, %llu "
              "sets, %llu refused), %llu get / %llu set latencies in the "
              "slices used\n",
              r.wall_s, r.slices.size(), static_cast<unsigned long long>(t.ops),
              static_cast<unsigned long long>(t.gets),
              static_cast<unsigned long long>(t.sets),
              static_cast<unsigned long long>(t.set_refused),
              static_cast<unsigned long long>(get_lat.total()),
              static_cast<unsigned long long>(set_lat.total()));
  std::printf("# error_ratio %.6g (%llu failed of %llu attempted: %llu "
              "SERVER_ERROR, %llu bad replies, %llu transport)\n",
              Ratio(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(t.server_errors),
              static_cast<unsigned long long>(t.bad + s.bad),
              static_cast<unsigned long long>(t.transport_errors));
  const bool correct = t.bad == 0 && s.bad == 0;
  PrintResult(correct, attempted, failed, metrics);
  Teardown(s);
  return correct ? 0 : 1;
}

// ---- --trace 1: replay-equivalence check ----

bool SameStats(const CacheStats& x, const CacheStats& y) {
  const StatsSnapshot a = x.Snapshot();
  const StatsSnapshot b = y.Snapshot();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].value != b[i].value) return false;
  }
  return x.miss_penalty_total_us == y.miss_penalty_total_us &&
         x.hit_penalty_saved_us == y.hit_penalty_saved_us &&
         x.ghost_hits == y.ghost_hits && x.slab_migrations == y.slab_migrations;
}

struct CheckSide {
  Tally tally;
  CacheStats stats;
};

/// Drives one connection's stream (preload, then a fixed number of primary
/// ops) through `backend`; the stream depends only on the replies.
template <class Backend>
Tally DriveFixed(const Workload& w, std::uint64_t seed, Backend& backend) {
  Generator gen(w.spec, w.keys, w.ttls, seed, 0);
  Tally t;
  if (w.spec.preload) Preload(w.spec, gen, backend, t, 0, 1);
  std::uint64_t rounds = 0;
  const std::uint64_t max_rounds = kCheckPrimaryOps / w.spec.depth;
  Drive(gen, backend, t, false, [&] { return rounds++ >= max_rounds; });
  return t;
}

/// With one connection, a paused clock (no expiry) and the flash tier
/// off, the same seed must give the same replies and CacheStats over TCP
/// with and without the timing wrappers, and through ExecuteOps with and
/// without them (the wrapped replay also logs through the wrapped
/// persister).
bool RunEquivalenceCheck(const Args& a, const Workload& full) {
  WorkloadSpec spec = Scaled(full.spec, kCheckScale);
  spec.flash = false;
  const Workload w(spec);
  CheckSide live, live_traced, replay, traced;
  for (CheckSide* side : {&live, &live_traced}) {
    util::FakeClock clock;
    StackOptions o;
    o.spec = spec;
    o.clock = &clock;
    o.traced = side == &live_traced;
    ServerStack stack(o);
    TcpBackend be(stack.port());
    side->tally = DriveFixed(w, a.seed, be);
    side->stats = stack.service().TotalStats();
  }
  {
    util::FakeClock clock;
    net::CacheService svc(ServiceConfigFor(spec, &clock),
                          EngineFactoryFor(false));
    ServiceBackend be(svc);
    replay.tally = DriveFixed(w, a.seed, be);
    replay.stats = svc.TotalStats();
  }
  {
    util::FakeClock clock;
    net::CacheService svc(ServiceConfigFor(spec, &clock),
                          EngineFactoryFor(true));
    std::unique_ptr<persist::Persister> persister;
    std::unique_ptr<TimedSink> sink;
    if (spec.persist) {
      const fs::path dir = fs::path(a.work_dir) / "check-data";
      fs::remove_all(dir);
      fs::create_directories(dir);
      persist::PersistConfig cfg;
      cfg.data_dir = dir.string();
      persister = std::make_unique<persist::Persister>(svc, cfg);
      (void)persister->Recover();
      sink = std::make_unique<TimedSink>(*persister);
      svc.SetPersistence(sink.get());
    }
    ServiceBackend be(svc);
    Tracer::Enable(true);
    traced.tally = DriveFixed(w, a.seed, be);
    Tracer::Enable(false);
    traced.stats = svc.TotalStats();
    svc.SetPersistence(nullptr);
    if (persister != nullptr) persister->Stop();
    Tracer::Reset();
  }
  const auto same = [](const CheckSide& x, const CheckSide& y) {
    return x.tally.gets == y.tally.gets &&
           x.tally.get_hits == y.tally.get_hits &&
           x.tally.penalty_missed_us == y.tally.penalty_missed_us &&
           x.tally.sets == y.tally.sets && x.tally.bad == 0 &&
           y.tally.bad == 0 && SameStats(x.stats, y.stats);
  };
  const bool ok = same(live, live_traced) && same(live, replay) &&
                  same(replay, traced);
  for (const auto& [label, side] :
       {std::pair<const char*, const CheckSide*>{"live tcp", &live},
        {"live tcp traced", &live_traced},
        {"ExecuteOps replay", &replay},
        {"traced replay", &traced}}) {
    std::printf("# check %-18s gets %llu hits %llu penalty %llu sets %llu "
                "evictions %llu migrations %llu ghost_hits %llu bad %llu\n",
                label, static_cast<unsigned long long>(side->tally.gets),
                static_cast<unsigned long long>(side->tally.get_hits),
                static_cast<unsigned long long>(side->tally.penalty_missed_us),
                static_cast<unsigned long long>(side->tally.sets),
                static_cast<unsigned long long>(side->stats.evictions),
                static_cast<unsigned long long>(side->stats.slab_migrations),
                static_cast<unsigned long long>(side->stats.ghost_hits),
                static_cast<unsigned long long>(side->tally.bad));
  }
  std::printf("# replay-equivalence check: %s\n", ok ? "pass" : "FAIL");
  return ok;
}

// ---- --trace 1: per-layer metrics ----

/// Replays the workload single-threaded through `backend`: set-up untimed,
/// then rounds under tracing until `seconds` pass. Returns the timed ops.
template <class Backend>
std::uint64_t ReplayTimed(const Workload& w, std::uint64_t seed,
                          Backend& backend, double seconds) {
  Generator gen(w.spec, w.keys, w.ttls, seed, 0);
  Tally setup;
  if (w.spec.preload) Preload(w.spec, gen, backend, setup, 0, 1);
  if (w.spec.warm_window_gets > 0) {
    // Same settle rule as the live warm-up, on one stream.
    Progress p;
    std::vector<WarmWindow> windows;
    const DoneFn done = WhenHitRatioSettles(
        w.spec.warm_window_gets, w.spec.warm_min_gets, &windows);
    Drive(gen, backend, setup, false, [&] {
      p.gets.store(setup.gets);
      p.hits.store(setup.get_hits);
      p.penalty_us.store(setup.penalty_missed_us);
      return done(p, 0.0);
    });
  }
  Tally t;
  Tracer::Enable(true);
  const std::int64_t start = NowNs();
  std::uint64_t rounds = 0;
  Drive(gen, backend, t, false, [&] {
    return (++rounds & 63) == 0 && SecondsSince(start) >= seconds;
  });
  Tracer::Enable(false);
  if (t.bad != 0 || setup.bad != 0) {
    throw std::runtime_error("replay produced a bad reply");
  }
  return t.ops;
}

struct ProtocolCost {
  double parse_ns = 0.0;
  double format_ns = 0.0;
};

/// Feeds the workload's command lines through ParseCommandLine and its
/// values through AppendValueBlock, repeatedly, and times both.
ProtocolCost TimeProtocol(const Workload& w, std::uint64_t seed) {
  Generator gen(w.spec, w.keys, w.ttls, seed, 0);
  std::vector<std::string> lines;
  std::vector<std::uint64_t> value_keys;
  std::vector<Op> ops;
  std::string wire;
  while (lines.size() < 20'000) {
    gen.NextRound(ops);
    for (const Op& op : ops) {
      wire.clear();
      AppendRequest(wire, op);
      lines.push_back(wire.substr(0, wire.find("\r\n")));
      if (!op.counter) value_keys.push_back(op.key);
    }
  }
  ProtocolCost c;
  net::Command cmd;
  std::uint64_t parsed = 0;
  std::uint64_t sink = 0;
  std::int64_t start = NowNs();
  while (SecondsSince(start) < 0.2) {
    for (const std::string& line : lines) {
      sink += static_cast<std::uint64_t>(net::ParseCommandLine(line, cmd).status);
      sink += cmd.num_keys;
    }
    parsed += lines.size();
  }
  c.parse_ns = static_cast<double>(NowNs() - start) / static_cast<double>(parsed);
  std::vector<std::string> values;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 2'000 && i < value_keys.size(); ++i) {
    values.emplace_back();
    AppendValue(values.back(), value_keys[i]);
    keys.push_back("key:" + std::to_string(value_keys[i]));
  }
  std::vector<char> out;
  std::uint64_t formatted = 0;
  start = NowNs();
  while (SecondsSince(start) < 0.2) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      out.clear();
      net::AppendValueBlock(out, keys[i], PenaltyOf(value_keys[i]), values[i],
                            0, false);
      sink += out.size();
    }
    formatted += values.size();
  }
  c.format_ns =
      static_cast<double>(NowNs() - start) / static_cast<double>(formatted);
  if (sink == 0) std::printf("#\n");  // keeps the timed loops observable
  return c;
}

int RunTraced(const Args& a, const Workload& w) {
  bool correct = RunEquivalenceCheck(a, w);
  const double third = a.seconds / 3;

  // Phase U: a stack without the timing wrappers, as the end-to-end run
  // builds it — the baseline of trace.overhead_ratio and the source of the
  // client's tail latencies (from its fastest slices, as end to end).
  Setup u = DoSetup(w, a.seed, fs::path(a.work_dir) / "untraced", false);
  PhaseResult pu = RunPhase(w, u.clients, false, true, AfterSeconds(third),
                            kSliceSeconds);
  const auto [u_get_lat, u_set_lat] = PooledLatency(pu, FastestSlices(pu));
  const std::uint64_t u_failed = pu.tally.failed() + u.failed;
  const std::uint64_t u_attempted = pu.tally.attempted + u.failed;
  const std::uint64_t u_bad = pu.tally.bad + u.bad;
  std::printf("# untraced setup: %.3f s (%s)\n", u.seconds, u.steps.c_str());
  Teardown(u);

  const fs::path dir = fs::path(a.work_dir) / "traced";
  Setup s = DoSetup(w, a.seed, dir, true);
  const StackOptions opts = OptionsFor(w.spec, dir, true, s.clock.get());
  const double persist_recover_s = s.stack->persist_recover_s;
  const double flash_recover_s = s.stack->flash_recover_s;
  std::printf("# setup: %.3f s (%s)%s\n", s.seconds, s.steps.c_str(),
              WarmText(s.warm_windows).c_str());

  // Phase A: the traced stack with span recording off — live layer metrics.
  const LiveSnapshot a0 = Capture(*s.stack, opts);
  PhaseResult pa = RunPhase(w, s.clients, false, true, AfterSeconds(third));
  const LiveSnapshot a1 = Capture(*s.stack, opts);
  // Phase B: spans on, for the policy and persistence wrappers.
  Tracer::Reset();
  Tracer::Enable(true);
  PhaseResult pb = RunPhase(w, s.clients, false, false, AfterSeconds(third));
  Tracer::Enable(false);
  const LiveSnapshot b1 = Capture(*s.stack, opts);
  Teardown(s);
  const std::vector<SpanTotals> live_spans = Tracer::Collect();
  const auto write_spans = [&](const char* part) {
    if (a.spans_dir.empty()) return;
    fs::create_directories(a.spans_dir);
    const fs::path path = fs::path(a.spans_dir) /
                          (w.spec.name + "-seed" + std::to_string(a.seed) +
                           "." + part + ".csv");
    if (!Tracer::WriteSpans(path.string())) {
      throw std::runtime_error("cannot write " + path.string());
    }
  };
  write_spans("live");
  Tracer::Reset();

  // Socketless replays: ExecuteOps on a fresh service, then bare engines.
  std::uint64_t svc_ops = 0;
  {
    const std::unique_ptr<util::FakeClock> clock = LogicalClockFor(w.spec);
    net::CacheService svc(ServiceConfigFor(w.spec, clock.get()),
                          EngineFactoryFor(false));
    std::unique_ptr<persist::Persister> persister;
    if (w.spec.persist) {
      const fs::path data = fs::path(a.work_dir) / "replay-data";
      fs::remove_all(data);
      fs::create_directories(data);
      persist::PersistConfig cfg;
      cfg.data_dir = data.string();
      persister = std::make_unique<persist::Persister>(svc, cfg);
      (void)persister->Recover();
      svc.SetPersistence(persister.get());
      persister->Start();
    }
    ServiceBackend be(svc, clock.get(), w.spec.logical_ns_per_op);
    svc_ops = ReplayTimed(w, a.seed, be, a.seconds / 4);
    svc.SetPersistence(nullptr);
    if (persister != nullptr) persister->Stop();
  }
  const std::vector<SpanTotals> svc_spans = Tracer::Collect();
  Tracer::Reset();
  std::uint64_t engine_ops = 0;
  {
    EngineBackend be(static_cast<Bytes>(w.spec.capacity_mb) * 1024 * 1024);
    engine_ops = ReplayTimed(w, a.seed, be, a.seconds / 4);
  }
  const std::vector<SpanTotals> engine_spans = Tracer::Collect();
  write_spans("replay");
  Tracer::Reset();
  const ProtocolCost proto = TimeProtocol(w, a.seed);

  const auto span = [](const std::vector<SpanTotals>& v, SpanName n) {
    return v[static_cast<std::size_t>(n)];
  };
  Tally& ta = pa.tally;
  const double ops_a = static_cast<double>(ta.ops);
  const double kops_a = ops_a / 1e3;
  const double ops_b = static_cast<double>(pb.tally.ops);
  const double kops_b = ops_b / 1e3;
  const double get_p50 = ta.get_lat.QuantileUs(0.5);
  const auto get_svc = HistogramDelta(a0, a1, "pamakv_service_time_us",
                                      "{verb=\"get\"}");
  const auto set_svc = HistogramDelta(a0, a1, "pamakv_service_time_us",
                                      "{verb=\"set\"}");
  const auto tx_flush = HistogramDelta(a0, a1, "pamakv_tx_flush_us", "");
  if (get_svc.total == 0 || set_svc.total == 0 || tx_flush.total == 0) {
    throw std::runtime_error("registry histograms recorded nothing in phase A");
  }
  const double batches = static_cast<double>(
      StatDelta(a0, a1, "executor_batches"));
  const double loop_cpu_us = (a1.loops.cpu_ns - a0.loops.cpu_ns) / 1e3;
  const double svc_replay_ns =
      Ratio(span(svc_spans, SpanName::kServiceOps).total_ns, svc_ops);
  const SpanTotals eng = span(engine_spans, SpanName::kEngineOp);
  const double engine_replay_ns = Ratio(eng.total_ns, engine_ops);
  const double engine_self_ns = Ratio(eng.self_ns, engine_ops);
  const double engine_policy_ns =
      Ratio(span(engine_spans, SpanName::kPolicyHook).total_ns +
                span(engine_spans, SpanName::kMakeRoom).total_ns,
            engine_ops);
  const SpanTotals make_room = span(live_spans, SpanName::kMakeRoom);
  const SpanTotals hooks = span(live_spans, SpanName::kPolicyHook);
  const SpanTotals append = span(live_spans, SpanName::kPersistAppend);
  const SpanTotals commit = span(live_spans, SpanName::kPersistCommit);
  const auto per_kop = [&](std::uint64_t x, std::uint64_t y, double kops) {
    return Ratio(static_cast<double>(y - x), kops);
  };
  const std::uint64_t demotes = a1.flash.demotes - a0.flash.demotes;
  const std::uint64_t rewrites = a1.flash.gc_rewrites - a0.flash.gc_rewrites;
  const double persist_ns_per_op =
      Ratio(append.total_ns + commit.total_ns, ops_b);

  const double overhead =
      Ratio(static_cast<double>(pu.tally.ops) / pu.wall_s, ops_b / pb.wall_s);
  const std::vector<Metric> metrics = {
      {"net.protocol.parse_ns_per_cmd", proto.parse_ns, "ns"},
      {"net.protocol.format_ns_per_value", proto.format_ns, "ns"},
      {"net.protocol.bytes_in_per_op", Ratio(ta.bytes_sent, ops_a), "B"},
      {"net.protocol.bytes_out_per_op", Ratio(ta.bytes_received, ops_a), "B"},
      {"net.server.loop_cpu_us_per_op", Ratio(loop_cpu_us, ops_a), "us"},
      {"net.server.read_syscalls_per_op",
       Ratio(a1.loops.read_syscalls - a0.loops.read_syscalls, ops_a), "count"},
      {"net.server.write_syscalls_per_op",
       Ratio(a1.loops.write_syscalls - a0.loops.write_syscalls, ops_a),
       "count"},
      {"net.server.tx_flush_p50_us", tx_flush.Quantile(0.5), "us"},
      {"net.server.tx_flush_p99_us", tx_flush.Quantile(0.99), "us"},
      {"net.server.wire_minus_service_p50_us",
       get_p50 - get_svc.Quantile(0.5), "us"},
      {"net.shard_executor.ops_per_batch",
       Ratio(StatDelta(a0, a1, "executor_batched_ops"), batches), "count"},
      {"net.shard_executor.owner_post_share",
       Ratio(StatDelta(a0, a1, "executor_owner_posts"), batches), "ratio"},
      {"net.shard_executor.striped_read_share",
       Ratio(StatDelta(a0, a1, "executor_striped_reads"), batches), "ratio"},
      {"net.cache_service.get_service_p50_us", get_svc.Quantile(0.5), "us"},
      {"net.cache_service.get_service_p99_us", get_svc.Quantile(0.99), "us"},
      {"net.cache_service.set_service_p50_us", set_svc.Quantile(0.5), "us"},
      {"net.cache_service.set_service_p99_us", set_svc.Quantile(0.99), "us"},
      {"net.cache_service.replay_ns_per_op", svc_replay_ns, "ns"},
      {"net.cache_service.expired_per_kop",
       per_kop(a0.cache.expired, a1.cache.expired, kops_a), "count"},
      {"cache.engine.replay_ns_per_op", engine_replay_ns, "ns"},
      {"cache.engine.self_ns_per_op", engine_self_ns, "ns"},
      {"cache.engine.evictions_per_kop",
       per_kop(a0.cache.evictions, a1.cache.evictions, kops_a), "count"},
      {"cache.engine.slab_moves_per_kop",
       per_kop(a0.cache.slab_migrations, a1.cache.slab_migrations, kops_a),
       "count"},
      {"cache.engine.ghost_hits_per_kop",
       per_kop(a0.cache.ghost_hits, a1.cache.ghost_hits, kops_a), "count"},
      {"policy.pama.make_room_per_kop", Ratio(make_room.count, kops_b),
       "count"},
      {"policy.pama.make_room_ns_p50", make_room.QuantileNs(0.5), "ns"},
      {"policy.pama.make_room_ns_p99", make_room.QuantileNs(0.99), "ns"},
      {"policy.pama.hook_ns_per_op", Ratio(hooks.total_ns, ops_b), "ns"},
      {"policy.pama.migrations_per_kop",
       per_kop(a1.decisions.migrations, b1.decisions.migrations, kops_b),
       "count"},
      {"policy.pama.suppressed_per_kop",
       per_kop(a1.decisions.suppressed, b1.decisions.suppressed, kops_b),
       "count"},
      {"policy.pama.self_evictions_per_kop",
       per_kop(a1.decisions.self_evictions, b1.decisions.self_evictions,
               kops_b),
       "count"},
      {"policy.pama.store_refused_ratio", Ratio(ta.fill_refused, ta.fills),
       "ratio"},
      {"persist.append_ns_p50", append.QuantileNs(0.5), "ns"},
      {"persist.commit_ns_p50", commit.QuantileNs(0.5), "ns"},
      {"persist.commit_ns_p99", commit.QuantileNs(0.99), "ns"},
      {"persist.commits_per_kop", Ratio(commit.count, kops_b), "count"},
      {"persist.bytes_per_user_byte",
       Ratio(static_cast<double>(a1.data_bytes) - a0.data_bytes,
             ta.user_bytes),
       "ratio"},
      {"persist.bg_cpu_us_per_op",
       Ratio((a1.bg.cpu_ns - a0.bg.cpu_ns) / 1e3, ops_a), "us"},
      {"persist.recover_s", persist_recover_s, "s"},
      {"flash.hit_share",
       Ratio(a1.counters.flash_hits - a0.counters.flash_hits, ta.get_hits),
       "ratio"},
      {"flash.demotes_per_kop", Ratio(demotes, kops_a), "count"},
      {"flash.read_failures",
       static_cast<double>(a1.flash.read_failures - a0.flash.read_failures),
       "count"},
      {"flash.gc_rewrite_share", Ratio(rewrites, demotes + rewrites), "ratio"},
      {"flash.bytes_per_user_byte",
       Ratio(static_cast<double>(a1.flash_bytes) - a0.flash_bytes,
             ta.user_bytes),
       "ratio"},
      {"flash.io_cpu_us_per_op",
       Ratio((a1.io.cpu_ns - a0.io.cpu_ns) / 1e3, ops_a), "us"},
      {"flash.recover_s", flash_recover_s, "s"},
      {"client.cpu_share",
       Ratio(pa.client_cpu_ns / 1e9, pa.wall_s * kConnections), "ratio"},
      {"client.get_p99_us", u_get_lat.QuantileUs(0.99), "us"},
      {"client.set_p99_us", u_set_lat.QuantileUs(0.99), "us"},
      {"trace.overhead_ratio", overhead, "ratio"},
  };

  // Budget: where one get's p50 goes, layer by layer, as self time per op
  // averaged over the workload's whole mix. The service replay includes the
  // engine (with its policy) and, where on, persistence; the loop CPU
  // includes the service and the protocol. So the rows sum to about the
  // loop CPU per op, and the rest of the get's p50 is unattributed.
  const double protocol_us = (proto.parse_ns + proto.format_ns) / 1e3;
  const double persist_us = persist_ns_per_op / 1e3;
  const double svc_self_us = std::max(
      0.0, (svc_replay_ns - engine_replay_ns) / 1e3 - persist_us);
  const double engine_us = engine_self_ns / 1e3;
  const double policy_us = engine_policy_ns / 1e3;
  const double server_us = std::max(
      0.0, Ratio(loop_cpu_us, ops_a) - svc_replay_ns / 1e3 - protocol_us);
  const double attributed =
      protocol_us + svc_self_us + engine_us + policy_us + persist_us + server_us;
  std::printf("# budget for one get (%s): client get_p50_us %.3f\n",
              w.spec.name.c_str(), get_p50);
  const std::pair<const char*, double> rows[] = {
      {"net.server (loop CPU/op - service - protocol)", server_us},
      {"net.protocol (parse + format)", protocol_us},
      {"net.cache_service self (replay - engine - persist)", svc_self_us},
      {"cache.engine self (replay)", engine_us},
      {"policy.pama (replay hooks + make_room)", policy_us},
      {"persist (append + commit per op, live)", persist_us},
      {"unattributed (kernel, loopback, queueing)", get_p50 - attributed},
  };
  for (const auto& [name, us] : rows) {
    std::printf("#   %-52s %10.3f us\n", name, us);
  }
  std::printf("#   trace.overhead_ratio %.4f (kops: untraced %.2f, traced "
              "spans off %.2f, traced spans on %.2f)\n",
              overhead,
              static_cast<double>(pu.tally.ops) / pu.wall_s / 1e3,
              ops_a / pa.wall_s / 1e3, ops_b / pb.wall_s / 1e3);

  const std::uint64_t failed =
      ta.failed() + pb.tally.failed() + s.failed + u_failed;
  const std::uint64_t attempted =
      ta.attempted + pb.tally.attempted + s.failed + u_attempted;
  correct =
      correct && ta.bad == 0 && pb.tally.bad == 0 && s.bad == 0 && u_bad == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const Workload w(SpecByName(a.workload));
  PrintConfig(a, w.spec);
  fs::create_directories(a.work_dir);
  return a.trace ? RunTraced(a, w) : RunEndToEnd(a, w);
}

}  // namespace
}  // namespace pamakv::perfbench

int main(int argc, char** argv) {
  try {
    return pamakv::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pamabench: %s\n", e.what());
    return 2;
  }
}
