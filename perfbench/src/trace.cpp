#include "trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>

namespace pamakv::perfbench {
namespace {

constexpr std::size_t kNames = static_cast<std::size_t>(SpanName::kCount);
/// Bounds the memory a traced run holds: totals stay exact past the caps.
constexpr std::size_t kMaxStoredSpans = 200'000;
constexpr std::size_t kMaxSamplesPerName = 400'000;
constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

struct StoredSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t op = 0;
  std::uint16_t name = 0;
  std::uint16_t thread = 0;
};

struct Frame {
  SpanName name;
  std::int64_t start_ns;
  std::uint64_t child_ns;
  std::uint32_t stored;  ///< index into the thread's spans, or kNoParent
};

struct ThreadState {
  std::uint16_t id = 0;
  std::uint32_t op = 0;
  std::vector<Frame> stack;
  std::array<SpanTotals, kNames> totals;
  std::vector<StoredSpan> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_stored{0};
std::mutex g_mu;
std::vector<std::shared_ptr<ThreadState>> g_threads;  // guarded by g_mu

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadState& Local() {
  thread_local std::shared_ptr<ThreadState> state = [] {
    auto s = std::make_shared<ThreadState>();
    std::lock_guard<std::mutex> lock(g_mu);
    s->id = static_cast<std::uint16_t>(g_threads.size());
    g_threads.push_back(s);
    return s;
  }();
  return *state;
}

}  // namespace

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kServiceOps: return "net.cache_service.execute_ops";
    case SpanName::kEngineOp: return "cache.engine.op";
    case SpanName::kPolicyHook: return "policy.pama.hook";
    case SpanName::kMakeRoom: return "policy.pama.make_room";
    case SpanName::kPersistAppend: return "persist.append";
    case SpanName::kPersistCommit: return "persist.commit";
    case SpanName::kCount: break;
  }
  return "?";
}

double SpanTotals::QuantileNs(double q) const {
  if (samples_ns.empty()) return 0.0;
  std::vector<std::uint32_t> v = samples_ns;
  const std::size_t rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_release); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetOp(std::uint32_t op) { Local().op = op; }

std::vector<SpanTotals> Tracer::Collect() {
  std::vector<SpanTotals> out(kNames);
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) {
    for (std::size_t n = 0; n < kNames; ++n) {
      const SpanTotals& s = t->totals[n];
      out[n].count += s.count;
      out[n].total_ns += s.total_ns;
      out[n].self_ns += s.self_ns;
      out[n].samples_ns.insert(out[n].samples_ns.end(), s.samples_ns.begin(),
                               s.samples_ns.end());
    }
  }
  return out;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) {
    for (auto& s : t->totals) s = SpanTotals{};
    t->spans.clear();
  }
  g_stored.store(0, std::memory_order_relaxed);
}

bool Tracer::WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,thread,op,start_ns,end_ns,parent\n");
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) {
    for (const StoredSpan& s : t->spans) {
      std::fprintf(f, "%s,%u,%u,%lld,%lld,%lld\n",
                   SpanNameText(static_cast<SpanName>(s.name)),
                   static_cast<unsigned>(s.thread), s.op,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent));
    }
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(SpanName name) : active_(Tracer::enabled()) {
  if (!active_) return;
  ThreadState& t = Local();
  std::uint32_t stored = kNoParent;
  if (g_stored.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans) {
    stored = static_cast<std::uint32_t>(t.spans.size());
    StoredSpan s;
    s.parent = t.stack.empty() ? kNoParent : t.stack.back().stored;
    s.op = t.op;
    s.name = static_cast<std::uint16_t>(name);
    s.thread = t.id;
    t.spans.push_back(s);
  }
  t.stack.push_back(Frame{name, NowNs(), 0, stored});
}

SpanScope::~SpanScope() {
  if (!active_) return;
  const std::int64_t end = NowNs();
  ThreadState& t = Local();
  const Frame f = t.stack.back();
  t.stack.pop_back();
  const auto dur = static_cast<std::uint64_t>(end - f.start_ns);
  SpanTotals& s = t.totals[static_cast<std::size_t>(f.name)];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - std::min(dur, f.child_ns);
  if (s.samples_ns.size() < kMaxSamplesPerName) {
    s.samples_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(dur, std::numeric_limits<std::uint32_t>::max())));
  }
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (f.stored != kNoParent) {
    t.spans[f.stored].start_ns = f.start_ns;
    t.spans[f.stored].end_ns = end;
  }
}

void TimedPolicy::Attach(CacheEngine& engine) {
  AllocationPolicy::Attach(engine);
  inner_->Attach(engine);
}

void TimedPolicy::OnTick(AccessClock now) {
  SpanScope span(SpanName::kPolicyHook);
  inner_->OnTick(now);
}

void TimedPolicy::OnHit(const Item& item) {
  SpanScope span(SpanName::kPolicyHook);
  inner_->OnHit(item);
}

void TimedPolicy::OnMiss(KeyId key, Bytes size, MicroSecs penalty, ClassId cls,
                         SubclassId sub) {
  SpanScope span(SpanName::kPolicyHook);
  inner_->OnMiss(key, size, penalty, cls, sub);
}

void TimedPolicy::OnInsert(const Item& item) {
  SpanScope span(SpanName::kPolicyHook);
  inner_->OnInsert(item);
}

void TimedPolicy::OnEvict(const Item& item) {
  SpanScope span(SpanName::kPolicyHook);
  inner_->OnEvict(item);
}

bool TimedPolicy::MakeRoom(ClassId cls, SubclassId sub) {
  SpanScope span(SpanName::kMakeRoom);
  return inner_->MakeRoom(cls, sub);
}

double TimedPolicy::IncomingSlabValue(ClassId cls, SubclassId sub) const {
  SpanScope span(SpanName::kPolicyHook);
  return inner_->IncomingSlabValue(cls, sub);
}

void TimedSink::OnStore(std::size_t shard, const persist::WalStore& rec) {
  SpanScope span(SpanName::kPersistAppend);
  inner_.OnStore(shard, rec);
}

void TimedSink::OnDelete(std::size_t shard, std::string_view key) {
  SpanScope span(SpanName::kPersistAppend);
  inner_.OnDelete(shard, key);
}

void TimedSink::OnTouch(std::size_t shard, std::string_view key,
                        std::int64_t expire_unix_ns,
                        std::int64_t stored_unix_ns) {
  SpanScope span(SpanName::kPersistAppend);
  inner_.OnTouch(shard, key, expire_unix_ns, stored_unix_ns);
}

void TimedSink::OnFlush(std::size_t shard, std::int64_t cutover_unix_ns) {
  SpanScope span(SpanName::kPersistAppend);
  inner_.OnFlush(shard, cutover_unix_ns);
}

void TimedSink::Commit(std::size_t shard) {
  SpanScope span(SpanName::kPersistCommit);
  inner_.Commit(shard);
}

bool TimedSink::TriggerSnapshot() { return inner_.TriggerSnapshot(); }

void TimedSink::AppendStats(std::vector<char>& out) const {
  inner_.AppendStats(out);
}

}  // namespace pamakv::perfbench
