// In-memory span tracing for the benchmark's traced run, plus the timing
// wrappers that put spans around calls into the policy and persistence
// layers. Nothing here reaches inside src/: the wrappers implement the
// layers' public interfaces and forward every call.
//
// A span records its name, start, end, parent (the enclosing span on the
// same thread) and the replay op it belongs to. Self time — a span's
// duration minus the time its children cover — is accumulated as spans
// close, so per-layer totals are exact even past the cap on stored spans.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pamakv/persist/records.hpp"
#include "pamakv/policy/policy.hpp"

namespace pamakv::perfbench {

enum class SpanName : std::uint16_t {
  kServiceOps,     ///< net.cache_service: one ExecuteOps sub-batch
  kEngineOp,       ///< cache.engine: one CacheEngine call
  kPolicyHook,     ///< policy.pama: OnTick/OnHit/OnMiss/OnInsert/OnEvict/...
  kMakeRoom,       ///< policy.pama: MakeRoom
  kPersistAppend,  ///< persist: MutationSink On* append
  kPersistCommit,  ///< persist: MutationSink::Commit
  kCount,
};

[[nodiscard]] const char* SpanNameText(SpanName name);

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<std::uint32_t> samples_ns;  ///< durations, capped

  [[nodiscard]] double QuantileNs(double q) const;
};

/// Process-wide span recorder. Recording is off until Enable(true).
/// Collect/Reset/WriteSpans require that no other thread is inside a span
/// (call them after the traced threads are joined or idle).
class Tracer {
 public:
  static void Enable(bool on);
  [[nodiscard]] static bool enabled();
  /// Tags spans opened on this thread with replay op `op`.
  static void SetOp(std::uint32_t op);
  [[nodiscard]] static std::vector<SpanTotals> Collect();
  static void Reset();
  /// Writes stored spans as CSV: name,thread,op,start_ns,end_ns,parent.
  static bool WriteSpans(const std::string& path);
};

class SpanScope {
 public:
  explicit SpanScope(SpanName name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool active_;
};

/// AllocationPolicy that forwards every call to `inner` inside a span.
class TimedPolicy final : public AllocationPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<AllocationPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  void Attach(CacheEngine& engine) override;
  void OnTick(AccessClock now) override;
  void OnHit(const Item& item) override;
  void OnMiss(KeyId key, Bytes size, MicroSecs penalty, ClassId cls,
              SubclassId sub) override;
  void OnInsert(const Item& item) override;
  void OnEvict(const Item& item) override;
  [[nodiscard]] bool MakeRoom(ClassId cls, SubclassId sub) override;
  [[nodiscard]] double IncomingSlabValue(ClassId cls,
                                         SubclassId sub) const override;

  [[nodiscard]] const AllocationPolicy& inner() const { return *inner_; }

 private:
  std::unique_ptr<AllocationPolicy> inner_;
};

/// MutationSink that forwards to `inner` inside append/commit spans.
class TimedSink final : public persist::MutationSink {
 public:
  explicit TimedSink(persist::MutationSink& inner) : inner_(inner) {}

  void OnStore(std::size_t shard, const persist::WalStore& rec) override;
  void OnDelete(std::size_t shard, std::string_view key) override;
  void OnTouch(std::size_t shard, std::string_view key,
               std::int64_t expire_unix_ns,
               std::int64_t stored_unix_ns) override;
  void OnFlush(std::size_t shard, std::int64_t cutover_unix_ns) override;
  void Commit(std::size_t shard) override;
  bool TriggerSnapshot() override;
  void AppendStats(std::vector<char>& out) const override;

 private:
  persist::MutationSink& inner_;
};

}  // namespace pamakv::perfbench
