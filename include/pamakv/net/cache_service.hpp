// CacheService: the server-side bridge from wire requests to CacheEngines.
//
// Keyed requests enter through one door, ExecuteBatch: a staged Batch of
// ops (a single command is a batch of one). Connections, tests and
// in-process benches all call it, so a flash-resident key is answered the
// same way everywhere: a miss, then a promote, then a hit. Only barrier
// commands (flush_all, stats, bgsave) and background work (the reaper,
// persistence capture and restore) have entry points of their own.
//
// Topology mirrors ShardedCache — N independent single-threaded engines,
// keys routed by ShardedCache::ShardIndexFor over the string key's 64-bit
// hash — but adds what a real server needs on top of the simulator's
// metadata-only engines:
//
//  * a per-shard mutex (engines are single-threaded by design; the event
//    loop threads serialize per shard, different shards proceed in
//    parallel);
//  * actual payload bytes, in the engine's slab arena. Every engine runs
//    with item storage, so each cached item owns a slot holding a
//    SlotHeader (flags, CAS stamp, store time, flush sequence, filed wheel
//    deadline), the exact key bytes and the value bytes. An item routes to
//    the size class of all of that, so --capacity-mb bounds the memory
//    that holds item bytes. The engine's hash index is the only key
//    index: a lookup is one probe, then the stored key is compared with
//    the requested one, and a 64-bit id collision is resolved as a miss
//    rather than served as a wrong value.
//
// Nothing outlives its item. A GET miss is routed to the ghost list that
// last recorded the key (the engine's ghost locator), which is what
// value-gated policies (PAMA) need to earn the key space back; a key on no
// ghost list is charged the default penalty and reaches no policy. A store
// the engine refuses drops the key's older value, so it is never served in
// place of the refused one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/cache/expiry.hpp"
#include "pamakv/cache/sharded_cache.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/persist/records.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv::net {

class Batch;
struct BatchOp;
struct FlashRead;
enum class Verb : std::uint8_t;

struct CacheServiceConfig {
  std::size_t shards = 4;
  Bytes capacity_bytes = 256ULL * 1024 * 1024;
  /// Penalty charged to a GET miss for a key on no ghost list (a key a
  /// ghost list remembers is charged the penalty recorded there).
  MicroSecs default_penalty_us = 1'000;
  /// Clock expiry deadlines are computed and checked against. nullptr =>
  /// the process SteadyClock; tests inject a FakeClock and replay exact
  /// boundaries.
  util::Clock* clock = nullptr;
  /// Unix time (seconds) corresponding to the clock's *current* reading,
  /// used to convert absolute exptimes (> 30 days) to monotonic
  /// deadlines. 0 => time(nullptr) at construction; tests pin it.
  std::int64_t unix_now_s = 0;
  /// Timer-wheel tick. One second (memcached's clock granularity) bounds
  /// background-reap latency to ~1s past the deadline; access-path expiry
  /// is exact regardless.
  std::int64_t expiry_tick_ns = 1'000'000'000;
};

enum class StoreStatus : std::uint8_t {
  kStored,
  kNotStored,  ///< verb precondition failed, or the engine refused space
  kExists,     ///< cas: the item changed since the client's gets
  kNotFound,   ///< cas: the key is not cached
};

struct ArithmeticResult {
  enum class Status : std::uint8_t {
    kOk,
    kNotFound,
    kNonNumeric,  ///< stored value is not a plain decimal uint64
  };
  Status status = Status::kNotFound;
  std::uint64_t value = 0;  ///< post-operation value when kOk
};

// ---- shared wire-reply formatting ----

/// "STORED\r\n" / "NOT_STORED\r\n" / "EXISTS\r\n" / "NOT_FOUND\r\n".
[[nodiscard]] std::string_view StoreReplyText(StoreStatus status) noexcept;
/// incr/decr reply: "<value>\r\n", "NOT_FOUND\r\n", or the non-numeric
/// CLIENT_ERROR line.
void AppendArithmeticReply(std::vector<char>& out, ArithmeticResult result);

inline constexpr std::string_view kTouchedReply = "TOUCHED\r\n";
inline constexpr std::string_view kNotFoundReply = "NOT_FOUND\r\n";
inline constexpr std::string_view kDeletedReply = "DELETED\r\n";
inline constexpr std::string_view kStoreOomReply =
    "SERVER_ERROR out of memory storing object\r\n";

/// Per-shard command counters beyond what CacheStats tracks; summed for
/// `stats` and the metrics registry under their memcached names.
struct ServiceCounters {
  std::uint64_t cas_hits = 0;
  std::uint64_t cas_misses = 0;  ///< cas on an uncached key (NOT_FOUND)
  std::uint64_t cas_badval = 0;  ///< cas with a stale unique (EXISTS)
  std::uint64_t incr_hits = 0;
  std::uint64_t incr_misses = 0;
  std::uint64_t decr_hits = 0;
  std::uint64_t decr_misses = 0;
  std::uint64_t touch_hits = 0;  ///< touch/gat/gats deadline updates
  std::uint64_t touch_misses = 0;
  // Flash victim tier (all zero with the tier off).
  std::uint64_t flash_hits = 0;           ///< deferred reads that served
  std::uint64_t flash_promotes = 0;       ///< flash→DRAM via the set path
  std::uint64_t flash_direct_serves = 0;  ///< served with no DRAM seat
  std::uint64_t flash_read_failures = 0;  ///< async read io/CRC failures
  std::uint64_t flash_penalty_saved_us = 0;  ///< Σ penalty of flash serves

  /// Field-by-field sum, over the same name table the `stats` lines and
  /// the metric gauges iterate.
  ServiceCounters& operator+=(const ServiceCounters& o) noexcept;
};

class CacheService {
 public:
  using EngineFactory = std::function<std::unique_ptr<CacheEngine>(Bytes)>;

  /// Builds `shards` engines, each given capacity/shards via the factory.
  CacheService(const CacheServiceConfig& config, const EngineFactory& factory);

  /// flush_all [delay]: marks every item stored before now (+ delay
  /// seconds) invalid once that moment arrives. Purely an epoch flip —
  /// nothing is walked or freed here; flushed items fall out lazily on
  /// access (and under eviction pressure), exactly like expired ones. A
  /// later flush_all supersedes an earlier pending one.
  void FlushAll(std::int64_t delay_s = 0);

  /// One background-reap sweep: per shard, harvests up to max_per_shard
  /// due timer-wheel nodes (under that shard's lock only) and expires the
  /// ones still live with a passed deadline. Returns items reaped.
  /// Bounded work per call — the server's reap timer calls this, and the
  /// data path never waits behind more than one bounded sweep.
  std::size_t ReapExpired(std::size_t max_per_shard);

  /// Current reading of the configured clock (monotonic nanoseconds).
  [[nodiscard]] std::int64_t NowNs() const { return clock_->NowNanos(); }

  /// Monotonic-ns deadline for a memcached exptime relative to `now_ns`:
  /// 0 => 0 (never), negative => already expired, <= 30 days => relative
  /// seconds, else absolute unix seconds against the configured unix
  /// anchor. Exposed for tests and the load generator.
  [[nodiscard]] std::int64_t DeadlineFor(std::int64_t exptime_s,
                                         std::int64_t now_ns) const noexcept;

  /// Appends the full "STAT name value\r\n"* + "END\r\n" payload for the
  /// `stats` command: CacheStats::Snapshot() totals plus service gauges
  /// and, when registered, the extra appender's lines (the Server wires
  /// its connection/lifecycle counters in here). With detail=true (the
  /// `stats detail` command) and a registry wired via RegisterMetrics,
  /// every metrics-registry series is appended as a STAT line, rendered
  /// from the same snapshot type the Prometheus endpoint serves.
  void AppendStats(std::vector<char>& out, bool detail = false) const;

  /// Wires the service's introspection into `registry` as callback
  /// gauges, evaluated under the shard locks at snapshot time so the
  /// request hot path never touches a metric it does not already own:
  ///   pamakv_slabs{class,band}            per-subclass slab count
  ///   pamakv_subclass_items{class,band}   items per subclass
  ///   pamakv_ghost_hits{class,band}       ghost receiving-segment hits
  ///   pamakv_free_slabs / pamakv_total_slabs
  ///   pamakv_<stat> for every CacheStats counter (summed over shards)
  /// and, when the shards run PamaPolicy, the value-flow telemetry:
  ///   pamakv_pama_decisions_total{shard}, pamakv_pama_outgoing_value_sum,
  ///   pamakv_pama_incoming_value_sum, pamakv_pama_migration_benefit_sum,
  ///   pamakv_pama_last_{outgoing,incoming}_value{shard} and the
  ///   band-to-band matrix pamakv_pama_migration_flow_total{from,to}.
  /// Keeps a pointer to `registry` for `stats detail`.
  void RegisterMetrics(util::MetricsRegistry& registry);

  /// Registers (or clears, with nullptr) an extra "STAT ..." appender run
  /// inside AppendStats before the END line. Thread-safe.
  void SetExtraStats(std::function<void(std::vector<char>&)> appender);

  /// Aggregated engine stats across shards (locks each shard briefly).
  [[nodiscard]] CacheStats TotalStats() const;
  /// Aggregated service-level command counters across shards.
  [[nodiscard]] ServiceCounters TotalCounters() const;
  /// Timer-wheel nodes pending across shards (live + stale).
  [[nodiscard]] std::uint64_t ExpiryNodeCount() const;
  /// Live items across shards (= memcached curr_items).
  [[nodiscard]] std::uint64_t ItemCount() const;
  /// Hash collisions resolved across shards (expected 0 in real runs).
  [[nodiscard]] std::uint64_t CollisionsResolved() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Shard index a key id routes to (ShardedCache::ShardIndexFor);
  /// ExecuteBatch uses it to group ops before taking any lock.
  [[nodiscard]] std::size_t ShardIndexForId(KeyId id) const noexcept {
    return ShardedCache::ShardIndexFor(id, shards_.size());
  }

  /// Runs a staged batch on the calling thread: stamps each op's key id
  /// and shard, groups the ops by shard, and runs each shard's ops in
  /// request order (ExecuteOps). An op whose key is flash-resident stops
  /// its shard's ops; its read is submitted after the shard lock is
  /// released, and the completion — run through batch.post_home — finishes
  /// the op and resumes the shard's remaining ops. Returns true when every
  /// op finished before returning (the caller sequences the replies now);
  /// false when a flash read is in flight, in which case batch.on_complete
  /// runs once the last shard group finishes.
  bool ExecuteBatch(Batch& batch);

  /// One shard's slice of a batch: takes shard `index`'s lock once, reads
  /// the clock once, and runs the listed ops in request order, writing
  /// each op's wire reply into its own buffer. `idx` indexes into `batch`;
  /// every listed op must already be routed to this shard. Stops at an op
  /// whose key is flash-resident, leaving its read armed in op.flash (only
  /// with a tier attached). Returns the number of ops consumed: `n`, or
  /// the position of that op. Ops skipped after a batch failure count as
  /// consumed. Public for socketless replays that group ops themselves;
  /// everything else goes through ExecuteBatch.
  std::size_t ExecuteOps(std::size_t index, Batch& batch,
                         const std::uint32_t* idx, std::size_t n);

  /// Batches run and the ops they held (the `executor_batches` and
  /// `executor_batched_ops` stats).
  [[nodiscard]] std::uint64_t Batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t BatchedOps() const noexcept {
    return batched_ops_.load(std::memory_order_relaxed);
  }

  /// Test access: shard `index`'s engine, for snapshot comparisons (and,
  /// mutable, for planting a colliding item). The caller must guarantee
  /// the service is quiescent.
  [[nodiscard]] const CacheEngine& shard_engine(std::size_t index) const {
    return *shards_[index]->engine;
  }
  [[nodiscard]] CacheEngine& shard_engine(std::size_t index) {
    return *shards_[index]->engine;
  }

  /// The service's part of an item's slot, after the engine's tag; the key
  /// bytes and then the value bytes follow it. Slots carry no alignment
  /// guarantee, so it is read and written with memcpy. The deadline lives
  /// in the engine's Item (expire_at_ns), its single source of truth.
  struct SlotHeader {
    std::uint64_t cas = 0;
    /// When the current value was stored/touched — the flush-epoch side
    /// of the expiry check compares against this.
    std::int64_t stored_at_ns = 0;
    /// Shard flush count at store time: disambiguates stores landing on
    /// the same nanosecond as a flush_all (before vs after the command).
    std::uint64_t flush_seq = 0;
    /// Deadline currently filed in the shard's timer wheel for this key
    /// (0 = none): re-storing with the same deadline skips the duplicate
    /// node, which is what keeps a steady TTL workload allocation-free.
    std::int64_t wheel_deadline_ns = 0;
    std::uint32_t flags = 0;
    std::uint32_t key_len = 0;
  };

  /// Slot bytes an item with this key and value occupies: the engine's
  /// tag, the service's SlotHeader, the key and the value.
  [[nodiscard]] static Bytes StoredBytes(std::size_t key_len,
                                         std::size_t value_len) noexcept {
    return CacheEngine::kSlotTagBytes + sizeof(SlotHeader) + key_len +
           value_len;
  }

  // ---- persistence ----

  /// Registers (or clears, with nullptr) the mutation sink. Every
  /// acknowledged mutation is mirrored into it under the shard lock;
  /// Commit(shard) runs after the lock is released, before the reply.
  /// Wire it before serving traffic — there is no synchronization with
  /// in-flight requests.
  void SetPersistence(persist::MutationSink* sink) { sink_ = sink; }

  /// `bgsave`: forwards to the sink. False when persistence is off.
  bool TriggerSnapshot() { return sink_ != nullptr && sink_->TriggerSnapshot(); }

  /// Captures shard `index`'s PAMA metadata — per-(class,band) slab
  /// layout, ghost lists, counters — plus the live key list ordered
  /// coldest-first, under one shard-lock hold. `under_lock` (may be
  /// empty) runs while the lock is held; the persister rolls the shard's
  /// WAL generation there so the snapshot's covered-sequence boundary is
  /// exact.
  [[nodiscard]] persist::ShardCaptureMeta CapturePersistMeta(
      std::size_t index, const std::function<void()>& under_lock);

  /// Serializes up to `max` of `keys[start...]` into `out` (skipping
  /// entries that died or expired since capture) under the shard lock.
  /// Returns how many keys were consumed; 0 means the list is exhausted.
  std::size_t CaptureItems(std::size_t index, const std::vector<KeyId>& keys,
                           std::size_t start, std::size_t max,
                           std::vector<persist::SnapItem>& out);

  /// Installs a recovered shard state: slab layout + ghosts first (when
  /// the engine geometry matches the snapshot's), then items coldest-
  /// first through the engine's restore path, falling back to a normal
  /// Set when the saved layout cannot seat one. Call at startup, before
  /// the server listens.
  persist::RestoreCounts RestoreShard(std::size_t index,
                                      const persist::ShardRestoreState& st);

  /// Re-captures the (unix, mono) anchor from the clock. The persister
  /// calls this after recovery replay so absolute-exptime conversion and
  /// persisted timestamps are anchored at "now", not at construction
  /// (recovery can spend real time replaying a large WAL).
  void ReanchorNow();

  // ---- flash victim tier ----

  /// Wires the flash tier and registers a per-shard eviction listener on
  /// every engine, so capacity evictions queue for demotion. The tier
  /// must be sharded exactly like the service. Wire it before serving
  /// traffic and before RegisterMetrics (the flash gauges register only
  /// when a tier is attached); there is no synchronization with in-flight
  /// requests.
  void AttachFlash(flash::FlashTier* tier);

  [[nodiscard]] bool flash_enabled() const noexcept { return flash_ != nullptr; }
  [[nodiscard]] flash::FlashTier* flash() noexcept { return flash_; }

  /// Replays the tier's segment files (call after WAL/snapshot recovery,
  /// before StartIo and before the server listens). The admit callback
  /// drops records that expired, are flush-covered, route to a different
  /// shard (shard count changed), or are older than a recovered DRAM
  /// copy; survivors get monotonic deadlines against the current anchor.
  void RecoverFlash();

  // Monotonic <-> unix-ns conversion against the service's (unix, mono)
  // anchor. The *Deadline* pair preserves the expiry sentinels (0 never,
  // negative already-expired); the *Time* pair is plain affine (a
  // FakeClock legitimately reads 0).
  [[nodiscard]] std::int64_t UnixNsOfTime(std::int64_t mono_ns) const noexcept;
  [[nodiscard]] std::int64_t MonoTimeOf(std::int64_t unix_ns) const noexcept;
  [[nodiscard]] std::int64_t UnixNsOfDeadline(
      std::int64_t mono_deadline_ns) const noexcept;
  [[nodiscard]] std::int64_t MonoDeadlineOf(
      std::int64_t unix_deadline_ns) const noexcept;

 private:
  /// An eviction the engine listener staged for flash demotion: the
  /// victim's metadata and header, with its key and value bytes copied
  /// into the shard's demote_bytes (the slot may hold another item by the
  /// time DrainDemotions runs).
  struct PendingDemote {
    KeyId id = 0;
    MicroSecs penalty = 0;
    ClassId cls = 0;
    SubclassId sub = 0;
    std::int64_t expire_at_ns = 0;
    SlotHeader header;
    std::size_t offset = 0;  ///< key, then value, in demote_bytes
    std::size_t length = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::size_t index = 0;  ///< position in shards_ (sink calls carry it)
    std::unique_ptr<CacheEngine> engine;
    std::unique_ptr<ExpiryWheel> wheel;
    /// Reaper scratch: harvested nodes land here (capacity reused).
    std::vector<ExpiryWheel::Node> reap_buf;
    /// append/prepend build the new value here before the engine may
    /// recycle the old item's slot (capacity reused).
    std::string concat_buf;
    std::uint64_t cas_counter = 0;
    std::uint64_t collisions = 0;
    /// Pending/active flush_all cutover (monotonic ns); 0 = none ever.
    std::int64_t flush_at_ns = 0;
    /// Count of flush_all commands applied to this shard.
    std::uint64_t flush_seq = 0;
    ServiceCounters counters;
    /// Evictions staged by the engine listener, awaiting demotion, and
    /// their key/value bytes. demote_bytes never grows past the capacity
    /// AttachFlash reserves; a victim that does not fit is dropped.
    std::vector<PendingDemote> pending_demotes;
    std::vector<char> demote_bytes;
    /// Demotions lost to a full staging buffer or listener allocation
    /// failure.
    std::uint64_t demote_drops = 0;
    /// Snapshot items RestoreShard could not seat, with their cas, so
    /// RecoverFlash does not resurrect an older flash copy. RecoverFlash
    /// empties it.
    std::vector<std::pair<KeyId, std::uint64_t>> unseated;
  };

  [[nodiscard]] MicroSecs PenaltyOf(std::uint32_t flags) const noexcept {
    return flags != 0 ? static_cast<MicroSecs>(flags) : default_penalty_us_;
  }
  /// The cached item for (id, key) under the shard lock: one index probe,
  /// then the stored key is compared with `key`. A different key under
  /// the same id is a collision: the squatter is dropped so both keys see
  /// consistent misses. Fills *header and returns the handle when the item
  /// is cached and verified, kInvalidHandle otherwise.
  ItemHandle VerifiedItem(Shard& shard, KeyId id, std::string_view key,
                          SlotHeader* header);
  /// True when the deadline or the shard's flush epoch has passed as of
  /// now_ns — the expiry rule for items, staged demotions and flash slots.
  [[nodiscard]] bool Lapsed(const Shard& shard, std::int64_t expire_at_ns,
                            std::int64_t stored_at_ns, std::uint64_t flush_seq,
                            std::int64_t now_ns) const noexcept;
  /// The flush-epoch half of the expiry rule.
  [[nodiscard]] bool FlushCovers(const Shard& shard, std::int64_t stored_at_ns,
                                 std::uint64_t flush_seq,
                                 std::int64_t now_ns) const noexcept;
  /// VerifiedItem + lazy expiry: a verified item whose time has passed is
  /// expired through the engine (ghost-routed, counted as expired, not
  /// evicted) and reported as absent.
  ItemHandle LiveUnexpired(Shard& shard, KeyId id, std::string_view key,
                           std::int64_t now_ns, SlotHeader* header);
  /// Files `deadline` in the shard's wheel unless the item at `bytes`
  /// already has exactly that deadline filed.
  void ScheduleExpiry(Shard& shard, KeyId id, char* bytes,
                      std::int64_t deadline);
  /// Copies an evicted item's header and bytes into the shard's staging
  /// buffer. Runs inside the engine's eviction listener.
  static void StageDemotion(Shard& shard, const Item& item) noexcept;
  /// The persisted form of a stored item.
  [[nodiscard]] persist::WalStore WalRecord(std::string_view key,
                                            std::string_view value,
                                            const SlotHeader& header,
                                            std::int64_t expire_at_ns) const;
  // Lock-held verb bodies, run by ExecuteOpLocked under the shard group's
  // one lock acquisition and one clock read. A non-null `flash` lets a
  // flash-resident key defer (the read is armed there); it is null with
  // no tier attached and on a completion's re-run, which answers from
  // slot metadata or as a miss.
  //
  // get/gets/gat/gats: a verified hit appends a "VALUE ..." block to
  // `out`; a miss appends nothing and charges the engine the key's
  // penalty. An item past its deadline (or flush epoch) is expired on the
  // spot and handled as a miss, routed to the ghost list of the
  // class/subclass it occupied.
  bool GetLocked(Shard& shard, KeyId id, std::string_view key,
                 std::vector<char>& out, bool with_cas, bool touch,
                 std::int64_t exptime_s, std::int64_t now, FlashRead* flash);
  // The six storage verbs. `flags` is the miss penalty in µs (0 => the
  // configured default); `exptime_s` uses memcached semantics (0 never,
  // negative already-expired, <= 30 days relative, else absolute unix);
  // `cas_unique` is consulted only by cas. Every successful store bumps
  // the CAS stamp. Append/prepend keep the stored flags and deadline.
  StoreStatus StoreLocked(Shard& shard, KeyId id, Verb verb,
                          std::string_view key, std::uint32_t flags,
                          std::int64_t exptime_s, std::string_view value,
                          std::uint64_t cas_unique, std::int64_t now,
                          FlashRead* flash);
  // incr/decr: the stored value must be a plain decimal uint64 (at most
  // 20 digits, no sign, no padding). incr saturates at 2^64-1; decr
  // floors at 0. The result is re-stored as plain decimal and bumps CAS.
  ArithmeticResult IncrDecrLocked(Shard& shard, KeyId id, std::string_view key,
                                  std::uint64_t delta, bool increment,
                                  std::int64_t now, FlashRead* flash);
  bool TouchLocked(Shard& shard, KeyId id, std::string_view key,
                   std::int64_t exptime_s, std::int64_t now);
  /// touch/gat of the DRAM item at `bytes` (whose header is `header`):
  /// moves its deadline, refreshes its store time (which also rescues it
  /// from a pending flush epoch, as in memcached), promotes it and logs
  /// the touch.
  void TouchItem(Shard& shard, KeyId id, std::string_view key, char* bytes,
                 SlotHeader header, std::int64_t exptime_s, std::int64_t now);
  /// touch/gat of a flash-resident key, in slot metadata alone: the
  /// on-disk record keeps its old TTL until GC rewrites it, so a crash
  /// loses the refresh.
  void TouchSlot(Shard& shard, flash::Slot& slot, std::string_view key,
                 std::int64_t exptime_s, std::int64_t now);
  bool DelLocked(Shard& shard, KeyId id, std::string_view key,
                 std::int64_t now);
  /// One staged op; wire reply goes into op.out. bad_alloc from a storage
  /// op degrades to an in-band SERVER_ERROR reply; from any other verb it
  /// marks the batch failed (the connection closes). With `may_defer` a
  /// flash-resident key arms op.flash and leaves the reply unwritten.
  /// Returns whether the op found its key: a get hit, a stored store, an
  /// applied incr/decr, a touched or deleted key.
  bool ExecuteOpLocked(Shard& shard, Batch& batch, BatchOp& op,
                       std::int64_t now, bool may_defer);
  /// Runs shard group `shard` of `batch` from its cursor: submits the
  /// read of each op that defers, and retires the group (the batch's
  /// pending count) once its last op has run.
  void RunShardGroup(Batch& batch, std::uint32_t shard);
  /// A deferred op's read landed: promotes the record and re-runs the op,
  /// or serves it against the tier when DRAM has no seat for it.
  void CompleteFlashOp(Batch& batch, BatchOp& op, bool read_ok,
                       std::string_view payload);

  // ---- flash internals (all under the shard lock) ----

  /// The live flash slot for `id`, or nullptr. A slot whose deadline or
  /// flush epoch has lapsed is dropped on the spot (ghost-routed so the
  /// demand stays visible; recovery's admit check makes a tombstone
  /// unnecessary for lapsed records).
  flash::Slot* FlashSlotLive(Shard& shard, KeyId id, std::int64_t now);
  /// Records the slot's key in the ghost list of the (class, band) it was
  /// demoted from, when that pair still exists in this geometry.
  void GhostRoute(Shard& shard, KeyId id, const flash::Slot& slot);
  /// Fills *read with a scheduled read of the slot's record.
  void ArmFlashRead(Shard& shard, const flash::Slot& slot, FlashRead* read);
  /// Demotes every queued eviction (admission-gated by the policy's
  /// incoming slab value), then runs tier GC if the shard is over its
  /// cap. Call after any engine call that can evict.
  void DrainDemotions(Shard& shard, std::int64_t now);
  /// Drops the key's flash copy (with a tombstone) and logs its delete:
  /// after a store that lost the DRAM copy, neither the tier nor a
  /// restart may serve the older value.
  void ForgetDurableCopies(Shard& shard, KeyId id, std::string_view key);
  /// DrainDemotions for the GET path, where an eviction is rare (a policy
  /// rebalancing from its tick or miss hook): GC keeps its store-driven
  /// cadence, and nothing runs unless a victim is staged.
  void DrainDemotionsIfStaged(Shard& shard, std::int64_t now) {
    if (!shard.pending_demotes.empty()) DrainDemotions(shard, now);
  }

  /// How a completion resolved the flash-resident key.
  enum class PromoteOutcome : std::uint8_t {
    kUseDram,   ///< slot gone or DRAM copy newer — run the verb normally
    kPromoted,  ///< record seated in DRAM via the set path; slot erased
    kDirect,    ///< engine refused a seat; serve/mutate against the tier
  };
  /// Revalidates a landed read (scheduled at slot version `pinned_cas`)
  /// against the current shard state and, on success, promotes the
  /// decoded record (in *rec, viewing `payload`) into DRAM preserving
  /// cas/stored_at/flush_seq.
  PromoteOutcome PromoteFlashLocked(Shard& shard, KeyId id,
                                    std::string_view key,
                                    std::uint64_t pinned_cas, bool read_ok,
                                    std::string_view payload,
                                    flash::Record* rec, std::int64_t now);
  /// The tier-direct half of a completion (kDirect): the op is answered
  /// against the flash copy — a get serves it, append/prepend refuse, and
  /// incr/decr rewrites the record.
  void ServeFromFlashLocked(Shard& shard, BatchOp& op, const flash::Record& rec,
                            std::int64_t now);

  /// Per-subclass sum of a counter across shards, under each shard's lock.
  template <typename Fn>
  [[nodiscard]] double SumOverShards(Fn fn) const {
    double total = 0.0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += fn(*shard->engine);
    }
    return total;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  MicroSecs default_penalty_us_;
  util::Clock* clock_;  ///< never null (defaults to the SteadyClock)
  /// Anchors for absolute-exptime conversion: unix_base_s_ is the unix
  /// time that the clock read mono_base_ns_ (both captured at
  /// construction, or pinned via config for tests). unix_base_ns_ is the
  /// same anchor at nanosecond precision — persistence timestamps cross
  /// process restarts, where a whole-second anchor would skew every
  /// recovered store/flush/TTL moment by up to a second.
  std::int64_t unix_base_s_;
  std::int64_t unix_base_ns_;
  std::int64_t mono_base_ns_;
  util::MetricsRegistry* metrics_ = nullptr;  ///< set by RegisterMetrics
  persist::MutationSink* sink_ = nullptr;     ///< set by SetPersistence
  flash::FlashTier* flash_ = nullptr;         ///< set by AttachFlash

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_ops_{0};

  mutable std::mutex extra_stats_mu_;
  std::function<void(std::vector<char>&)> extra_stats_;
};

}  // namespace pamakv::net
