#include "pamakv/net/cache_service.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <ctime>
#include <limits>
#include <stdexcept>
#include <string>

#include "pamakv/cache/string_keys.hpp"
#include "pamakv/net/batch.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/policy/pama.hpp"
#include "pamakv/util/failpoint.hpp"

namespace pamakv::net {

namespace {

constexpr std::int64_t kNsPerSecond = 1'000'000'000;
/// memcached's relative/absolute exptime pivot: 30 days.
constexpr std::int64_t kRelativeLimitS = 60LL * 60 * 24 * 30;
/// Deadlines are capped ~95 years out so second→ns math cannot overflow.
constexpr std::int64_t kMaxAheadS = 3'000'000'000;

/// Name ↔ member table for ServiceCounters: `stats` lines and metric
/// gauges iterate this, so a counter added to the struct and here shows
/// up on every export surface at once (memcached stat spellings).
struct CounterField {
  const char* name;
  std::uint64_t ServiceCounters::*member;
};
/// Demotion staging buffer per shard, in slabs. PAMA's slab migration
/// evicts at most a slab's worth of items, and a Set makes up to four
/// attempts. The class-LRU migration the other policies use evicts until
/// some band of the donor class can release a slab, which has no such
/// bound: victims past the buffer are dropped (flash_demote_drops).
constexpr std::size_t kDemoteStageSlabs = 8;

constexpr CounterField kCounterFields[] = {
    {"cas_hits", &ServiceCounters::cas_hits},
    {"cas_misses", &ServiceCounters::cas_misses},
    {"cas_badval", &ServiceCounters::cas_badval},
    {"incr_hits", &ServiceCounters::incr_hits},
    {"incr_misses", &ServiceCounters::incr_misses},
    {"decr_hits", &ServiceCounters::decr_hits},
    {"decr_misses", &ServiceCounters::decr_misses},
    {"touch_hits", &ServiceCounters::touch_hits},
    {"touch_misses", &ServiceCounters::touch_misses},
    {"flash_hits", &ServiceCounters::flash_hits},
    {"flash_promotes", &ServiceCounters::flash_promotes},
    {"flash_direct_serves", &ServiceCounters::flash_direct_serves},
    {"flash_read_failures", &ServiceCounters::flash_read_failures},
    {"flash_penalty_saved_us", &ServiceCounters::flash_penalty_saved_us},
};

/// Parses a stored value as a plain decimal uint64 (all digits, fully
/// consumed, in range) and applies incr/decr to it. False when the value
/// is not such a number.
bool ApplyDelta(std::string_view value, std::uint64_t delta, bool increment,
                std::uint64_t* next) {
  std::uint64_t current = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, current);
  if (value.empty() || ec != std::errc{} || ptr != end) return false;
  if (increment) {
    // Saturating: memcached wraps, but a penalty-aware cache has no use
    // for a counter that silently jumps to 0 at 2^64.
    *next = current > std::numeric_limits<std::uint64_t>::max() - delta
                ? std::numeric_limits<std::uint64_t>::max()
                : current + delta;
  } else {
    *next = current < delta ? 0 : current - delta;
  }
  return true;
}

using SlotHeader = CacheService::SlotHeader;

SlotHeader ReadHeader(const char* bytes) noexcept {
  SlotHeader h;
  std::memcpy(&h, bytes, sizeof h);
  return h;
}

void WriteHeader(char* bytes, const SlotHeader& h) noexcept {
  std::memcpy(bytes, &h, sizeof h);
}

std::string_view KeyOf(const char* bytes, const SlotHeader& h) noexcept {
  return {bytes + sizeof(SlotHeader), h.key_len};
}

/// The value bytes of a stored item: whatever its size leaves after the
/// tag, the header and the key.
std::string_view ValueOf(const Item& item, const SlotHeader& h) noexcept {
  return {CacheEngine::ItemBytes(item) + sizeof(SlotHeader) + h.key_len,
          static_cast<std::size_t>(item.size -
                                   CacheService::StoredBytes(h.key_len, 0))};
}

/// Lays an item out in the bytes the engine handed back from Set.
void WriteItem(char* bytes, const SlotHeader& h, std::string_view key,
               std::string_view value) noexcept {
  WriteHeader(bytes, h);
  std::memcpy(bytes + sizeof h, key.data(), key.size());
  std::memcpy(bytes + sizeof h + key.size(), value.data(), value.size());
}

}  // namespace

std::string_view StoreReplyText(StoreStatus status) noexcept {
  switch (status) {
    case StoreStatus::kStored: return "STORED\r\n";
    case StoreStatus::kNotStored: return "NOT_STORED\r\n";
    case StoreStatus::kExists: return "EXISTS\r\n";
    case StoreStatus::kNotFound: return "NOT_FOUND\r\n";
  }
  return "SERVER_ERROR bad store status\r\n";
}

void AppendArithmeticReply(std::vector<char>& out, ArithmeticResult result) {
  switch (result.status) {
    case ArithmeticResult::Status::kOk:
      AppendUInt(out, result.value);
      AppendLiteral(out, "\r\n");
      break;
    case ArithmeticResult::Status::kNotFound:
      AppendLiteral(out, kNotFoundReply);
      break;
    case ArithmeticResult::Status::kNonNumeric:
      AppendLiteral(out,
                    "CLIENT_ERROR cannot increment or decrement non-numeric "
                    "value\r\n");
      break;
  }
}

StoreVerb ToStoreVerb(Verb v) noexcept {
  switch (v) {
    case Verb::kAdd: return StoreVerb::kAdd;
    case Verb::kReplace: return StoreVerb::kReplace;
    case Verb::kAppend: return StoreVerb::kAppend;
    case Verb::kPrepend: return StoreVerb::kPrepend;
    case Verb::kCas: return StoreVerb::kCas;
    default: return StoreVerb::kSet;
  }
}

CacheService::CacheService(const CacheServiceConfig& config,
                           const EngineFactory& factory)
    : default_penalty_us_(config.default_penalty_us),
      clock_(config.clock != nullptr ? config.clock
                                     : &util::SteadyClock::Instance()),
      // Wall time goes through the clock seam (not system_clock directly)
      // so FakeClock tests can pin the absolute-exptime anchor.
      unix_base_ns_(config.unix_now_s != 0 ? config.unix_now_s * kNsPerSecond
                                           : clock_->WallNowNs()),
      mono_base_ns_(clock_->NowNanos()) {
  unix_base_s_ = unix_base_ns_ / kNsPerSecond;
  if (config.shards == 0) throw std::invalid_argument("shards must be >= 1");
  shards_.reserve(config.shards);
  const Bytes per_shard = config.capacity_bytes / config.shards;
  for (std::size_t i = 0; i < config.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->engine = factory(per_shard);
    // Item bytes live in the engine's slab arena.
    shard->engine->EnableItemStorage();
    shard->wheel =
        std::make_unique<ExpiryWheel>(mono_base_ns_, config.expiry_tick_ns);
    shards_.push_back(std::move(shard));
  }
}

void CacheService::ReanchorNow() {
  // A simultaneous (unix, mono) pair defines the same affine mapping no
  // matter when it is taken; re-capturing after a long recovery replay
  // just sheds whatever drift accumulated since construction.
  unix_base_ns_ = clock_->WallNowNs();
  mono_base_ns_ = clock_->NowNanos();
  unix_base_s_ = unix_base_ns_ / kNsPerSecond;
}

std::int64_t CacheService::DeadlineFor(std::int64_t exptime_s,
                                       std::int64_t now_ns) const noexcept {
  if (exptime_s == 0) return 0;
  // Negative exptime: memcached treats it as "expired already". -1 is the
  // always-in-the-past sentinel (0 would mean "never").
  if (exptime_s < 0) return -1;
  if (exptime_s <= kRelativeLimitS) return now_ns + exptime_s * kNsPerSecond;
  // Absolute unix seconds, anchored to the (unix, monotonic) pair captured
  // at construction.
  const std::int64_t rel = exptime_s - unix_base_s_;
  if (rel <= 0) return -1;
  return mono_base_ns_ + std::min(rel, kMaxAheadS) * kNsPerSecond;
}

std::int64_t CacheService::UnixNsOfTime(std::int64_t mono_ns) const noexcept {
  return unix_base_ns_ + (mono_ns - mono_base_ns_);
}

std::int64_t CacheService::MonoTimeOf(std::int64_t unix_ns) const noexcept {
  return mono_base_ns_ + (unix_ns - unix_base_ns_);
}

std::int64_t CacheService::UnixNsOfDeadline(
    std::int64_t mono_deadline_ns) const noexcept {
  // 0 (never) and negative (already expired) are sentinels, not times.
  return mono_deadline_ns <= 0 ? mono_deadline_ns
                               : UnixNsOfTime(mono_deadline_ns);
}

std::int64_t CacheService::MonoDeadlineOf(
    std::int64_t unix_deadline_ns) const noexcept {
  return unix_deadline_ns <= 0 ? unix_deadline_ns
                               : MonoTimeOf(unix_deadline_ns);
}

ItemHandle CacheService::VerifiedItem(Shard& shard, KeyId id,
                                      std::string_view key,
                                      SlotHeader* header) {
  CacheEngine& engine = *shard.engine;
  const ItemHandle h = engine.Find(id);
  if (h == kInvalidHandle) return h;
  const Item& item = engine.ItemAt(h);
  // An item too small to hold a header was not stored by this service
  // (only possible if callers bypass it); treat it like a foreign key.
  if (item.size >= StoredBytes(0, 0)) {
    const char* bytes = CacheEngine::ItemBytes(item);
    *header = ReadHeader(bytes);
    if (item.size >= StoredBytes(header->key_len, 0) &&
        KeyOf(bytes, *header) == key) {
      return h;
    }
  }
  // The engine holds this id for a *different* string: drop the squatter
  // so both keys see consistent misses from here on.
  ++shard.collisions;
  engine.Del(id);
  return kInvalidHandle;
}

bool CacheService::FlushCovers(const Shard& shard, std::int64_t stored_at_ns,
                               std::uint64_t flush_seq,
                               std::int64_t now_ns) const noexcept {
  // flush_seq doubles as the armed flag: it is 0 only before the first
  // flush_all (flush_at_ns == 0 cannot mean "unarmed" — an immediate
  // flush under a FakeClock sitting at t=0 computes exactly 0).
  if (shard.flush_seq == 0 || now_ns < shard.flush_at_ns) return false;
  // The flush epoch covers everything stored strictly before the
  // cutover; stores landing on the cutover's exact nanosecond (routine
  // under a FakeClock) are split by the flush sequence captured at
  // store time: before the flush_all command => flushed, after => kept.
  if (stored_at_ns < shard.flush_at_ns) return true;
  return stored_at_ns == shard.flush_at_ns && flush_seq < shard.flush_seq;
}

bool CacheService::Lapsed(const Shard& shard, std::int64_t expire_at_ns,
                          std::int64_t stored_at_ns, std::uint64_t flush_seq,
                          std::int64_t now_ns) const noexcept {
  if (expire_at_ns != 0 && now_ns >= expire_at_ns) return true;
  return FlushCovers(shard, stored_at_ns, flush_seq, now_ns);
}

ItemHandle CacheService::LiveUnexpired(Shard& shard, KeyId id,
                                       std::string_view key,
                                       std::int64_t now_ns,
                                       SlotHeader* header) {
  const ItemHandle h = VerifiedItem(shard, id, key, header);
  if (h == kInvalidHandle) return h;
  const Item& item = shard.engine->ItemAt(h);
  if (!Lapsed(shard, item.expire_at_ns, header->stored_at_ns,
              header->flush_seq, now_ns)) {
    return h;
  }
  // Lazy expiry: collect the stale item now, then report it absent. The
  // engine ghost-routes the key (demand stays visible to the policy) and
  // counts it as expired, not evicted.
  shard.engine->Expire(id, /*background=*/false);
  return kInvalidHandle;
}

void CacheService::ScheduleExpiry(Shard& shard, KeyId id, char* bytes,
                                  std::int64_t deadline) {
  if (deadline == 0) return;
  SlotHeader header = ReadHeader(bytes);
  // Dedup against the node already filed: re-storing a key with an
  // unchanged deadline (fixed-TTL workloads under a paused test clock)
  // costs no wheel insert, keeping the steady state allocation-free.
  if (header.wheel_deadline_ns == deadline) return;
  shard.wheel->Schedule(id, deadline);
  header.wheel_deadline_ns = deadline;
  WriteHeader(bytes, header);
}

persist::WalStore CacheService::WalRecord(std::string_view key,
                                          std::string_view value,
                                          const SlotHeader& header,
                                          std::int64_t expire_at_ns) const {
  persist::WalStore rec;
  rec.key = key;
  rec.value = value;
  rec.flags = header.flags;
  rec.expire_unix_ns = UnixNsOfDeadline(expire_at_ns);
  rec.stored_unix_ns = UnixNsOfTime(header.stored_at_ns);
  rec.cas = header.cas;
  return rec;
}

bool CacheService::Get(std::string_view key, std::vector<char>& out,
                       bool with_cas) {
  const KeyId id = HashStringKey(key);
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return GetLocked(shard, id, key, out, with_cas, /*touch=*/false, 0, NowNs());
}

bool CacheService::GetLocked(Shard& shard, KeyId id, std::string_view key,
                             std::vector<char>& out, bool with_cas, bool touch,
                             std::int64_t exptime_s, std::int64_t now,
                             FlashRead* flash) {
  CacheEngine& engine = *shard.engine;
  SlotHeader header;
  const ItemHandle h = LiveUnexpired(shard, id, key, now, &header);
  // The hit's clock tick can let a background rebalancer evict the item;
  // the engine then charged a miss, which the client sees as one.
  if (h != kInvalidHandle && !engine.GetHit(h).hit) {
    if (touch) ++shard.counters.touch_misses;
    DrainDemotionsIfStaged(shard, now);
    return false;
  }
  if (h != kInvalidHandle) {
    const Item& item = engine.ItemAt(h);
    if (touch) {
      const std::int64_t deadline = DeadlineFor(exptime_s, now);
      // Touching also rescues the item from a pending flush epoch, like
      // memcached (flush compares the item's time, which touch refreshes).
      header.stored_at_ns = now;
      header.flush_seq = shard.flush_seq;
      WriteHeader(CacheEngine::ItemBytes(item), header);
      engine.Touch(id, deadline);
      ScheduleExpiry(shard, id, CacheEngine::ItemBytes(item), deadline);
      ++shard.counters.touch_hits;
      if (sink_ != nullptr) {
        sink_->OnTouch(shard.index, key, UnixNsOfDeadline(deadline),
                       UnixNsOfTime(now));
      }
    }
    AppendValueBlock(out, key, header.flags, ValueOf(item, header),
                     header.cas, with_cas);
    DrainDemotionsIfStaged(shard, now);
    return true;
  }
  // A DRAM miss may still be a flash hit: schedule the async read instead
  // of answering. The engine is charged the miss now, at schedule time,
  // so the demand (and its ghost routing) is visible to the policy
  // immediately; the promote (set) and serve (hit) halves follow at
  // completion, which is what keeps PAMA's accounting exact across the
  // tier boundary.
  if (flash::Slot* slot = FlashSlotLive(shard, id, now)) {
    engine.GetMiss(id, slot->penalty,
                   StoredBytes(key.size(), slot->value_size));
    if (flash != nullptr) {
      ArmFlashRead(shard, *slot, flash);
    } else if (touch) {
      // A caller that cannot wait (Get, or a completion's re-run after
      // the slot was re-demoted): an ordinary miss, already charged with
      // the slot's exact size and penalty.
      ++shard.counters.touch_misses;
    }
    // Last: a drain can append to the tier and move `slot`.
    DrainDemotionsIfStaged(shard, now);
    return false;
  }
  if (touch) ++shard.counters.touch_misses;
  // Miss: charge the engine so stats, ghost lists and PAMA's demand
  // attribution see it. The engine routes it to the ghost list that last
  // recorded the key — for a lazily-expired item, the class/subclass it
  // just vacated — and charges a key on no ghost list the default penalty.
  engine.GetMiss(id, default_penalty_us_);
  DrainDemotionsIfStaged(shard, now);
  return false;
}

StoreStatus CacheService::Store(StoreVerb verb, std::string_view key,
                                std::uint32_t flags, std::int64_t exptime_s,
                                std::string_view value,
                                std::uint64_t cas_unique) {
  const KeyId id = HashStringKey(key);
  Shard& shard = ShardFor(id);
  StoreStatus status;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    status = StoreLocked(shard, id, verb, key, flags, exptime_s, value,
                         cas_unique, NowNs());
  }
  // Pre-reply durability point: with --persist-fsync=always the record
  // is on stable storage before the client can observe STORED.
  if (sink_ != nullptr) sink_->Commit(shard.index);
  return status;
}

StoreStatus CacheService::StoreLocked(Shard& shard, KeyId id, StoreVerb verb,
                                      std::string_view key,
                                      std::uint32_t flags,
                                      std::int64_t exptime_s,
                                      std::string_view value,
                                      std::uint64_t cas_unique,
                                      std::int64_t now, FlashRead* flash) {
  CacheEngine& engine = *shard.engine;
  // Resolves collisions (the engine's overwrite path must never mix two
  // strings' metadata under one id) and lazily expires a stale copy — an
  // `add` of an expired key succeeds, a `replace`/`append` of one fails,
  // exactly as if the reaper had already collected it.
  SlotHeader old;
  const ItemHandle existing = LiveUnexpired(shard, id, key, now, &old);
  const bool cached = existing != kInvalidHandle;
  // A key absent from DRAM may still be flash-resident; its slot metadata
  // answers every presence precondition without a disk read. Only
  // append/prepend need the stored bytes, so only they defer.
  flash::Slot* fslot = !cached ? FlashSlotLive(shard, id, now) : nullptr;
  switch (verb) {
    case StoreVerb::kSet:
      break;
    case StoreVerb::kAdd:
      if (cached || fslot != nullptr) return StoreStatus::kNotStored;
      break;
    case StoreVerb::kReplace:
      if (!cached && fslot == nullptr) return StoreStatus::kNotStored;
      break;
    case StoreVerb::kAppend:
    case StoreVerb::kPrepend:
      if (!cached) {
        if (fslot != nullptr && flash != nullptr) {
          // The old value is on flash: defer; the completion promotes and
          // re-runs the concat once the read lands. The return value is a
          // placeholder the deferring caller never reports.
          ArmFlashRead(shard, *fslot, flash);
        }
        return StoreStatus::kNotStored;
      }
      break;
    case StoreVerb::kCas:
      if (!cached && fslot == nullptr) {
        ++shard.counters.cas_misses;
        return StoreStatus::kNotFound;
      }
      // The demote/promote cycle never bumps cas, so a client's
      // gets -> cas round trip spanning a demotion still matches here.
      if ((cached ? old.cas : fslot->cas) != cas_unique) {
        ++shard.counters.cas_badval;
        return StoreStatus::kExists;
      }
      break;
  }
  // Stage every allocation the store needs before the engine mutates. A
  // bad_alloc from here (real, or injected via the svc.store_bytes
  // failpoint) aborts the request with the engine exactly as it was.
  PAMAKV_FAILPOINT_OOM("svc.store_bytes");
  std::string_view new_value = value;
  // append/prepend keep the stored flags and deadline (their wire
  // arguments are ignored, as memcached does); everything else takes the
  // caller's.
  std::uint32_t new_flags = flags;
  std::int64_t deadline = 0;
  if (verb == StoreVerb::kAppend || verb == StoreVerb::kPrepend) {
    // The engine may reuse or recycle the old item's slot, so the
    // concatenation is built outside the arena first.
    const Item& item = engine.ItemAt(existing);
    const std::string_view old_value = ValueOf(item, old);
    std::string& buf = shard.concat_buf;
    buf.clear();
    buf.reserve(old_value.size() + value.size());
    buf.append(verb == StoreVerb::kAppend ? old_value : value);
    buf.append(verb == StoreVerb::kAppend ? value : old_value);
    new_value = buf;
    new_flags = old.flags;
    deadline = item.expire_at_ns;
  } else {
    deadline = DeadlineFor(exptime_s, now);
  }
  const SetResult result =
      engine.Set(id, StoredBytes(key.size(), new_value.size()),
                 PenaltyOf(new_flags), deadline);
  const SlotHeader header{
      .cas = ++shard.cas_counter,
      .stored_at_ns = now,
      .flush_seq = shard.flush_seq,
      // The wheel node filed for the key outlives the old copy's slot.
      .wheel_deadline_ns = cached ? old.wheel_deadline_ns : 0,
      .flags = new_flags,
      .key_len = static_cast<std::uint32_t>(key.size())};
  if (result.stored) WriteItem(result.bytes, header, key, new_value);
  DrainDemotions(shard, now);
  if (!result.stored) {
    // A refused store is remembered by the engine's ghost list, which is
    // how the key earns space once its demand proves itself. It must not
    // leave the older value readable either (memcached unlinks the old
    // item when a store fails): a value too large for any class leaves
    // the old item in place, so drop it here, and drop a flash copy too.
    if (cached || fslot != nullptr) {
      if (engine.Find(id) != kInvalidHandle) engine.Del(id);
      ForgetDurableCopies(shard, id, key);
    }
    return StoreStatus::kNotStored;
  }
  // The DRAM copy now supersedes any flash-resident one; the tombstone
  // keeps recovery replay honest (no-op when no slot exists).
  if (flash_ != nullptr) flash_->EraseWithTombstone(shard.index, id, key);
  ScheduleExpiry(shard, id, result.bytes, deadline);
  if (verb == StoreVerb::kCas) ++shard.counters.cas_hits;
  if (sink_ != nullptr) {
    // Log the committed state (concat verbs included), not the wire
    // arguments.
    sink_->OnStore(shard.index, WalRecord(key, new_value, header, deadline));
  }
  return StoreStatus::kStored;
}

void CacheService::ForgetDurableCopies(Shard& shard, KeyId id,
                                       std::string_view key) {
  if (flash_ != nullptr) flash_->EraseWithTombstone(shard.index, id, key);
  if (sink_ != nullptr) sink_->OnDelete(shard.index, key);
}

bool CacheService::Set(std::string_view key, std::uint32_t flags,
                       std::string_view value) {
  return Store(StoreVerb::kSet, key, flags, /*exptime_s=*/0, value) ==
         StoreStatus::kStored;
}

ArithmeticResult CacheService::IncrDecr(std::string_view key,
                                        std::uint64_t delta, bool increment) {
  const KeyId id = HashStringKey(key);
  Shard& shard = ShardFor(id);
  ArithmeticResult result;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    result = IncrDecrLocked(shard, id, key, delta, increment, NowNs());
  }
  if (sink_ != nullptr) sink_->Commit(shard.index);
  return result;
}

ArithmeticResult CacheService::IncrDecrLocked(Shard& shard, KeyId id,
                                              std::string_view key,
                                              std::uint64_t delta,
                                              bool increment,
                                              std::int64_t now,
                                              FlashRead* flash) {
  std::uint64_t& hits =
      increment ? shard.counters.incr_hits : shard.counters.decr_hits;
  std::uint64_t& misses =
      increment ? shard.counters.incr_misses : shard.counters.decr_misses;
  CacheEngine& engine = *shard.engine;
  SlotHeader old;
  const ItemHandle h = LiveUnexpired(shard, id, key, now, &old);
  if (h == kInvalidHandle) {
    // Flash-resident: defer so the mutation can promote-then-mutate
    // atomically under this lock once the value arrives — never a bare
    // NOT_FOUND while the value sits on flash.
    if (flash::Slot* slot = FlashSlotLive(shard, id, now);
        slot != nullptr && flash != nullptr) {
      ArmFlashRead(shard, *slot, flash);
      return ArithmeticResult{ArithmeticResult::Status::kNotFound, 0};
    }
    ++misses;
    return ArithmeticResult{ArithmeticResult::Status::kNotFound, 0};
  }
  // The stored value must be a plain decimal uint64; anything else gets
  // memcached's CLIENT_ERROR.
  const Item& item = engine.ItemAt(h);
  std::uint64_t next = 0;
  if (!ApplyDelta(ValueOf(item, old), delta, increment, &next)) {
    return ArithmeticResult{ArithmeticResult::Status::kNonNumeric, 0};
  }
  char buf[20];
  const auto conv = std::to_chars(buf, buf + sizeof buf, next);
  const std::string_view digits(buf, static_cast<std::size_t>(conv.ptr - buf));
  // Stored as plain decimal — the value may shrink, unlike memcached's
  // blank-padding of shorter results. TTL and flags carry over.
  const std::int64_t deadline = item.expire_at_ns;
  const SetResult result =
      engine.Set(id, StoredBytes(key.size(), digits.size()),
                 PenaltyOf(old.flags), deadline);
  SlotHeader header = old;
  header.cas = ++shard.cas_counter;
  header.stored_at_ns = now;
  header.flush_seq = shard.flush_seq;
  if (result.stored) WriteItem(result.bytes, header, key, digits);
  DrainDemotions(shard, now);
  if (!result.stored) {
    // The re-store lost its slot (class change under pressure): the item
    // is gone, which the client sees as NOT_FOUND — the same outcome as
    // racing an eviction. The log forgets it too, so a restart cannot
    // bring back the number it held before.
    ForgetDurableCopies(shard, id, key);
    ++misses;
    return ArithmeticResult{ArithmeticResult::Status::kNotFound, 0};
  }
  ++hits;
  // A stale flash copy from an earlier demotion must not outlive the
  // mutation (no-op when no slot exists).
  if (flash_ != nullptr) flash_->EraseWithTombstone(shard.index, id, key);
  if (sink_ != nullptr) {
    sink_->OnStore(shard.index, WalRecord(key, digits, header, deadline));
  }
  return ArithmeticResult{ArithmeticResult::Status::kOk, next};
}

bool CacheService::Touch(std::string_view key, std::int64_t exptime_s) {
  const KeyId id = HashStringKey(key);
  Shard& shard = ShardFor(id);
  bool touched;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    touched = TouchLocked(shard, id, key, exptime_s, NowNs());
  }
  if (sink_ != nullptr) sink_->Commit(shard.index);
  return touched;
}

bool CacheService::TouchLocked(Shard& shard, KeyId id, std::string_view key,
                               std::int64_t exptime_s, std::int64_t now) {
  SlotHeader header;
  const ItemHandle h = LiveUnexpired(shard, id, key, now, &header);
  if (h == kInvalidHandle) {
    // A flash-resident key touches in metadata alone — no disk read. The
    // on-disk record keeps its old TTL until GC rewrites it, so a crash
    // loses the refresh; acceptable for a cache tier.
    if (flash::Slot* slot = FlashSlotLive(shard, id, now)) {
      const std::int64_t deadline = DeadlineFor(exptime_s, now);
      slot->expire_at_ns = deadline;
      slot->stored_at_ns = now;  // rescues it from a pending flush epoch
      slot->flush_seq = shard.flush_seq;
      ++shard.counters.touch_hits;
      if (sink_ != nullptr) {
        sink_->OnTouch(shard.index, key, UnixNsOfDeadline(deadline),
                       UnixNsOfTime(now));
      }
      return true;
    }
    ++shard.counters.touch_misses;
    return false;
  }
  const std::int64_t deadline = DeadlineFor(exptime_s, now);
  // Refreshing the item's time also rescues it from a pending flush
  // epoch, matching memcached.
  header.stored_at_ns = now;
  header.flush_seq = shard.flush_seq;
  char* bytes = CacheEngine::ItemBytes(shard.engine->ItemAt(h));
  WriteHeader(bytes, header);
  shard.engine->Touch(id, deadline);
  ScheduleExpiry(shard, id, bytes, deadline);
  ++shard.counters.touch_hits;
  if (sink_ != nullptr) {
    sink_->OnTouch(shard.index, key, UnixNsOfDeadline(deadline),
                   UnixNsOfTime(now));
  }
  return true;
}

bool CacheService::Del(std::string_view key) {
  const KeyId id = HashStringKey(key);
  Shard& shard = ShardFor(id);
  bool deleted;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    deleted = DelLocked(shard, id, key, NowNs());
  }
  if (sink_ != nullptr) sink_->Commit(shard.index);
  return deleted;
}

bool CacheService::DelLocked(Shard& shard, KeyId id, std::string_view key,
                             std::int64_t now) {
  SlotHeader header;
  bool deleted = false;
  if (LiveUnexpired(shard, id, key, now, &header) == kInvalidHandle) {
    // Flash-resident: the delete lands in metadata, and the tombstone
    // record keeps recovery replay from resurrecting the key.
    deleted = FlashSlotLive(shard, id, now) != nullptr;
    if (deleted) flash_->EraseWithTombstone(shard.index, id, key);
    // Either way nothing in DRAM is this key's (absent, collided, or just
    // lazily expired): a DELETE of this name must not remove someone
    // else's item. Count the attempt engine-side the way CacheEngine::Del
    // counts missing keys.
    shard.engine->Del(id);
  } else {
    deleted = shard.engine->Del(id);
    // A stale flash copy from an earlier demotion dies with the DRAM copy.
    if (flash_ != nullptr) flash_->EraseWithTombstone(shard.index, id, key);
  }
  if (deleted && sink_ != nullptr) sink_->OnDelete(shard.index, key);
  // The delete's clock tick can let a background rebalancer evict.
  DrainDemotionsIfStaged(shard, now);
  return deleted;
}

bool CacheService::ExecuteBatch(Batch& batch) {
  const std::size_t shards = shards_.size();
  if (batch.groups.size() < shards) batch.groups.resize(shards);
  for (const std::uint32_t s : batch.active_shards) {
    batch.groups[s].ops.clear();
    batch.groups[s].next = 0;
  }
  batch.active_shards.clear();
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    BatchOp& op = batch.op(i);
    op.id = HashStringKey(op.key);
    op.shard = static_cast<std::uint32_t>(ShardIndexForId(op.id));
    auto& ops = batch.groups[op.shard].ops;
    if (ops.empty()) batch.active_shards.push_back(op.shard);
    ops.push_back(i);
  }
  batch.failed.store(false, std::memory_order_relaxed);
  // +1 dispatch guard: a group that finishes below cannot fire completion
  // while later groups are still being started.
  batch.pending.store(
      static_cast<std::uint32_t>(batch.active_shards.size()) + 1,
      std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_ops_.fetch_add(batch.size(), std::memory_order_relaxed);
  for (const std::uint32_t s : batch.active_shards) RunShardGroup(batch, s);
  // Reaching zero here means no op is waiting on a flash read; the
  // caller sequences the replies right away.
  return batch.pending.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

void CacheService::RunShardGroup(Batch& batch, std::uint32_t shard) {
  Batch::ShardGroup& g = batch.groups[shard];
  while (g.next < g.ops.size()) {
    g.next += static_cast<std::uint32_t>(
        ExecuteOps(shard, batch, g.ops.data() + g.next, g.ops.size() - g.next));
    if (g.next == g.ops.size()) break;
    // ops[next] waits on a flash read; the ops behind it wait with it, so
    // the shard's ops still run in request order. Submit outside the
    // shard lock.
    FlashRead& read = batch.op(g.ops[g.next]).flash;
    read.armed = false;  // the tier owns the ticket fd from here
    g.submitting = true;
    g.landed = false;
    flash_->SubmitRead(shard, read.ticket, batch.post_home,
                       [this, &batch, shard](bool ok, std::string payload) {
                         Batch::ShardGroup& group = batch.groups[shard];
                         CompleteFlashOp(batch, batch.op(group.ops[group.next]),
                                         ok, payload);
                         ++group.next;
                         if (group.submitting) {
                           group.landed = true;  // the loop below resumes
                           return;
                         }
                         RunShardGroup(batch, shard);
                       });
    g.submitting = false;
    if (!g.landed) return;  // the completion resumes this group
  }
  if (batch.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Only a completion can take the last count (ExecuteBatch holds the
    // guard until every group has started), and completions run on the
    // home loop: finish the batch right here.
    batch.on_complete();
  }
}

std::size_t CacheService::ExecuteOps(std::size_t index, Batch& batch,
                                     const std::uint32_t* idx, std::size_t n) {
  Shard& shard = *shards_[index];
  std::size_t i = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // One clock read covers the group: its ops share one "now", exactly
    // as if they had all executed back-to-back.
    const std::int64_t now = NowNs();
    for (; i < n; ++i) {
      // Once any op fails the connection is doomed; stop executing so the
      // engine (and the verb metrics) see only the ops that ran.
      if (batch.failed.load(std::memory_order_relaxed)) {
        i = n;
        break;
      }
      BatchOp& op = batch.op(idx[i]);
      ExecuteOpLocked(shard, batch, op, now, /*may_defer=*/flash_ != nullptr);
      if (op.flash.armed) break;
    }
  }
  // One durability point covers the group — the replies have not been
  // sequenced to any client yet.
  if (sink_ != nullptr) sink_->Commit(index);
  return i;
}

bool CacheService::ExecuteOpLocked(Shard& shard, Batch& batch, BatchOp& op,
                                   std::int64_t now, bool may_defer) {
  FlashRead* flash = may_defer ? &op.flash : nullptr;
  bool found = false;
  try {
    // Mid-batch injection seam: `oom` starves one op, `sleep` skews this
    // group's latency.
    PAMAKV_FAILPOINT_INJECT("svc.batch");
    switch (op.verb) {
      case Verb::kGet:
      case Verb::kGets:
      case Verb::kGat:
      case Verb::kGats:
        found = GetLocked(shard, op.id, op.key, op.out, op.with_cas, op.touch,
                          op.exptime, now, flash);
        if (op.flash.armed) return false;  // the completion answers
        if (op.append_end) AppendLiteral(op.out, "END\r\n");
        break;
      case Verb::kSet:
      case Verb::kAdd:
      case Verb::kReplace:
      case Verb::kAppend:
      case Verb::kPrepend:
      case Verb::kCas: {
        const StoreStatus status =
            StoreLocked(shard, op.id, ToStoreVerb(op.verb), op.key, op.flags,
                        op.exptime, op.value, op.cas, now, flash);
        if (op.flash.armed) return false;
        found = status == StoreStatus::kStored;
        if (!op.noreply) AppendLiteral(op.out, StoreReplyText(status));
        break;
      }
      case Verb::kIncr:
      case Verb::kDecr: {
        const ArithmeticResult result =
            IncrDecrLocked(shard, op.id, op.key, op.delta,
                           op.verb == Verb::kIncr, now, flash);
        if (op.flash.armed) return false;
        found = result.status == ArithmeticResult::Status::kOk;
        if (!op.noreply) AppendArithmeticReply(op.out, result);
        break;
      }
      case Verb::kTouch: {
        found = TouchLocked(shard, op.id, op.key, op.exptime, now);
        if (!op.noreply) {
          AppendLiteral(op.out, found ? kTouchedReply : kNotFoundReply);
        }
        break;
      }
      case Verb::kDelete: {
        found = DelLocked(shard, op.id, op.key, now);
        if (!op.noreply) {
          AppendLiteral(op.out, found ? kDeletedReply : kNotFoundReply);
        }
        break;
      }
      default:
        // Barrier verbs (stats/flush_all/version/bgsave/quit) are never
        // staged: the connection runs them once the batch has drained.
        break;
    }
    op.executed = true;
  } catch (const std::bad_alloc&) {
    op.out.clear();
    if (op.flash.armed) {
      // The read was armed before the failure; it will never be submitted.
      if (op.flash.ticket.fd >= 0) ::close(op.flash.ticket.fd);
      op.flash.armed = false;
    }
    if (IsStorageVerb(op.verb)) {
      // The store staged its allocations before mutating, so failing this
      // one op and keeping the batch (and the connection) is safe.
      if (!op.noreply) AppendLiteral(op.out, kStoreOomReply);
      op.executed = true;
    } else {
      // Any other verb cannot answer coherently mid-stream: flag the batch
      // so the connection closes after sequencing.
      batch.failed.store(true, std::memory_order_relaxed);
    }
    return false;
  }
  return found;
}

void CacheService::FlushAll(std::int64_t delay_s) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const std::int64_t now = NowNs();
    const std::int64_t delay = std::clamp<std::int64_t>(delay_s, 0, kMaxAheadS);
    // Epoch flip only: items stored before the cutover become invalid the
    // moment it arrives and fall out lazily (on access, or under eviction
    // pressure), never via a synchronous wipe. A newer flush_all
    // supersedes a pending one — including, as in memcached, pushing the
    // cutover later and thereby un-condemning items the earlier epoch
    // covered but nothing collected yet.
    shard->flush_at_ns = now + delay * kNsPerSecond;
    ++shard->flush_seq;
    if (sink_ != nullptr) {
      sink_->OnFlush(shard->index, UnixNsOfTime(shard->flush_at_ns));
    }
  }
  if (sink_ != nullptr) {
    for (const auto& shard : shards_) sink_->Commit(shard->index);
  }
}

std::size_t CacheService::ReapExpired(std::size_t max_per_shard) {
  std::size_t reaped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    // Injection point for the reap path: a bad_alloc here must leave the
    // shard untouched and surface to the caller (the server's reap timer
    // counts it and re-arms).
    PAMAKV_FAILPOINT_OOM("svc.reap");
    const std::int64_t now = NowNs();
    shard.reap_buf.clear();
    shard.wheel->CollectDue(now, max_per_shard, shard.reap_buf);
    CacheEngine& engine = *shard.engine;
    for (const ExpiryWheel::Node& node : shard.reap_buf) {
      const ItemHandle h = engine.Find(node.key);
      if (h == kInvalidHandle) continue;  // deleted, evicted or expired since
      const Item& item = engine.ItemAt(h);
      char* bytes = CacheEngine::ItemBytes(item);
      SlotHeader header = ReadHeader(bytes);
      if (header.wheel_deadline_ns == node.expire_at_ns) {
        // This node was the one on file for the item; it is now spent.
        header.wheel_deadline_ns = 0;
        WriteHeader(bytes, header);
      }
      if (item.expire_at_ns != node.expire_at_ns) {
        continue;  // stale node: the key was re-stored or touched since
      }
      if (node.expire_at_ns > 0 && now < node.expire_at_ns) {
        // Not actually due yet: a deadline landing inside the wheel's
        // current tick is buffered rather than filed, so it can surface a
        // fraction of a tick early. Re-file it — expiring it now would
        // break the "never early" guarantee the access path relies on.
        shard.wheel->Schedule(node.key, node.expire_at_ns);
        header.wheel_deadline_ns = node.expire_at_ns;
        WriteHeader(bytes, header);
        continue;
      }
      // The item still carries this exact deadline and it has passed, so
      // it is genuinely due.
      if (engine.Expire(node.key, /*background=*/true)) ++reaped;
    }
  }
  return reaped;
}

persist::ShardCaptureMeta CacheService::CapturePersistMeta(
    std::size_t index, const std::function<void()>& under_lock) {
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (under_lock) under_lock();
  persist::ShardCaptureMeta meta;
  meta.cas_counter = shard.cas_counter;
  meta.flush_seq = shard.flush_seq;
  meta.flush_at_unix_ns =
      shard.flush_seq != 0 ? UnixNsOfTime(shard.flush_at_ns) : 0;
  const CacheEngine& engine = *shard.engine;
  const std::uint32_t num_classes = engine.classes().num_classes();
  const std::uint32_t num_bands = engine.num_subclasses();
  meta.num_classes = num_classes;
  meta.num_bands = num_bands;
  meta.slab_counts.reserve(static_cast<std::size_t>(num_classes) * num_bands);
  meta.ghosts.reserve(static_cast<std::size_t>(num_classes) * num_bands);
  for (ClassId c = 0; c < num_classes; ++c) {
    for (SubclassId s = 0; s < num_bands; ++s) {
      meta.slab_counts.push_back(engine.pool().SlabCount(c, s));
      std::vector<persist::GhostEntry> entries;
      for (const GhostList::Evicted& g :
           engine.GhostOf(c, s).SnapshotOldestFirst()) {
        entries.push_back(persist::GhostEntry{g.key, g.penalty});
      }
      meta.ghosts.push_back(std::move(entries));
    }
  }
  // Coldest-to-hottest key order across the whole shard: last_access is
  // the engine's global LRU time, so one sort covers every subclass.
  std::vector<std::pair<AccessClock, KeyId>> ordered;
  ordered.reserve(engine.item_count());
  engine.ForEachItem([&ordered](const Item& item) {
    ordered.emplace_back(item.last_access, item.key);
  });
  std::sort(ordered.begin(), ordered.end());
  meta.keys.reserve(ordered.size());
  for (const auto& [access, id] : ordered) {
    (void)access;
    meta.keys.push_back(id);
  }
  return meta;
}

std::size_t CacheService::CaptureItems(std::size_t index,
                                       const std::vector<KeyId>& keys,
                                       std::size_t start, std::size_t max,
                                       std::vector<persist::SnapItem>& out) {
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  const std::int64_t now = NowNs();
  const std::size_t end = std::min(keys.size(), start + max);
  for (std::size_t i = start; i < end; ++i) {
    // An item that died or expired since capture simply drops out of the
    // snapshot; the WAL (rolled at capture) carries the mutation that
    // killed it, so replay converges either way.
    const Item* item = shard.engine->Peek(keys[i]);
    if (item == nullptr) continue;
    const char* bytes = CacheEngine::ItemBytes(*item);
    const SlotHeader header = ReadHeader(bytes);
    if (Lapsed(shard, item->expire_at_ns, header.stored_at_ns,
               header.flush_seq, now)) {
      continue;
    }
    persist::SnapItem snap;
    snap.key = KeyOf(bytes, header);
    snap.value = ValueOf(*item, header);
    snap.flags = header.flags;
    snap.expire_unix_ns = UnixNsOfDeadline(item->expire_at_ns);
    snap.stored_unix_ns = UnixNsOfTime(header.stored_at_ns);
    snap.cas = header.cas;
    snap.order = item->last_access;
    out.push_back(std::move(snap));
  }
  return end - start;
}

persist::RestoreCounts CacheService::RestoreShard(
    std::size_t index, const persist::ShardRestoreState& st) {
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  persist::RestoreCounts counts;
  shard.cas_counter = std::max(shard.cas_counter, st.cas_counter);
  if (st.flush_seq != 0) {
    shard.flush_seq = st.flush_seq;
    shard.flush_at_ns = MonoTimeOf(st.flush_at_unix_ns);
  }
  CacheEngine& engine = *shard.engine;
  const std::uint32_t num_classes = engine.classes().num_classes();
  const std::uint32_t num_bands = engine.num_subclasses();
  // The learned layout and ghost lists only transfer onto identical
  // geometry (same class table, same band bounds). On a mismatch the
  // items still restore below — through the normal Set path, which
  // re-learns a layout — so changing the config costs warmth, not data.
  const bool same_geometry = st.have_snapshot &&
                             st.num_classes == num_classes &&
                             st.num_bands == num_bands;
  if (same_geometry) {
    for (ClassId c = 0; c < num_classes; ++c) {
      for (SubclassId s = 0; s < num_bands; ++s) {
        const std::size_t i =
            static_cast<std::size_t>(c) * num_bands + s;
        const std::uint64_t want =
            i < st.slab_counts.size() ? st.slab_counts[i] : 0;
        for (std::uint64_t n = 0; n < want; ++n) {
          // A smaller capacity than the snapshot's stops early; items
          // that no longer fit fall back to Set (and its evictions).
          if (!engine.GrantSlab(c, s)) break;
        }
        if (i < st.ghosts.size()) {
          for (const persist::GhostEntry& g : st.ghosts[i]) {
            engine.PushGhost(c, s, g.key, g.penalty);
          }
        }
      }
    }
  }
  const std::int64_t now = NowNs();
  for (const persist::SnapItem& item : st.items) {
    const KeyId id = HashStringKey(item.key);
    const std::int64_t deadline = MonoDeadlineOf(item.expire_unix_ns);
    if (deadline != 0 && (deadline < 0 || deadline <= now)) {
      ++counts.skipped_expired;
      continue;
    }
    const MicroSecs penalty = PenaltyOf(item.flags);
    const Bytes size = StoredBytes(item.key.size(), item.value.size());
    bool stored = engine.RestoreItem(id, size, penalty, deadline);
    if (stored) {
      ++counts.restored;
    } else {
      stored = engine.Set(id, size, penalty, deadline).stored;
      if (stored) ++counts.fallback;
    }
    if (!stored) {
      // Even the Set path refused (capacity shrank). The item is lost,
      // but its cas still outranks any older flash copy of it.
      ++counts.skipped_capacity;
      shard.unseated.emplace_back(id, item.cas);
      continue;
    }
    const SlotHeader header{
        .cas = item.cas,
        .stored_at_ns = MonoTimeOf(item.stored_unix_ns),
        .flush_seq = shard.flush_seq,
        .flags = item.flags,
        .key_len = static_cast<std::uint32_t>(item.key.size())};
    char* bytes = CacheEngine::ItemBytes(engine.ItemAt(engine.Find(id)));
    WriteItem(bytes, header, item.key, item.value);
    ScheduleExpiry(shard, id, bytes, deadline);
  }
  // Fallback Sets above may have evicted; those victims demote like any
  // other (warm restart fills flash as DRAM overflows).
  DrainDemotions(shard, now);
  return counts;
}

// ---- flash victim tier ----

void CacheService::AttachFlash(flash::FlashTier* tier) {
  if (tier != nullptr && tier->shard_count() != shards_.size()) {
    throw std::invalid_argument("flash tier shard count mismatch");
  }
  flash_ = tier;
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    if (tier == nullptr) {
      shard->engine->SetEvictionListener(nullptr);
      continue;
    }
    // Reserved once: the listener copies victims in without allocating.
    shard->demote_bytes.reserve(kDemoteStageSlabs *
                                shard->engine->classes().slab_bytes());
    shard->engine->SetEvictionListener(
        [shard](const Item& item) { StageDemotion(*shard, item); });
  }
}

void CacheService::StageDemotion(Shard& shard, const Item& item) noexcept {
  // Fires inside the engine mid-eviction: only copy, never reenter. The
  // bytes must be copied now — the victim's slot is recycled before
  // DrainDemotions runs. A victim that does not fit is dropped, not the
  // request.
  std::vector<char>& stage = shard.demote_bytes;
  if (item.size < StoredBytes(0, 0)) {
    ++shard.demote_drops;  // not stored by the service
    return;
  }
  const char* bytes = CacheEngine::ItemBytes(item);
  const std::size_t length = item.size - StoredBytes(0, 0);
  if (stage.size() + length > stage.capacity()) {
    ++shard.demote_drops;
    return;
  }
  PendingDemote d;
  d.id = item.key;
  d.penalty = item.penalty;
  d.cls = item.cls;
  d.sub = item.sub;
  d.expire_at_ns = item.expire_at_ns;
  d.header = ReadHeader(bytes);
  d.offset = stage.size();
  d.length = length;
  try {
    shard.pending_demotes.push_back(d);
  } catch (const std::bad_alloc&) {
    ++shard.demote_drops;
    return;
  }
  const char* begin = bytes + sizeof(SlotHeader);
  stage.insert(stage.end(), begin, begin + length);
}

void CacheService::RecoverFlash() {
  if (flash_ == nullptr) return;
  for (auto& shard : shards_) {
    std::sort(shard->unseated.begin(), shard->unseated.end());
  }
  flash_->Recover([this](std::size_t index, KeyId id, const flash::Record& rec,
                         flash::Slot* slot) {
    // Routing lives here, not in the tier: a record written under a
    // different shard count lands in the wrong file and is dropped.
    if (ShardIndexForId(id) != index) return false;
    Shard& shard = *shards_[index];
    // Startup is single-threaded; the lock just keeps the "index
    // mutations hold the shard lock" invariant unconditional.
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::int64_t now = NowNs();
    const std::int64_t deadline = MonoDeadlineOf(rec.expire_unix_ns);
    if (deadline != 0 && (deadline < 0 || deadline <= now)) return false;
    const std::int64_t stored_at = MonoTimeOf(rec.stored_unix_ns);
    if (FlushCovers(shard, stored_at, rec.flush_seq, now)) return false;
    // A DRAM copy recovered from snapshot/WAL — seated, or refused for
    // capacity — with an equal-or-newer cas supersedes the record.
    if (const Item* item = shard.engine->Peek(id);
        item != nullptr &&
        ReadHeader(CacheEngine::ItemBytes(*item)).cas >= rec.cas) {
      return false;
    }
    const auto it = std::lower_bound(
        shard.unseated.begin(), shard.unseated.end(),
        std::pair<KeyId, std::uint64_t>{id, 0});
    if (it != shard.unseated.end() && it->first == id &&
        it->second >= rec.cas) {
      return false;
    }
    slot->expire_at_ns = deadline;
    slot->stored_at_ns = stored_at;
    slot->flush_seq = shard.flush_seq;
    shard.cas_counter = std::max(shard.cas_counter, rec.cas);
    return true;
  });
  for (auto& shard : shards_) shard->unseated = {};
}

flash::Slot* CacheService::FlashSlotLive(Shard& shard, KeyId id,
                                         std::int64_t now) {
  if (flash_ == nullptr) return nullptr;
  flash::Slot* slot = flash_->FindMutable(shard.index, id);
  if (slot == nullptr) return nullptr;
  if (Lapsed(shard, slot->expire_at_ns, slot->stored_at_ns, slot->flush_seq,
             now)) {
    // Lazy lapse, mirroring LiveUnexpired: ghost-route so the demand
    // stays visible, then forget the slot. No tombstone needed —
    // recovery's admit callback re-checks expiry and flush itself.
    GhostRoute(shard, id, *slot);
    flash_->Erase(shard.index, id);
    return nullptr;
  }
  return slot;
}

void CacheService::GhostRoute(Shard& shard, KeyId id,
                              const flash::Slot& slot) {
  CacheEngine& engine = *shard.engine;
  // Guard against geometry changes across a restart: a recovered slot's
  // (class, band) may not exist in this configuration.
  if (slot.cls < engine.classes().num_classes() &&
      slot.band < engine.num_subclasses()) {
    engine.PushGhost(slot.cls, slot.band, id, slot.penalty);
  }
}

void CacheService::ArmFlashRead(Shard& shard, const flash::Slot& slot,
                                FlashRead* read) {
  read->armed = true;
  read->cas = slot.cas;
  // A failed dup leaves fd = -1; the read then fails cleanly at
  // completion and the slot is dropped there.
  read->ticket = flash_->MakeTicket(shard.index, slot);
}

void CacheService::DrainDemotions(Shard& shard, std::int64_t now) {
  if (flash_ == nullptr) return;
  for (const PendingDemote& d : shard.pending_demotes) {
    // Re-stored between the eviction and this drain (the store that
    // evicted the old copy re-seated the key): nothing to demote.
    if (shard.engine->Contains(d.id)) continue;
    if (Lapsed(shard, d.expire_at_ns, d.header.stored_at_ns,
               d.header.flush_seq, now)) {
      continue;  // lapsed en route
    }
    // Admission: the same incoming-value math the DRAM migration rule
    // uses, gated by --flash-admit-min-value. The eviction already
    // ghost-routed the key, so its demand stays visible either way;
    // high-penalty bands clear the bar first because their ghost
    // pressure is what raises IncomingValue.
    if (shard.engine->policy().IncomingSlabValue(d.cls, d.sub) <
        flash_->admit_min_value()) {
      continue;
    }
    const char* bytes = shard.demote_bytes.data() + d.offset;
    flash::FlashTier::DemoteMeta meta;
    meta.key = std::string_view(bytes, d.header.key_len);
    meta.value = std::string_view(bytes + d.header.key_len,
                                  d.length - d.header.key_len);
    meta.flags = d.header.flags;
    meta.cas = d.header.cas;
    meta.penalty = d.penalty;
    meta.cls = d.cls;
    meta.band = d.sub;
    meta.expire_at_ns = d.expire_at_ns;
    meta.stored_at_ns = d.header.stored_at_ns;
    meta.expire_unix_ns = UnixNsOfDeadline(d.expire_at_ns);
    meta.stored_unix_ns = UnixNsOfTime(d.header.stored_at_ns);
    meta.flush_seq = d.header.flush_seq;
    // An append failure is counted by the tier; the ghost entry from the
    // eviction already covers the loss.
    flash_->AppendItem(shard.index, d.id, meta);
  }
  shard.pending_demotes.clear();
  shard.demote_bytes.clear();
  flash_->MaybeGc(
      shard.index, now,
      [&shard](ClassId c, SubclassId s) {
        return shard.engine->policy().IncomingSlabValue(c, s);
      },
      [this, &shard](KeyId id, const flash::Slot& slot) {
        GhostRoute(shard, id, slot);
      });
}

CacheService::PromoteOutcome CacheService::PromoteFlashLocked(
    Shard& shard, KeyId id, std::string_view key, std::uint64_t pinned_cas,
    bool read_ok, std::string_view payload, flash::Record* rec,
    std::int64_t now) {
  if (flash_ == nullptr) return PromoteOutcome::kUseDram;
  // A store that landed while the read was in flight is newer than the
  // flash record by construction (every store bumps the shard cas).
  SlotHeader current;
  if (LiveUnexpired(shard, id, key, now, &current) != kInvalidHandle) {
    return PromoteOutcome::kUseDram;
  }
  flash::Slot* slot = FlashSlotLive(shard, id, now);
  if (slot == nullptr || slot->cas != pinned_cas) {
    // Deleted, flushed, GC-dropped or re-demoted at a different version
    // mid-read: the scheduled read answers nothing; rerun the verb.
    return PromoteOutcome::kUseDram;
  }
  if (!read_ok || !flash::FlashTier::DecodeRecord(payload, rec) ||
      rec->tombstone) {
    ++shard.counters.flash_read_failures;
    // Unreadable: stop scheduling it, keep the demand visible.
    GhostRoute(shard, id, *slot);
    flash_->Erase(shard.index, id);
    return PromoteOutcome::kUseDram;
  }
  if (rec->key != key) {
    // 64-bit id collision squatting on flash; drop the squatter, as
    // VerifiedItem does in DRAM, so both keys see consistent misses.
    ++shard.collisions;
    flash_->EraseWithTombstone(shard.index, id, rec->key);
    return PromoteOutcome::kUseDram;
  }
  // Promote through the normal set path so the engine sees an ordinary
  // insert: class/band placement, MakeRoom, PAMA's incoming-value
  // accounting — all exact.
  const SetResult result =
      shard.engine->Set(id, StoredBytes(key.size(), rec->value.size()),
                        slot->penalty, slot->expire_at_ns);
  shard.cas_counter = std::max(shard.cas_counter, slot->cas);
  if (!result.stored) {
    // No seat even after MakeRoom: serve directly against the tier. The
    // slot stays put — the next access tries the promote again.
    return PromoteOutcome::kDirect;
  }
  const SlotHeader header{
      .cas = slot->cas,  // the value is unchanged, so its cas is too
      .stored_at_ns = slot->stored_at_ns,
      .flush_seq = slot->flush_seq,
      .flags = slot->flags,
      .key_len = static_cast<std::uint32_t>(key.size())};
  WriteItem(result.bytes, header, key, rec->value);
  ScheduleExpiry(shard, id, result.bytes, slot->expire_at_ns);
  ++shard.counters.flash_promotes;
  if (sink_ != nullptr) {
    sink_->OnStore(shard.index,
                   WalRecord(key, rec->value, header, slot->expire_at_ns));
  }
  // The DRAM copy is authoritative and byte-identical; replay-order cas
  // comparison at recovery makes a tombstone unnecessary.
  flash_->Erase(shard.index, id);
  return PromoteOutcome::kPromoted;
}

void CacheService::CompleteFlashOp(Batch& batch, BatchOp& op, bool read_ok,
                                   std::string_view payload) {
  Shard& shard = *shards_[op.shard];
  try {
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::int64_t now = NowNs();
    flash::Record rec;
    const PromoteOutcome outcome = PromoteFlashLocked(
        shard, op.id, op.key, op.flash.cas, read_ok, payload, &rec, now);
    if (outcome == PromoteOutcome::kDirect) {
      ServeFromFlashLocked(shard, op, rec, now);
    } else {
      // kPromoted: the re-run is the "hit" half of the miss+set+hit
      // accounting. kUseDram: the op re-runs against whatever the race
      // left behind — a newer DRAM copy answers, anything else is an
      // honest miss (a re-demoted key does not defer a second time).
      const bool found =
          ExecuteOpLocked(shard, batch, op, now, /*may_defer=*/false);
      if (outcome == PromoteOutcome::kPromoted && found) {
        ++shard.counters.flash_hits;
        shard.counters.flash_penalty_saved_us +=
            static_cast<std::uint64_t>(rec.penalty_us);
      }
    }
    DrainDemotions(shard, now);
  } catch (const std::bad_alloc&) {
    // Promotion allocates (engine seat, record decode); a starved
    // completion cannot answer coherently mid-stream, so the connection
    // closes. The cache staged before mutating and is intact.
    batch.failed.store(true, std::memory_order_relaxed);
  }
  if (sink_ != nullptr) sink_->Commit(shard.index);
}

void CacheService::ServeFromFlashLocked(Shard& shard, BatchOp& op,
                                        const flash::Record& rec,
                                        std::int64_t now) {
  op.executed = true;
  flash::Slot* slot = flash_->FindMutable(shard.index, op.id);
  switch (op.verb) {
    case Verb::kGet:
    case Verb::kGets:
    case Verb::kGat:
    case Verb::kGats:
      if (slot != nullptr) {
        if (op.touch) {
          // gat against the tier: the deadline moves in the slot (the
          // on-disk record keeps its TTL until GC rewrites it).
          slot->expire_at_ns = DeadlineFor(op.exptime, now);
          slot->stored_at_ns = now;
          slot->flush_seq = shard.flush_seq;
          ++shard.counters.touch_hits;
          if (sink_ != nullptr) {
            sink_->OnTouch(shard.index, op.key,
                           UnixNsOfDeadline(slot->expire_at_ns),
                           UnixNsOfTime(now));
          }
        }
        AppendValueBlock(op.out, op.key, slot->flags, rec.value, slot->cas,
                         op.with_cas);
        ++shard.counters.flash_hits;
        ++shard.counters.flash_direct_serves;
        shard.counters.flash_penalty_saved_us +=
            static_cast<std::uint64_t>(rec.penalty_us);
      }
      if (op.append_end) AppendLiteral(op.out, "END\r\n");
      return;
    case Verb::kIncr:
    case Verb::kDecr:
      break;
    default:
      // append/prepend with no DRAM seat to concatenate in: refuse, as
      // memcached refuses a concat on a missing item. The flash copy
      // stands unchanged.
      if (!op.noreply) {
        AppendLiteral(op.out, StoreReplyText(StoreStatus::kNotStored));
      }
      return;
  }
  const bool increment = op.verb == Verb::kIncr;
  std::uint64_t& hits =
      increment ? shard.counters.incr_hits : shard.counters.decr_hits;
  std::uint64_t& misses =
      increment ? shard.counters.incr_misses : shard.counters.decr_misses;
  ArithmeticResult result{ArithmeticResult::Status::kNotFound, 0};
  std::uint64_t next = 0;
  if (slot == nullptr) {
    ++misses;
  } else if (!ApplyDelta(rec.value, op.delta, increment, &next)) {
    result = ArithmeticResult{ArithmeticResult::Status::kNonNumeric, 0};
  } else {
    // Promote-then-mutate with no DRAM seat: mutate the flash copy in
    // place — a fresh record under a fresh cas — atomically under this
    // lock. The client never sees NOT_FOUND for a value that exists.
    char buf[20];
    const auto conv = std::to_chars(buf, buf + sizeof buf, next);
    const std::size_t len = static_cast<std::size_t>(conv.ptr - buf);
    flash::FlashTier::DemoteMeta meta;
    meta.key = op.key;
    meta.value = std::string_view(buf, len);
    meta.flags = slot->flags;
    meta.cas = ++shard.cas_counter;
    meta.penalty = slot->penalty;
    meta.cls = slot->cls;
    meta.band = slot->band;
    meta.expire_at_ns = slot->expire_at_ns;
    meta.stored_at_ns = now;  // mutation rescues from a pending flush
    meta.expire_unix_ns = UnixNsOfDeadline(slot->expire_at_ns);
    meta.stored_unix_ns = UnixNsOfTime(now);
    meta.flush_seq = shard.flush_seq;
    if (flash_->AppendItem(shard.index, op.id, meta)) {
      ++hits;
      ++shard.counters.flash_hits;
      ++shard.counters.flash_direct_serves;
      shard.counters.flash_penalty_saved_us +=
          static_cast<std::uint64_t>(rec.penalty_us);
      if (sink_ != nullptr) {
        // Views of live buffers: a std::string temporary here would
        // dangle before OnStore reads it.
        persist::WalStore wrec;
        wrec.key = meta.key;
        wrec.value = meta.value;
        wrec.flags = meta.flags;
        wrec.expire_unix_ns = meta.expire_unix_ns;
        wrec.stored_unix_ns = meta.stored_unix_ns;
        wrec.cas = meta.cas;
        sink_->OnStore(shard.index, wrec);
      }
      result = ArithmeticResult{ArithmeticResult::Status::kOk, next};
    } else {
      // The mutated record could not be appended. Keeping the old record
      // would hand every retry the same stale value, so drop it: the
      // client sees NOT_FOUND, same as racing an eviction.
      GhostRoute(shard, op.id, *slot);
      flash_->EraseWithTombstone(shard.index, op.id, op.key);
      ++misses;
    }
  }
  if (!op.noreply) AppendArithmeticReply(op.out, result);
}

CacheStats CacheService::TotalStats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->engine->stats();
  }
  return total;
}

ServiceCounters CacheService::TotalCounters() const {
  ServiceCounters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->counters;
  }
  return total;
}

std::uint64_t CacheService::ExpiryNodeCount() const {
  std::uint64_t nodes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    nodes += shard->wheel->size();
  }
  return nodes;
}

std::uint64_t CacheService::ItemCount() const {
  std::uint64_t items = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    items += shard->engine->item_count();
  }
  return items;
}

std::uint64_t CacheService::CollisionsResolved() const {
  std::uint64_t collisions = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    collisions += shard->collisions;
  }
  return collisions;
}

void CacheService::AppendStats(std::vector<char>& out, bool detail) const {
  const CacheStats total = TotalStats();
  for (const StatEntry& stat : total.Snapshot()) {
    AppendStat(out, stat.name, stat.value);
  }
  const ServiceCounters counters = TotalCounters();
  for (const CounterField& field : kCounterFields) {
    AppendStat(out, field.name, counters.*field.member);
  }
  AppendStat(out, "curr_items", ItemCount());
  AppendStat(out, "shards", shards_.size());
  AppendStat(out, "hash_collisions_resolved", CollisionsResolved());
  AppendStat(out, "expiry_wheel_nodes", ExpiryNodeCount());
  if (flash_ != nullptr) {
    flash::ShardStats fs;
    std::uint64_t items = 0, bytes = 0, live = 0, segs = 0, drops = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      const flash::ShardStats& s = flash_->shard_stats(shard->index);
      fs.demotes += s.demotes;
      fs.append_failures += s.append_failures;
      fs.reads += s.reads;
      fs.read_failures += s.read_failures;
      fs.gc_runs += s.gc_runs;
      fs.gc_rewrites += s.gc_rewrites;
      fs.gc_drops += s.gc_drops;
      fs.segments_created += s.segments_created;
      fs.segments_deleted += s.segments_deleted;
      fs.recovered_items += s.recovered_items;
      fs.corrupt_segments_dropped += s.corrupt_segments_dropped;
      items += flash_->ItemCount(shard->index);
      bytes += flash_->TotalBytes(shard->index);
      live += flash_->LiveBytes(shard->index);
      segs += flash_->SegmentCount(shard->index);
      drops += shard->demote_drops;
    }
    AppendStat(out, "flash_items", items);
    AppendStat(out, "flash_bytes", bytes);
    AppendStat(out, "flash_live_bytes", live);
    AppendStat(out, "flash_segments", segs);
    AppendStat(out, "flash_demotes", fs.demotes);
    AppendStat(out, "flash_demote_drops", drops);
    AppendStat(out, "flash_append_failures", fs.append_failures);
    AppendStat(out, "flash_reads", fs.reads);
    AppendStat(out, "flash_sync_read_failures", fs.read_failures);
    AppendStat(out, "flash_gc_runs", fs.gc_runs);
    AppendStat(out, "flash_gc_rewrites", fs.gc_rewrites);
    AppendStat(out, "flash_gc_drops", fs.gc_drops);
    AppendStat(out, "flash_segments_created", fs.segments_created);
    AppendStat(out, "flash_segments_deleted", fs.segments_deleted);
    AppendStat(out, "flash_recovered_items", fs.recovered_items);
    AppendStat(out, "flash_corrupt_segments_dropped",
               fs.corrupt_segments_dropped);
  }
  if (sink_ != nullptr) sink_->AppendStats(out);
  {
    std::lock_guard<std::mutex> lock(extra_stats_mu_);
    if (extra_stats_) extra_stats_(out);
  }
  if (detail && metrics_ != nullptr) {
    // Same snapshot type the Prometheus endpoint renders — the two
    // surfaces cannot disagree on a value (net_server_test asserts it).
    metrics_->Snapshot().AppendStatLines(out);
  }
#if PAMAKV_FAILPOINTS
  // Injection-build only: how often each armed failpoint actually fired,
  // so a chaos run can check its storm happened (and operators can see
  // leftover armed points at a glance).
  for (const auto& [name, trips] : util::FailPoints::TripCounts()) {
    AppendStat(out, "failpoint." + name, trips);
  }
#endif
  AppendLiteral(out, "END\r\n");
}

void CacheService::SetExtraStats(
    std::function<void(std::vector<char>&)> appender) {
  std::lock_guard<std::mutex> lock(extra_stats_mu_);
  extra_stats_ = std::move(appender);
}

namespace {

std::string ClassBandLabels(ClassId c, SubclassId s) {
  return "{class=\"" + std::to_string(c) + "\",band=\"" + std::to_string(s) +
         "\"}";
}

}  // namespace

void CacheService::RegisterMetrics(util::MetricsRegistry& registry) {
  metrics_ = &registry;
  // All shards share one factory, so shard 0's geometry is everyone's.
  const CacheEngine& proto = *shards_.front()->engine;
  const std::uint32_t num_classes = proto.classes().num_classes();
  const std::uint32_t num_bands = proto.num_subclasses();

  for (std::uint32_t c = 0; c < num_classes; ++c) {
    for (std::uint32_t s = 0; s < num_bands; ++s) {
      const std::string labels =
          ClassBandLabels(static_cast<ClassId>(c), static_cast<SubclassId>(s));
      registry.RegisterCallbackGauge(
          "pamakv_slabs", labels,
          [this, c, s] {
            return SumOverShards([c, s](const CacheEngine& e) {
              return static_cast<double>(e.pool().SlabCount(
                  static_cast<ClassId>(c), static_cast<SubclassId>(s)));
            });
          },
          "slabs assigned per (size class, penalty band), summed over shards");
      registry.RegisterCallbackGauge(
          "pamakv_subclass_items", labels,
          [this, c, s] {
            return SumOverShards([c, s](const CacheEngine& e) {
              return static_cast<double>(e.SubclassItemCount(
                  static_cast<ClassId>(c), static_cast<SubclassId>(s)));
            });
          },
          "items per (size class, penalty band)");
      registry.RegisterCallbackGauge(
          "pamakv_ghost_hits", labels,
          [this, c, s] {
            return SumOverShards([c, s](const CacheEngine& e) {
              return static_cast<double>(e.GhostHitCount(
                  static_cast<ClassId>(c), static_cast<SubclassId>(s)));
            });
          },
          "GET misses found in this subclass's ghost (receiving) segments");
    }
  }
  registry.RegisterCallbackGauge(
      "pamakv_free_slabs", "",
      [this] {
        return SumOverShards([](const CacheEngine& e) {
          return static_cast<double>(e.pool().free_slabs());
        });
      },
      "unassigned slabs in the free pools");
  registry.RegisterCallbackGauge(
      "pamakv_total_slabs", "",
      [this] {
        return SumOverShards([](const CacheEngine& e) {
          return static_cast<double>(e.pool().total_slabs());
        });
      },
      "slabs the pools were built with");
  registry.RegisterCallbackGauge(
      "pamakv_arena_bytes", "",
      [this] {
        return SumOverShards([](const CacheEngine& e) {
          return static_cast<double>(e.pool().arena_bytes());
        });
      },
      "slab pages handed out of the item arenas (at most the capacity)");
  for (std::uint32_t c = 0; c < num_classes; ++c) {
    registry.RegisterCallbackGauge(
        "pamakv_slab_hole_bytes", "{class=\"" + std::to_string(c) + "\"}",
        [this, c] {
          return SumOverShards([c](const CacheEngine& e) {
            return static_cast<double>(
                e.SlabHoleBytes(static_cast<ClassId>(c)));
          });
        },
        "slot bytes of the class's items that their bytes do not fill");
  }
  registry.RegisterCallbackGauge(
      "pamakv_curr_items", "",
      [this] { return static_cast<double>(ItemCount()); },
      "live items across shards");

  // Every CacheStats counter under its memcached stat name, prefixed.
  // Snapshot() entry names have static storage, so capturing the index
  // and re-snapshotting in the callback is race-free and allocation-free.
  const StatsSnapshot names = CacheStats{}.Snapshot();
  for (std::size_t i = 0; i < names.size(); ++i) {
    registry.RegisterCallbackGauge(
        std::string("pamakv_") + names[i].name, "",
        [this, i] {
          return static_cast<double>(TotalStats().Snapshot()[i].value);
        },
        "CacheStats counter, summed over shards");
  }

  // Service-level command counters (cas/incr/decr/touch families) and the
  // expiry backlog, same names as their `stats` lines, prefixed.
  for (const CounterField& field : kCounterFields) {
    registry.RegisterCallbackGauge(
        std::string("pamakv_") + field.name, "",
        [this, member = field.member] {
          return static_cast<double>(TotalCounters().*member);
        },
        "service command counter, summed over shards");
  }
  registry.RegisterCallbackGauge(
      "pamakv_expiry_wheel_nodes", "",
      [this] { return static_cast<double>(ExpiryNodeCount()); },
      "timer-wheel nodes pending across shards (live + lazily-cancelled)");

  // Flash victim tier: per-band demote counters (the band-selectivity of
  // admission is observable here) plus occupancy gauges.
  if (flash_ != nullptr) {
    const auto sum_flash = [this](auto pick) {
      double total = 0.0;
      for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        total += pick(shard->index);
      }
      return total;
    };
    for (std::uint32_t b = 0; b < num_bands; ++b) {
      const std::string labels = "{band=\"" + std::to_string(b) + "\"}";
      registry.RegisterCallbackGauge(
          "pamakv_flash_demotes", labels,
          [sum_flash, this, b] {
            return sum_flash([this, b](std::size_t i) {
              return static_cast<double>(
                  flash_->DemotesForBand(i, static_cast<SubclassId>(b)));
            });
          },
          "items demoted to flash per penalty band, summed over shards");
    }
    registry.RegisterCallbackGauge(
        "pamakv_flash_items", "",
        [sum_flash, this] {
          return sum_flash([this](std::size_t i) {
            return static_cast<double>(flash_->ItemCount(i));
          });
        },
        "flash-resident items across shards");
    registry.RegisterCallbackGauge(
        "pamakv_flash_bytes", "",
        [sum_flash, this] {
          return sum_flash([this](std::size_t i) {
            return static_cast<double>(flash_->TotalBytes(i));
          });
        },
        "segment-file bytes on disk (live + dead records)");
    registry.RegisterCallbackGauge(
        "pamakv_flash_live_bytes", "",
        [sum_flash, this] {
          return sum_flash([this](std::size_t i) {
            return static_cast<double>(flash_->LiveBytes(i));
          });
        },
        "bytes of live (indexed) flash records");
    registry.RegisterCallbackGauge(
        "pamakv_flash_segments", "",
        [sum_flash, this] {
          return sum_flash([this](std::size_t i) {
            return static_cast<double>(flash_->SegmentCount(i));
          });
        },
        "segment files across shards");
  }

  // PAMA value-flow telemetry, when the shards run PamaPolicy. Per-shard
  // series: the sums are per-shard monotone and the last-comparison pair
  // is only meaningful per decision stream.
  if (dynamic_cast<const PamaPolicy*>(&proto.policy()) != nullptr) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string labels = "{shard=\"" + std::to_string(i) + "\"}";
      const auto flow = [this, i](auto pick) {
        Shard& shard = *shards_[i];
        std::lock_guard<std::mutex> lock(shard.mu);
        const auto* pama =
            dynamic_cast<const PamaPolicy*>(&shard.engine->policy());
        return pama != nullptr ? pick(pama->value_flow()) : 0.0;
      };
      registry.RegisterCallbackGauge(
          "pamakv_pama_decisions_total", labels,
          [flow] {
            return flow([](const PamaPolicy::ValueFlow& f) {
              return static_cast<double>(f.decisions);
            });
          },
          "MakeRoom decisions that had a donor candidate");
      registry.RegisterCallbackGauge(
          "pamakv_pama_outgoing_value_sum", labels,
          [flow] {
            return flow(
                [](const PamaPolicy::ValueFlow& f) { return f.outgoing_sum; });
          },
          "sum of candidate outgoing values at decisions");
      registry.RegisterCallbackGauge(
          "pamakv_pama_incoming_value_sum", labels,
          [flow] {
            return flow(
                [](const PamaPolicy::ValueFlow& f) { return f.incoming_sum; });
          },
          "sum of requester incoming values at decisions");
      registry.RegisterCallbackGauge(
          "pamakv_pama_migration_benefit_sum", labels,
          [flow] {
            return flow([](const PamaPolicy::ValueFlow& f) {
              return f.migration_benefit_sum;
            });
          },
          "sum of (incoming - outgoing) over executed migrations: the "
          "penalty-saved-vs-penalty-blind-LRU estimate");
      registry.RegisterCallbackGauge(
          "pamakv_pama_last_outgoing_value", labels,
          [flow] {
            return flow(
                [](const PamaPolicy::ValueFlow& f) { return f.last_outgoing; });
          },
          "candidate outgoing value at the latest decision");
      registry.RegisterCallbackGauge(
          "pamakv_pama_last_incoming_value", labels,
          [flow] {
            return flow(
                [](const PamaPolicy::ValueFlow& f) { return f.last_incoming; });
          },
          "winning incoming value at the latest decision");
    }
    for (std::uint32_t from = 0; from < num_bands; ++from) {
      for (std::uint32_t to = 0; to < num_bands; ++to) {
        const std::string labels = "{from_band=\"" + std::to_string(from) +
                                   "\",to_band=\"" + std::to_string(to) +
                                   "\"}";
        registry.RegisterCallbackGauge(
            "pamakv_pama_migration_flow_total", labels,
            [this, from, to] {
              return SumOverShards([from, to](const CacheEngine& e) {
                const auto* pama =
                    dynamic_cast<const PamaPolicy*>(&e.policy());
                return pama != nullptr
                           ? static_cast<double>(pama->MigrationFlow(
                                 static_cast<SubclassId>(from),
                                 static_cast<SubclassId>(to)))
                           : 0.0;
              });
            },
            "slab migrations from band to band (src -> dst), summed over "
            "shards");
      }
    }
  }
}

}  // namespace pamakv::net
