#include "pamakv/cache/cache_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "pamakv/policy/policy.hpp"
#include "pamakv/util/failpoint.hpp"

namespace pamakv {

namespace {

std::vector<LruStack> MakeStacks(std::size_t count, std::uint64_t seed) {
  std::vector<LruStack> stacks;
  stacks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stacks.emplace_back(Mix64(seed + i));
  }
  return stacks;
}

std::vector<GhostList> MakeGhosts(const SizeClassTable& classes,
                                  std::uint32_t bands,
                                  std::uint32_t ghost_segments) {
  std::vector<GhostList> ghosts;
  ghosts.reserve(static_cast<std::size_t>(classes.num_classes()) * bands);
  for (ClassId c = 0; c < classes.num_classes(); ++c) {
    const std::size_t cap =
        static_cast<std::size_t>(ghost_segments) * classes.SlotsPerSlab(c);
    for (std::uint32_t s = 0; s < bands; ++s) {
      ghosts.emplace_back(cap);
    }
  }
  return ghosts;
}

}  // namespace

CacheEngine::CacheEngine(const EngineConfig& config,
                         std::unique_ptr<AllocationPolicy> policy)
    : classes_(config.size_classes),
      bands_(config.penalty_band_bounds),
      pool_(config.capacity_bytes, classes_, bands_.num_bands()),
      stacks_(MakeStacks(
          static_cast<std::size_t>(classes_.num_classes()) * bands_.num_bands(),
          config.seed)),
      ghosts_(MakeGhosts(classes_, bands_.num_bands(), config.ghost_segments)),
      ghost_where_(16),
      class_bytes_(classes_.num_classes(), 0),
      ghost_hits_by_stack_(stacks_.size(), 0),
      policy_(std::move(policy)),
      hit_time_us_(config.hit_time_us) {
  assert(policy_ != nullptr);
  // The index starts small and grows geometrically with the live items
  // (which the slab pool bounds) rather than reserving a worst case.
  policy_->Attach(*this);
}

CacheEngine::~CacheEngine() = default;

void CacheEngine::EnableItemStorage() {
  pool_.EnableArena([this](ItemHandle owner, char* to) {
    // Physical slab migration: the item keeps its handle, stack position
    // and accounting; only its bytes move.
    Item& item = items_[owner];
    if (item.size > kSlotTagBytes) {
      std::memcpy(to + kSlotTagBytes, item.slot + kSlotTagBytes,
                  item.size - kSlotTagBytes);
    }
    item.slot = to;
  });
}

ItemHandle CacheEngine::AllocateItem() {
  // ReserveItemCapacity ran at the top of Set, so the free list is never
  // empty here and this cannot throw mid-mutation.
  assert(!free_items_.empty());
  const ItemHandle h = free_items_.back();
  free_items_.pop_back();
  return h;
}

void CacheEngine::ReserveItemCapacity() {
  if (!free_items_.empty()) return;
  PAMAKV_FAILPOINT_OOM("engine.item_alloc");
  if (free_items_.capacity() < items_.size() + 1) {
    // The free list is empty here, so growing it is a copy-free realloc.
    // Keep its capacity >= the item count (geometrically) so ReleaseItem's
    // push_back — noexcept, called mid-eviction — can never reallocate.
    free_items_.reserve(std::max(items_.size() + 1,
                                 free_items_.capacity() * 2));
  }
  items_.emplace_back();
  assert(items_.size() - 1 < std::numeric_limits<ItemHandle>::max());
  free_items_.push_back(static_cast<ItemHandle>(items_.size() - 1));
}

void CacheEngine::ReleaseItem(ItemHandle h) noexcept { free_items_.push_back(h); }

void CacheEngine::Tick() {
  policy_->OnTick(clock_);
  ++clock_;
}

GetResult CacheEngine::Get(KeyId key, Bytes size, MicroSecs miss_penalty) {
  Tick();
  ++stats_.gets;
  const ItemHandle h = index_.Find(key);
  if (h != kInvalidHandle) return RecordHit(h);
  // Route the miss to the class/subclass the item would occupy so the
  // policy can consult the right ghost list.
  return RecordMiss(key, size, miss_penalty, classes_.ClassForSize(size),
                    bands_.BandFor(miss_penalty));
}

GetResult CacheEngine::GetHit(ItemHandle h) {
  const Item& item = items_[h];
  const KeyId key = item.key;
  const MicroSecs penalty = item.penalty;
  Tick();
  ++stats_.gets;
  // A rebalance inside the tick evicted the item (RemoveItem clears its
  // stack node): the key is on a ghost list now, and this GET is a miss.
  if (item.node == nullptr) {
    return RouteMiss(key, penalty, std::nullopt);
  }
  return RecordHit(h);
}

GetResult CacheEngine::GetMiss(KeyId key, MicroSecs fallback_penalty,
                               std::optional<Bytes> known_size) {
  Tick();
  ++stats_.gets;
  return RouteMiss(key, fallback_penalty, known_size);
}

GetResult CacheEngine::RouteMiss(KeyId key, MicroSecs fallback_penalty,
                                 std::optional<Bytes> known_size) {
  const ItemHandle where = ghost_where_.Find(key);
  if (where != kInvalidHandle) {
    // The ghost list that last recorded the key knows its class, band and
    // penalty — the place it would be re-cached.
    const auto ghost = ghosts_[where].Lookup(key);
    assert(ghost.has_value());
    const ClassId cls = where / bands_.num_bands();
    return RecordMiss(key, classes_.SlotBytes(cls), ghost->penalty, cls,
                      where % bands_.num_bands());
  }
  if (known_size) {
    return RecordMiss(key, *known_size, fallback_penalty,
                      classes_.ClassForSize(*known_size),
                      bands_.BandFor(fallback_penalty));
  }
  // Neither cached nor remembered: the key's class is unknown, so the miss
  // is charged but drives no policy decision.
  return RecordMiss(key, 0, fallback_penalty, std::nullopt, 0);
}

GetResult CacheEngine::RecordHit(ItemHandle h) {
  Item& item = items_[h];
  ++stats_.get_hits;
  // The hit avoided this item's recorded miss penalty — the live
  // numerator of the paper's service-time savings.
  stats_.hit_penalty_saved_us += static_cast<std::uint64_t>(item.penalty);
  // Policy sees the pre-promotion stack position (rank bookkeeping).
  policy_->OnHit(item);
  StackOf(item.cls, item.sub).MoveToTop(item.node);
  item.last_access = clock_;
  item.fetched = true;
  return GetResult{true, hit_time_us_};
}

GetResult CacheEngine::RecordMiss(KeyId key, Bytes size, MicroSecs penalty,
                                  std::optional<ClassId> cls, SubclassId sub) {
  ++stats_.get_misses;
  stats_.miss_penalty_total_us += static_cast<std::uint64_t>(penalty);
  if (cls) {
    const std::size_t stack = StackIndex(*cls, sub);
    if (ghosts_[stack].Contains(key)) {
      ++stats_.ghost_hits;
      ++ghost_hits_by_stack_[stack];
    }
    policy_->OnMiss(key, size, penalty, *cls, sub);
  }
  return GetResult{false, penalty};
}

SetResult CacheEngine::Set(KeyId key, Bytes size, MicroSecs penalty,
                           std::int64_t expire_at_ns) {
  // All item-table growth happens before any state mutates: a bad_alloc
  // from here (real heap exhaustion, or injected via engine.item_alloc)
  // leaves the engine bit-identical to before the call. The remaining
  // allocation seams deeper in the insert path (LRU node pool, index
  // rehash) are guarded with explicit rollback below.
  ReserveItemCapacity();
  Tick();
  ++stats_.sets;

  const auto cls_opt = classes_.ClassForSize(size);
  if (!cls_opt) {
    ++stats_.set_failures;  // larger than the largest slot: refused
    return SetResult{};
  }
  const ClassId cls = *cls_opt;
  const SubclassId sub = bands_.BandFor(penalty);

  // Overwrite path.
  const ItemHandle existing = index_.Find(key);
  if (existing != kInvalidHandle) {
    Item& item = items_[existing];
    if (item.cls == cls && item.sub == sub) {
      stats_.bytes_stored += size;
      stats_.bytes_stored -= item.size;
      class_bytes_[cls] += size;
      class_bytes_[cls] -= item.size;
      item.size = size;
      item.penalty = penalty;
      item.last_access = clock_;
      item.expire_at_ns = expire_at_ns;
      item.fetched = false;  // the new value hasn't been read yet
      StackOf(cls, sub).MoveToTop(item.node);
      ++stats_.set_updates;
      return SetResult{true, true, ItemBytes(item)};
    }
    // Class or subclass changed: drop the old copy, insert fresh below.
    RemoveItem(existing, /*to_ghost=*/false);
  }

  if (!ObtainSlot(cls, sub)) {
    ++stats_.set_failures;
    // Remember the refused key exactly like an eviction: a refused store is
    // an instant eviction. Re-misses then feed the subclass's incoming
    // value, letting value-gated policies (PAMA) grant it space once the
    // demand proves itself.
    PushGhost(cls, sub, key, penalty);
    return SetResult{};
  }
  const Item& item = Insert(key, size, penalty, cls, sub, expire_at_ns);
  return SetResult{true, existing != kInvalidHandle, ItemBytes(item)};
}

Item& CacheEngine::Insert(KeyId key, Bytes size, MicroSecs penalty,
                          ClassId cls, SubclassId sub,
                          std::int64_t expire_at_ns) {
  const ItemHandle h = AllocateItem();
  Item& item = items_[h];
  item = Item{};
  item.key = key;
  item.size = size;
  item.penalty = penalty;
  item.cls = cls;
  item.sub = sub;
  item.last_access = clock_;
  item.expire_at_ns = expire_at_ns;
  const bool acquired = pool_.AcquireSlot(cls, sub, h, &item.slot);
  assert(acquired);
  (void)acquired;
  try {
    item.node = StackOf(cls, sub).PushTop(h);
  } catch (...) {
    // Treap node-pool growth failed: hand back the slot and the item so
    // slab accounting stays exact, then surface the failure.
    pool_.ReleaseSlot(cls, sub, item.slot);
    item.slot = nullptr;
    ReleaseItem(h);
    throw;
  }
  try {
    index_.Upsert(key, h);
  } catch (...) {
    // Index rehash failed mid-insert: unwind the stack push too.
    StackOf(cls, sub).Erase(item.node);
    item.node = nullptr;
    pool_.ReleaseSlot(cls, sub, item.slot);
    item.slot = nullptr;
    ReleaseItem(h);
    throw;
  }
  stats_.bytes_stored += size;
  class_bytes_[cls] += size;
  // The key is cached again: its ghost entry (if any) is obsolete.
  RemoveGhost(cls, sub, key);
  policy_->OnInsert(item);
  return item;
}

bool CacheEngine::Del(KeyId key) {
  Tick();
  ++stats_.dels;
  const ItemHandle h = index_.Find(key);
  if (h == kInvalidHandle) return false;
  RemoveItem(h, /*to_ghost=*/false);
  return true;
}

bool CacheEngine::Expire(KeyId key, bool background) {
  const ItemHandle h = index_.Find(key);
  if (h == kInvalidHandle) return false;
  const Item& item = items_[h];
  ++stats_.expired;
  if (!item.fetched) ++stats_.expired_unfetched;
  if (background) ++stats_.reclaimed;
  // Ghost-listed like an eviction — the key's demand stays visible to the
  // policy even though the value aged out — but not *counted* as one:
  // expiry is the workload reclaiming space, not capacity pressure.
  RemoveItem(h, /*to_ghost=*/true);
  return true;
}

bool CacheEngine::Touch(KeyId key, std::int64_t expire_at_ns) {
  const ItemHandle h = index_.Find(key);
  if (h == kInvalidHandle) return false;
  Item& item = items_[h];
  item.expire_at_ns = expire_at_ns;
  StackOf(item.cls, item.sub).MoveToTop(item.node);
  item.last_access = clock_;
  return true;
}

bool CacheEngine::RestoreItem(KeyId key, Bytes size, MicroSecs penalty,
                              std::int64_t expire_at_ns) {
  ReserveItemCapacity();
  const auto cls_opt = classes_.ClassForSize(size);
  if (!cls_opt) return false;
  const ClassId cls = *cls_opt;
  const SubclassId sub = bands_.BandFor(penalty);
  if (index_.Find(key) != kInvalidHandle) return false;
  // Free slots / free slabs only — never the policy's MakeRoom, which
  // could migrate slabs and scramble the layout being restored.
  if (pool_.FreeSlots(cls, sub) == 0 && !pool_.GrantFreeSlab(cls, sub)) {
    return false;
  }
  ++clock_;
  Insert(key, size, penalty, cls, sub, expire_at_ns);
  return true;
}

bool CacheEngine::ObtainSlot(ClassId cls, SubclassId sub) {
  if (pool_.FreeSlots(cls, sub) > 0) return true;
  if (pool_.GrantFreeSlab(cls, sub)) return true;
  // The policy must free a slot in (cls, sub) — possibly via slab
  // migration. A bounded number of retries guards against a policy that
  // frees space elsewhere: each MakeRoom call must make progress or give up.
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (!policy_->MakeRoom(cls, sub)) return false;
    if (pool_.FreeSlots(cls, sub) > 0) return true;
    if (pool_.GrantFreeSlab(cls, sub)) return true;
  }
  return false;
}

void CacheEngine::PushGhost(ClassId c, SubclassId s, KeyId key,
                            MicroSecs penalty) {
  const std::size_t stack = StackIndex(c, s);
  const std::optional<KeyId> displaced = ghosts_[stack].Push(key, penalty);
  if (!stores_items()) return;
  if (displaced) ForgetGhost(*displaced, stack);
  try {
    ghost_where_.Upsert(key, static_cast<ItemHandle>(stack));
  } catch (const std::bad_alloc&) {
    // The locator could not grow: forget the key rather than point at a
    // list it may have left. Its next miss is routed by the fallback.
    ghost_where_.Erase(key);
  }
}

void CacheEngine::RemoveGhost(ClassId c, SubclassId s, KeyId key) {
  const std::size_t stack = StackIndex(c, s);
  if (ghosts_[stack].Remove(key) && stores_items()) ForgetGhost(key, stack);
}

void CacheEngine::ForgetGhost(KeyId key, std::size_t stack) noexcept {
  if (ghost_where_.Find(key) == stack) ghost_where_.Erase(key);
}

void CacheEngine::RemoveItem(ItemHandle h, bool to_ghost) {
  Item& item = items_[h];
  stats_.bytes_stored -= item.size;
  class_bytes_[item.cls] -= item.size;
  if (to_ghost) PushGhost(item.cls, item.sub, item.key, item.penalty);
  policy_->OnEvict(item);
  StackOf(item.cls, item.sub).Erase(item.node);
  item.node = nullptr;
  index_.Erase(item.key);
  pool_.ReleaseSlot(item.cls, item.sub, item.slot);
  item.slot = nullptr;
  ReleaseItem(h);
}

bool CacheEngine::EvictBottom(ClassId c, SubclassId s) {
  LruStack& stack = StackOf(c, s);
  LruStack::Node* bottom = stack.Bottom();
  if (bottom == nullptr) return false;
  ++stats_.evictions;
  if (eviction_listener_) eviction_listener_(items_[bottom->value]);
  RemoveItem(bottom->value, /*to_ghost=*/true);
  return true;
}

bool CacheEngine::EvictClassLru(ClassId c) {
  // The class-wide LRU item is the oldest of the subclass bottoms.
  LruStack::Node* victim = nullptr;
  SubclassId victim_sub = 0;
  AccessClock oldest = std::numeric_limits<AccessClock>::max();
  for (SubclassId s = 0; s < bands_.num_bands(); ++s) {
    LruStack::Node* bottom = StackOf(c, s).Bottom();
    if (bottom == nullptr) continue;
    const AccessClock age = items_[bottom->value].last_access;
    if (age < oldest) {
      oldest = age;
      victim = bottom;
      victim_sub = s;
    }
  }
  if (victim == nullptr) return false;
  (void)victim_sub;
  ++stats_.evictions;
  if (eviction_listener_) eviction_listener_(items_[victim->value]);
  RemoveItem(victim->value, /*to_ghost=*/true);
  return true;
}

std::optional<std::size_t> CacheEngine::EvictionsToFreeSlab(ClassId c,
                                                            SubclassId s) const {
  if (pool_.SlabCount(c, s) == 0) return std::nullopt;
  const std::size_t needed = pool_.EvictionsNeededToFreeSlab(c, s);
  if (StackOf(c, s).size() < needed) return std::nullopt;
  return needed;
}

bool CacheEngine::MigrateSlab(ClassId from_c, SubclassId from_s, ClassId to_c,
                              SubclassId to_s) {
  const auto needed = EvictionsToFreeSlab(from_c, from_s);
  if (!needed) return false;
  for (std::size_t i = 0; i < *needed; ++i) {
    const bool evicted = EvictBottom(from_c, from_s);
    assert(evicted);
    (void)evicted;
  }
  assert(pool_.CanReleaseSlab(from_c, from_s));
  pool_.TransferSlab(from_c, from_s, to_c, to_s);
  ++stats_.slab_migrations;
  return true;
}

bool CacheEngine::MigrateSlabClassLru(ClassId from_c, ClassId to_c,
                                      SubclassId to_s) {
  if (pool_.ClassSlabCount(from_c) == 0) return false;
  // Evict class-wide LRU items until some subclass of from_c can release a
  // whole slab. Bounded by the class's item population.
  std::size_t budget = pool_.ClassSlotsInUse(from_c);
  for (;;) {
    for (SubclassId s = 0; s < bands_.num_bands(); ++s) {
      if (pool_.CanReleaseSlab(from_c, s)) {
        pool_.TransferSlab(from_c, s, to_c, to_s);
        ++stats_.slab_migrations;
        return true;
      }
    }
    if (budget == 0) return false;
    --budget;
    if (!EvictClassLru(from_c)) return false;
  }
}

std::optional<AccessClock> CacheEngine::OldestAccess(ClassId c) const {
  std::optional<AccessClock> oldest;
  for (SubclassId s = 0; s < bands_.num_bands(); ++s) {
    const LruStack::Node* bottom = StackOf(c, s).Bottom();
    if (bottom == nullptr) continue;
    const AccessClock age = items_[bottom->value].last_access;
    if (!oldest || age < *oldest) oldest = age;
  }
  return oldest;
}

}  // namespace pamakv
