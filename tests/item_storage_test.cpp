// Item storage: the slab arena behind the server's engines. Slots are real
// memory, a slab migration moves the donor page's live items before the
// page changes class, and a miss is routed by the ghost locator.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/cache/penalty_bands.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/policy/no_realloc.hpp"
#include "pamakv/policy/policy.hpp"
#include "pamakv/slab/slab_pool.hpp"
#include "service_ops.hpp"

namespace pamakv {
namespace {

// 1 KiB slabs, classes 64/128/256/512 B -> 16/8/4/2 slots per slab.
SizeClassConfig TinyGeometry() {
  SizeClassConfig g;
  g.slab_bytes = 1024;
  g.min_slot_bytes = 64;
  g.num_classes = 4;
  return g;
}

std::unique_ptr<CacheEngine> MakeStoringEngine(Bytes capacity,
                                               bool with_bands = false) {
  EngineConfig cfg;
  cfg.size_classes = TinyGeometry();
  cfg.capacity_bytes = capacity;
  if (with_bands) {
    cfg.penalty_band_bounds = PenaltyBandTable::PaperDefault().bounds();
  }
  auto engine =
      std::make_unique<CacheEngine>(cfg, std::make_unique<NoReallocPolicy>());
  engine->EnableItemStorage();
  return engine;
}

/// Fills an item's caller bytes with a pattern derived from its key.
void Stamp(char* bytes, Bytes size, KeyId key) {
  for (Bytes i = 0; i + CacheEngine::kSlotTagBytes < size; ++i) {
    bytes[i] = static_cast<char>('a' + (key * 7 + i) % 26);
  }
}

bool Intact(const CacheEngine& engine, KeyId key) {
  const Item* item = engine.Peek(key);
  if (item == nullptr) return false;
  const char* bytes = CacheEngine::ItemBytes(*item);
  for (Bytes i = 0; i + CacheEngine::kSlotTagBytes < item->size; ++i) {
    if (bytes[i] != static_cast<char>('a' + (key * 7 + i) % 26)) return false;
  }
  return true;
}

/// Records the class of every miss the engine reports, and can evict an
/// item from inside the next clock tick, the way LAMA and facebook-age
/// rebalance in the background.
class ProbePolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "probe";
  }
  void OnTick(AccessClock /*now*/) override {
    if (evict_on_tick_) {
      evict_on_tick_ = false;
      (void)engine().EvictBottom(evict_cls_, 0);
    }
  }
  void OnMiss(KeyId /*key*/, Bytes /*size*/, MicroSecs /*penalty*/,
              ClassId cls, SubclassId /*sub*/) override {
    miss_classes.push_back(cls);
  }
  [[nodiscard]] bool MakeRoom(ClassId /*cls*/, SubclassId /*sub*/) override {
    return false;
  }
  void EvictOnNextTick(ClassId cls) {
    evict_on_tick_ = true;
    evict_cls_ = cls;
  }

  std::vector<ClassId> miss_classes;

 private:
  bool evict_on_tick_ = false;
  ClassId evict_cls_ = 0;
};

std::unique_ptr<CacheEngine> MakeProbedEngine(ProbePolicy** probe) {
  EngineConfig cfg;
  cfg.size_classes = TinyGeometry();
  cfg.capacity_bytes = 4096;
  auto policy = std::make_unique<ProbePolicy>();
  *probe = policy.get();
  auto engine = std::make_unique<CacheEngine>(cfg, std::move(policy));
  engine->EnableItemStorage();
  return engine;
}

TEST(SlabArenaTest, SlotsAreDistinctPagesAndReleasedSlotsAreReused) {
  const SizeClassTable classes(TinyGeometry());
  SlabPool pool(4096, classes);
  pool.EnableArena([](ItemHandle, char*) {});
  EXPECT_TRUE(pool.has_arena());
  EXPECT_EQ(pool.arena_bytes(), 0u);  // nothing handed out yet
  ASSERT_TRUE(pool.GrantFreeSlab(1, 0));
  EXPECT_EQ(pool.arena_bytes(), 1024u);
  std::set<char*> slots;
  for (ItemHandle h = 0; h < 8; ++h) {
    char* slot = nullptr;
    ASSERT_TRUE(pool.AcquireSlot(1, 0, h, &slot));
    EXPECT_EQ(SlabPool::SlotOwner(slot), h);
    slots.insert(slot);
  }
  EXPECT_EQ(slots.size(), 8u);
  // 8 slots of 128 B tile exactly one 1 KiB page.
  EXPECT_EQ(*slots.rbegin() - *slots.begin(), 7 * 128);
  char* slot = nullptr;
  EXPECT_FALSE(pool.AcquireSlot(1, 0, 9, &slot));  // page full
  char* freed = *std::next(slots.begin(), 3);
  pool.ReleaseSlot(1, 0, freed);
  EXPECT_EQ(SlabPool::SlotOwner(freed), kInvalidHandle);
  ASSERT_TRUE(pool.AcquireSlot(1, 0, 9, &slot));
  EXPECT_EQ(slot, freed);
  EXPECT_EQ(SlabPool::SlotOwner(slot), 9u);
}

TEST(SlabArenaTest, MigrationMovesLiveItemsOffTheDonorPage) {
  auto engine = MakeStoringEngine(4096);
  // 32 items of class 0 fill two pages.
  for (KeyId k = 1; k <= 32; ++k) {
    const SetResult r = engine->Set(k, 60, 100);
    ASSERT_TRUE(r.stored);
    ASSERT_NE(r.bytes, nullptr);
    Stamp(r.bytes, 60, k);
  }
  ASSERT_EQ(engine->pool().SlabCount(0, 0), 2u);
  // Free half of each page: a page's worth is free, but spread out.
  for (KeyId k = 1; k <= 32; k += 2) ASSERT_TRUE(engine->Del(k));
  ASSERT_TRUE(engine->pool().CanReleaseSlab(0, 0));

  ASSERT_TRUE(engine->MigrateSlab(0, 0, 3, 0));
  EXPECT_EQ(engine->pool().SlabCount(0, 0), 1u);
  EXPECT_EQ(engine->pool().SlabCount(3, 0), 1u);
  EXPECT_EQ(engine->stats().evictions, 0u);  // compaction, not eviction
  // Every survivor kept its bytes and now sits on the one remaining page.
  std::set<const char*> slots;
  for (KeyId k = 2; k <= 32; k += 2) {
    EXPECT_TRUE(Intact(*engine, k)) << k;
    slots.insert(engine->Peek(k)->slot);
  }
  ASSERT_EQ(slots.size(), 16u);
  EXPECT_EQ(*slots.rbegin() - *slots.begin(), 15 * 64);

  // The donor page now serves class 3 without touching class 0's bytes.
  const SetResult big = engine->Set(100, 500, 100);
  ASSERT_TRUE(big.stored);
  Stamp(big.bytes, 500, 100);
  EXPECT_TRUE(slots.count(engine->Peek(100)->slot) == 0);
  for (KeyId k = 2; k <= 32; k += 2) EXPECT_TRUE(Intact(*engine, k)) << k;
  EXPECT_TRUE(Intact(*engine, 100));
  // Holes: 16 class-0 slots of 64 B holding 60 B each, one 512 B slot
  // holding 500 B.
  EXPECT_EQ(engine->SlabHoleBytes(0), 16u * 4);
  EXPECT_EQ(engine->SlabHoleBytes(3), 12u);
}

TEST(SlabArenaTest, OverwriteInPlaceAndClassChangeKeepOneCopy) {
  auto engine = MakeStoringEngine(4096);
  const SetResult first = engine->Set(1, 60, 100);
  ASSERT_TRUE(first.stored);
  // Same class: the item keeps its slot.
  const SetResult same = engine->Set(1, 50, 100);
  EXPECT_TRUE(same.updated);
  EXPECT_EQ(same.bytes, first.bytes);
  // Larger class: a new slot, and the old one is free again.
  const SetResult moved = engine->Set(1, 200, 100);
  ASSERT_TRUE(moved.stored);
  EXPECT_NE(moved.bytes, first.bytes);
  EXPECT_EQ(engine->item_count(), 1u);
  EXPECT_EQ(engine->pool().SlotsInUse(0, 0), 0u);
  EXPECT_EQ(engine->pool().SlotsInUse(2, 0), 1u);
}

TEST(GhostLocatorTest, MissIsChargedToTheGhostListThatRecordedTheKey) {
  auto engine = MakeStoringEngine(4096, /*with_bands=*/true);
  const MicroSecs penalty = 2'000'000;
  const SubclassId band = engine->bands().BandFor(penalty);
  ASSERT_TRUE(engine->Set(7, 100, penalty).stored);  // class 1
  ASSERT_TRUE(engine->EvictBottom(1, band));
  EXPECT_EQ(engine->located_ghost_count(), 1u);

  // The fallback would route to class 0 / band of 1000 µs; the locator
  // knows better.
  const GetResult miss = engine->GetMiss(7, 1000);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.service_time_us, penalty);
  EXPECT_EQ(engine->stats().ghost_hits, 1u);
  EXPECT_EQ(engine->GhostHitCount(1, band), 1u);
  EXPECT_EQ(engine->stats().miss_penalty_total_us,
            static_cast<std::uint64_t>(penalty));

  // A key no ghost list remembers is charged the fallback.
  const GetResult cold = engine->GetMiss(8, 1000);
  EXPECT_EQ(cold.service_time_us, 1000);
  EXPECT_EQ(engine->stats().ghost_hits, 1u);

  // Re-caching the key drops its ghost entry and its locator entry.
  ASSERT_TRUE(engine->Set(7, 100, penalty).stored);
  EXPECT_EQ(engine->located_ghost_count(), 0u);
}

TEST(GhostLocatorTest, OnlyMissesOfKnownClassReachThePolicy) {
  ProbePolicy* probe = nullptr;
  auto engine = MakeProbedEngine(&probe);
  ASSERT_TRUE(engine->Set(7, 100, 1000).stored);  // class 1
  ASSERT_TRUE(engine->EvictBottom(1, 0));

  // Located: the policy sees the ghost list's class.
  EXPECT_FALSE(engine->GetMiss(7, 1000).hit);
  // Forgotten, size unknown: charged, but no class to tell the policy
  // about (routing it to a default class would skew PSA's per-class
  // miss counts toward that class).
  EXPECT_FALSE(engine->GetMiss(8, 1000).hit);
  // Forgotten but of known size (a flash-resident copy): routed by it.
  EXPECT_FALSE(engine->GetMiss(9, 1000, 200).hit);

  EXPECT_EQ(probe->miss_classes, (std::vector<ClassId>{1, 2}));
  EXPECT_EQ(engine->stats().get_misses, 3u);
  EXPECT_EQ(engine->stats().miss_penalty_total_us, 3000u);
}

TEST(GhostLocatorTest, HitEvictedByItsOwnTickIsAMiss) {
  ProbePolicy* probe = nullptr;
  auto engine = MakeProbedEngine(&probe);
  ASSERT_TRUE(engine->Set(5, 100, 1000).stored);  // class 1
  const ItemHandle h = engine->Find(5);
  ASSERT_NE(h, kInvalidHandle);

  probe->EvictOnNextTick(1);
  const GetResult result = engine->GetHit(h);
  EXPECT_FALSE(result.hit);
  EXPECT_EQ(result.service_time_us, 1000);
  EXPECT_EQ(engine->Peek(5), nullptr);
  EXPECT_EQ(engine->stats().get_hits, 0u);
  EXPECT_EQ(engine->stats().get_misses, 1u);
  // The eviction ghost-listed the key, so the miss is a ghost hit there.
  EXPECT_EQ(engine->stats().ghost_hits, 1u);
  EXPECT_EQ(probe->miss_classes, (std::vector<ClassId>{1}));
}

TEST(GhostLocatorTest, ServiceAnswersMissWhenTheHitsTickEvictsTheItem) {
  ProbePolicy* probe = nullptr;
  net::CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = 4096;
  net::CacheService svc(cfg, [&probe](Bytes /*bytes*/) {
    return MakeProbedEngine(&probe);
  });
  // header + key + value: class 0
  ASSERT_TRUE(net::ops::Set(svc, "k", 0, "value"));
  probe->EvictOnNextTick(0);
  std::vector<char> out;
  EXPECT_FALSE(net::ops::Get(svc, "k", out, /*with_cas=*/false));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(net::ops::Get(svc, "k", out, /*with_cas=*/false));
}

TEST(GhostLocatorTest, LocatorNeverOutgrowsTheGhostLists) {
  auto engine = MakeStoringEngine(1024);  // one slab: constant eviction
  std::size_t capacity = 0;
  for (ClassId c = 0; c < engine->classes().num_classes(); ++c) {
    capacity += engine->GhostOf(c, 0).capacity();
  }
  for (KeyId k = 0; k < 20'000; ++k) {
    engine->Set(k, 60 + 64 * (k % 3), 100);  // churn three classes
  }
  EXPECT_GT(engine->located_ghost_count(), 0u);
  EXPECT_LE(engine->located_ghost_count(), capacity);
}

}  // namespace
}  // namespace pamakv
