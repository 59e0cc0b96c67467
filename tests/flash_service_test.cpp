// Service-level flash integration: CacheService + PAMA engine + FlashTier
// in one process, FakeClock-driven. Covers penalty-aware demotion on
// eviction, the deferred read/promote round trip inside a batch
// (cas/flags/value preserved exactly), the verb matrix on flash-resident
// keys, tier-direct completions when DRAM refuses the promote, in-flight
// read races (delete / overwrite / flush_all / incr-vs-delete), request
// order around a deferred op, the receive-buffer bound while a batch
// waits, TTL and flush lapses, and tier recovery into a fresh service.
// Runs under the `flash` ctest label.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pamakv/cache/string_keys.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/batch.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/connection.hpp"
#include "pamakv/policy/no_realloc.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/failpoint.hpp"
#include "service_ops.hpp"

namespace pamakv::net {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

using ops::HeldBatch;
using ops::ParseArithmetic;

constexpr std::int64_t kUnixBase = 1'700'000'000;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pamakv-flashsvc-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// One DRAM+flash node. Members declare clock → tier → service, so the
/// service (which references both) is destroyed first.
struct Node {
  util::FakeClock clock;
  std::unique_ptr<flash::FlashTier> tier;
  std::unique_ptr<CacheService> service;

  void Advance(std::int64_t ns) { clock.Advance(std::chrono::nanoseconds(ns)); }
};

std::unique_ptr<Node> MakeNode(const std::string& dir,
                               Bytes capacity = 256 * 1024,
                               double admit_min_value = 0.0,
                               bool io_thread = false, std::size_t shards = 1,
                               CacheService::EngineFactory factory = nullptr) {
  auto node = std::make_unique<Node>();
  node->clock.SetWallBase(kUnixBase * 1'000'000'000);
  CacheServiceConfig cfg;
  cfg.shards = shards;
  cfg.capacity_bytes = capacity;
  cfg.clock = &node->clock;
  cfg.unix_now_s = kUnixBase;
  if (!factory) {
    factory = [](Bytes bytes) {
      return MakeEngine("pama", bytes, SizeClassConfig{});
    };
  }
  node->service = std::make_unique<CacheService>(cfg, factory);
  flash::FlashConfig fcfg;
  fcfg.dir = dir;
  fcfg.shards = shards;
  fcfg.segment_bytes = 64 * 1024;
  fcfg.cap_bytes = 8 * 1024 * 1024;
  fcfg.admit_min_value = admit_min_value;
  fcfg.io_thread = io_thread;
  node->tier = std::make_unique<flash::FlashTier>(fcfg);
  node->service->AttachFlash(node->tier.get());
  node->service->RecoverFlash();
  return node;
}

/// ~100-byte payload (single size class) with recognizable content.
std::string Payload(const std::string& tag) {
  std::string v = "payload-" + tag + "-";
  v.append(v.size() < 100 ? 100 - v.size() : 1, 'p');
  return v;
}

/// Stores same-class fillers until `key` demotes to flash. Matching flags
/// AND value size keep everything in one (class, band), so LRU order
/// makes the oldest key — `key` — the eviction victim deterministically.
/// Pass a filler value the same size as the victim's value.
/// The flash slot of `key`, on whichever shard it routes to.
const flash::Slot* FlashSlotOf(Node& node, const std::string& key) {
  const KeyId id = HashStringKey(key);
  return node.tier->Find(node.service->ShardIndexForId(id), id);
}

::testing::AssertionResult EvictToFlash(Node& node, const std::string& key,
                                        std::uint32_t flags,
                                        const std::string& filler_value) {
  for (int i = 0; i < 40000; ++i) {
    if (FlashSlotOf(node, key) != nullptr) {
      return ::testing::AssertionSuccess();
    }
    ops::Store(*node.service, Verb::kSet, "filler:" + std::to_string(i),
               flags, 0, filler_value);
  }
  if (FlashSlotOf(node, key) != nullptr) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << key << " never demoted to flash";
}

::testing::AssertionResult EvictToFlash(Node& node, const std::string& key,
                                        std::uint32_t flags) {
  return EvictToFlash(node, key, flags, Payload("filler"));
}

std::uint64_t ParseCas(const std::string& block) {
  const auto eol = block.find("\r\n");
  if (eol == std::string::npos) return 0;
  const auto sp = block.rfind(' ', eol);
  if (sp == std::string::npos) return 0;
  return std::strtoull(block.c_str() + sp + 1, nullptr, 10);
}

std::string GetsBlock(CacheService& service, const std::string& key) {
  std::vector<char> out;
  if (!ops::Get(service, key, out, /*with_cas=*/true)) return "";
  return std::string(out.data(), out.size());
}

/// A gets of one key, run as a batch of one; `between` runs while its
/// flash read (if any) is in flight. Returns the VALUE block ("" on a
/// miss) in *block and whether it hit.
bool FlashAwareGet(Node& node, const std::string& key, std::string* block,
                   const std::function<void()>& between = nullptr) {
  HeldBatch b;
  b.Add(Verb::kGets, key);
  if (!b.Execute(*node.service)) {
    if (between) between();
    b.ReleaseAll();
  }
  EXPECT_TRUE(b.completed());
  *block = b.Reply(0);
  return !block->empty();
}

ArithmeticResult FlashAwareIncrDecr(
    Node& node, const std::string& key, std::uint64_t delta, bool increment,
    const std::function<void()>& between = nullptr) {
  HeldBatch b;
  b.Add(increment ? Verb::kIncr : Verb::kDecr, key).delta = delta;
  if (!b.Execute(*node.service)) {
    if (between) between();
    b.ReleaseAll();
  }
  EXPECT_TRUE(b.completed());
  return ParseArithmetic(b.Reply(0));
}

/// One storage op run as a batch of one; returns its wire reply. Sets
/// *deferred when the op waited on a flash read.
std::string RunStore(Node& node, Verb verb, const std::string& key,
                     std::uint32_t flags, const std::string& value,
                     std::uint64_t cas_unique, bool* deferred) {
  HeldBatch b;
  BatchOp& op = b.Add(verb, key);
  op.flags = flags;
  op.value = value;
  op.cas = cas_unique;
  *deferred = !b.Execute(*node.service);
  b.ReleaseAll();
  EXPECT_TRUE(b.completed());
  return b.Reply(0);
}

class FlashServiceTest : public ::testing::Test {
 protected:
  void TearDown() override {
#if PAMAKV_FAILPOINTS
    util::FailPoints::DisableAll();
#endif
  }
};

// ---- demotion ----

TEST_F(FlashServiceTest, EvictionsDemoteWithPerBandCounters) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  // Mixed penalties so several (class, band) pairs populate; enough
  // volume that the engine must evict.
  for (int i = 0; i < 4000; ++i) {
    const auto flags = static_cast<std::uint32_t>(500 + (i % 7) * 1'500);
    ops::Store(*node->service, Verb::kSet, "key:" + std::to_string(i), flags, 0,
                         Payload(std::to_string(i)));
  }
  const auto& stats = node->tier->shard_stats(0);
  EXPECT_GT(stats.demotes, 0u);
  EXPECT_GT(node->tier->ItemCount(0), 0u);
  // Band attribution is complete: per-band counters account for every
  // demote (the bench reads these to show demotion is band-selective).
  std::uint64_t by_band = 0;
  for (SubclassId b = 0; b < node->tier->MaxBandSeen(0); ++b) {
    by_band += node->tier->DemotesForBand(0, b);
  }
  EXPECT_EQ(by_band, stats.demotes);
}

TEST_F(FlashServiceTest, AdmissionFloorRefusesLowValueDemotions) {
  TempDir accept_dir, refuse_dir;
  auto accept = MakeNode(accept_dir.path(), 256 * 1024, /*admit=*/0.0);
  // An impossibly high floor: no (class, band)'s incoming value clears it,
  // so the same eviction stream demotes nothing.
  auto refuse = MakeNode(refuse_dir.path(), 256 * 1024, /*admit=*/1e18);
  for (int i = 0; i < 4000; ++i) {
    const auto flags = static_cast<std::uint32_t>(500 + (i % 7) * 1'500);
    const std::string key = "key:" + std::to_string(i);
    const std::string value = Payload(std::to_string(i));
    ops::Store(*accept->service, Verb::kSet, key, flags, 0, value);
    ops::Store(*refuse->service, Verb::kSet, key, flags, 0, value);
  }
  EXPECT_GT(accept->tier->shard_stats(0).demotes, 0u);
  EXPECT_EQ(refuse->tier->shard_stats(0).demotes, 0u);
  EXPECT_EQ(refuse->tier->ItemCount(0), 0u);
}

// ---- the deferred hit path ----

TEST_F(FlashServiceTest, FlashHitServesExactValueFlagsAndCas) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "the-key";
  const std::string value = Payload("original");
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 4321, 0, value),
            StoreStatus::kStored);
  const std::string before = GetsBlock(*node->service, key);
  ASSERT_FALSE(before.empty());
  ASSERT_TRUE(EvictToFlash(*node, key, 4321));

  std::string block;
  ASSERT_TRUE(FlashAwareGet(*node, key, &block));
  // Demote/promote is invisible to the client: byte-identical gets block,
  // cas included (a gets → cas round trip spanning the demotion works).
  EXPECT_EQ(block, before);
  EXPECT_NE(block.find(value), std::string::npos);
  EXPECT_EQ(ParseCas(block), ParseCas(before));

  const ServiceCounters counters = node->service->TotalCounters();
  EXPECT_EQ(counters.flash_hits, 1u);
  EXPECT_EQ(counters.flash_promotes + counters.flash_direct_serves, 1u);
  EXPECT_EQ(counters.flash_penalty_saved_us, 4321u);
  if (counters.flash_promotes == 1) {
    // Promoted: the slot is gone and the next get is a plain DRAM hit,
    // answered without waiting.
    EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
    HeldBatch again;
    again.Add(Verb::kGets, key);
    EXPECT_TRUE(again.Execute(*node->service));
    EXPECT_EQ(again.Reply(0), before);
  }
}

TEST_F(FlashServiceTest, CasStoreRoundTripAcrossDemotion) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "cas-key";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                 Payload("v1")),
            StoreStatus::kStored);
  const std::uint64_t cas = ParseCas(GetsBlock(*node->service, key));
  ASSERT_NE(cas, 0u);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));

  // cas against slot metadata resolves synchronously — no disk read.
  bool deferred = true;
  EXPECT_EQ(RunStore(*node, Verb::kCas, key, 2000, Payload("v2"), cas + 7,
                     &deferred),
            "EXISTS\r\n");
  EXPECT_FALSE(deferred);
  EXPECT_EQ(
      RunStore(*node, Verb::kCas, key, 2000, Payload("v2"), cas, &deferred),
      "STORED\r\n");
  EXPECT_FALSE(deferred);
  // The DRAM copy superseded the flash one.
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
  std::string block;
  EXPECT_TRUE(FlashAwareGet(*node, key, &block));
  EXPECT_NE(block.find(Payload("v2")), std::string::npos);
}

TEST_F(FlashServiceTest, StoreVerbMatrixOnFlashResidentKey) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "verb-key";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0, "hello"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000, "fillr"));

  bool deferred = true;
  // add: the key exists (on flash), so it must refuse — synchronously.
  EXPECT_EQ(RunStore(*node, Verb::kAdd, key, 1, "x", 0, &deferred),
            "NOT_STORED\r\n");
  EXPECT_FALSE(deferred);
  // append: needs the stored bytes, so it defers and concatenates after
  // the promote.
  EXPECT_EQ(RunStore(*node, Verb::kAppend, key, 1, "-world", 0, &deferred),
            "STORED\r\n");
  EXPECT_TRUE(deferred);
  std::string block;
  ASSERT_TRUE(FlashAwareGet(*node, key, &block));
  EXPECT_NE(block.find("hello-world"), std::string::npos);

  // replace on a flash-resident key succeeds without a disk read.
  const std::string other = "verb-key-2";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, other, 2000, 0, "old"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, other, 2000, "old"));
  EXPECT_EQ(RunStore(*node, Verb::kReplace, other, 2000, "new", 0, &deferred),
            "STORED\r\n");
  EXPECT_FALSE(deferred);
  ASSERT_TRUE(FlashAwareGet(*node, other, &block));
  EXPECT_NE(block.find("\r\nnew\r\n"), std::string::npos);
}

TEST_F(FlashServiceTest, RefusedStoreDropsTheFlashCopy) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "refused-key";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                 Payload("old")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  // Larger than any slot: refused, and the flash-resident older value
  // must not be served in its place.
  EXPECT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                 std::string(40 * 1024, 'h')),
            StoreStatus::kNotStored);
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
  std::string block;
  EXPECT_FALSE(FlashAwareGet(*node, key, &block));
}

TEST_F(FlashServiceTest, IncrDecrPromotesThenMutates) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "counter";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0, "41"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000, "41"));

  const ArithmeticResult result = FlashAwareIncrDecr(*node, key, 1, true);
  EXPECT_EQ(result.status, ArithmeticResult::Status::kOk);
  EXPECT_EQ(result.value, 42u);
  std::string block;
  ASSERT_TRUE(FlashAwareGet(*node, key, &block));
  EXPECT_NE(block.find("\r\n42\r\n"), std::string::npos);
  EXPECT_GE(node->service->TotalCounters().incr_hits, 1u);
}

// ---- tier-direct completions: no DRAM seat for the promote ----

/// memcached's policy until armed; armed, it refuses every MakeRoom, so a
/// full DRAM has no seat for a promote and the completion answers against
/// the tier.
class RefusingPolicy final : public AllocationPolicy {
 public:
  explicit RefusingPolicy(const bool* refuse) : refuse_(refuse) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "refusing";
  }
  void Attach(CacheEngine& engine) override {
    AllocationPolicy::Attach(engine);
    inner_.Attach(engine);
  }
  [[nodiscard]] bool MakeRoom(ClassId cls, SubclassId sub) override {
    return !*refuse_ && inner_.MakeRoom(cls, sub);
  }

 private:
  NoReallocPolicy inner_;
  const bool* refuse_;
};

// Every value is 20 bytes, so every item (fillers included) shares one
// size class and DRAM stays full once the fillers have demoted a key.
TEST_F(FlashServiceTest, RefusedPromoteAnswersAgainstTheTier) {
  TempDir dir;
  bool refuse = false;
  auto node = MakeNode(dir.path(), 256 * 1024, 0.0, false, 1,
                       [&refuse](Bytes bytes) {
                         EngineConfig cfg;
                         cfg.capacity_bytes = bytes;
                         return std::make_unique<CacheEngine>(
                             cfg, std::make_unique<RefusingPolicy>(&refuse));
                       });
  const std::string filler(20, 'f');
  const auto demote = [&](const std::string& key, const std::string& value) {
    refuse = false;
    ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 4321, 0, value),
              StoreStatus::kStored);
    const std::string before = GetsBlock(*node->service, key);
    ASSERT_TRUE(EvictToFlash(*node, key, 4321, filler));
    refuse = true;
    EXPECT_EQ(FlashSlotOf(*node, key)->cas, ParseCas(before));
  };

  // gets: value, flags and cas served from the tier; the slot stays.
  const std::string key = "direct-get";
  const std::string value = "0123456789abcdefghij";
  demote(key, value);
  const std::uint64_t cas = FlashSlotOf(*node, key)->cas;
  std::string block;
  ASSERT_TRUE(FlashAwareGet(*node, key, &block));
  EXPECT_EQ(block, "VALUE " + key + " 4321 20 " + std::to_string(cas) +
                       "\r\n" + value + "\r\n");
  ServiceCounters counters = node->service->TotalCounters();
  EXPECT_EQ(counters.flash_direct_serves, 1u);
  EXPECT_EQ(counters.flash_promotes, 0u);
  EXPECT_EQ(counters.flash_hits, 1u);
  EXPECT_EQ(counters.flash_penalty_saved_us, 4321u);
  ASSERT_NE(FlashSlotOf(*node, key), nullptr);
  EXPECT_EQ(FlashSlotOf(*node, key)->cas, cas);

  // gat: the slot's deadline moves; the value is served as before.
  {
    HeldBatch b;
    b.Add(Verb::kGat, key).exptime = 100;
    EXPECT_FALSE(b.Execute(*node->service));
    b.ReleaseAll();
    ASSERT_TRUE(b.completed());
    EXPECT_EQ(b.Reply(0), "VALUE " + key + " 4321 20\r\n" + value + "\r\n");
  }
  ASSERT_NE(FlashSlotOf(*node, key), nullptr);
  EXPECT_EQ(FlashSlotOf(*node, key)->expire_at_ns,
            node->clock.NowNanos() + 100LL * 1'000'000'000);
  counters = node->service->TotalCounters();
  EXPECT_EQ(counters.touch_hits, 1u);
  EXPECT_EQ(counters.flash_direct_serves, 2u);

  // incr: a new record under a new cas, and the new value in the reply.
  const std::string ctr = "direct-ctr";
  demote(ctr, "10000000000000000041");
  const std::uint64_t ctr_cas = FlashSlotOf(*node, ctr)->cas;
  const ArithmeticResult result = FlashAwareIncrDecr(*node, ctr, 1, true);
  EXPECT_EQ(result.status, ArithmeticResult::Status::kOk);
  EXPECT_EQ(result.value, 10000000000000000042u);
  ASSERT_NE(FlashSlotOf(*node, ctr), nullptr);
  const std::uint64_t new_cas = FlashSlotOf(*node, ctr)->cas;
  EXPECT_GT(new_cas, ctr_cas);
  ASSERT_TRUE(FlashAwareGet(*node, ctr, &block));
  EXPECT_EQ(block, "VALUE " + ctr + " 4321 20 " + std::to_string(new_cas) +
                       "\r\n10000000000000000042\r\n");
  counters = node->service->TotalCounters();
  EXPECT_EQ(counters.incr_hits, 1u);
  EXPECT_EQ(counters.flash_direct_serves, 4u);

  // append: refused, and the flash copy stands unchanged.
  const std::string cat = "direct-cat";
  demote(cat, "abcdefghij0123456789");
  const std::uint64_t cat_cas = FlashSlotOf(*node, cat)->cas;
  bool deferred = false;
  EXPECT_EQ(RunStore(*node, Verb::kAppend, cat, 0, "-tail", 0, &deferred),
            "NOT_STORED\r\n");
  EXPECT_TRUE(deferred);
  ASSERT_NE(FlashSlotOf(*node, cat), nullptr);
  EXPECT_EQ(FlashSlotOf(*node, cat)->cas, cat_cas);
  ASSERT_TRUE(FlashAwareGet(*node, cat, &block));
  EXPECT_EQ(block, "VALUE " + cat + " 4321 20 " + std::to_string(cat_cas) +
                       "\r\nabcdefghij0123456789\r\n");
  EXPECT_EQ(node->service->TotalCounters().flash_promotes, 0u);
}

// ---- lapses ----

TEST_F(FlashServiceTest, DeleteAndFlushKillFlashResidents) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "dead-key";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                 Payload("doomed")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  EXPECT_TRUE(ops::Del(*node->service, key));
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
  std::string block;
  EXPECT_FALSE(FlashAwareGet(*node, key, &block));

  const std::string key2 = "flushed-key";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key2, 2000, 0,
                                 Payload("doomed2")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key2, 2000));
  node->service->FlushAll();
  node->Advance(1'000'000'000);
  EXPECT_FALSE(FlashAwareGet(*node, key2, &block));
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key2)), nullptr);
}

TEST_F(FlashServiceTest, TtlLapsesOnFlashSlot) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "ttl-key";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, /*exptime_s=*/30,
                                 Payload("short-lived")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  ASSERT_NE(node->tier->Find(0, HashStringKey(key)), nullptr);
  // Before the deadline: still a flash hit.
  node->Advance(10LL * 1'000'000'000);
  std::string block;
  EXPECT_TRUE(FlashAwareGet(*node, key, &block));
  // Re-evict, then cross the deadline: the slot lapses like a DRAM entry.
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  node->Advance(60LL * 1'000'000'000);
  EXPECT_FALSE(FlashAwareGet(*node, key, &block));
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
}

// ---- in-flight read races ----

TEST_F(FlashServiceTest, DeleteWhileReadInFlightIsNotResurrected) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "race-del";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                 Payload("stale")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  std::string block;
  const bool hit = FlashAwareGet(*node, key, &block, [&] {
    EXPECT_TRUE(ops::Del(*node->service, key));
  });
  EXPECT_FALSE(hit);
  EXPECT_TRUE(block.empty());
  // And it stays dead: the completed read must not have re-seated it.
  EXPECT_FALSE(FlashAwareGet(*node, key, &block));
  EXPECT_EQ(node->tier->Find(0, HashStringKey(key)), nullptr);
}

TEST_F(FlashServiceTest, OverwriteWhileReadInFlightServesNewValue) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "race-set";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                 Payload("stale")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  std::string block;
  const bool hit = FlashAwareGet(*node, key, &block, [&] {
    ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                   Payload("fresh")),
              StoreStatus::kStored);
  });
  EXPECT_TRUE(hit);
  EXPECT_NE(block.find(Payload("fresh")), std::string::npos);
  EXPECT_EQ(block.find(Payload("stale")), std::string::npos);
  // The race was detected, not served from flash.
  EXPECT_EQ(node->service->TotalCounters().flash_hits, 0u);
}

TEST_F(FlashServiceTest, FlushWhileReadInFlightMisses) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "race-flush";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                 Payload("flushed")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));
  std::string block;
  const bool hit = FlashAwareGet(*node, key, &block, [&] {
    node->service->FlushAll();
    node->Advance(1'000'000'000);
  });
  EXPECT_FALSE(hit);
}

TEST_F(FlashServiceTest, IncrVsDeleteRaceAnswersNotFound) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "race-incr";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0, "100"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000, "100"));
  const ArithmeticResult result = FlashAwareIncrDecr(
      *node, key, 5, true, [&] { EXPECT_TRUE(ops::Del(*node->service, key)); });
  EXPECT_EQ(result.status, ArithmeticResult::Status::kNotFound);
  std::string block;
  EXPECT_FALSE(FlashAwareGet(*node, key, &block));
}

#if PAMAKV_FAILPOINTS
// The same incr-vs-delete race, but genuinely concurrent: the flash.read
// sleep failpoint holds the IO-thread read in flight while the main
// thread deletes the key underneath it.
TEST_F(FlashServiceTest, ThreadedIncrVsDeleteRaceWithSleepFailpoint) {
  TempDir dir;
  auto node = MakeNode(dir.path(), 256 * 1024, 0.0, /*io_thread=*/true);
  node->tier->StartIo();
  const std::string key = "race-threaded";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0, "7"),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000, "7"));

  // The read sleeps on the IO thread; its completion is posted to this
  // thread (the batch's home), which runs it after the delete.
  ASSERT_TRUE(util::FailPoints::Arm("flash.read", "sleep:100"));
  HeldBatch b;
  b.Add(Verb::kIncr, key).delta = 1;
  ASSERT_FALSE(b.Execute(*node->service));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(ops::Del(*node->service, key));
  ASSERT_TRUE(b.WaitHeld(std::chrono::seconds(10)));
  util::FailPoints::DisableAll();
  b.ReleaseAll();
  ASSERT_TRUE(b.completed());
  EXPECT_EQ(ParseArithmetic(b.Reply(0)).status,
            ArithmeticResult::Status::kNotFound);
  node->tier->StopIo();
}
#endif  // PAMAKV_FAILPOINTS

// ---- request order around a deferred op ----

/// A key whose id routes to `shard` (probing `prefix`0, `prefix`1, ...).
std::string KeyOnShard(Node& node, const std::string& prefix,
                       std::size_t shard) {
  for (int i = 0;; ++i) {
    std::string key = prefix + std::to_string(i);
    if (node.service->ShardIndexForId(HashStringKey(key)) == shard) return key;
  }
}

/// A detached connection whose flash completions are held by the test.
struct HeldConnection {
  explicit HeldConnection(CacheService& service, int fd = -1)
      : conn(service, fd) {
    conn.set_home(
        [this](std::function<void()> fn) { held.push_back(std::move(fn)); },
        nullptr);
  }
  /// Runs the held completion at `i`.
  void Release(std::size_t i = 0) {
    std::function<void()> fn = std::move(held[i]);
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    fn();
  }
  std::string TakeOutput() {
    std::string out(conn.pending_output());
    conn.ConsumeOutput(out.size());
    return out;
  }
  Connection conn;
  std::vector<std::function<void()>> held;
};

std::string ValueBlock(const std::string& key, std::uint32_t flags,
                       const std::string& value) {
  return "VALUE " + key + " " + std::to_string(flags) + " " +
         std::to_string(value.size()) + "\r\n" + value + "\r\n";
}

// A deferred op holds back the later ops of its shard: in one pipelined
// batch, the first get of a flash-resident key must serve the old value
// even though a set of the same key follows it, and a multi-key get with
// one flash-resident key keeps its VALUE blocks in key order. Were the
// set allowed to run ahead, the completion's cas pin would see the newer
// DRAM copy and serve it to the first get.
TEST_F(FlashServiceTest, DeferralKeepsRequestOrderWithinAShard) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string old_value = Payload("old");
  const std::string on_flash = Payload("second");
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, "k", 2000, 0, old_value),
            StoreStatus::kStored);
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, "k2", 2000, 0, on_flash),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, "k", 2000));
  ASSERT_TRUE(EvictToFlash(*node, "k2", 2000));
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, "a", 2000, 0,
                       Payload("alpha")),
            StoreStatus::kStored);
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, "b", 2000, 0,
                       Payload("bravo")),
            StoreStatus::kStored);
  ASSERT_NE(FlashSlotOf(*node, "k"), nullptr);
  ASSERT_NE(FlashSlotOf(*node, "k2"), nullptr);

  HeldConnection c(*node->service);
  const std::string new_value = Payload("new");
  const std::string script = "get k\r\nset k 2000 0 " +
                             std::to_string(new_value.size()) + "\r\n" +
                             new_value + "\r\nget k\r\nget a k2 b\r\n";
  c.conn.Ingest(script.data(), script.size());
  // k's read is pending and every later op (one shard) waits behind it.
  ASSERT_TRUE(c.conn.batch_in_flight());
  EXPECT_TRUE(c.TakeOutput().empty());
  std::size_t most_held = 0;
  while (c.conn.batch_in_flight() && !c.held.empty()) {
    most_held = std::max(most_held, c.held.size());
    c.Release();
  }
  EXPECT_FALSE(c.conn.batch_in_flight());
  EXPECT_EQ(most_held, 1u);  // one deferral at a time in a shard
  EXPECT_EQ(c.TakeOutput(),
            ValueBlock("k", 2000, old_value) + "END\r\nSTORED\r\n" +
                ValueBlock("k", 2000, new_value) + "END\r\n" +
                ValueBlock("a", 2000, Payload("alpha")) + ValueBlock("k2", 2000, on_flash) +
                ValueBlock("b", 2000, Payload("bravo")) + "END\r\n");
  EXPECT_EQ(node->service->TotalCounters().flash_hits, 2u);
}

// Deferred ops on two shards whose completions land in the opposite order:
// each shard resumes its own ops when its read lands, and the replies
// still leave in request order once both are done.
TEST_F(FlashServiceTest, CompletionsOutOfOrderAcrossShardsKeepRequestOrder) {
  TempDir dir;
  auto node = MakeNode(dir.path(), 512 * 1024, 0.0, false, /*shards=*/2);
  const std::string k0 = KeyOnShard(*node, "f0-", 0);
  const std::string k1 = KeyOnShard(*node, "f1-", 1);
  const std::string d0 = KeyOnShard(*node, "d0-", 0);
  const std::string d1 = KeyOnShard(*node, "d1-", 1);
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, k0, 2000, 0, Payload(k0)),
            StoreStatus::kStored);
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, k1, 2000, 0, Payload(k1)),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, k0, 2000));
  ASSERT_TRUE(EvictToFlash(*node, k1, 2000));
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, d0, 2000, 0,
                       Payload("zero")),
            StoreStatus::kStored);
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, d1, 2000, 0,
                       Payload("one")),
            StoreStatus::kStored);

  HeldConnection c(*node->service);
  const std::string script = "get " + k0 + "\r\nget " + d0 + "\r\nget " +
                             k1 + "\r\nincr " + d1 + " 1\r\nget " + d1 +
                             "\r\n";
  c.conn.Ingest(script.data(), script.size());
  ASSERT_TRUE(c.conn.batch_in_flight());
  ASSERT_EQ(c.held.size(), 2u);  // one read per shard, both in flight
  c.Release(1);                  // shard 1's read lands first
  EXPECT_TRUE(c.conn.batch_in_flight());
  EXPECT_TRUE(c.TakeOutput().empty());
  c.Release(0);
  EXPECT_FALSE(c.conn.batch_in_flight());
  EXPECT_EQ(c.TakeOutput(),
            ValueBlock(k0, 2000, Payload(k0)) + "END\r\n" +
                ValueBlock(d0, 2000, Payload("zero")) + "END\r\n" +
                ValueBlock(k1, 2000, Payload(k1)) + "END\r\n" +
                "CLIENT_ERROR cannot increment or decrement non-numeric "
                "value\r\n" +
                ValueBlock(d1, 2000, Payload("one")) + "END\r\n");
}

// ---- receive-buffer bound while a batch waits ----

// A client that keeps writing while its batch waits on a flash read must
// not grow the receive buffer without limit: reading stops once
// kInFlightRxBytes are buffered behind the batch, and resumes when it
// completes. 64 MiB of pipelined gets pass through a buffer that never
// exceeds a few hundred KiB.
TEST_F(FlashServiceTest, ReadingStopsBehindABatchWaitingOnFlash) {
  TempDir dir;
  auto node = MakeNode(dir.path());
  const std::string key = "slow-key";
  ASSERT_EQ(ops::Store(*node->service, Verb::kSet, key, 2000, 0,
                                 Payload("slow")),
            StoreStatus::kStored);
  ASSERT_TRUE(EvictToFlash(*node, key, 2000));

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL) | O_NONBLOCK), 0);
  HeldConnection c(*node->service, sv[0]);  // owns sv[0]

  // The writer: the flash get, then 64 MiB of gets for one absent key.
  const std::string filler = "get " + std::string(200, 'm') + "\r\n";
  constexpr std::size_t kPushBytes = 64u << 20;
  const std::size_t fillers = kPushBytes / filler.size() + 1;
  std::thread writer([&, fd = sv[1]] {
    std::string block = "get " + key + "\r\n";
    for (std::size_t sent = 0; sent < fillers;) {
      for (; sent < fillers && block.size() < 64 * 1024; ++sent) {
        block += filler;
      }
      for (std::size_t off = 0; off < block.size();) {
        const ssize_t n = ::send(fd, block.data() + off, block.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
          ::close(fd);
          return;  // the reader went away
        }
        off += static_cast<std::size_t>(n);
      }
      block.clear();
    }
    ::close(fd);
  });
  struct JoinOnExit {
    std::thread& t;
    int fd;
    ~JoinOnExit() {
      ::shutdown(fd, SHUT_RDWR);  // unblocks a writer stuck on a full socket
      t.join();
    }
  } join_on_exit{writer, sv[0]};

  // Phase 1: the read is held. The connection reads until the buffered
  // input reaches the bound, then leaves the rest in the socket.
  const auto deadline = std::chrono::steady_clock::now() + 200ms;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(c.conn.OnReadable(), IoStatus::kOk);
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(c.conn.batch_in_flight());
  ASSERT_EQ(c.held.size(), 1u);
  EXPECT_TRUE(c.conn.rx_full());
  constexpr std::size_t kReadChunk = 16 * 1024;
  constexpr std::size_t kRxCeiling = 4 * (Connection::kInFlightRxBytes +
                                          kReadChunk);
  EXPECT_LE(c.conn.rx_capacity(), kRxCeiling);

  // Phase 2: release the read; everything else flows through.
  c.Release();
  std::size_t out_bytes = 0;
  while (true) {
    const IoStatus status = c.conn.OnReadable();
    out_bytes += c.TakeOutput().size();
    while (!c.held.empty()) c.Release();
    if (status == IoStatus::kClosed) break;
    ASSERT_LE(c.conn.rx_capacity(), kRxCeiling);
    std::this_thread::sleep_for(100us);
  }
  out_bytes += c.TakeOutput().size();
  EXPECT_LE(c.conn.rx_capacity(), kRxCeiling);
  EXPECT_EQ(out_bytes, ValueBlock(key, 2000, Payload("slow")).size() +
                           (fillers + 1) * std::string("END\r\n").size());
}

// ---- recovery ----

TEST_F(FlashServiceTest, RecoveryServesFlashResidentsAndHonorsTombstones) {
  TempDir dir;
  std::uint64_t original_cas = 0;
  const std::string keep = "recover-keep";
  const std::string gone = "recover-gone";
  {
    auto node = MakeNode(dir.path());
    ASSERT_EQ(ops::Store(*node->service, Verb::kSet, keep, 3333, 0,
                                   Payload("survivor")),
              StoreStatus::kStored);
    original_cas = ParseCas(GetsBlock(*node->service, keep));
    ASSERT_NE(original_cas, 0u);
    ASSERT_EQ(ops::Store(*node->service, Verb::kSet, gone, 3333, 0,
                                   Payload("deleted")),
              StoreStatus::kStored);
    ASSERT_TRUE(EvictToFlash(*node, keep, 3333));
    ASSERT_TRUE(EvictToFlash(*node, gone, 3333));
    EXPECT_TRUE(ops::Del(*node->service, gone));  // tombstoned on flash
  }
  auto warm = MakeNode(dir.path());
  EXPECT_GT(warm->tier->shard_stats(0).recovered_items, 0u);
  ASSERT_NE(warm->tier->Find(0, HashStringKey(keep)), nullptr);
  EXPECT_EQ(warm->tier->Find(0, HashStringKey(gone)), nullptr);

  std::string block;
  ASSERT_TRUE(FlashAwareGet(*warm, keep, &block));
  EXPECT_NE(block.find(Payload("survivor")), std::string::npos);
  EXPECT_EQ(ParseCas(block), original_cas);
  EXPECT_FALSE(FlashAwareGet(*warm, gone, &block));

  // cas_counter was bumped past every recovered record: a fresh store's
  // stamp is strictly newer than the flash-resident survivor's.
  ASSERT_EQ(ops::Store(*warm->service, Verb::kSet, "fresh-key", 1, 0, "x"),
            StoreStatus::kStored);
  EXPECT_GT(ParseCas(GetsBlock(*warm->service, "fresh-key")), original_cas);
}

}  // namespace
}  // namespace pamakv::net
