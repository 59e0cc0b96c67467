// String-key hashing, and the key verification the server's CacheService
// performs on top of it: the stored key bytes in an item's slot decide
// whether a 64-bit id match is really the requested key.
#include "pamakv/cache/string_keys.hpp"

#include <gtest/gtest.h>

#include <set>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/policy/no_realloc.hpp"
#include "service_ops.hpp"

namespace pamakv {
namespace {

using net::CacheService;
using net::CacheServiceConfig;

std::unique_ptr<CacheService> MakeService(Bytes capacity = 4ULL * 1024 * 1024) {
  CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = capacity;
  return std::make_unique<CacheService>(cfg, [](Bytes bytes) {
    EngineConfig ecfg;
    ecfg.capacity_bytes = bytes;
    return std::make_unique<CacheEngine>(ecfg,
                                         std::make_unique<NoReallocPolicy>());
  });
}

bool Hit(CacheService& svc, std::string_view key) {
  std::vector<char> out;
  return net::ops::Get(svc, key, out, /*with_cas=*/false);
}

std::string Value(CacheService& svc, std::string_view key) {
  std::vector<char> out;
  if (!net::ops::Get(svc, key, out, /*with_cas=*/false)) return {};
  return std::string(out.begin(), out.end());
}

TEST(StringKeyTest, HashIsDeterministicAndSpreads) {
  EXPECT_EQ(HashStringKey("user:42"), HashStringKey("user:42"));
  std::set<KeyId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.insert(HashStringKey("key:" + std::to_string(i)));
  }
  EXPECT_EQ(ids.size(), 10000u);
}

TEST(StringKeyTest, EmptyAndBinaryKeysWork) {
  EXPECT_NE(HashStringKey(""), HashStringKey(std::string_view("\0", 1)));
  EXPECT_NE(HashStringKey("a"), HashStringKey("b"));
}

TEST(StringKeyTest, SetGetDelRoundTrip) {
  auto svc = MakeService();
  EXPECT_TRUE(
      net::ops::Set(*svc, "session:alice", 30'000, std::string(200, 'a')));
  EXPECT_TRUE(Hit(*svc, "session:alice"));
  EXPECT_FALSE(Hit(*svc, "session:bob"));
  EXPECT_TRUE(net::ops::Del(*svc, "session:alice"));
  EXPECT_FALSE(Hit(*svc, "session:alice"));
  EXPECT_FALSE(net::ops::Del(*svc, "session:alice"));
}

TEST(StringKeyTest, ManyKeysNoFalseHits) {
  auto svc = MakeService();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(net::ops::Set(*svc, "item/" + std::to_string(i), 1000, "v"));
  }
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(Hit(*svc, "item/" + std::to_string(i))) << i;
  }
  for (int i = 2000; i < 4000; ++i) {
    EXPECT_FALSE(Hit(*svc, "item/" + std::to_string(i))) << i;
  }
  EXPECT_EQ(svc->CollisionsResolved(), 0u);
}

TEST(StringKeyTest, UpdatesKeepOneCopy) {
  auto svc = MakeService();
  ASSERT_TRUE(net::ops::Set(*svc, "k", 1000, std::string(20, 'x')));
  // A larger value moves the item to a bigger class: still one copy.
  ASSERT_TRUE(net::ops::Set(*svc, "k", 2000, std::string(300, 'y')));
  EXPECT_EQ(svc->ItemCount(), 1u);
  EXPECT_EQ(Value(*svc, "k"), "VALUE k 2000 300\r\n" + std::string(300, 'y') +
                                  "\r\n");
}

TEST(StringKeyTest, DelThenReinsertRoundTrip) {
  auto svc = MakeService();
  ASSERT_TRUE(net::ops::Set(*svc, "churn", 1000, "one"));
  ASSERT_TRUE(net::ops::Del(*svc, "churn"));
  EXPECT_FALSE(Hit(*svc, "churn"));
  // Reinsert after delete must behave like a fresh store, not an update.
  ASSERT_TRUE(net::ops::Set(*svc, "churn", 2000, "two"));
  EXPECT_EQ(Value(*svc, "churn"), "VALUE churn 2000 3\r\ntwo\r\n");
  EXPECT_EQ(svc->TotalStats().set_updates, 0u);
  EXPECT_EQ(svc->ItemCount(), 1u);
  EXPECT_EQ(svc->CollisionsResolved(), 0u);
}

// Real 64-bit collisions are astronomically unlikely, so the collision
// path is exercised by planting an item directly in the engine under the
// id that a string hashes to, without the service writing its key bytes —
// exactly the state a collision would produce (the id is occupied by an
// item whose stored key doesn't match).
TEST(StringKeyTest, GetResolvesCollisionAsMissAndDropsSquatter) {
  auto svc = MakeService();
  CacheEngine& engine = svc->shard_engine(0);
  const KeyId id = HashStringKey("victim");
  ASSERT_TRUE(engine.Set(id, 64, 1000).stored);
  ASSERT_TRUE(engine.Contains(id));

  // The squatter must not be served as a hit for "victim".
  EXPECT_FALSE(Hit(*svc, "victim"));
  EXPECT_EQ(svc->CollisionsResolved(), 1u);
  // ...and it is gone: the id is free for the verified owner.
  EXPECT_FALSE(engine.Contains(id));
  ASSERT_TRUE(net::ops::Set(*svc, "victim", 1000, "mine"));
  EXPECT_EQ(Value(*svc, "victim"), "VALUE victim 1000 4\r\nmine\r\n");
  EXPECT_EQ(svc->CollisionsResolved(), 1u);  // no further collisions
}

TEST(StringKeyTest, DelOfCollidingNameAnswersNotFoundAndDropsSquatter) {
  auto svc = MakeService();
  CacheEngine& engine = svc->shard_engine(0);
  const KeyId id = HashStringKey("victim");
  ASSERT_TRUE(engine.Set(id, 64, 1000).stored);

  // DEL of a name whose id is occupied by someone else never reports the
  // stranger as deleted; the squatter is dropped like on every verb.
  EXPECT_FALSE(net::ops::Del(*svc, "victim"));
  EXPECT_EQ(svc->CollisionsResolved(), 1u);
  EXPECT_FALSE(engine.Contains(id));
}

TEST(StringKeyTest, SetResolvesCollisionThenOwnsTheId) {
  auto svc = MakeService();
  CacheEngine& engine = svc->shard_engine(0);
  const KeyId id = HashStringKey("victim");
  ASSERT_TRUE(engine.Set(id, 64, 1000).stored);

  ASSERT_TRUE(net::ops::Set(*svc, "victim", 2000, std::string(96, 'v')));
  EXPECT_EQ(svc->CollisionsResolved(), 1u);
  EXPECT_TRUE(Hit(*svc, "victim"));
  EXPECT_EQ(svc->ItemCount(), 1u);
}

TEST(StringKeyTest, StatsFlowThrough) {
  CacheServiceConfig cfg;
  auto svc = MakeService();
  ASSERT_TRUE(net::ops::Set(*svc, "x", 1000, "v"));
  EXPECT_TRUE(Hit(*svc, "x"));
  EXPECT_FALSE(Hit(*svc, "y"));
  const CacheStats stats = svc->TotalStats();
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.get_hits, 1u);
  // "y" is on no ghost list: the miss is charged the configured default.
  EXPECT_EQ(stats.miss_penalty_total_us,
            static_cast<std::uint64_t>(cfg.default_penalty_us));
}

}  // namespace
}  // namespace pamakv
