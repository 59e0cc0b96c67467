// Shard-affinity ordering/equivalence suite (DESIGN.md §12).
//
// Every command runs as a batch: CacheService::ExecuteBatch groups a
// connection's staged ops by shard and runs each shard's ops in request
// order under that shard's lock. That re-orders *execution* across shards
// but must never re-order *observation*: the response stream of a
// pipelined connection has to be byte-identical to executing the commands
// one at a time, and every shard engine has to end in exactly that
// state. The reference is the golden corpus captured from the serial
// per-command path before it was deleted (affinity_golden.hpp): reply
// bytes per fed chunk plus a digest of every shard's EngineSnapshot and
// the service counters. Four layers of proof:
//
//  * a handcrafted pipeline covering every verb family, the barrier verbs,
//    parse errors, noreply, an oversized store and a bad data chunk;
//  * a 400-deep cross-shard pipeline served from a loop thread, with
//    per-op sleep injection (chaos builds) skewing group latencies;
//  * a seeded random property test driving the same op stream inline and
//    from a loop thread, compared chunk by chunk. The seed is printed and
//    replayable via PAMAKV_AFFINITY_SEED (seeds outside the corpus only
//    compare the two executions with each other);
//  * a pipeline fed one byte at a time.
//
// All services run on paused FakeClocks (advanced only while quiescent),
// so one clock read per shard group is observationally identical to one
// read per op — which is exactly the invariant that makes it legal.

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/connection.hpp"
#include "pamakv/net/event_loop.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/failpoint.hpp"
#include "affinity_golden.hpp"

namespace pamakv::net {
namespace {

using namespace std::chrono_literals;
using golden::MakeService;

/// One event loop on its own thread (its timers use the real SteadyClock —
/// the service under test keeps its FakeClock).
class LoopThread {
 public:
  LoopThread() : thread_([this] { loop_.Run(); }) {}
  ~LoopThread() {
    loop_.Stop();
    thread_.join();
  }
  [[nodiscard]] EventLoop& loop() { return loop_; }

 private:
  EventLoop loop_;
  std::thread thread_;
};

/// Drives a Connection: Ingest runs on the home loop (or inline when
/// there is none) and Feed blocks until every batch the input staged has
/// completed and been sequenced.
class BatchedHarness {
 public:
  BatchedHarness(CacheService& service, EventLoop* home, std::size_t depth)
      : conn_(service), home_(home) {
    conn_.set_batch_depth(depth);
    if (home != nullptr) {
      conn_.set_home(
          [home](std::function<void()> fn) { home->Post(std::move(fn)); },
          [this] {
            if (!conn_.batch_in_flight()) Signal();
          });
    }
  }

  void Feed(std::string_view data) {
    if (home_ == nullptr) {
      conn_.Ingest(data.data(), data.size());
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = false;
    }
    home_->Post([this, data] {
      conn_.Ingest(data.data(), data.size());
      if (!conn_.batch_in_flight()) Signal();
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
  }

  std::string TakeOutput() {
    std::string out(conn_.pending_output());
    conn_.ConsumeOutput(out.size());
    return out;
  }

  [[nodiscard]] Connection& conn() { return conn_; }

 private:
  void Signal() {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
  }

  Connection conn_;
  EventLoop* home_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = true;
};

/// The reply without `STAT failpoint.*` lines. Failpoint builds append
/// one per failpoint tripped so far in the process, so they depend on
/// which tests ran before; the corpus comes from a build without them.
std::string WithoutFailpointStats(std::string reply) {
#if PAMAKV_FAILPOINTS
  constexpr std::string_view kLine = "STAT failpoint.";
  for (std::size_t at = reply.find(kLine); at != std::string::npos;
       at = reply.find(kLine, at)) {
    reply.erase(at, reply.find("\r\n", at) + 2 - at);
  }
#endif
  return reply;
}

/// The connection's replies, close decision and service state after one
/// fed chunk must be what the serial path recorded for it.
void ExpectStep(const golden::Step& want, const std::string& reply,
                BatchedHarness& harness, CacheService& service) {
  EXPECT_EQ(want.reply, WithoutFailpointStats(reply));
  EXPECT_EQ(want.closing, harness.conn().closing());
  EXPECT_EQ(want.state, golden::StateDigest(service));
}

std::vector<golden::Step> LoadSteps(const std::string& name) {
  std::vector<golden::Step> steps;
  EXPECT_TRUE(golden::ReadCapture(name, &steps));
  return steps;
}

// ---------------------------------------------------------------------------
// Handcrafted full-surface pipeline: every verb family, noreply, multi-key
// retrieval, barrier verbs mid-stream, a parse error and a cas race; then
// an oversized store (swallowed, the connection survives) and a bad data
// chunk (fatal) — byte for byte against the serial path's replies.
TEST(ShardAffinityTest, BatchedInlineMatchesSerialByteForByte) {
  const std::vector<golden::Step> want = LoadSteps("full_surface");
  ASSERT_EQ(want.size(), 3u);
  util::FakeClock clock(1'000'000'000);
  auto svc = MakeService(&clock, 4);
  BatchedHarness batched(*svc, nullptr, 8);

  const std::string scripts[] = {golden::FullSurfaceScript(),
                                 golden::OversizedStoreScript(),
                                 golden::BadChunkScript()};
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("script " + std::to_string(i));
    batched.Feed(scripts[i]);
    ExpectStep(want[i], batched.TakeOutput(), batched, *svc);
  }
  EXPECT_GT(svc->Batches(), 0u);
  EXPECT_TRUE(batched.conn().closing());
}

// ---------------------------------------------------------------------------
// A 400-deep mixed pipeline whose keys fan out across all 8 shards, served
// from a loop thread in batches of 32. Chaos builds add randomized per-op
// sleeps so group latencies are skewed, yet the response stream must equal
// the serial reference in both content and order.
TEST(ShardAffinityTest, CrossShardPipelineKeepsRequestOrder) {
  const std::vector<golden::Step> want = LoadSteps("cross_shard");
  ASSERT_EQ(want.size(), 1u);
  util::FakeClock clock(1'000'000'000);
  auto svc = MakeService(&clock, 8);
  LoopThread home;

#if PAMAKV_FAILPOINTS
  // ~5% of batched ops stall 1ms; the injection point lives in the
  // batch executor.
  ASSERT_TRUE(util::FailPoints::Arm("svc.batch", "sleep:1@p:0.05:42"));
#endif

  BatchedHarness batched(*svc, &home.loop(), 32);
  batched.Feed(golden::CrossShardScript());
  const std::string got = batched.TakeOutput();

#if PAMAKV_FAILPOINTS
  util::FailPoints::DisableAll();
#endif

  ASSERT_EQ(want[0].reply.size(), got.size());
  ExpectStep(want[0], got, batched, *svc);
  // The pipeline really ran as many multi-shard batches.
  EXPECT_GE(svc->Batches(), 400u / 32);
}

// ---------------------------------------------------------------------------
// Seeded random equivalence property. One op stream (all verb families,
// TTLs that really expire, cas races, noreply, barriers, parse errors)
// runs inline and from a loop thread; both must produce the serial path's
// wire bytes per chunk and its state after every chunk. Seeds are printed
// and replayable:
//   PAMAKV_AFFINITY_SEED=<n> ctest -R SeededRandomOps
TEST(ShardAffinityTest, SeededRandomOpsAreEquivalentOnAllPaths) {
  constexpr std::size_t kShards = 5;  // odd on purpose
  std::vector<std::uint64_t> seeds = {11, 42, 1337};
  if (const char* env = std::getenv("PAMAKV_AFFINITY_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }

  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::fprintf(stderr,
                 "# affinity equivalence seed=%llu (replay: "
                 "PAMAKV_AFFINITY_SEED=%llu)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed));
    const std::vector<std::string> stream =
        golden::RandomStream(seed, /*chunks=*/6, /*ops_per_chunk=*/400);
    std::vector<golden::Step> want;
    const bool in_corpus = seed == 11 || seed == 42 || seed == 1337;
    if (in_corpus) {
      want = LoadSteps("random_seed_" + std::to_string(seed));
      ASSERT_EQ(want.size(), stream.size());
    }

    util::FakeClock inline_clock(1'000'000'000);
    util::FakeClock loop_clock(1'000'000'000);
    auto inline_svc = MakeService(&inline_clock, kShards);
    auto loop_svc = MakeService(&loop_clock, kShards);
    BatchedHarness inline_conn(*inline_svc, nullptr, 16);
    LoopThread home;
    BatchedHarness loop_conn(*loop_svc, &home.loop(), 16);

    for (std::size_t c = 0; c < stream.size(); ++c) {
      SCOPED_TRACE("chunk " + std::to_string(c));
      inline_conn.Feed(stream[c]);
      const std::string inline_reply = inline_conn.TakeOutput();
      loop_conn.Feed(stream[c]);
      const std::string loop_reply = loop_conn.TakeOutput();
      if (in_corpus) {
        ExpectStep(want[c], inline_reply, inline_conn, *inline_svc);
        ExpectStep(want[c], loop_reply, loop_conn, *loop_svc);
      } else {
        EXPECT_EQ(inline_reply, loop_reply);
        EXPECT_EQ(golden::StateDigest(*inline_svc),
                  golden::StateDigest(*loop_svc));
      }
      // Advance both clocks identically while quiescent: TTLs of 1–3s
      // (and the flush_all 2 epochs) really expire between chunks, on
      // exactly the same boundary everywhere.
      inline_clock.Advance(1500ms);
      loop_clock.Advance(1500ms);
    }
  }
}

// ---------------------------------------------------------------------------
// Partial writes: a pipelined stream fed one byte at a time must stage,
// dispatch and sequence exactly as the serial path answered it whole —
// the staging scanner may not consume half commands or dispatch early in
// a way that changes bytes.
TEST(ShardAffinityTest, BytewiseFeedMatchesWholeFeed) {
  const std::vector<golden::Step> want = LoadSteps("bytewise");
  ASSERT_EQ(want.size(), 1u);
  util::FakeClock clock(1'000'000'000);
  auto svc = MakeService(&clock, 4);
  BatchedHarness batched(*svc, nullptr, 8);

  for (const char byte : golden::BytewiseScript()) {
    batched.Feed(std::string_view(&byte, 1));
  }
  ExpectStep(want[0], batched.TakeOutput(), batched, *svc);
}

#if PAMAKV_FAILPOINTS
// ---------------------------------------------------------------------------
// bad_alloc inside a batched storage op degrades in-band: SERVER_ERROR,
// the connection survives, every other op in the batch unaffected.
TEST(ShardAffinityTest, OomInsideBatchDegradesLikeSerial) {
  util::FakeClock clock(1'000'000'000);
  auto svc = MakeService(&clock, 4);
  BatchedHarness batched(*svc, nullptr, 8);

  std::string warm = "set a 0 0 1\r\nx\r\n";
  batched.Feed(warm);
  EXPECT_EQ("STORED\r\n", batched.TakeOutput());

  // svc.store_bytes throws while staging the value bytes of the next
  // store; the op fails in-band and the batch keeps going.
  ASSERT_TRUE(util::FailPoints::Arm("svc.store_bytes", "oom@once"));
  std::string script;
  script += "get a\r\n";
  script += "set victim 0 0 600\r\n" + std::string(600, 'v') + "\r\n";
  script += "get a\r\n";
  batched.Feed(script);
  util::FailPoints::DisableAll();

  const std::string got = batched.TakeOutput();
  const std::string value_block = "VALUE a 0 1\r\nx\r\nEND\r\n";
  EXPECT_EQ(value_block + std::string(kStoreOomReply) + value_block, got);
  EXPECT_FALSE(batched.conn().closing());

  // A non-storage op hitting OOM (svc.batch point) fails the batch and
  // closes the connection: it cannot answer coherently mid-stream.
  ASSERT_TRUE(util::FailPoints::Arm("svc.batch", "oom@once"));
  std::string fatal = "get a\r\n";
  batched.Feed(fatal);
  util::FailPoints::DisableAll();
  EXPECT_TRUE(batched.conn().closing());
}
#endif  // PAMAKV_FAILPOINTS

}  // namespace
}  // namespace pamakv::net
