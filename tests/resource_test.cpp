// Resource bounds: configuration bounds what the server holds.
//
// Item bytes live in the engines' slab arenas, so once --capacity-mb is
// full a workload of ever-new keys recycles slots instead of growing the
// process. Every structure that grows with keys (hash index, ghost
// locator, item table) is bounded by the arena's slots or the ghost
// lists' capacity. Runs in its own process (the `resource` label) so the
// resident-set reading is this workload's alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/client.hpp"
#include "pamakv/net/server.hpp"
#include "pamakv/sim/experiment.hpp"

#if defined(__SANITIZE_ADDRESS__)
// AddressSanitizer parks freed heap chunks in a quarantine (256 MB by
// default) that the resident set counts. The bound is on live memory, so
// this binary runs with the quarantine off.
extern "C" const char* __asan_default_options() {
  return "quarantine_size_mb=0";
}
#endif

namespace pamakv::net {
namespace {

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  ADD_FAILURE() << "no VmRSS in /proc/self/status";
  return 0.0;
}

TEST(ResourceBoundTest, UniqueKeyChurnRssStopsGrowingOnceArenaIsFull) {
  // pamakv-server --capacity-mb=8 with its default policy and shards.
  CacheServiceConfig cfg;
  cfg.shards = 4;
  cfg.capacity_bytes = 8ULL * 1024 * 1024;
  CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  ServerConfig scfg;
  scfg.port = 0;
  Server server(scfg, service);
  server.Start();
  BlockingClient client;
  client.Connect("127.0.0.1", server.port());

  // Unique-key 1000-byte sets, pipelined 256 per round trip.
  const std::string value(1000, 'v');
  std::string block;
  std::uint64_t next_key = 0;
  std::uint64_t stored = 0;
  const auto set_keys = [&](std::uint64_t count) {
    constexpr std::uint64_t kPipeline = 256;
    for (std::uint64_t done = 0; done < count; done += kPipeline) {
      block.clear();
      for (std::uint64_t i = 0; i < kPipeline; ++i) {
        block += "set churn:" + std::to_string(next_key++) + " 0 0 1000\r\n";
        block += value;
        block += "\r\n";
      }
      client.SendRaw(block);
      for (std::uint64_t i = 0; i < kPipeline; ++i) {
        const std::string reply = client.ReadLine();
        ASSERT_TRUE(reply == "STORED" || reply == "NOT_STORED") << reply;
        if (reply == "STORED") ++stored;
      }
    }
  };

  set_keys(100'000);
  const double rss_100k = RssMb();
  set_keys(300'000);
  const double rss_400k = RssMb();
  server.Stop();

  EXPECT_GT(stored, 300'000u) << "the cache refused most stores";
  // The arena, not the key count, bounds the items.
  EXPECT_LE(service.ItemCount(), 8ULL * 1024 * 1024 / 1024);
  EXPECT_LE(rss_400k - rss_100k, 4.0)
      << "RSS grew from " << rss_100k << " MB at 100k keys to " << rss_400k
      << " MB at 400k keys";
}

}  // namespace
}  // namespace pamakv::net
