// Golden corpus for the shard-affinity suite (net_affinity_test.cpp).
//
// The suite once compared the batched data path against a second, serial
// per-command path living in the same binary. That path is gone; what it
// answered is kept instead. For each request script below, the files in
// tests/golden/affinity/ hold the reply bytes the serial path produced
// for every fed chunk, and a digest of the state it left behind: every
// shard engine's EngineSnapshot fields plus the service counters. They
// were captured from the serial path (a Connection with no executor) at
// commit cf83b67, on the same paused FakeClocks the suite uses, and are
// never regenerated from the code under test.
//
// File format, line-oriented with length-prefixed reply bytes; one
// reply/closing/state group per fed chunk, in feed order:
//   # comment
//   reply <n>\n<n raw bytes>\n
//   closing <0|1>\n                 the connection asked to close
//   state\n<digest lines>end\n
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/rng.hpp"
#include "engine_snapshot.hpp"

#ifndef PAMAKV_GOLDEN_DIR
#define PAMAKV_GOLDEN_DIR "tests/golden"
#endif

namespace pamakv::net::golden {

inline std::unique_ptr<CacheService> MakeService(util::Clock* clock,
                                                 std::size_t shards) {
  CacheServiceConfig cfg;
  cfg.shards = shards;
  cfg.capacity_bytes = 8ULL * 1024 * 1024;
  cfg.clock = clock;
  cfg.unix_now_s = 1'700'000'000;  // pin the absolute-exptime anchor
  return std::make_unique<CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("memcached", bytes, SizeClassConfig{});
  });
}

// ---- request scripts ----

/// Every verb family, noreply, multi-key retrieval, barrier verbs
/// mid-stream, a parse error and a cas race.
inline std::string FullSurfaceScript() {
  std::string script;
  script += "set alpha 1000 0 5\r\nhello\r\n";
  script += "set bravo 2000 60 5\r\nworld\r\n";
  script += "add alpha 0 0 2\r\nxx\r\n";       // NOT_STORED
  script += "add charlie 0 0 3\r\nnew\r\n";    // STORED
  script += "replace delta 0 0 2\r\nzz\r\n";   // NOT_STORED (absent)
  script += "append alpha 0 0 1\r\n!\r\n";
  script += "prepend alpha 0 0 1\r\n>\r\n";
  script += "get alpha bravo charlie nope\r\n";
  script += "gets alpha\r\n";
  script += "cas alpha 0 0 3 999999\r\nbad\r\n";  // EXISTS (stale unique)
  script += "cas nope 0 0 1 7\r\nz\r\n";          // NOT_FOUND
  script += "set ctr 0 0 2\r\n40\r\n";
  script += "incr ctr 2\r\n";
  script += "decr ctr 100\r\n";  // floors at 0
  script += "incr alpha 1\r\n";  // CLIENT_ERROR non-numeric
  script += "incr nope 1\r\n";   // NOT_FOUND
  script += "touch bravo 120\r\n";
  script += "touch nope 120\r\n";
  script += "gat 60 bravo\r\n";
  script += "gats 60 bravo nope\r\n";
  script += "version\r\n";                     // barrier mid-stream
  script += "set echo 0 0 4 noreply\r\nquie\r\n";
  script += "get echo\r\n";
  script += "delete echo noreply\r\n";
  script += "delete echo\r\n";  // NOT_FOUND now
  script += "bogus_verb a b c\r\n";  // ERROR
  script += "get alpha\r\n";
  script += "flush_all\r\n";   // barrier: everything below misses
  script += "get alpha\r\n";
  script += "stats\r\n";       // barrier with a multi-line reply
  script += "get bravo\r\n";
  return script;
}

/// A store past the 1 MiB value limit: its payload is swallowed and the
/// connection survives.
inline std::string OversizedStoreScript() {
  std::string big = "set big 0 0 2097152\r\n";
  big.append(2'097'152, 'x');
  big += "\r\nget charlie\r\n";
  return big;
}

/// A payload that is not CRLF-terminated: fatal to the connection.
inline std::string BadChunkScript() { return "set k 0 0 2\r\nxxxx\r\n"; }

/// Fed one byte at a time by the partial-write test.
inline std::string BytewiseScript() {
  std::string script;
  script += "set split 123 0 10\r\n0123456789\r\n";
  script += "get split\r\n";
  script += "gets split missing\r\n";
  script += "incr nope 4\r\n";
  script += "version\r\n";
  script += "delete split\r\n";
  return script;
}

/// A 400-deep mixed pipeline over 96 keys (8 shards in the test). Every
/// response embeds the request index, so a swap anywhere changes bytes.
inline std::string CrossShardScript() {
  constexpr int kDepth = 400;
  std::string script;
  Rng rng(2024);
  for (int i = 0; i < kDepth; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBounded(96));
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      const std::string value = "v" + std::to_string(i);
      script += "set " + key + " 1000 0 " + std::to_string(value.size()) +
                "\r\n" + value + "\r\n";
    } else if (dice < 0.75) {
      script += (dice < 0.6 ? "get " : "gets ") + key + "\r\n";
    } else if (dice < 0.85) {
      script += "delete " + key + "\r\n";
    } else if (dice < 0.95) {
      const std::string ctr = "c" + std::to_string(rng.NextBounded(16));
      script += "set " + ctr + " 0 0 2 noreply\r\n10\r\n";
      script += "incr " + ctr + " " + std::to_string(i) + "\r\n";
    } else {
      script += "touch " + key + " 60\r\n";
    }
  }
  return script;
}

/// Seeded random op stream: all verb families, TTLs that really expire
/// (the test advances the clock 1.5 s between chunks), cas races,
/// noreply, barriers and parse errors.
inline std::vector<std::string> RandomStream(std::uint64_t seed, int chunks,
                                             int ops_per_chunk) {
  std::vector<std::string> stream;
  Rng rng(seed);
  for (int c = 0; c < chunks; ++c) {
    std::string s;
    for (int i = 0; i < ops_per_chunk; ++i) {
      const std::string key = "k" + std::to_string(rng.NextBounded(48));
      const bool noreply = rng.NextDouble() < 0.10;
      const std::int64_t ttl =
          static_cast<std::int64_t>(rng.NextBounded(6)) - 2;  // -2..3 s
      const double dice = rng.NextDouble();
      if (dice < 0.22) {  // set: numeric (incr-compatible) or text value
        std::string value;
        if (rng.NextDouble() < 0.5) {
          value = std::to_string(rng.NextBounded(1'000'000'000));
        } else {
          value.assign(8 + rng.NextBounded(120),
                       static_cast<char>('a' + rng.NextBounded(26)));
        }
        s += "set " + key + " " + std::to_string(rng.NextBounded(5'000)) +
             " " + std::to_string(ttl > 0 ? ttl : 0) + " " +
             std::to_string(value.size()) + (noreply ? " noreply" : "") +
             "\r\n" + value + "\r\n";
      } else if (dice < 0.30) {  // add/replace/append/prepend
        static constexpr const char* kVerbs[] = {"add", "replace", "append",
                                                 "prepend"};
        const char* verb = kVerbs[rng.NextBounded(4)];
        std::string value(1 + rng.NextBounded(24),
                          static_cast<char>('A' + rng.NextBounded(26)));
        s += std::string(verb) + " " + key + " 0 " +
             std::to_string(ttl > 0 ? ttl : 0) + " " +
             std::to_string(value.size()) + (noreply ? " noreply" : "") +
             "\r\n" + value + "\r\n";
      } else if (dice < 0.36) {  // cas race: small uniques hit all branches
        s += "cas " + key + " 0 0 3 " +
             std::to_string(1 + rng.NextBounded(64)) +
             (noreply ? " noreply" : "") + "\r\nRCE\r\n";
      } else if (dice < 0.60) {  // retrieval, sometimes multi-key
        const char* verb = rng.NextDouble() < 0.7 ? "get" : "gets";
        s += std::string(verb) + " " + key;
        const std::uint64_t extra = rng.NextBounded(3);
        for (std::uint64_t e = 0; e < extra; ++e) {
          s += " k" + std::to_string(rng.NextBounded(48));
        }
        s += "\r\n";
      } else if (dice < 0.70) {  // incr/decr
        s += (rng.NextDouble() < 0.5 ? "incr " : "decr ") + key + " " +
             std::to_string(rng.NextBounded(1'000)) +
             (noreply ? " noreply" : "") + "\r\n";
      } else if (dice < 0.78) {  // touch
        s += "touch " + key + " " + std::to_string(ttl) +
             (noreply ? " noreply" : "") + "\r\n";
      } else if (dice < 0.86) {  // gat/gats
        s += (rng.NextDouble() < 0.5 ? "gat " : "gats ") +
             std::to_string(ttl > 0 ? ttl : 1) + " " + key + "\r\n";
      } else if (dice < 0.93) {  // delete
        s += "delete " + key + (noreply ? " noreply" : "") + "\r\n";
      } else if (dice < 0.96) {  // barrier verb mid-pipeline
        s += rng.NextDouble() < 0.7 ? "version\r\n" : "flush_all 2\r\n";
      } else if (dice < 0.98) {  // parse error mid-pipeline
        s += "definitely_not_a_verb " + key + "\r\n";
      } else {  // second parse-error shape: bad argument count
        s += "get\r\n";
      }
    }
    stream.push_back(std::move(s));
  }
  return stream;
}

// ---- state digest ----

template <typename T>
std::string JoinList(const std::vector<T>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

/// One line per fact the equivalence tests compare: each shard engine's
/// counters, clock and per-(class, subclass) tallies, then the service
/// counters, item count and timer-wheel size. Equal digests <=> equal
/// observable state.
inline std::string StateDigest(CacheService& service) {
  std::ostringstream out;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const EngineSnapshot snap = EngineSnapshot::Of(service.shard_engine(s));
    const CacheStats& st = snap.stats;
    out << "shard " << s << " gets=" << st.gets << " get_hits=" << st.get_hits
        << " get_misses=" << st.get_misses << " sets=" << st.sets
        << " set_updates=" << st.set_updates
        << " set_failures=" << st.set_failures << " dels=" << st.dels
        << " evictions=" << st.evictions << " expired=" << st.expired
        << " ghost_hits=" << st.ghost_hits
        << " miss_penalty_total_us=" << st.miss_penalty_total_us
        << " hit_penalty_saved_us=" << st.hit_penalty_saved_us
        << " bytes_stored=" << st.bytes_stored << " clock=" << snap.clock
        << " items=" << snap.item_count << "\n";
    out << "shard " << s << " slabs=" << JoinList(snap.slab_counts) << "\n";
    out << "shard " << s << " slots=" << JoinList(snap.slots_in_use) << "\n";
    out << "shard " << s << " stacks=" << JoinList(snap.stack_sizes) << "\n";
    out << "shard " << s << " ghosts=" << JoinList(snap.ghost_sizes) << "\n";
    out << "shard " << s << " ghost_hit_counts="
        << JoinList(snap.ghost_hit_counts) << "\n";
  }
  const ServiceCounters c = service.TotalCounters();
  out << "counters cas_hits=" << c.cas_hits << " cas_misses=" << c.cas_misses
      << " cas_badval=" << c.cas_badval << " incr_hits=" << c.incr_hits
      << " incr_misses=" << c.incr_misses << " decr_hits=" << c.decr_hits
      << " decr_misses=" << c.decr_misses << " touch_hits=" << c.touch_hits
      << " touch_misses=" << c.touch_misses << "\n";
  out << "items=" << service.ItemCount()
      << " expiry_nodes=" << service.ExpiryNodeCount() << "\n";
  return out.str();
}

// ---- golden files ----

/// What the serial path did with one fed chunk.
struct Step {
  std::string reply;     ///< every byte it answered
  bool closing = false;  ///< the connection asked to close
  std::string state;     ///< StateDigest afterwards
};

inline std::string PathOf(const std::string& name) {
  return std::string(PAMAKV_GOLDEN_DIR) + "/affinity/" + name + ".golden";
}

/// Loads a golden capture; a missing or malformed file fails the test.
inline ::testing::AssertionResult ReadCapture(const std::string& name,
                                              std::vector<Step>* steps) {
  std::ifstream f(PathOf(name), std::ios::binary);
  if (!f) return ::testing::AssertionFailure() << "cannot open " << PathOf(name);
  const std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  const auto next_line = [&](std::string* line) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) return false;
    *line = text.substr(pos, eol - pos);
    pos = eol + 1;
    return true;
  };
  std::string line;
  while (next_line(&line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("reply ", 0) == 0) {
      const std::size_t n = std::stoull(line.substr(6));
      if (pos + n + 1 > text.size() || text[pos + n] != '\n') {
        return ::testing::AssertionFailure() << "truncated reply in " << name;
      }
      steps->emplace_back();
      steps->back().reply = text.substr(pos, n);
      pos += n + 1;
    } else if (line.rfind("closing ", 0) == 0 && !steps->empty()) {
      steps->back().closing = line == "closing 1";
    } else if (line == "state" && !steps->empty()) {
      const std::size_t end = text.find("\nend\n", pos - 1);
      if (end == std::string::npos) {
        return ::testing::AssertionFailure() << "unterminated state in " << name;
      }
      steps->back().state = text.substr(pos, end + 1 - pos);
      pos = end + 5;
    } else {
      return ::testing::AssertionFailure()
             << "unexpected line '" << line << "' in " << name;
    }
  }
  if (steps->empty()) {
    return ::testing::AssertionFailure() << "no steps in " << name;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace pamakv::net::golden
