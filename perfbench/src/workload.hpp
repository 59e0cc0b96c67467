// Workload definitions for the pamakv benchmark: key population, request
// mix, and the wire encoding / reply checking every backend shares.
//
// A key's value size, miss penalty (carried in the memcached flags field)
// and payload bytes are pure functions of the key, so any writer stores the
// same bytes and every hit can be checked byte for byte against the key.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pamakv/util/rng.hpp"
#include "pamakv/util/zipf.hpp"

namespace pamakv::perfbench {

enum class OpKind : std::uint8_t {
  kGet,
  kGets,    ///< first half of gets→cas
  kSet,
  kCas,
  kIncr,
  kDelete,
  kTouch,
};

/// One request. `counter` keys live in their own small numeric key space
/// ("ctr:N") so incr always sees a decimal value.
struct Op {
  OpKind kind = OpKind::kGet;
  bool counter = false;
  bool fill = false;       ///< write-allocate set after a miss
  std::uint64_t key = 0;
  std::int64_t ttl_s = 0;  ///< storage/touch exptime (0 = never)
  std::uint64_t cas = 0;   ///< kCas: unique from the preceding gets
};

enum class ReplyStatus : std::uint8_t {
  kHit,          ///< VALUE block with the key's exact payload
  kMiss,         ///< END only
  kStored,
  kNotStored,    ///< PAMA refused space, or a verb precondition failed
  kExists,
  kNotFound,
  kDeleted,
  kTouched,
  kNumber,       ///< incr result
  kServerError,  ///< SERVER_ERROR line (counted as a failure)
  kBad,          ///< protocol violation or payload mismatch
};

struct Reply {
  ReplyStatus status = ReplyStatus::kMiss;
  std::uint64_t cas = 0;
};

struct WorkloadSpec {
  std::string name;
  std::uint64_t keys = 0;
  double alpha = 0.9;               ///< Zipf skew of the key stream
  std::uint64_t capacity_mb = 0;
  std::size_t depth = 1;            ///< commands pipelined per round
  // Shares of the primary commands; the rest are gets.
  double set_share = 0.0;
  double incr_share = 0.0;
  double cas_share = 0.0;           ///< gets→cas pairs
  double delete_share = 0.0;
  double touch_share = 0.0;
  /// Share of gets aimed at never-seen keys (compulsory misses).
  double fresh_get_share = 0.0;
  bool ttl = false;                 ///< Zipf TTL over 1..60 s on every store
  /// When > 0, the service runs on a logical clock that the clients
  /// advance by this much per op, so which items have expired depends on
  /// the request stream alone, not on how fast the host answers it.
  std::int64_t logical_ns_per_op = 0;
  bool flash = false;
  bool persist = false;
  // Set-up, in this order: store every key once; drain-stop the server and
  // recover a fresh one on the same directories; run the mix until the
  // hit ratio of consecutive windows of `warm_window_gets` gets settles.
  bool preload = false;
  bool restart = false;
  std::uint64_t warm_window_gets = 0;  ///< 0 = no warm-up
  /// Gets the warm-up runs at least: PAMA keeps moving slabs toward the
  /// high-penalty bands for a while after the hit ratio first looks flat.
  std::uint64_t warm_min_gets = 0;
  /// Set-ups a --trace 0 run makes (the last one is measured); setup_s is
  /// their median. Only a set-up short enough to be at the mercy of a
  /// moment's host noise is repeated.
  std::size_t setups = 1;
};

/// The three benchmark workloads; throws on an unknown name.
[[nodiscard]] WorkloadSpec SpecByName(std::string_view name);
/// The same mix on 1/`factor` of the keys and capacity (set-up is the
/// caller's), for the deterministic replay-equivalence check.
[[nodiscard]] WorkloadSpec Scaled(const WorkloadSpec& spec, unsigned factor);

[[nodiscard]] std::uint32_t SizeOf(std::uint64_t key);
[[nodiscard]] std::uint32_t PenaltyOf(std::uint64_t key);

void AppendKey(std::string& out, const Op& op);
/// Appends the key's payload (SizeOf(key) bytes).
void AppendValue(std::string& out, std::uint64_t key);
/// True when `data` is exactly the key's payload.
[[nodiscard]] bool ValueMatches(std::uint64_t key, std::string_view data);

/// Appends one request's wire bytes.
void AppendRequest(std::string& out, const Op& op);

/// Parses the reply to `op` at the front of `in`. Returns the bytes it
/// consumed, or 0 when `in` does not yet hold the whole reply.
std::size_t ParseReply(const Op& op, std::string_view in, Reply& reply);

/// Per-connection request stream: the primary commands of each round, and
/// the follow-ups their replies call for (write-allocate sets after get
/// misses, cas after a gets hit, re-seeding a missing counter).
class Generator {
 public:
  Generator(const WorkloadSpec& spec, const ZipfSampler& keys,
            const ZipfSampler& ttls, std::uint64_t seed, std::uint64_t stream);

  void NextRound(std::vector<Op>& ops);
  /// Primary commands per round (the workload's depth unless changed).
  void set_depth(std::size_t depth) { depth_ = depth; }
  /// Ops issued in response to `replies` (one per op); may be empty.
  void FollowUps(const std::vector<Op>& ops, const std::vector<Reply>& replies,
                 std::vector<Op>& next);
  /// A store's exptime: Zipf over 1..60 s with TTLs on, else 0 (never).
  std::int64_t Ttl();

 private:
  const WorkloadSpec& spec_;
  const ZipfSampler& keys_;
  const ZipfSampler& ttls_;
  Rng rng_;
  std::size_t depth_;
  std::uint64_t fresh_next_;
};

}  // namespace pamakv::perfbench
