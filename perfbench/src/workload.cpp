#include "workload.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace pamakv::perfbench {
namespace {

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kMaxValueBytes = 64 + 2047;
constexpr std::size_t kTableOffsets = 4096;

/// Filler every payload is cut from: a key's bytes start at an offset
/// derived from the key, after a 16-hex-digit header of the key's hash,
/// so a reply carrying another key's value never matches.
const std::array<char, kTableOffsets + kMaxValueBytes>& FillerTable() {
  static const auto table = [] {
    std::array<char, kTableOffsets + kMaxValueBytes> t{};
    Rng rng(0x7a11e5);
    for (char& c : t) c = static_cast<char>('!' + rng.NextBounded(94));
    return t;
  }();
  return table;
}

void AppendHex16(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(v >> shift) & 0xf]);
  }
}

void AppendNumber(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void AppendSigned(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

bool ParseU64(std::string_view s, std::uint64_t& v) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

/// Splits off the next space-separated token of `s`.
std::string_view NextToken(std::string_view& s) {
  const std::size_t sp = s.find(' ');
  const std::string_view tok = s.substr(0, sp);
  s = sp == std::string_view::npos ? std::string_view() : s.substr(sp + 1);
  return tok;
}

/// Parses "VALUE <key> <flags> <bytes>[ <cas>]\r\n<data>\r\nEND\r\n" or
/// "END\r\n" against the key the request named.
std::size_t ParseRetrieval(const Op& op, std::string_view in, Reply& reply) {
  const std::size_t eol = in.find("\r\n");
  if (eol == std::string_view::npos) return 0;
  std::string_view line = in.substr(0, eol);
  if (line == "END") {
    reply.status = ReplyStatus::kMiss;
    return eol + 2;
  }
  if (line.substr(0, 6) != "VALUE ") {
    reply.status = line.substr(0, 12) == "SERVER_ERROR"
                       ? ReplyStatus::kServerError
                       : ReplyStatus::kBad;
    return eol + 2;
  }
  line.remove_prefix(6);
  const std::string_view key = NextToken(line);
  std::uint64_t flags = 0;
  std::uint64_t bytes = 0;
  if (!ParseU64(NextToken(line), flags) || !ParseU64(NextToken(line), bytes)) {
    reply.status = ReplyStatus::kBad;
    return eol + 2;
  }
  const bool want_cas = op.kind == OpKind::kGets;
  if (want_cas && !ParseU64(NextToken(line), reply.cas)) {
    reply.status = ReplyStatus::kBad;
    return eol + 2;
  }
  const std::size_t total = eol + 2 + bytes + 2 + 5;
  if (in.size() < total) return 0;
  const std::string_view data = in.substr(eol + 2, bytes);
  thread_local std::string expected_key;
  expected_key.clear();
  AppendKey(expected_key, op);
  const bool ok = key == expected_key && flags == PenaltyOf(op.key) &&
                  ValueMatches(op.key, data) &&
                  in.substr(eol + 2 + bytes, 7) == "\r\nEND\r\n";
  reply.status = ok ? ReplyStatus::kHit : ReplyStatus::kBad;
  return total;
}

}  // namespace

WorkloadSpec SpecByName(std::string_view name) {
  WorkloadSpec s;
  s.name = std::string(name);
  if (name == "hot-get") {
    s.keys = 100'000;
    s.capacity_mb = 256;
    s.depth = 16;
    s.set_share = 0.05;
    s.fresh_get_share = 0.005;
    s.preload = true;
    s.setups = 5;
  } else if (name == "penalty-churn") {
    s.keys = 400'000;
    s.capacity_mb = 96;
    s.depth = 8;
    s.set_share = 0.10;
    s.preload = true;
    s.warm_window_gets = 100'000;
    s.warm_min_gets = 2'000'000;
  } else if (name == "durable-spill") {
    s.keys = 100'000;
    s.capacity_mb = 48;
    s.depth = 1;
    s.set_share = 0.20;
    s.incr_share = 0.05;
    s.cas_share = 0.03;
    s.delete_share = 0.01;
    s.touch_share = 0.01;
    s.ttl = true;
    // About the rate the live run reaches on a 4-core host (~50 kops).
    s.logical_ns_per_op = 20'000;
    s.flash = true;
    s.persist = true;
    s.preload = true;
    s.restart = true;
    s.warm_window_gets = 100'000;
    // About 30 s on the logical clock: the expiry of the preload's TTLs
    // (up to 60 s) and the flash tier's filling settle by then.
    s.warm_min_gets = 1'000'000;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "' (hot-get, penalty-churn, durable-spill)");
  }
  return s;
}

WorkloadSpec Scaled(const WorkloadSpec& spec, unsigned factor) {
  WorkloadSpec s = spec;
  s.keys = spec.keys / factor;
  s.capacity_mb = spec.capacity_mb / factor;
  return s;
}

std::uint32_t SizeOf(std::uint64_t key) {
  return static_cast<std::uint32_t>(64 + (Mix64(key) & 2047));
}

std::uint32_t PenaltyOf(std::uint64_t key) {
  // Log-uniform over [500µs, ~4.6s]: every paper penalty band is hit.
  const std::uint64_t h = Mix64(key ^ 0x9e3779b97f4a7c15ULL);
  const double unit = static_cast<double>(h >> 11) / 9007199254740992.0;
  return static_cast<std::uint32_t>(500.0 * std::pow(9210.0, unit));
}

void AppendKey(std::string& out, const Op& op) {
  out.append(op.counter ? "ctr:" : "key:");
  AppendNumber(out, op.key);
}

void AppendValue(std::string& out, std::uint64_t key) {
  const std::uint64_t h = Mix64(key);
  AppendHex16(out, h);
  out.append(FillerTable().data() + h % kTableOffsets,
             SizeOf(key) - kHeaderBytes);
}

bool ValueMatches(std::uint64_t key, std::string_view data) {
  if (data.size() != SizeOf(key)) return false;
  const std::uint64_t h = Mix64(key);
  thread_local std::string header;
  header.clear();
  AppendHex16(header, h);
  return data.substr(0, kHeaderBytes) == header &&
         std::memcmp(data.data() + kHeaderBytes,
                     FillerTable().data() + h % kTableOffsets,
                     data.size() - kHeaderBytes) == 0;
}

void AppendRequest(std::string& out, const Op& op) {
  switch (op.kind) {
    case OpKind::kGet:
    case OpKind::kGets:
      out.append(op.kind == OpKind::kGet ? "get " : "gets ");
      AppendKey(out, op);
      out.append("\r\n");
      return;
    case OpKind::kSet:
    case OpKind::kCas:
      out.append(op.kind == OpKind::kSet ? "set " : "cas ");
      AppendKey(out, op);
      out.push_back(' ');
      AppendNumber(out, PenaltyOf(op.key));
      out.push_back(' ');
      AppendSigned(out, op.ttl_s);
      out.push_back(' ');
      AppendNumber(out, op.counter ? 1 : SizeOf(op.key));
      if (op.kind == OpKind::kCas) {
        out.push_back(' ');
        AppendNumber(out, op.cas);
      }
      out.append("\r\n");
      if (op.counter) {
        out.push_back('0');
      } else {
        AppendValue(out, op.key);
      }
      out.append("\r\n");
      return;
    case OpKind::kIncr:
      out.append("incr ");
      AppendKey(out, op);
      out.append(" 1\r\n");
      return;
    case OpKind::kDelete:
      out.append("delete ");
      AppendKey(out, op);
      out.append("\r\n");
      return;
    case OpKind::kTouch:
      out.append("touch ");
      AppendKey(out, op);
      out.push_back(' ');
      AppendSigned(out, op.ttl_s);
      out.append("\r\n");
      return;
  }
}

std::size_t ParseReply(const Op& op, std::string_view in, Reply& reply) {
  reply = Reply{};
  if (op.kind == OpKind::kGet || op.kind == OpKind::kGets) {
    return ParseRetrieval(op, in, reply);
  }
  const std::size_t eol = in.find("\r\n");
  if (eol == std::string_view::npos) return 0;
  const std::string_view line = in.substr(0, eol);
  ReplyStatus st = ReplyStatus::kBad;
  if (line.substr(0, 12) == "SERVER_ERROR") {
    st = ReplyStatus::kServerError;
  } else if (line == "NOT_FOUND") {
    st = op.kind == OpKind::kSet ? ReplyStatus::kBad : ReplyStatus::kNotFound;
  } else {
    switch (op.kind) {
      case OpKind::kSet:
      case OpKind::kCas:
        if (line == "STORED") st = ReplyStatus::kStored;
        if (line == "NOT_STORED") st = ReplyStatus::kNotStored;
        if (line == "EXISTS" && op.kind == OpKind::kCas) {
          st = ReplyStatus::kExists;
        }
        break;
      case OpKind::kIncr: {
        std::uint64_t v = 0;
        if (ParseU64(line, v)) st = ReplyStatus::kNumber;
        break;
      }
      case OpKind::kDelete:
        if (line == "DELETED") st = ReplyStatus::kDeleted;
        break;
      case OpKind::kTouch:
        if (line == "TOUCHED") st = ReplyStatus::kTouched;
        break;
      default:
        break;
    }
  }
  reply.status = st;
  return eol + 2;
}

Generator::Generator(const WorkloadSpec& spec, const ZipfSampler& keys,
                     const ZipfSampler& ttls, std::uint64_t seed,
                     std::uint64_t stream)
    : spec_(spec),
      keys_(keys),
      ttls_(ttls),
      rng_(Mix64(seed ^ Mix64(stream + 1))),
      depth_(spec.depth),
      fresh_next_((std::uint64_t{1} << 40) + (stream << 32)) {}

std::int64_t Generator::Ttl() {
  // Rank 0 (the most likely) is 1 s; the tail reaches 60 s.
  return spec_.ttl ? 1 + static_cast<std::int64_t>(ttls_.Sample(rng_)) : 0;
}

void Generator::NextRound(std::vector<Op>& ops) {
  ops.clear();
  for (std::size_t i = 0; i < depth_; ++i) {
    Op op;
    op.key = keys_.Sample(rng_);
    double d = rng_.NextDouble();
    if ((d -= spec_.set_share) < 0) {
      op.kind = OpKind::kSet;
      op.ttl_s = Ttl();
    } else if ((d -= spec_.incr_share) < 0) {
      op.kind = OpKind::kIncr;
      op.counter = true;
      op.key %= 1024;
    } else if ((d -= spec_.cas_share) < 0) {
      op.kind = OpKind::kGets;
    } else if ((d -= spec_.delete_share) < 0) {
      op.kind = OpKind::kDelete;
    } else if ((d -= spec_.touch_share) < 0) {
      op.kind = OpKind::kTouch;
      op.ttl_s = Ttl();
    } else if (spec_.fresh_get_share > 0 &&
               rng_.NextDouble() < spec_.fresh_get_share) {
      op.key = fresh_next_++;
    }
    ops.push_back(op);
  }
}

void Generator::FollowUps(const std::vector<Op>& ops,
                          const std::vector<Reply>& replies,
                          std::vector<Op>& next) {
  next.clear();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const ReplyStatus st = replies[i].status;
    Op f;
    f.key = op.key;
    f.counter = op.counter;
    if ((op.kind == OpKind::kGet || op.kind == OpKind::kGets) &&
        st == ReplyStatus::kMiss) {
      f.kind = OpKind::kSet;
      f.fill = true;
    } else if (op.kind == OpKind::kGets && st == ReplyStatus::kHit) {
      f.kind = OpKind::kCas;
      f.cas = replies[i].cas;
    } else if (op.kind == OpKind::kIncr && st == ReplyStatus::kNotFound) {
      f.kind = OpKind::kSet;
      f.fill = true;
    } else {
      continue;
    }
    f.ttl_s = Ttl();
    next.push_back(f);
  }
}

}  // namespace pamakv::perfbench
