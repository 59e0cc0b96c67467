// String keys: the hash that maps memcached byte-string keys (up to 250
// bytes) into the engine's 64-bit key id space.
//
// A 64-bit id collision would make the cache answer one key with another
// key's value, so every front end that hashes strings must verify the
// exact key on a hit: the server's CacheService compares it against the
// key bytes stored in the item's slot and resolves a mismatch as a miss.
#pragma once

#include <string_view>

#include "pamakv/util/rng.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

/// 64-bit hash of a byte string (FNV-1a core + splitmix finalizer).
[[nodiscard]] inline KeyId HashStringKey(std::string_view key) noexcept {
  // FNV-1a accumulates every byte; the splitmix finalizer fixes FNV's weak
  // high-bit avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace pamakv
