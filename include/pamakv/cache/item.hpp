// Cached item metadata.
//
// Every policy in the paper decides on (key recurrence, size class, miss
// penalty) alone, and memory use is accounted at slab/slot granularity by
// SlabPool. `size` is the item's true byte size (used for class routing);
// `penalty` is the per-key miss penalty the trace attributes to it
// (GET-miss -> SET gap). The simulator caches this metadata only; an
// engine with item storage (the server's) also keeps the item's bytes in
// the slot `slot` points at.
#pragma once

#include "pamakv/ds/lru_stack.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

struct Item {
  KeyId key = 0;
  Bytes size = 0;
  MicroSecs penalty = 0;
  ClassId cls = 0;
  SubclassId sub = 0;
  /// Position of this item in its subclass LRU stack.
  LruStack::Node* node = nullptr;
  /// The item's slot in the engine's arena; nullptr without item storage.
  char* slot = nullptr;
  /// Logical time (access count) of the last touch; used by the Facebook
  /// age-balancing policy and for LRU-age diagnostics.
  AccessClock last_access = 0;
  /// Wall-clock deadline in monotonic nanoseconds; 0 = never expires.
  /// The engine stores it (so Touch/overwrite keep one source of truth)
  /// but never reads the clock itself — the service layer decides when a
  /// deadline has passed and calls Expire().
  std::int64_t expire_at_ns = 0;
  /// Whether the item was GET-hit since the store that set its deadline;
  /// distinguishes memcached's expired_unfetched from plain expired.
  bool fetched = false;
};

}  // namespace pamakv
