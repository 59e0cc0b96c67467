// GhostList: the paper's "extended section" of a subclass LRU stack
// (Sec. III, second challenge). It remembers the keys and miss penalties —
// never the values — of the most recently evicted items, ordered by
// eviction recency: rank 0 sits "right beneath the candidate slab", i.e. it
// is the first item a newly granted slab would re-cache (the receiving
// segment), rank spp..2*spp-1 is the next ghost segment, and so on.
//
// Implementation: a ring buffer keyed by eviction sequence number. A live
// entry's rank is the count of live entries evicted after it, answered
// exactly in O(log capacity) by a Fenwick tree over ring slots. Removals
// (ghost hits whose item is re-fetched, or key deletions) leave holes that
// the Fenwick tree skips, so ranks stay exact without compaction.
//
// The key -> sequence map is a pre-sized open-addressing table rather than
// std::unordered_map: Push sits on the eviction hot path of every worker,
// and the node allocation a std::unordered_map insert performs was the last
// per-request heap allocation in the engine's steady state. Live entries
// are bounded by the ring capacity, so the table is sized once at
// construction (load <= 0.5) and never rehashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "pamakv/util/fenwick.hpp"
#include "pamakv/util/rng.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class GhostList {
 public:
  struct Hit {
    MicroSecs penalty;
    std::size_t rank;  ///< 0 == most recently evicted
  };

  /// One live entry as captured for persistence.
  struct Evicted {
    KeyId key = 0;
    MicroSecs penalty = 0;
  };

  explicit GhostList(std::size_t capacity);

  /// Records an eviction. If the key already has a ghost entry, the stale
  /// entry is dropped first. The oldest entry is overwritten once the ring
  /// wraps, bounding memory at `capacity` entries; its key is returned.
  std::optional<KeyId> Push(KeyId key, MicroSecs penalty);

  /// Looks up a key without modifying the list.
  [[nodiscard]] std::optional<Hit> Lookup(KeyId key) const;

  /// Removes a key (the item was re-inserted into the cache, or deleted).
  /// Returns true if it was present.
  bool Remove(KeyId key);

  /// Live entries ordered oldest eviction first — replaying them through
  /// Push() in this order reproduces every rank exactly. Snapshot capture
  /// only; O(capacity log capacity).
  [[nodiscard]] std::vector<Evicted> SnapshotOldestFirst() const;

  [[nodiscard]] std::size_t size() const noexcept { return map_size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return entries_.size(); }
  [[nodiscard]] bool Contains(KeyId key) const noexcept {
    return MapFind(key) != nullptr;
  }

 private:
  struct Entry {
    KeyId key = 0;
    MicroSecs penalty = 0;
    std::uint64_t seq = 0;
    bool live = false;
  };

  /// Open-addressing slot of the key -> seq map; seq == kNoSeq marks empty
  /// (sequence numbers are a live counter that can never reach 2^64 - 1).
  struct MapSlot {
    KeyId key = 0;
    std::uint64_t seq = kNoSeq;
  };
  static constexpr std::uint64_t kNoSeq = ~0ULL;

  [[nodiscard]] std::size_t SlotOf(std::uint64_t seq) const noexcept {
    return static_cast<std::size_t>(seq % entries_.size());
  }
  void Expire(std::size_t slot);
  /// Count of live entries with sequence numbers in (seq, next_seq_).
  [[nodiscard]] std::size_t LiveNewerThan(std::uint64_t seq) const;

  [[nodiscard]] std::size_t MapIdeal(KeyId key) const noexcept {
    return static_cast<std::size_t>(Mix64(key)) & map_mask_;
  }
  /// Pointer to the slot holding `key`, or nullptr when absent.
  [[nodiscard]] const MapSlot* MapFind(KeyId key) const noexcept;
  [[nodiscard]] MapSlot* MapFind(KeyId key) noexcept {
    return const_cast<MapSlot*>(
        static_cast<const GhostList*>(this)->MapFind(key));
  }
  void MapUpsert(KeyId key, std::uint64_t seq) noexcept;
  /// Backward-shift removal of the slot (obtained via MapFind).
  void MapEraseSlot(MapSlot* slot) noexcept;

  std::vector<Entry> entries_;
  FenwickTree live_counts_;
  std::vector<MapSlot> map_slots_;  // key -> seq, fixed size, never rehashes
  std::size_t map_mask_ = 0;
  std::size_t map_size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace pamakv
