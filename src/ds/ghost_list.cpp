#include "pamakv/ds/ghost_list.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pamakv {

namespace {

std::size_t RoundUpPow2(std::size_t n) noexcept {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

GhostList::GhostList(std::size_t capacity)
    : entries_(capacity ? capacity : 1), live_counts_(capacity ? capacity : 1) {
  if (capacity == 0) {
    throw std::invalid_argument("GhostList: capacity must be > 0");
  }
  // At most `capacity` keys are ever live, so 2x slots keeps the load factor
  // at or below 0.5 forever — the table is allocated once and never grows.
  map_slots_.assign(RoundUpPow2(capacity * 2), MapSlot{});
  map_mask_ = map_slots_.size() - 1;
}

const GhostList::MapSlot* GhostList::MapFind(KeyId key) const noexcept {
  std::size_t pos = MapIdeal(key);
  for (;;) {
    const MapSlot& s = map_slots_[pos];
    if (s.seq == kNoSeq) return nullptr;
    if (s.key == key) return &s;
    pos = (pos + 1) & map_mask_;
  }
}

void GhostList::MapUpsert(KeyId key, std::uint64_t seq) noexcept {
  assert(map_size_ < map_slots_.size());
  std::size_t pos = MapIdeal(key);
  for (;;) {
    MapSlot& s = map_slots_[pos];
    if (s.seq == kNoSeq) {
      s = MapSlot{key, seq};
      ++map_size_;
      return;
    }
    if (s.key == key) {
      s.seq = seq;
      return;
    }
    pos = (pos + 1) & map_mask_;
  }
}

void GhostList::MapEraseSlot(MapSlot* slot) noexcept {
  // Backward-shift deletion (same algorithm as HashIndex::Erase): any
  // cluster entry whose ideal slot does not lie in the cyclic range
  // (hole, entry] would become unreachable through the hole, so it moves in.
  std::size_t hole = static_cast<std::size_t>(slot - map_slots_.data());
  map_slots_[hole] = MapSlot{};
  std::size_t probe = hole;
  for (;;) {
    probe = (probe + 1) & map_mask_;
    MapSlot& s = map_slots_[probe];
    if (s.seq == kNoSeq) break;
    const std::size_t ideal = MapIdeal(s.key);
    if (((probe - ideal) & map_mask_) >= ((probe - hole) & map_mask_)) {
      map_slots_[hole] = s;
      s = MapSlot{};
      hole = probe;
    }
  }
  --map_size_;
}

void GhostList::Expire(std::size_t slot) {
  Entry& e = entries_[slot];
  if (!e.live) return;
  e.live = false;
  live_counts_.Add(slot, -1);
  MapSlot* found = MapFind(e.key);
  // Only erase if the map still points at this entry (it may have been
  // superseded by a newer ghost entry for the same key).
  if (found != nullptr && found->seq == e.seq) MapEraseSlot(found);
}

std::optional<KeyId> GhostList::Push(KeyId key, MicroSecs penalty) {
  // Drop a stale entry for the same key so ranks reflect the newest
  // eviction only.
  Remove(key);
  const std::uint64_t seq = next_seq_++;
  const std::size_t slot = SlotOf(seq);
  std::optional<KeyId> displaced;
  if (entries_[slot].live) displaced = entries_[slot].key;
  Expire(slot);
  entries_[slot] = Entry{key, penalty, seq, true};
  live_counts_.Add(slot, +1);
  MapUpsert(key, seq);
  return displaced;
}

std::size_t GhostList::LiveNewerThan(std::uint64_t seq) const {
  // Live entries with sequence in (seq, next_seq_). Because at most
  // `capacity` consecutive sequences can be live, the slot range
  // [(seq+1) % C, (next_seq_-1) % C] never self-overlaps.
  if (next_seq_ == 0 || seq + 1 >= next_seq_) return 0;
  const std::size_t cap = entries_.size();
  const std::size_t lo = SlotOf(seq + 1);
  const std::size_t hi = SlotOf(next_seq_ - 1);  // inclusive
  std::int64_t count = 0;
  if (lo <= hi) {
    count = live_counts_.RangeSum(lo, hi + 1);
  } else {
    count = live_counts_.RangeSum(lo, cap) + live_counts_.RangeSum(0, hi + 1);
  }
  assert(count >= 0);
  return static_cast<std::size_t>(count);
}

std::optional<GhostList::Hit> GhostList::Lookup(KeyId key) const {
  const MapSlot* found = MapFind(key);
  if (found == nullptr) return std::nullopt;
  const Entry& e = entries_[SlotOf(found->seq)];
  assert(e.live && e.key == key);
  return Hit{e.penalty, LiveNewerThan(e.seq)};
}

std::vector<GhostList::Evicted> GhostList::SnapshotOldestFirst() const {
  std::vector<const Entry*> live;
  live.reserve(map_size_);
  for (const Entry& e : entries_) {
    if (e.live) live.push_back(&e);
  }
  std::sort(live.begin(), live.end(),
            [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
  std::vector<Evicted> out;
  out.reserve(live.size());
  for (const Entry* e : live) out.push_back(Evicted{e->key, e->penalty});
  return out;
}

bool GhostList::Remove(KeyId key) {
  MapSlot* found = MapFind(key);
  if (found == nullptr) return false;
  const std::size_t slot = SlotOf(found->seq);
  Entry& e = entries_[slot];
  assert(e.live && e.key == key);
  e.live = false;
  live_counts_.Add(slot, -1);
  MapEraseSlot(found);
  return true;
}

}  // namespace pamakv
