#include "pamakv/slab/slab_pool.hpp"

#include <sys/mman.h>

#include <cassert>
#include <new>
#include <stdexcept>

namespace pamakv {

namespace {

void WriteU32(char* at, std::uint32_t v) noexcept { std::memcpy(at, &v, sizeof v); }

std::uint32_t ReadU32(const char* at) noexcept {
  std::uint32_t v;
  std::memcpy(&v, at, sizeof v);
  return v;
}

}  // namespace

SlabPool::SlabPool(Bytes capacity_bytes, const SizeClassTable& classes,
                   std::uint32_t num_subclasses)
    : classes_(&classes),
      num_subclasses_(num_subclasses ? num_subclasses : 1),
      total_slabs_(static_cast<std::size_t>(capacity_bytes / classes.slab_bytes())),
      free_slabs_(total_slabs_),
      slab_count_(static_cast<std::size_t>(classes.num_classes()) * num_subclasses_, 0),
      slots_in_use_(slab_count_.size(), 0) {
  if (total_slabs_ == 0) {
    throw std::invalid_argument("SlabPool: capacity smaller than one slab");
  }
}

SlabPool::~SlabPool() {
  if (base_ != nullptr) ::munmap(base_, total_slabs_ * classes_->slab_bytes());
}

void SlabPool::EnableArena(Relocator on_move) {
  assert(free_slabs_ == total_slabs_ && base_ == nullptr);
  // A released slot holds its tag plus a 4-byte free-list link.
  if (classes_->SlotBytes(0) < kSlotTagBytes + sizeof(std::uint32_t)) {
    throw std::invalid_argument("SlabPool: smallest slot too small for an arena");
  }
  // Bookkeeping first, so a failed allocation leaves the pool null.
  std::vector<Page> pages(total_slabs_);
  std::vector<std::uint32_t> open_head(slab_count_.size(), kNone);
  // MAP_NORESERVE: the mapping is capacity-sized, but only pages that are
  // handed out and written are ever committed.
  void* mem = ::mmap(nullptr, total_slabs_ * classes_->slab_bytes(),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<char*>(mem);
  pages_ = std::move(pages);
  open_head_ = std::move(open_head);
  on_move_ = std::move(on_move);
}

void SlabPool::ResetPage(std::uint32_t page, std::uint32_t owner) noexcept {
  pages_[page] = Page{owner, 0, 0, kNone, kNone, kNone};
  LinkOpen(page);
}

void SlabPool::LinkOpen(std::uint32_t page) noexcept {
  Page& p = pages_[page];
  std::uint32_t& head = open_head_[p.owner];
  p.prev = kNone;
  p.next = head;
  if (head != kNone) pages_[head].prev = page;
  head = page;
}

void SlabPool::UnlinkOpen(std::uint32_t page) noexcept {
  Page& p = pages_[page];
  if (p.prev != kNone) {
    pages_[p.prev].next = p.next;
  } else {
    open_head_[p.owner] = p.next;
  }
  if (p.next != kNone) pages_[p.next].prev = p.prev;
  p.prev = p.next = kNone;
}

char* SlabPool::TakeSlot(std::size_t owner_index, ClassId c,
                         ItemHandle owner) noexcept {
  const std::uint32_t page = open_head_[owner_index];
  assert(page != kNone);
  Page& p = pages_[page];
  // Released slots first; carving in order keeps a page's untouched tail
  // uncommitted.
  const bool reuse = p.free_head != kNone;
  const std::uint32_t idx = reuse ? p.free_head : p.carved++;
  if (reuse) p.free_head = ReadU32(SlotAt(page, idx, c) + kSlotTagBytes);
  if (++p.live == classes_->SlotsPerSlab(c)) UnlinkOpen(page);
  char* slot = SlotAt(page, idx, c);
  std::memcpy(slot, &owner, sizeof owner);
  return slot;
}

bool SlabPool::GrantFreeSlab(ClassId c, SubclassId s) {
  if (free_slabs_ == 0) return false;
  // Pages are handed out in address order, so the committed part of the
  // mapping stays one contiguous prefix.
  const auto page = static_cast<std::uint32_t>(total_slabs_ - free_slabs_);
  --free_slabs_;
  ++slab_count_.at(Index(c, s));
  if (has_arena()) ResetPage(page, static_cast<std::uint32_t>(Index(c, s)));
  return true;
}

void SlabPool::TransferSlab(ClassId from_c, SubclassId from_s, ClassId to_c,
                            SubclassId to_s) {
  assert(CanReleaseSlab(from_c, from_s));
  const std::size_t from = Index(from_c, from_s);
  const std::size_t to = Index(to_c, to_s);
  --slab_count_.at(from);
  ++slab_count_.at(to);
  if (!has_arena()) return;
  // The donor's free slots add up to at least a page, so some page is
  // open; the emptiest one is the cheapest to compact.
  std::uint32_t donor = kNone;
  for (std::uint32_t p = open_head_[from]; p != kNone; p = pages_[p].next) {
    if (donor == kNone || pages_[p].live < pages_[donor].live) donor = p;
  }
  assert(donor != kNone);
  UnlinkOpen(donor);
  Page& d = pages_[donor];
  // The other pages hold at least d.live free slots: the subclass had a
  // page's worth free in total, of which this page held spp - d.live.
  for (std::uint32_t idx = 0; idx < d.carved && d.live > 0; ++idx) {
    const char* slot = SlotAt(donor, idx, from_c);
    const ItemHandle owner = SlotOwner(slot);
    if (owner == kInvalidHandle) continue;
    char* to_slot = TakeSlot(from, from_c, owner);
    on_move_(owner, to_slot);
    --d.live;
  }
  ResetPage(donor, static_cast<std::uint32_t>(to));
}

bool SlabPool::AcquireSlot(ClassId c, SubclassId s, ItemHandle owner,
                           char** slot) {
  if (FreeSlots(c, s) == 0) return false;
  ++slots_in_use_.at(Index(c, s));
  if (has_arena()) {
    assert(slot != nullptr && owner != kInvalidHandle);
    *slot = TakeSlot(Index(c, s), c, owner);
  }
  return true;
}

void SlabPool::ReleaseSlot(ClassId c, SubclassId s, char* slot) {
  assert(slots_in_use_.at(Index(c, s)) > 0);
  --slots_in_use_.at(Index(c, s));
  if (!has_arena()) return;
  assert(slot != nullptr);
  const Bytes offset = static_cast<Bytes>(slot - base_);
  const auto page = static_cast<std::uint32_t>(offset / classes_->slab_bytes());
  const auto idx = static_cast<std::uint32_t>(
      offset % classes_->slab_bytes() / classes_->SlotBytes(c));
  Page& p = pages_[page];
  assert(p.owner == Index(c, s));
  const ItemHandle none = kInvalidHandle;
  std::memcpy(slot, &none, sizeof none);
  WriteU32(slot + kSlotTagBytes, p.free_head);
  p.free_head = idx;
  if (p.live-- == classes_->SlotsPerSlab(c)) LinkOpen(page);
}

std::size_t SlabPool::EvictionsNeededToFreeSlab(ClassId c, SubclassId s) const {
  if (SlabCount(c, s) == 0) return 0;
  const std::size_t spp = classes_->SlotsPerSlab(c);
  const std::size_t free = FreeSlots(c, s);
  return free >= spp ? 0 : spp - free;
}

std::size_t SlabPool::ClassSlabCount(ClassId c) const {
  std::size_t total = 0;
  for (SubclassId s = 0; s < num_subclasses_; ++s) total += SlabCount(c, s);
  return total;
}

std::size_t SlabPool::ClassSlotsInUse(ClassId c) const {
  std::size_t total = 0;
  for (SubclassId s = 0; s < num_subclasses_; ++s) total += SlotsInUse(c, s);
  return total;
}

}  // namespace pamakv
