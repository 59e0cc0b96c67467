// SlabPool: the cache's slab-granular memory.
//
// Ownership is tracked per (class, subclass): a slab belongs to exactly one
// penalty-band subclass of one size class, and its slots can only hold that
// subclass's items. This matters for PAMA — a slab migrated to a high-
// penalty subclass must serve *that* subclass's items ("it will be used to
// cache items in the segment right beneath the candidate slab", Sec. III);
// were slots class-shared, the class's highest-miss-rate band would absorb
// the space regardless of who earned it. Policies that don't use penalty
// bands run with one subclass per class, where this reduces to Memcached's
// per-class accounting.
//
// Every scheme the paper studies decides purely on the accounting state
// (slab counts, slots in use), so by default the pool is *null*: it counts
// slots but owns no memory, which is how the simulator runs. EnableArena()
// backs the pool with real memory, memcached-style, for the server:
//
//  * One anonymous mapping of total_slabs pages, committed by the OS on
//    first touch. A page is handed out by GrantFreeSlab and its slots are
//    carved lazily (a slot's bytes are first touched when it is first
//    used), so resident memory follows the items stored, not capacity.
//  * Every slot starts with a kSlotTagBytes owner tag: the ItemHandle of
//    the item living there, or kInvalidHandle while the slot is free (a
//    released slot also chains the page's free list through its next four
//    bytes). The caller's bytes follow the tag.
//  * TransferSlab is physical. The donor is the donor subclass's page with
//    the fewest live slots; its live items move into free slots on the
//    subclass's other pages (the caller's Relocator copies the bytes and
//    repoints the item), then the page is re-carved for the receiver. The
//    accounting is exactly that of the null pool.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <vector>

#include "pamakv/slab/size_classes.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv {

class SlabPool {
 public:
  /// Bytes at the start of every arena slot that hold its owner tag.
  static constexpr Bytes kSlotTagBytes = sizeof(ItemHandle);

  /// Called during a physical TransferSlab for each live item on the
  /// donor page: copy the item's bytes from its current slot to `to` (its
  /// tag is already written) and repoint the owner at `to`.
  using Relocator = std::function<void(ItemHandle owner, char* to)>;

  /// num_subclasses: penalty bands per class (1 disables subclassing).
  SlabPool(Bytes capacity_bytes, const SizeClassTable& classes,
           std::uint32_t num_subclasses = 1);
  ~SlabPool();

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// Backs the pool with real memory (see the header comment). Call before
  /// any slab is granted. Throws std::bad_alloc when the mapping fails and
  /// std::invalid_argument when the smallest slot cannot hold a free-list
  /// link.
  void EnableArena(Relocator on_move);
  [[nodiscard]] bool has_arena() const noexcept { return base_ != nullptr; }

  /// Tries to hand a never-assigned slab to subclass (c, s).
  [[nodiscard]] bool GrantFreeSlab(ClassId c, SubclassId s);

  /// Moves one slab between subclasses (possibly across classes). The
  /// caller must already have ensured the donor can spare a full slab.
  void TransferSlab(ClassId from_c, SubclassId from_s, ClassId to_c,
                    SubclassId to_s);

  /// Marks one of (c, s)'s slots occupied; fails if no free slot. With an
  /// arena the slot is tagged with `owner` and its address stored in
  /// *slot (both required then).
  [[nodiscard]] bool AcquireSlot(ClassId c, SubclassId s,
                                 ItemHandle owner = kInvalidHandle,
                                 char** slot = nullptr);

  /// Releases one occupied slot of (c, s) — with an arena, the one at
  /// `slot`.
  void ReleaseSlot(ClassId c, SubclassId s, char* slot = nullptr);

  [[nodiscard]] std::size_t total_slabs() const noexcept { return total_slabs_; }
  [[nodiscard]] std::size_t free_slabs() const noexcept { return free_slabs_; }
  /// Bytes of arena pages handed out so far (0 without an arena). Pages
  /// never return to the free pool, so this only grows, up to capacity.
  [[nodiscard]] Bytes arena_bytes() const noexcept {
    return has_arena() ? (total_slabs_ - free_slabs_) * classes_->slab_bytes()
                       : 0;
  }

  // ---- per-subclass accounting ----
  [[nodiscard]] std::size_t SlabCount(ClassId c, SubclassId s) const {
    return slab_count_.at(Index(c, s));
  }
  [[nodiscard]] std::size_t SlotsInUse(ClassId c, SubclassId s) const {
    return slots_in_use_.at(Index(c, s));
  }
  [[nodiscard]] std::size_t FreeSlots(ClassId c, SubclassId s) const {
    return SlabCount(c, s) * classes_->SlotsPerSlab(c) - SlotsInUse(c, s);
  }
  /// True when, evicting nothing further, (c, s) could give up a slab.
  [[nodiscard]] bool CanReleaseSlab(ClassId c, SubclassId s) const {
    return SlabCount(c, s) > 0 && FreeSlots(c, s) >= classes_->SlotsPerSlab(c);
  }
  /// Items that must be evicted from (c, s) before a slab can leave it.
  [[nodiscard]] std::size_t EvictionsNeededToFreeSlab(ClassId c,
                                                      SubclassId s) const;

  // ---- class-level sums (Fig. 3 reporting, single-band policies) ----
  [[nodiscard]] std::size_t ClassSlabCount(ClassId c) const;
  [[nodiscard]] std::size_t ClassSlotsInUse(ClassId c) const;

  [[nodiscard]] const SizeClassTable& classes() const noexcept { return *classes_; }
  [[nodiscard]] std::uint32_t num_subclasses() const noexcept {
    return num_subclasses_;
  }

  /// The owner tag at the start of an arena slot.
  [[nodiscard]] static ItemHandle SlotOwner(const char* slot) noexcept {
    ItemHandle owner;
    std::memcpy(&owner, slot, sizeof owner);
    return owner;
  }

 private:
  /// Arena bookkeeping for one slab page.
  struct Page {
    std::uint32_t owner;      ///< Index(c, s), or kNone in the free pool
    std::uint32_t live;       ///< occupied slots
    std::uint32_t carved;     ///< slots [0, carved) have been handed out
    std::uint32_t free_head;  ///< most recently released slot, or kNone
    std::uint32_t prev;       ///< owner's list of pages with a free slot
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNone = ~0u;

  [[nodiscard]] std::size_t Index(ClassId c, SubclassId s) const {
    return static_cast<std::size_t>(c) * num_subclasses_ + s;
  }
  [[nodiscard]] char* SlotAt(std::uint32_t page, std::uint32_t idx,
                             ClassId c) const noexcept {
    return base_ + page * classes_->slab_bytes() + idx * classes_->SlotBytes(c);
  }
  void ResetPage(std::uint32_t page, std::uint32_t owner) noexcept;
  void LinkOpen(std::uint32_t page) noexcept;
  void UnlinkOpen(std::uint32_t page) noexcept;
  /// Takes a free slot of subclass `owner_index` (class c) for `owner`.
  /// The subclass must have one; slots_in_use_ is the caller's business.
  char* TakeSlot(std::size_t owner_index, ClassId c, ItemHandle owner) noexcept;

  const SizeClassTable* classes_;
  std::uint32_t num_subclasses_;
  std::size_t total_slabs_;
  std::size_t free_slabs_;
  std::vector<std::size_t> slab_count_;
  std::vector<std::size_t> slots_in_use_;

  // Arena state (empty / null for a null pool).
  char* base_ = nullptr;
  std::vector<Page> pages_;
  /// Per subclass: first page with a free slot, or kNone.
  std::vector<std::uint32_t> open_head_;
  Relocator on_move_;
};

}  // namespace pamakv
