// The list table (paper Figure 2): the first logical block of each list,
// the list's hints, and the list-of-lists ordering used for inter-list
// clustering.

#ifndef SRC_LLD_LIST_TABLE_H_
#define SRC_LLD_LIST_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/ld/types.h"
#include "src/lld/packed_record.h"
#include "src/util/status.h"

namespace ld {

// One list's entry, packed like BlockMapEntry (see packed_record.h): five
// 3-byte fields and a flag byte in 16 bytes.
class ListEntry {
 public:
  static constexpr PackedField kFirst{0, 3};
  static constexpr PackedField kLolPrev{3, 3};
  static constexpr PackedField kLolNext{6, 3};
  static constexpr PackedField kHeadSeg{9, 3};
  static constexpr PackedField kCreateSeg{12, 3};
  static constexpr PackedField kFlags{15, 1};  // The three hints, then allocated.
  static constexpr size_t kBytes = 16;

  ListEntry() {
    set_hints(ListHints{});
    set_head_seg(kNoAuthoritySeg);
    set_create_seg(kNoAuthoritySeg);
  }

  Bid first() const { return static_cast<Bid>(r_.Load<kFirst>()); }
  void set_first(Bid bid) { r_.Store<kFirst>(bid); }

  ListHints hints() const {
    const uint64_t flags = r_.Load<kFlags>();
    return ListHints{(flags & kCluster) != 0, (flags & kCompress) != 0,
                     (flags & kInterlist) != 0};
  }
  void set_hints(ListHints hints) {
    r_.Store<kFlags>((r_.Load<kFlags>() & kAllocated) | (hints.cluster ? kCluster : 0) |
                     (hints.compress ? kCompress : 0) |
                     (hints.interlist_cluster ? kInterlist : 0));
  }

  // Position in the list of lists (doubly linked in memory for O(1) moves;
  // on disk only the successor relationship is logged).
  Lid lol_prev() const { return static_cast<Lid>(r_.Load<kLolPrev>()); }
  void set_lol_prev(Lid lid) { r_.Store<kLolPrev>(lid); }
  Lid lol_next() const { return static_cast<Lid>(r_.Load<kLolNext>()); }
  void set_lol_next(Lid lid) { r_.Store<kLolNext>(lid); }

  bool allocated() const { return (r_.Load<kFlags>() & kAllocated) != 0; }
  void set_allocated(bool on) {
    const uint64_t flags = r_.Load<kFlags>();
    r_.Store<kFlags>(on ? flags | kAllocated : flags & ~kAllocated);
  }

  // Record authority (see BlockMapEntry): segment holding the latest
  // on-disk list-head / list-create record for this list.
  uint32_t head_seg() const { return WidenSegment(r_.Load<kHeadSeg>()); }
  void set_head_seg(uint32_t segment) { r_.Store<kHeadSeg>(NarrowSegment(segment)); }
  uint32_t create_seg() const { return WidenSegment(r_.Load<kCreateSeg>()); }
  void set_create_seg(uint32_t segment) { r_.Store<kCreateSeg>(NarrowSegment(segment)); }

 private:
  static constexpr uint64_t kCluster = 0x01;
  static constexpr uint64_t kCompress = 0x02;
  static constexpr uint64_t kInterlist = 0x04;
  static constexpr uint64_t kAllocated = 0x08;

  PackedRecord<kBytes> r_;
};
static_assert(sizeof(ListEntry) <= 16);

class ListTable {
 public:
  ListTable() = default;

  // Allocates a list and inserts it into the list of lists after pred_lid
  // (kBeginOfListOfLists = front). NO_SPACE once every Lid up to kMaxId is
  // live (the log stores Lids in 24 bits).
  StatusOr<Lid> Allocate(Lid pred_lid, ListHints hints);

  // Removes the list from the list of lists and frees its id. The caller is
  // responsible for the list's blocks.
  Status Free(Lid lid);

  bool IsAllocated(Lid lid) const;

  ListEntry& entry(Lid lid) { return entries_[lid]; }
  const ListEntry& entry(Lid lid) const { return entries_[lid]; }

  StatusOr<ListEntry*> Lookup(Lid lid);
  StatusOr<const ListEntry*> Lookup(Lid lid) const;

  // Moves lid to sit after new_pred in the list of lists.
  Status Move(Lid lid, Lid new_pred);

  // First list in the list of lists (kNilLid if empty).
  Lid lol_head() const { return lol_head_; }

  uint64_t allocated_count() const { return allocated_count_; }
  Lid max_lid() const { return static_cast<Lid>(entries_.size()) - 1; }

  // Recovery support: force-materialize a lid.
  ListEntry& EnsureAllocated(Lid lid);
  // Recovery-time deallocation; tolerant of duplicates, skips LoL unlinking
  // (RelinkListOfLists runs afterwards).
  void ForceFree(Lid lid);
  void RebuildFreeList();
  // Rebuilds lol_prev pointers and lol_head_ from lol_next chains after
  // recovery.
  void RelinkListOfLists();

  uint64_t MemoryBytes() const;
  void Clear();

 private:
  void UnlinkFromLol(Lid lid);
  void LinkIntoLol(Lid lid, Lid pred);

  std::vector<ListEntry> entries_{1};
  std::vector<Lid> free_lids_;
  Lid lol_head_ = kNilLid;
  uint64_t allocated_count_ = 0;
};

}  // namespace ld

#endif  // SRC_LLD_LIST_TABLE_H_
