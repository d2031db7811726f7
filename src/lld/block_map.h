// The block-number map (paper Figure 2): for every logical block its
// physical address, its successor in its list, its length, and whether it is
// compressed. Kept entirely in main memory, exactly as the prototype LLD
// does; the memory-model in src/lld/memory_model.h accounts for its cost.

#ifndef SRC_LLD_BLOCK_MAP_H_
#define SRC_LLD_BLOCK_MAP_H_

#include <cstdint>
#include <vector>

#include "src/ld/types.h"
#include "src/util/status.h"

namespace ld {

// Physical location of a block's current copy: a segment index and a byte
// offset within the segment. Blocks living in the in-memory open segment use
// kOpenSegment as their segment index.
struct PhysAddr {
  static constexpr uint32_t kNone = 0xffffffffu;
  static constexpr uint32_t kOpenSegment = 0xfffffffeu;

  uint32_t segment = kNone;
  uint32_t offset = 0;

  bool IsNone() const { return segment == kNone; }
  bool IsOpen() const { return segment == kOpenSegment; }
  bool IsOnDisk() const { return segment < kOpenSegment; }

  bool operator==(const PhysAddr& other) const = default;
};

// Sentinel for "no on-disk record" in the authority fields below.
constexpr uint32_t kNoAuthoritySeg = 0xffffffffu;

struct BlockMapEntry {
  PhysAddr phys;                 // kNone until first written.
  Bid successor = kNilBid;       // Next block in the owning list.
  Lid list = kNilLid;            // Owning list.
  uint32_t size_class = 0;       // Logical block size in bytes.
  uint32_t stored_size = 0;      // Bytes occupied on disk (== size_class unless compressed).
  bool compressed = false;
  bool allocated = false;
  OpTimestamp write_ts = 0;      // Timestamp of the current copy.

  // 24-bit payload checksum (PayloadCrc of the stored bytes), mirrored from
  // the block's summary record so reads can verify without touching the
  // summary. Every on-disk copy has one, and every read of it verifies.
  uint32_t payload_crc = 0;

  // Record authority: which segment's summary holds the *latest* on-disk
  // link tuple / allocation record for this block. Only that segment's
  // cleaning re-logs the record; other segments' stale mentions are simply
  // dropped, which keeps the metadata-log mass bounded by the number of
  // live entities instead of growing with every cleaning pass.
  uint32_t link_seg = kNoAuthoritySeg;
  uint32_t alloc_seg = kNoAuthoritySeg;

  // Read-frequency estimate for the adaptive rearranger (§5.3); maintained
  // only when LldOptions::track_read_heat is set.
  uint32_t read_count = 0;
};

class BlockMap {
 public:
  BlockMap() = default;

  // Allocates a fresh Bid (never kNilBid), reusing freed numbers first.
  Bid Allocate(Lid list, uint32_t size_class);

  // Frees a Bid; its entry is reset and the number is recycled.
  Status Free(Bid bid);

  bool IsAllocated(Bid bid) const;

  // Entry accessors; the caller must ensure the bid is allocated.
  BlockMapEntry& entry(Bid bid) { return entries_[bid]; }
  const BlockMapEntry& entry(Bid bid) const { return entries_[bid]; }

  StatusOr<BlockMapEntry*> Lookup(Bid bid);
  StatusOr<const BlockMapEntry*> Lookup(Bid bid) const;

  // Number of allocated blocks.
  uint64_t allocated_count() const { return allocated_count_; }

  // Highest Bid ever allocated (for iteration: valid bids are 1..max_bid()).
  Bid max_bid() const { return static_cast<Bid>(entries_.size()) - 1; }

  // Re-registers a bid during recovery (entries may arrive out of order).
  // Grows the map as needed and marks the bid allocated.
  BlockMapEntry& EnsureAllocated(Bid bid);

  // Recovery-time deallocation: clears the entry without touching the free
  // list (RebuildFreeList runs afterwards). Tolerates replayed duplicates.
  void ForceFree(Bid bid);

  // Rebuilds the free-number list after recovery: every bid in
  // 1..max that is not allocated becomes free.
  void RebuildFreeList();

  // Bytes of in-memory data-structure footprint (for the memory benchmark).
  uint64_t MemoryBytes() const;

  void Clear();

 private:
  // entries_[0] is a dummy so Bid 0 stays reserved.
  std::vector<BlockMapEntry> entries_{1};
  std::vector<Bid> free_bids_;
  uint64_t allocated_count_ = 0;
};

}  // namespace ld

#endif  // SRC_LLD_BLOCK_MAP_H_
