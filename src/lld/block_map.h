// The block-number map (paper Figure 2): for every logical block its
// physical address, its successor in its list, its length, and whether it is
// compressed. Kept entirely in main memory, exactly as the prototype LLD
// does; the memory-model in src/lld/memory_model.h accounts for its cost.

#ifndef SRC_LLD_BLOCK_MAP_H_
#define SRC_LLD_BLOCK_MAP_H_

#include <cstdint>
#include <vector>

#include "src/ld/types.h"
#include "src/lld/packed_record.h"
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

// One block's entry, packed at the summary records' field widths (see
// packed_record.h): 250 bits of fields in 32 bytes.
class BlockMapEntry {
 public:
  // The layout, one (byte offset, width) per field. The first group is the
  // paper's entry (address, successor, size, compressed bit, plus the
  // allocated bit), the second this implementation's extensions.
  static constexpr PackedField kSegment{0, 3};
  static constexpr PackedField kOffset{3, 3};
  static constexpr PackedField kSuccessor{6, 3};
  static constexpr PackedField kSizeClass{9, 2};
  static constexpr PackedField kStoredSize{11, 2};
  static constexpr PackedField kFlags{13, 1};  // Bit 0 compressed, bit 1 allocated.
  static constexpr PackedField kList{14, 3};
  static constexpr PackedField kPayloadCrc{17, 3};
  static constexpr PackedField kLinkSeg{20, 3};
  static constexpr PackedField kAllocSeg{23, 3};
  static constexpr PackedField kWriteTs{26, 6};
  static constexpr size_t kBytes = 32;

  BlockMapEntry() {
    set_phys(PhysAddr{});
    set_link_seg(kNoAuthoritySeg);
    set_alloc_seg(kNoAuthoritySeg);
  }

  // kNone until first written.
  PhysAddr phys() const {
    return {WidenSegment(r_.Load<kSegment>()), static_cast<uint32_t>(r_.Load<kOffset>())};
  }
  void set_phys(PhysAddr p) {
    r_.Store<kSegment>(NarrowSegment(p.segment));
    r_.Store<kOffset>(p.offset);
  }

  // Next block in the owning list.
  Bid successor() const { return static_cast<Bid>(r_.Load<kSuccessor>()); }
  void set_successor(Bid bid) { r_.Store<kSuccessor>(bid); }

  // Logical block size in bytes.
  uint32_t size_class() const { return static_cast<uint32_t>(r_.Load<kSizeClass>()); }
  void set_size_class(uint32_t bytes) { r_.Store<kSizeClass>(bytes); }

  // Bytes occupied on disk (== size_class unless compressed).
  uint32_t stored_size() const { return static_cast<uint32_t>(r_.Load<kStoredSize>()); }
  void set_stored_size(uint32_t bytes) { r_.Store<kStoredSize>(bytes); }

  bool compressed() const { return Flag(kCompressedBit); }
  void set_compressed(bool on) { SetFlag(kCompressedBit, on); }
  bool allocated() const { return Flag(kAllocatedBit); }
  void set_allocated(bool on) { SetFlag(kAllocatedBit, on); }

  // Owning list.
  Lid list() const { return static_cast<Lid>(r_.Load<kList>()); }
  void set_list(Lid lid) { r_.Store<kList>(lid); }

  // 24-bit payload checksum (PayloadCrc of the stored bytes), mirrored from
  // the block's summary record so reads can verify without touching the
  // summary. Every on-disk copy has one, and every read of it verifies.
  uint32_t payload_crc() const { return static_cast<uint32_t>(r_.Load<kPayloadCrc>()); }
  void set_payload_crc(uint32_t crc) { r_.Store<kPayloadCrc>(crc); }

  // Record authority: which segment's summary holds the *latest* on-disk
  // link tuple / allocation record for this block (kNoAuthoritySeg when
  // none). Only that segment's cleaning re-logs the record; other segments'
  // stale mentions are simply dropped, which keeps the metadata-log mass
  // bounded by the number of live entities instead of growing with every
  // cleaning pass.
  uint32_t link_seg() const { return WidenSegment(r_.Load<kLinkSeg>()); }
  void set_link_seg(uint32_t segment) { r_.Store<kLinkSeg>(NarrowSegment(segment)); }
  uint32_t alloc_seg() const { return WidenSegment(r_.Load<kAllocSeg>()); }
  void set_alloc_seg(uint32_t segment) { r_.Store<kAllocSeg>(NarrowSegment(segment)); }

  // Timestamp of the current copy (48 bits, as in the summary record).
  OpTimestamp write_ts() const { return r_.Load<kWriteTs>(); }
  void set_write_ts(OpTimestamp ts) { r_.Store<kWriteTs>(ts); }

 private:
  static constexpr uint8_t kCompressedBit = 0x01;
  static constexpr uint8_t kAllocatedBit = 0x02;

  bool Flag(uint8_t bit) const { return (r_.Load<kFlags>() & bit) != 0; }
  void SetFlag(uint8_t bit, bool on) {
    const uint64_t flags = r_.Load<kFlags>();
    r_.Store<kFlags>(on ? flags | bit : flags & ~uint64_t{bit});
  }

  PackedRecord<kBytes> r_;
};
static_assert(sizeof(BlockMapEntry) <= 32);

class BlockMap {
 public:
  BlockMap() = default;

  // Allocates a fresh Bid (never kNilBid), reusing freed numbers first.
  // NO_SPACE once every Bid up to kMaxId is live: the log stores Bids in 24
  // bits, so a larger one would be logged under another block's number.
  StatusOr<Bid> Allocate(Lid list, uint32_t size_class);

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

  // Grows the map so that `bid` has an entry; new entries are free. For
  // recovery, before RebuildFreeList.
  void Extend(Bid bid);

  // Rebuilds the free-number list after recovery: every bid in
  // 1..max that is not allocated becomes free.
  void RebuildFreeList();

  // Read-frequency estimate for the adaptive rearranger (§5.3). The counts
  // live in a side table that grows on the first CountRead, so it costs
  // nothing unless LldOptions::track_read_heat makes reads count. A freed
  // bid's count restarts at zero.
  void CountRead(Bid bid);
  uint32_t read_count(Bid bid) const { return bid < read_counts_.size() ? read_counts_[bid] : 0; }

  // Bytes of in-memory data-structure footprint (for the memory benchmark).
  uint64_t MemoryBytes() const;

  void Clear();

 private:
  void ResetEntry(Bid bid);

  // entries_[0] is a dummy so Bid 0 stays reserved.
  std::vector<BlockMapEntry> entries_{1};
  std::vector<Bid> free_bids_;
  std::vector<uint32_t> read_counts_;
  uint64_t allocated_count_ = 0;
};

}  // namespace ld

#endif  // SRC_LLD_BLOCK_MAP_H_
