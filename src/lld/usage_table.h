// The segment usage table (paper §3): live bytes per segment, plus the
// newest timestamp seen in each segment (the "age" input to the cost-benefit
// cleaning policy). Kept in main memory: three bytes per segment in the
// paper's accounting, a small struct here.

#ifndef SRC_LLD_USAGE_TABLE_H_
#define SRC_LLD_USAGE_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/ld/types.h"

namespace ld {

enum class SegmentState : uint8_t {
  kFree = 0,    // Available for reuse.
  kFull,        // Written, may contain live data or live metadata records.
  kScratch,     // Holds a superseded-on-full partial copy of the open segment.
  kCleaning,    // Being cleaned: not pickable as victim or free target.
  kParity,      // Holds a stripe-set parity image: not a victim, not free.
};

// Parity-block geometry of a segment, mirrored from its kSegmentParity
// summary record (and rebuilt from the summaries during recovery) so the
// read path can reconstruct without re-reading the summary. `has` is false
// for segments written with segment_parity off.
struct ParityGeometry {
  bool has = false;
  uint32_t offset = 0;   // Byte offset of the parity block in the segment.
  uint32_t bytes = 0;    // Parity length (the XOR lane period).
  uint32_t covered = 0;  // Data-area bytes the parity covers: [0, covered).
  uint32_t crc = 0;      // 24-bit CRC of the parity bytes themselves.
};

struct SegmentUsage {
  SegmentState state = SegmentState::kFree;

 private:
  // Written only through UsageTable, which keeps the volume's total.
  friend class UsageTable;
  uint32_t live_bytes_ = 0;

 public:
  uint32_t live_bytes() const { return live_bytes_; }
  OpTimestamp newest_ts = 0;  // Newest block timestamp written into it.
  uint64_t seq = 0;           // Sequence number of the summary written there.

  // Newest *original* write timestamp among the live data — the age input of
  // cost-benefit victim scoring. Foreground writes advance it together with
  // newest_ts; the cleaner installs re-logged blocks with their source
  // blocks' write timestamps instead of the relog timestamp, so data that
  // survived a cleaning pass keeps looking old (and its segment keeps
  // scoring as a cheap victim) rather than resetting to "just written".
  // 0 = unknown; scoring falls back to newest_ts.
  OpTimestamp age_ts = 0;

  // Generation tag: set on segments written by the cleaner (their contents
  // survived at least one cleaning pass — cold by definition), clear on
  // foreground-written segments. Observability for the hot/cold split; the
  // scoring itself reads the preserved ages above.
  bool cold = false;

  // Erase/rewrite wear: full or partial segment images programmed into this
  // physical segment. In-memory and session-scoped (recovery restarts the
  // count); LldCounters' wear histogram follows it.
  uint32_t wear = 0;

  // Shadow pins: copies in this segment that are dead in the in-memory map
  // but still the *last durably-committed* version of their block — the
  // superseding write (or free) belongs to an ARU whose commit record has
  // not reached the media yet. The cleaner must not recycle the segment
  // while any are held, or a crash before the commit seals would leave
  // recovery rolling back to a copy that no longer exists.
  uint32_t aru_pins = 0;

  ParityGeometry parity;
};

class UsageTable {
 public:
  explicit UsageTable(uint32_t num_segments) : segments_(num_segments) {}

  uint32_t num_segments() const { return static_cast<uint32_t>(segments_.size()); }

  SegmentUsage& segment(uint32_t index) { return segments_[index]; }
  const SegmentUsage& segment(uint32_t index) const { return segments_[index]; }

  // Shadow-pin bookkeeping (see SegmentUsage::aru_pins); pinned segments are
  // excluded from victim selection until the pins drain.
  void PinAru(uint32_t index) { segments_[index].aru_pins++; }
  void UnpinAru(uint32_t index) {
    if (segments_[index].aru_pins > 0) {
      segments_[index].aru_pins--;
    }
  }

  void AddLive(uint32_t index, uint32_t bytes, OpTimestamp ts);
  // Cleaner variant: the bytes were *re-logged* at `relog_ts` but were
  // originally written at `age` — newest_ts advances to the relog time (it
  // orders record authority) while age_ts only absorbs the preserved age.
  void AddLiveAged(uint32_t index, uint32_t bytes, OpTimestamp relog_ts, OpTimestamp age);
  void RemoveLive(uint32_t index, uint32_t bytes);
  // Sets the segment's live bytes outright: a decoded checkpoint's count, or
  // 0 for a segment that cleaning, scrub retirement or a stripe set empties.
  void SetLive(uint32_t index, uint32_t bytes);

  uint32_t FreeCount() const;
  // Sum of every segment's live bytes, kept as they change.
  uint64_t TotalLiveBytes() const { return total_live_bytes_; }

  // Lowest-live-bytes kFull segment, or -1 if none.
  int64_t PickGreedy() const;

  // Sprite LFS cost-benefit: maximize (1 - u) * age / (1 + u), with u the
  // live fraction and age derived from the preserved write timestamps
  // (age_ts, falling back to newest_ts for segments without one). `now` is
  // the current operation timestamp.
  int64_t PickCostBenefit(uint32_t segment_capacity, OpTimestamp now) const;

  // Any free segment, or -1.
  int64_t PickFree() const;

  // The free segment closest to `target` (for placement-sensitive writers,
  // e.g. the hot-block rearranger centering its output), or -1.
  int64_t PickFreeNear(uint32_t target) const;

  // Allocation filter for incremental checkpointing: when set, PickFree and
  // PickFreeNear only return segments whose mask byte is non-zero — the
  // allocation *window* the latest checkpoint frame recorded, so crash
  // recovery knows exactly which segments may hold post-checkpoint writes.
  // The mask is owned by the caller (LLD) and must outlive the table or be
  // cleared with nullptr; null means every free segment is eligible.
  void SetAllocFilter(const std::vector<uint8_t>* mask) { alloc_mask_ = mask; }
  bool Allocatable(uint32_t index) const {
    return alloc_mask_ == nullptr ||
           (index < alloc_mask_->size() && (*alloc_mask_)[index] != 0);
  }
  // Free segments currently eligible for allocation under the filter.
  uint32_t AllocatableCount() const;

  // Victim filter for degraded mode: when set, PickGreedy and PickCostBenefit
  // skip segments whose mask byte is zero. Distinct from the allocation
  // filter — that one encodes the checkpoint allocation *window*, while this
  // one excludes segments the cleaner cannot harvest at all (e.g. segments
  // spanning a failed channel, whose summary read would hard-fail). Same
  // ownership rules: caller-owned, null means every kFull segment is eligible.
  void SetVictimFilter(const std::vector<uint8_t>* mask) { victim_mask_ = mask; }
  bool Harvestable(uint32_t index) const {
    return victim_mask_ == nullptr ||
           (index < victim_mask_->size() && (*victim_mask_)[index] != 0);
  }

  void Reset();

  uint64_t MemoryBytes() const { return segments_.capacity() * sizeof(SegmentUsage); }

 private:
  std::vector<SegmentUsage> segments_;
  uint64_t total_live_bytes_ = 0;
  const std::vector<uint8_t>* alloc_mask_ = nullptr;
  const std::vector<uint8_t>* victim_mask_ = nullptr;
};

}  // namespace ld

#endif  // SRC_LLD_USAGE_TABLE_H_
