// LLD: the log-structured implementation of the Logical Disk (paper §3).
//
// LLD divides the disk into fixed-size segments; the segment being filled
// lives in main memory and is written in one disk operation. Each segment
// carries a summary used as a log for LLD's metadata, from which recovery
// can rebuild every in-memory structure in a single sweep over the disk —
// no checkpoints are taken during normal operation (§3.6). Flushes of
// under-filled segments use the paper's partial-segment strategy (§3.2):
// below a threshold the segment is written to a scratch physical segment
// and stays open in memory; the scratch is recycled without cleaning once
// the segment is finally written in full.
//
// On-disk layout:
//
//   sector 0          superblock
//   checkpoint region  two independent (A/B) checkpoint slots, each a
//                      CRC-guarded marker plus a chain of self-validating
//                      frames: one full base image followed by incremental
//                      delta frames (LldOptions::checkpoint_interval_segments).
//                      With incremental checkpointing off this degenerates to
//                      the paper's clean-shutdown image, invalidated on every
//                      startup.
//   segments           [data area | summary]  x num_segments
//
// The summary sits at the *end* of each segment so that a torn segment
// write (a crash mid-write) destroys the summary's CRC and the whole
// segment is ignored by recovery, never partially believed.

#ifndef SRC_LLD_LLD_H_
#define SRC_LLD_LLD_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/disk/block_device.h"
#include "src/disk/reliable_io.h"
#include "src/ld/logical_disk.h"
#include "src/lld/block_map.h"
#include "src/lld/list_table.h"
#include "src/lld/lld_options.h"
#include "src/lld/reports.h"
#include "src/lld/summary_record.h"
#include "src/lld/usage_table.h"

namespace ld {

inline uint64_t RoundUp(uint64_t value, uint64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

// Operation counters exposed for tests and benchmarks.
struct LldCounters {
  uint64_t user_writes = 0;           // Write() calls.
  uint64_t user_reads = 0;            // Read() and SubmitRead() calls.
  uint64_t user_bytes_written = 0;    // Logical bytes accepted from Write().
  uint64_t stored_bytes_written = 0;  // Bytes appended to segments (post-compression).
  uint64_t segments_written = 0;      // Full segment writes.
  uint64_t partial_segments_written = 0;
  uint64_t segments_cleaned = 0;
  uint64_t blocks_cleaned = 0;
  uint64_t cleaner_bytes_copied = 0;
  // Segment images programmed onto the media this session: full seals,
  // partial (scratch) flushes, cleaner output, stripe parity images, and
  // rebuild re-materializations. Each bumps exactly one segment's wear count
  // (see SegmentUsage::wear), so this equals the usage table's total wear —
  // the invariant the wear-histogram property tests check.
  uint64_t segment_images_written = 0;
  // Erase/rewrite wear spread, as a flash translation layer would report it.
  // wear_histogram[i] counts segments whose latest image took them to wear
  // i+1 (the last bucket absorbs everything >= kWearBuckets), so the
  // weighted bucket sum equals segment_images_written while no segment has
  // overflowed the last bucket. segment_wear_max is the highest wear an
  // image reached.
  static constexpr size_t kWearBuckets = 16;
  uint64_t wear_histogram[kWearBuckets] = {};
  uint64_t segment_wear_max = 0;
  // Cleaner-written (cold-generation) segment images, a subset of the above.
  uint64_t cold_segments_written = 0;
  uint64_t flushes = 0;
  uint64_t nvram_absorbed_flushes = 0;
  uint64_t arus_committed = 0;
  uint64_t pred_hint_hits = 0;
  uint64_t pred_hint_misses = 0;
  uint64_t blocks_compressed = 0;
  uint64_t compression_saved_bytes = 0;
  uint64_t read_crc_failures = 0;     // Reads that failed payload-CRC verification.
  // Damaged blocks rebuilt from segment parity (read path + scrub). Each one
  // is also relocated through the log so the repaired copy is durable.
  uint64_t blocks_reconstructed = 0;
  // Damaged blocks rebuilt from the cross-channel stripe peers (second
  // redundancy tier — the per-segment lane could not repair them).
  uint64_t blocks_stripe_reconstructed = 0;
  // Cross-channel stripe sets formed (seal-time + FormStripes) / dissolved
  // (cleaner countermand, scrub retirement, rebuild double fault).
  uint64_t stripes_formed = 0;
  uint64_t stripes_dissolved = 0;
  // Incremental checkpointing: frames committed to the A/B region (base +
  // delta), and rebases (chain compacted into a fresh base in the other slot
  // because the active slot filled up).
  uint64_t checkpoint_frames_written = 0;
  uint64_t checkpoint_rebases = 0;
  // Base frames that outgrew their A/B slot and were not written (typed
  // NO_SPACE; the next open falls back to log recovery).
  uint64_t checkpoints_skipped_oversize = 0;

  // Counts one segment image that took its segment to wear `new_wear`
  // (>= 1): moves the segment up one histogram bucket.
  void NoteSegmentImage(uint32_t new_wear) {
    auto bucket = [](uint32_t w) { return std::min<size_t>(w, kWearBuckets) - 1; };
    if (new_wear > 1 && wear_histogram[bucket(new_wear - 1)] > 0) {
      wear_histogram[bucket(new_wear - 1)]--;
    }
    wear_histogram[bucket(new_wear)]++;
    segment_images_written++;
    segment_wear_max = std::max<uint64_t>(segment_wear_max, new_wear);
  }
};

class MaintenanceScheduler;

// In-memory footprint of LLD's data structures (paper Table 2).
struct MemoryFootprint {
  uint64_t block_map_bytes = 0;
  uint64_t list_table_bytes = 0;
  uint64_t usage_table_bytes = 0;
  uint64_t open_segment_bytes = 0;
  // Captured summary records awaiting the next incremental checkpoint frame
  // (zero with checkpoint_interval_segments == 0).
  uint64_t checkpoint_pending_bytes = 0;
  uint64_t Total() const {
    return block_map_bytes + list_table_bytes + usage_table_bytes + open_segment_bytes +
           checkpoint_pending_bytes;
  }
};

class LogStructuredDisk : public LogicalDisk {
 public:
  // Formats `device` for LLD (writes the superblock, invalidates the
  // checkpoint, erases stale summaries) and returns a running instance.
  static StatusOr<std::unique_ptr<LogStructuredDisk>> Format(BlockDevice* device,
                                                             const LldOptions& options);

  // Opens a previously formatted device. Uses the newest valid checkpoint
  // chain (clean-shutdown image or base + incremental deltas) when one
  // exists, falling back along the typed ladder in RecoveryReport otherwise;
  // last_recovery() on the returned instance reports what happened.
  static StatusOr<std::unique_ptr<LogStructuredDisk>> Open(BlockDevice* device,
                                                           const LldOptions& options);

  ~LogStructuredDisk() override = default;

  // ---- LogicalDisk interface ---------------------------------------------
  Status Read(Bid bid, std::span<uint8_t> out) override;
  // Queues the media transfer of a plain on-disk block and returns its tag;
  // holes, open-segment copies, compressed blocks, and anything needing the
  // repair path fall back to a synchronous Read (kInvalidIoTag).
  StatusOr<IoTag> SubmitRead(Bid bid, std::span<uint8_t> out) override;
  Status WaitRead(IoTag tag) override;
  Status Write(Bid bid, std::span<const uint8_t> data) override;
  StatusOr<Bid> NewBlock(Lid lid, Bid pred_bid, uint32_t size_bytes = 0) override;
  Status DeleteBlock(Bid bid, Lid lid, Bid pred_bid_hint) override;
  StatusOr<Lid> NewList(Lid pred_lid, ListHints hints) override;
  Status DeleteList(Lid lid, Lid pred_lid_hint) override;
  Status MoveSublist(Bid first, Bid last, Lid from_lid, Lid to_lid, Bid pred_bid) override;
  Status MoveList(Lid lid, Lid new_pred_lid) override;
  Status FlushList(Lid lid) override;
  Status BeginARU() override;
  Status EndARU() override;
  // Concurrent ARUs (paper §5.4's proposed extension): the summary-record
  // format already tags every record with an ARU id, so interleaved units
  // fall out naturally — recovery applies a unit's records only if its
  // commit record is on disk, regardless of interleaving.
  StatusOr<AruId> BeginConcurrentARU() override;
  Status SelectARU(AruId id) override;
  Status EndConcurrentARU(AruId id) override;
  Status AbandonARU(AruId id) override;
  // SwapContents (paper §5.4): implemented as a crash-atomic exchange
  // through the log (an internal ARU containing both rewrites), giving the
  // paper's semantics — the new versions install atomically.
  Status SwapContents(Bid a, Bid b) override;
  // Offset addressing (paper §5.4): index a list as an array.
  StatusOr<Bid> BlockAtIndex(Lid lid, uint64_t index) override;
  Status Flush(FailureSet failures = FailureSet::kPowerFailure) override;
  Status ReserveBlocks(uint64_t count, uint32_t size_bytes = 0) override;
  Status CancelReservation(uint64_t count, uint32_t size_bytes = 0) override;
  Status Shutdown() override;
  uint32_t default_block_size() const override { return options_.block_size; }
  StatusOr<uint32_t> BlockSize(Bid bid) const override;
  uint64_t FreeBytes() const override;

  // ---- Maintenance --------------------------------------------------------

  // Runs the segment cleaner on up to `count` victim segments (paper §3.5).
  Status CleanSegments(uint32_t count);

  // Idle-time reorganizer: rewrites on-disk blocks in list order (walking the
  // list of lists) to restore sequential layout, using at most
  // `max_segments` fresh segments. Returns the number of segments written.
  StatusOr<uint32_t> ReorganizeLists(uint32_t max_segments);

  // Adaptive rearrangement (Akyürek & Salem 1993, §5.3): rewrites the most
  // frequently read on-disk blocks together, so random reads of the hot set
  // pay short seeks. Requires LldOptions::track_read_heat. Returns the
  // number of blocks moved.
  StatusOr<uint32_t> RearrangeHotBlocks(uint32_t max_blocks);

  // Read-repair pass (lld_scrub.cc): verifies every full segment's summary
  // and every live on-disk block's payload CRC, relocates all live blocks
  // off segments whose summaries are damaged (through the cleaner's writer),
  // re-logs their metadata from the in-memory tables, and retires them —
  // after which a crash+recovery no longer trips on the damage. Damaged
  // *payloads* are reported (blocks_corrupt / blocks_unreadable); their
  // contents cannot be recomputed from a single copy, so reads keep
  // returning typed errors for them. Requires no open ARUs. With
  // LldOptions::segment_parity, a single damaged extent per segment is
  // *reconstructed* from the segment's parity block and relocated instead.
  StatusOr<ScrubReport> Scrub() override;

  // Incremental scrub: verifies the next `max_segments` segment summaries
  // (and the payload CRCs of all live blocks stored in that segment range)
  // from a persistent cursor, running the full suspect-retirement protocol
  // per slice. One *cycle* covers the whole volume; the returned report
  // accumulates across the cycle's slices and resets when a new cycle
  // starts (the cursor wraps). Each slice is individually crash-safe — the
  // relocation-batch / kScrubIntent / summary-zeroing ordering of the
  // monolithic pass holds within every slice — so a crash between slices is
  // no worse than a crash between two foreground Scrub() calls. Scrub() is
  // exactly one full-range slice after a quiesce (plus a cursor reset), so
  // the all-at-once semantics remain the differential baseline.
  StatusOr<ScrubReport> ScrubStep(uint32_t max_segments);
  // True while an incremental scrub cycle is mid-volume.
  bool scrub_cycle_active() const { return scrub_.active; }
  // Next segment index ScrubStep will examine (0 when no cycle is active).
  uint32_t scrub_cursor() const { return scrub_.cursor; }

  // Writes the deferred checkpoint delta frame if one is due (frames wait
  // for this call while a scheduler with the checkpoint duty is attached;
  // see set_maintenance); returns whether a frame went out.
  StatusOr<bool> CheckpointStep();
  // True when enough seals have accumulated that CheckpointStep would write.
  bool CheckpointFrameDue() const {
    return CheckpointingActive() && !ckpt_in_frame_write_ && ckpt_have_chain_ &&
           ckpt_seals_since_frame_ >= options_.checkpoint_interval_segments &&
           (!ckpt_pending_.empty() || !ckpt_retired_pending_.empty());
  }

  // ---- Cross-channel stripe parity (lld_stripe.cc) -------------------------

  // Maintenance pass: groups every unstriped sealed segment into stripe sets
  // (allowing partial width down to one member + parity on a distinct
  // channel, i.e. a mirror), so planned-failover tests can reach full
  // coverage without waiting for seal-time formation. Requires no open ARUs
  // and LldOptions::stripe_parity on a multi-channel device. Returns the
  // number of stripe sets formed. `max_sets` bounds one call (0 = form until
  // no candidate is left), so the maintenance scheduler can restripe in
  // paced slices after a heal.
  StatusOr<uint32_t> FormStripes(uint32_t max_sets = 0);

  // Tells the allocator that channel `ch` is dead (failed = true): segment
  // allocation, stripe formation, and parity placement avoid its band, and
  // incremental checkpointing is disabled (the checkpoint region may be
  // unreachable). Healing (failed = false) re-admits the band and queues
  // every striped segment on the channel for Rebuild — the heal semantics
  // are a *blank spare* (see FaultDisk::HealChannel), so the old images are
  // gone until rebuilt.
  Status SetChannelFailed(uint32_t ch, bool failed);

  // Re-materializes up to `max_segments` queued segments (0 = all) onto
  // their original locations — now blank spare media — from the N-1
  // surviving stripe peers: member images are XOR-reconstructed and verified
  // against their recorded summary sequence, parity images are recomputed
  // and verified against the recorded parity CRC; any mismatch is a typed
  // double fault (the stripe is dissolved, never guessed at). Rebuild labels
  // no request itself: from a maintenance slice, its I/O bills to the
  // scheduler's tenant like every other duty. Callable incrementally while
  // serving: the returned report *accumulates* across the incremental calls
  // of one rebuild cycle and resets only once the queue has drained, so the
  // last slice's report describes the whole cycle.
  StatusOr<RebuildReport> Rebuild(uint32_t max_segments = 0);

  // Segments queued for Rebuild.
  uint32_t rebuild_pending() const { return static_cast<uint32_t>(rebuild_pending_.size()); }
  // Stripe sets currently registered (tests & benches).
  uint32_t stripe_count() const { return static_cast<uint32_t>(stripes_.size()); }
  // Full segments not covered by any stripe set. A bounded FormStripes pass
  // always leaves at least its record carrier unstriped, so an incremental
  // restripe driver uses this as its convergence signal (population stopped
  // shrinking), not "formed == 0".
  uint32_t UnstripedFullSegments() const {
    uint32_t n = 0;
    for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
      if (usage_->segment(s).state == SegmentState::kFull && member_stripe_.count(s) == 0) {
        n++;
      }
    }
    return n;
  }
  bool channel_marked_failed(uint32_t ch) const {
    return ch < channel_failed_.size() && channel_failed_[ch];
  }

  // The background scheduler running this volume's maintenance, or null. A
  // MaintenanceScheduler attaches itself when constructed and detaches when
  // destroyed (src/lld/lld_maintenance.h). While one is attached, cleaning
  // bills its I/O to kMaintenanceTenant and, if the scheduler runs the
  // checkpoint duty, cadence-driven checkpoint frames wait for
  // CheckpointStep instead of riding the seal. Frames the allocation window
  // needs (the free pool running low) still go out at the seal, so deferral
  // only widens the recovery scan, never weakens it.
  void set_maintenance(const MaintenanceScheduler* scheduler) { maintenance_ = scheduler; }

  // ---- Introspection (tests & benchmarks) ---------------------------------
  // What the last Open() did to rebuild state (RecoveryMode::kNone after
  // Format), including the typed checkpoint fallback ladder.
  const RecoveryReport& last_recovery() const { return last_recovery_; }
  const LldCounters& counters() const { return counters_; }
  // Zeroes every counter, the wear histogram included (SegmentUsage::wear
  // keeps its session count).
  void ResetCounters() { counters_ = LldCounters{}; }
  const LldOptions& options() const { return options_; }
  uint32_t num_segments() const { return usage_->num_segments(); }
  const UsageTable& usage_table() const { return *usage_; }
  const BlockMap& block_map() const { return block_map_; }
  const ListTable& list_table() const { return list_table_; }
  BlockDevice* device() { return device_; }
  DiskStats* device_stats() override { return device_->mutable_stats(); }
  // Walks list `lid` and returns its blocks in order.
  StatusOr<std::vector<Bid>> ListBlocks(Lid lid) const;
  MemoryFootprint MeasureMemory() const;
  // Fill fraction of the in-memory open segment's data area.
  double OpenSegmentFill() const;
  // True after an unrecoverable device write failure: LLD is read-only and
  // every mutating call returns a DEGRADED status (see DESIGN.md
  // "Failure model").
  bool degraded() const override { return degraded_; }
  // Byte addresses of a segment and of its summary region — introspection
  // for fault-injection tests and benches that damage precise locations.
  uint64_t SegmentStartByte(uint32_t segment) const { return SegmentBaseByte(segment); }
  uint64_t SegmentSummaryStartByte(uint32_t segment) const {
    return SegmentBaseByte(segment) + data_capacity_;
  }
  // Bytes of data a segment can hold.
  uint32_t SegmentDataCapacity() const { return data_capacity_; }
  // Byte addresses of the hardened A/B checkpoint region — introspection for
  // fault-injection tests that rot a specific slot's marker or payload.
  uint64_t CheckpointSlotBytes() const;
  uint64_t CheckpointSlotStartByte(uint32_t slot) const;
  uint64_t TotalDataCapacity() const {
    return static_cast<uint64_t>(data_capacity_) * usage_->num_segments();
  }

 private:
  LogStructuredDisk(BlockDevice* device, const LldOptions& options);

  // ---- Layout ------------------------------------------------------------
  Status ComputeLayout();
  uint64_t SegmentBaseByte(uint32_t segment) const;
  Status WriteSuperblock();
  Status ReadAndCheckSuperblock();
  // Last sector of the device: holds the superblock replica (the primary is
  // sector 0, channel 0 — a blank-spare swap there must not lose the volume).
  uint64_t SuperblockReplicaSector() const;

  // ---- Segment images ------------------------------------------------------
  // One segment image under construction, in the paper's single segment
  // format (§3.1): data blocks packed from the front of the data area, then a
  // summary of records. The open segment is one; the cleaner fills its own,
  // so its output never mixes with the user's. Every writer asks Fits()
  // before it appends and seals through SealImage().
  struct SegmentImage {
    std::vector<uint8_t> buffer;  // The whole segment: data area, then summary tail.
    uint32_t used = 0;            // Data bytes appended.
    uint32_t max_stored = 0;      // Largest stored block: sizes the parity lane.
    std::vector<SummaryRecord> records;
    size_t record_bytes = 0;  // Encoded size of `records`.
    // No more data will be appended, so records may spill into the unused
    // end of the data area. Clear() keeps it.
    bool data_complete = false;

    bool empty() const { return used == 0 && records.empty(); }
    // Copies one stored block behind the data; returns its offset.
    uint32_t AppendData(std::span<const uint8_t> stored);
    void AddRecord(const SummaryRecord& record);
    // Drops the data and records; the buffer keeps its bytes.
    void Clear();
  };
  // The one fit rule: whether `data_bytes` more data (one block) and
  // `record_bytes` more records fit `image`, with the parity lane's block
  // and its kSegmentParity record reserved.
  bool Fits(const SegmentImage& image, uint32_t data_bytes, size_t record_bytes) const;
  // Seals `image` as segment `segment` at `seq`. With `lane` and
  // segment_parity on, it first adds the parity block just past the
  // sector-rounded data and its kSegmentParity record. Then it encodes the
  // summary into the tail, spilling records into the unused data area when
  // the data is complete (`*spill` gets their bytes). Returns the lane.
  StatusOr<ParityGeometry> SealImage(SegmentImage* image, uint32_t segment, uint64_t seq,
                                     bool lane, uint32_t* spill = nullptr);

  // ---- Open-segment management --------------------------------------------
  // Ensures at least `data_bytes` of data space and room for `record_bytes`
  // of summary records, flushing the open segment (as full) if necessary.
  Status EnsureRoom(uint32_t data_bytes, size_t record_bytes);
  // Appends all of one operation's records with a single room check so a
  // crash can never persist half of an operation's metadata. Also tags the
  // records with the current ARU.
  Status AppendRecordsAtomic(std::vector<SummaryRecord>* records);
  // Appends block data (already compressed if applicable) + its entry record.
  Status AppendBlockData(Bid bid, std::span<const uint8_t> stored, uint32_t orig_size,
                         bool compressed, bool internal);
  // Seals the open segment, submits it to the device asynchronously (double
  // buffering a fresh open segment), and resets the open state. The write is
  // not durable until WaitForInflight().
  Status FlushOpenSegmentFull();
  // Retires the oldest in-flight segment writes until at most
  // `max_outstanding` remain, advancing the clock to their completion and
  // performing deferred bookkeeping (scratch recycling, buffer reuse).
  Status ReapInflightTo(size_t max_outstanding);
  // Full barrier for the pipelined segment writes.
  Status WaitForInflight() { return ReapInflightTo(0); }
  // How many segment writes may be in flight at once: one per device
  // channel when pipelining (each striped to its own actuator), else one.
  size_t MaxInflight() const;
  // Writes the open segment to a scratch segment, keeping it open (§3.2).
  Status FlushOpenSegmentPartial();
  // Free segments below which the cleaner runs before the next allocation:
  // kFreeSegmentReserve scaled up with the disk.
  uint32_t CleaningReserve() const;
  // Picks a free segment, running the cleaner when the pool is low.
  StatusOr<uint32_t> AllocateFreeSegment(bool allow_clean);
  // Free-segment choice that stripes consecutive picks round-robin across
  // the device's channels (first-free within the preferred channel's band);
  // degenerates to UsageTable::PickFree on single-channel devices.
  int64_t PickFreeSegmentStriped();

  // ---- Segment lifecycle -----------------------------------------------------
  // One segment's summary: the unit the checkpoint chain captures and
  // recovery replays. `parity` is the segment's geometry where known.
  struct LoggedSegment {
    uint32_t segment = 0;
    uint64_t seq = 0;
    ParityGeometry parity;
    std::vector<SummaryRecord> records;
  };
  // A segment summary as read back: the summary layout (tail, spill, header
  // checks) is known only to ReadSummary. `seq_known` says whether
  // header.seq holds the seq an unreadable or corrupt summary claims.
  struct SummaryRead {
    enum Outcome { kNeverWritten, kValid, kUnreadable, kCorrupt } outcome = kNeverWritten;
    SummaryHeader header;
    bool seq_known = false;
    std::vector<SummaryRecord> records;
    Status status;  // kUnreadable: the I/O error; kCorrupt: what failed.
  };
  // Reads `segment`'s summary tail (unless `tail` already holds it) and
  // spill from the device, or both from `image`, a full segment image in
  // memory (which never fails). Only an all-zero tail reads as never
  // written. An IO_ERROR makes the read kUnreadable; other device errors
  // propagate.
  StatusOr<SummaryRead> ReadSummary(uint32_t segment, std::span<const uint8_t> tail = {},
                                    std::span<const uint8_t> image = {});
  // A sealed image carrying `records` went to `segment` (kFull, or kScratch
  // for a partial flush): installs its usage state and record authority,
  // captures it for the next checkpoint frame, and counts the write.
  void InstallSealedImage(uint32_t segment, SegmentState state, uint64_t seq,
                          const ParityGeometry& parity, const std::vector<SummaryRecord>& records);
  // Returns `segment` to the pool as `state` (kFree, or kParity for a stripe
  // parity image) with no age, generation, or parity geometry.
  void ResetSegment(uint32_t segment, SegmentState state);
  // Zeroes `segment`'s summary tail so it reads as never written.
  Status ZeroSummary(uint32_t segment);
  // Post-seal bookkeeping shared by full and partial flushes: drops the
  // shadow pins of units whose commit records rode the seal, optionally
  // waits for the pipelined write, and keeps the checkpoint frame cadence.
  Status FinishSeal(bool wait_for_inflight);

  // ---- Segment parity (segment_parity option) ------------------------------
  // XOR lane period for a segment whose largest stored block is `max_stored`:
  // one sector more than the sector-rounded block, so any sector-aligned
  // extent containing one block stays within a single lane period and is
  // therefore reconstructible. 0 when parity is off or there is no data.
  uint32_t ParityBytesFor(uint32_t max_stored) const;
  // Rebuilds the bytes of the sector-aligned extent around
  // [offset, offset + out.size()) of `segment`'s data area from the
  // segment's parity block, writing just the requested byte range into
  // `out`. Fails (typed) when the segment has no parity, the parity block
  // itself is damaged, or a second extent of the covered area is unreadable.
  // The caller must verify the result against the block's original payload
  // CRC before trusting it.
  Status ReconstructExtent(uint32_t segment, uint32_t offset, std::span<uint8_t> out);
  // First repair tier: reconstructs entry's stored bytes via parity into
  // `out` and verifies them against the entry's payload CRC (its callers
  // relocate the result). On success bumps blocks_reconstructed. On any
  // failure returns `damage` unchanged.
  Status TryReconstructStored(Bid bid, const BlockMapEntry& entry, std::span<uint8_t> out,
                              const Status& damage);
  // CORRUPTION (and counts read_crc_failures) unless `stored_bytes` match the
  // entry's payload CRC.
  Status VerifyStored(Bid bid, const BlockMapEntry& entry, std::span<const uint8_t> stored_bytes);
  // Read-path repair after `damage`: the parity lane, then the stripe peers,
  // then a best-effort relocation. Returns `damage` unchanged unless it is
  // IO_ERROR or CORRUPTION. Read and SubmitRead both end here on damage.
  Status RepairStored(Bid bid, const BlockMapEntry& entry, std::span<uint8_t> stored_bytes,
                      bool compressed, const Status& damage);

  // ---- Helpers -------------------------------------------------------------
  // Sets a re-entrancy flag for one scope and restores its previous value.
  struct FlagGuard {
    bool* flag;
    bool prev;
    explicit FlagGuard(bool* f) : flag(f), prev(*f) { *f = true; }
    ~FlagGuard() { *flag = prev; }
  };
  OpTimestamp NextTs() { return next_ts_++; }
  bool InAru() const { return current_aru_ != 0; }
  // Releases the space held by a block's current copy (map must be current).
  void ReleaseBlockSpace(const BlockMapEntry& entry);
  // Marks `segment` as the authoritative holder of the latest on-disk copy
  // of each metadata record in `records` (see BlockMapEntry::link_seg).
  void UpdateRecordAuthority(uint32_t segment, const std::vector<SummaryRecord>& records);
  // Unlinks `bid` from its list using the predecessor hint; logs the update.
  Status UnlinkFromList(Bid bid, Lid lid, Bid pred_bid_hint);
  // Queues the read of an on-disk block copy's stored bytes and returns the
  // device tag; the bytes are in `out` at submit. ReadStored also waits.
  StatusOr<IoTag> SubmitStored(const BlockMapEntry& entry, std::span<uint8_t> out);
  Status ReadStored(const BlockMapEntry& entry, std::span<uint8_t> out);
  // Marks LLD degraded after an unrecoverable device write failure and
  // returns the DEGRADED status mutating callers must surface.
  Status EnterDegradedMode(const Status& cause);
  // Routes a device write failure: IO_ERROR (the device lost the write even
  // after retries) degrades LLD; other failures pass through unchanged.
  Status HandleWriteFailure(const Status& s) {
    return s.code() == ErrorCode::kIoError ? EnterDegradedMode(s) : s;
  }
  // Shared guard for every mutating entry point.
  Status CheckWritable() const;
  // Wear accounting: a full or partial segment image was programmed into
  // `segment`. Bumps the segment's wear count and the wear histogram
  // (flash erase/rewrite accounting).
  void NoteSegmentImageWrite(uint32_t segment);
  // Charges (de)compression CPU time to the simulated clock.
  void ChargeCompressCpu(uint64_t bytes);
  void ChargeListCpu();
  void ChargeDecompressCpu(uint64_t bytes);
  uint64_t LiveBytes() const;

  // ---- Stripe parity internals (lld_stripe.cc) -----------------------------
  // One cross-channel stripe set: `members` (one sealed segment per distinct
  // channel) XOR to the image stored in `parity_segment`. `member_seqs`
  // snapshot each member's summary sequence at formation, so a reused
  // segment is never mistaken for the striped image. `record_segment` is the
  // segment whose summary currently holds the set's kStripeParity records
  // (the cleaner re-logs them when it reclaims that segment).
  struct StripeSet {
    uint32_t parity_segment = 0;
    std::vector<uint32_t> members;
    std::vector<uint64_t> member_seqs;
    uint32_t parity_crc = 0;       // 24-bit CRC of the parity segment image.
    uint32_t record_segment = 0;
  };
  bool StripeEnabled() const {
    return options_.stripe_parity && device_->num_channels() >= 2;
  }
  // Channel owning `segment` (by its first sector). Channel bands are
  // cylinder-aligned, not segment-aligned, so a segment whose byte range
  // crosses a band boundary lives on TWO adjacent channels —
  // SegmentLastChannel() reveals the other end, and placement or usability
  // decisions must consider the whole [first, last] span.
  uint32_t SegmentChannel(uint32_t segment) const;
  uint32_t SegmentLastChannel(uint32_t segment) const;
  bool SegmentOnChannel(uint32_t segment, uint32_t ch) const;
  // All channels the segment's span touches accept I/O.
  bool SegmentChannelsUsable(uint32_t segment) const;
  bool ChannelUsable(uint32_t ch) const {
    return ch >= channel_failed_.size() || !channel_failed_[ch];
  }
  // The one stripe-XOR routine: reads bytes [offset, offset + acc.size())
  // of `segment` and XORs them into `acc`.
  Status XorSegmentRange(uint32_t segment, uint32_t offset, std::span<uint8_t> acc);
  // Rebuilds stripe member `members[index]` into `image` (one whole segment)
  // from the parity segment and the other members, parity first, and checks
  // that the result decodes at the member's recorded `seq`. A component that
  // fails to read returns its read error, naming the component; a parity
  // image failing `parity_crc` or a summary not valid at `seq` is CORRUPTION.
  StatusOr<SummaryRead> RebuildStripeMember(uint32_t parity, uint32_t parity_crc,
                                            const std::vector<uint32_t>& members, size_t index,
                                            uint64_t seq, std::span<uint8_t> image);
  // The one stripe planner. Plans one set from the oldest unstriped sealed
  // segment per channel and a free parity target, neither of them `skip`ped
  // nor in a pending set: its records join the open segment's summary (the
  // carrier), the target is reserved kParity, and the image waits in
  // pending_parity_ for the carrier's seal. `full_width` is the seal-time
  // shape, single-band members on every live channel but the parity's;
  // otherwise (FormStripes) any span-disjoint width of one or more goes.
  // False when no set fits the free pool or the carrier's summary.
  StatusOr<bool> PlanStripe(bool full_width, const std::function<bool(uint32_t)>& skip);
  // Shared formation core: XORs `members`' full images into `*image` (the
  // parity image for `parity_segment`) and returns the finished set (caller
  // appends records, writes the image, and registers).
  StatusOr<StripeSet> ComputeStripe(const std::vector<uint32_t>& members,
                                    uint32_t parity_segment, std::vector<uint8_t>* image);
  // Writes a computed parity image and registers its set in the maps.
  Status CommitStripe(StripeSet set, const std::vector<uint8_t>& parity_image);
  void RegisterStripe(StripeSet set);
  void EraseStripe(uint32_t parity_segment);
  // Appends the full kStripeParity record set of `set` to `records`.
  void AppendStripeRecords(const StripeSet& set, OpTimestamp ts,
                           std::vector<SummaryRecord>* records) const;
  // Dissolves every stripe touching a victim in `victims`: zeroes the parity
  // segment's summary region (so its later reuse can never read as a suspect
  // summary), strips re-logged records for the set from `batch_records`, and
  // appends the countermand (member count 0) record. The caller frees the
  // parity segment after the batch is durable via the returned list.
  StatusOr<std::vector<uint32_t>> DissolveStripesTouching(
      const std::vector<uint32_t>& victims, std::vector<SummaryRecord>* batch_records);
  // Second-tier read repair: reconstructs entry's stored bytes by XOR-ing
  // the sector-aligned extent across the N-1 surviving stripe peers and the
  // parity segment, verifies the result against the entry's payload CRC
  // (typed CORRUPTION on any second fault — peer unreadable or CRC
  // mismatch), relocates the repaired copy, and bumps
  // blocks_stripe_reconstructed. Returns `damage` unchanged when the
  // block's segment is not striped.
  Status TryStripeReconstructStored(Bid bid, const BlockMapEntry& entry,
                                    std::span<uint8_t> out, const Status& damage);
  // Rebuilds the channel allocation mask from channel_failed_ and installs /
  // clears it as the usage table's filter (composing with the checkpoint
  // window, which is disabled on channel failure).
  void InstallChannelFilter();
  void EnqueueRebuild(uint32_t segment);

  std::unordered_map<uint32_t, StripeSet> stripes_;       // By parity segment.
  std::unordered_map<uint32_t, uint32_t> member_stripe_;  // Member -> parity.
  std::vector<bool> channel_failed_;
  std::vector<uint8_t> channel_alloc_mask_;
  std::deque<uint32_t> rebuild_pending_;
  std::unordered_set<uint32_t> rebuild_queued_;
  // Accumulating report for the current rebuild cycle (see Rebuild): reset
  // when a call finds the previous cycle drained, carried across slices
  // otherwise.
  RebuildReport rebuild_report_;
  bool rebuild_cycle_active_ = false;
  // Round-robin cursor rotating parity placement across channels (RAID-5).
  uint32_t next_parity_channel_ = 0;
  // Re-entrancy guard: stripe formation and dissolution append records and
  // read segment images; a flush they trigger must not form again.
  bool forming_stripe_ = false;
  // Parity image computed at seal time, written right after the sealing
  // segment (whose summary carries the records) is submitted.
  struct PendingParity {
    StripeSet set;
    std::vector<uint8_t> image;
  };
  std::vector<PendingParity> pending_parity_;
  // A set's kStripeParity records ride ONE sealing segment's summary; if
  // that carrier's channel is later replaced by a blank spare, the set would
  // be undiscoverable at recovery (an all-zero summary reads as "never
  // written"). Each committed set therefore queues a duplicate of its
  // records here, and the next full seal — which channel rotation places on
  // a different channel — carries them, so every set stays declared on two
  // channels. Whole groups only: a partial duplicate would decode as a
  // malformed (missing-member) set and kill the stripe at recovery.
  std::vector<std::vector<SummaryRecord>> redeclare_groups_;

  // ---- Cleaner (lld_cleaner.cc) --------------------------------------------
  struct CleanedBlock {
    Bid bid = kNilBid;
    std::vector<uint8_t> stored;
    uint32_t orig_size = 0;
    bool compressed = false;
    // Non-zero when the source record belongs to a still-open ARU: the
    // copied entry must carry the same tag, or cleaning would smuggle
    // uncommitted data into the committed state.
    uint32_t aru_id = 0;
    // Payload CRC carried *verbatim* from the source record — never
    // recomputed from the copied bytes, so bytes that rotted before the
    // copy stay detectably corrupt instead of being laundered into a fresh
    // valid checksum.
    uint32_t payload_crc = 0;

    // The current copy `e` maps for `bid`, its buffer sized for the stored
    // bytes, which the caller reads in.
    static CleanedBlock FromEntry(Bid bid, const BlockMapEntry& e) {
      return {bid, std::vector<uint8_t>(e.stored_size()), e.size_class(), e.compressed(),
              /*aru_id=*/0, e.payload_crc()};
    }
  };
  // Live state harvested from one or more victim segments: current copies of
  // data blocks plus metadata records that must survive the segment's reuse
  // (link tuples, allocations, deletion tombstones), re-logged with fresh
  // timestamps. The paper's "removing old logging information" (§3.5).
  struct CleanerBatch {
    std::vector<CleanedBlock> blocks;
    std::vector<SummaryRecord> records;
  };
  // A victim's data-area read, deferred so the reads of a whole cleaning
  // round can go to the device as one async batch (they overlap across
  // channels instead of serializing). `slices` records which harvested
  // blocks carve their bytes out of `data` once the read completes.
  struct VictimDataRead {
    uint32_t victim = 0;
    std::vector<uint8_t> data;  // Sector-rounded used data area.
    struct Slice {
      size_t block_index = 0;  // Into CleanerBatch::blocks.
      uint32_t offset = 0;     // Byte offset of the block in `data`.
    };
    std::vector<Slice> slices;
  };
  // Decodes a victim's summary and appends its live blocks (bytes pending in
  // `*pending` until the batched read completes) and records to `batch`.
  Status HarvestVictim(uint32_t victim, CleanerBatch* batch, VictimDataRead* pending,
                       uint32_t* ext_live);
  // Sorts blocks into list order for cluster-on-clean.
  void OrderByLists(std::vector<CleanedBlock>* blocks);
  // Writes a batch into fresh segments through a dedicated writer (so victims
  // are only freed once their copies are durable).
  Status WriteCleanerBatch(CleanerBatch batch);

  // ---- Recovery & checkpoint (lld_recovery.cc) ------------------------------
  // Rebuilds the in-memory state on Open: checkpoint chain when one is
  // valid, log scan otherwise, populating last_recovery_.
  Status RecoverState();
  // One-sweep (optionally per-channel parallel) summary scan + replay.
  // `chain` is the loaded checkpoint chain to start from (null = none).
  struct LoadedChain;
  Status RecoverFromLog(const LoadedChain* chain);
  // RecoverFromLog's phases, in order; they share one RecoveryScan.
  struct RecoveryScan;
  void SeedFromChain(RecoveryScan* scan);
  std::vector<uint32_t> ScanScope(const RecoveryScan& scan) const;
  Status SweepSummaries(const std::vector<uint32_t>& to_scan, RecoveryScan* scan);
  Status ResolveStripeNet(RecoveryScan* scan);
  Status ReconstructStripeMember(uint32_t parity, uint32_t index, RecoveryScan* scan);
  Status ClassifySuspects(const RecoveryScan& scan);
  void ReplayLog(RecoveryScan* scan);
  Status DeriveState(const RecoveryScan& scan);
  // Tries both A/B slots, newest generation first; fills *chain and the
  // chain-related fields of last_recovery_. A null result (chain->usable ==
  // false) means full log recovery.
  Status LoadCheckpointChain(LoadedChain* chain);
  // Reads frame `index` of the chain in `chain->slot`, `*offset` bytes into
  // the slot's payload, appends it to *chain, and advances *offset. False
  // when the frame is unreadable, torn, rotted, or past `payload_bytes`.
  bool LoadCheckpointFrame(uint32_t index, uint64_t payload_bytes, uint64_t* offset,
                           LoadedChain* chain);
  // Clean-shutdown checkpoint: a base frame in the inactive slot. With
  // incremental checkpointing off this is the only checkpoint ever written.
  // Returns a typed NO_SPACE ("checkpoint oversize") when the encoded
  // payload outgrows the slot — observable via
  // LldCounters::checkpoints_skipped_oversize, never just a WARN line.
  Status WriteCheckpoint() { return WriteBaseFrame(/*clean=*/true); }
  Status WriteBaseFrame(bool clean);
  // Appends a delta frame covering ckpt_pending_ to the active slot (or
  // rebases into the other slot when the append would overflow). Called
  // every checkpoint_interval_segments seals and when the allocation window
  // runs low; `force` skips the interval check.
  Status MaybeWriteDeltaFrame(bool force);
  Status InvalidateCheckpoint();  // Invalidates both slot markers.
  // Turns incremental checkpointing off for this session after a condition
  // that would make the on-disk chain unsound (e.g. the allocation window
  // ran dry inside the cleaner): invalidates both slots so the next open
  // scans the log, and lifts the allocation filter.
  Status DisableIncrementalCheckpoints(const std::string& reason);
  // True when per-interval delta frames and windowed allocation are on.
  bool CheckpointingActive() const {
    return options_.checkpoint_interval_segments > 0 && !ckpt_disabled_;
  }
  // Records a sealed-and-durable segment's summary records for the next
  // delta frame (no-op unless CheckpointingActive()).
  void CaptureFrameSegment(uint32_t segment, uint64_t seq, const ParityGeometry& parity,
                           const std::vector<SummaryRecord>& records);
  // Records a scrub-retired segment (summary zeroed in place) for the next
  // delta frame, so chain replay does not resurrect it as kFull.
  void CaptureRetiredSegment(uint32_t segment);
  // Picks the next allocation window (striped round-robin across channels)
  // and installs it as the usage table's allocation filter.
  std::vector<uint32_t> BuildAllocationWindow() const;
  void InstallAllocationWindow(const std::vector<uint32_t>& window);
  uint32_t AllocationWindowTarget() const;
  // Serializes / restores the full-table base image (shared by the clean-
  // shutdown checkpoint and rebases).
  void EncodeBasePayload(std::vector<uint8_t>* payload) const;
  Status DecodeBasePayload(std::span<const uint8_t> payload);
  // Recomputes the usage table and free lists from the block map after
  // recovery or checkpoint load.
  void RebuildDerivedState(const std::vector<uint64_t>& segment_seqs,
                           const std::vector<bool>& segment_has_summary);

  BlockDevice* device_;
  LldOptions options_;
  // Retry shim all device accesses go through (sync and submit paths).
  ReliableIo io_;

  // Layout (derived from options + device).
  uint32_t data_capacity_ = 0;        // segment_bytes - summary_bytes.
  uint64_t data_start_byte_ = 0;      // First byte of segment 0.
  uint64_t checkpoint_start_byte_ = 0;
  uint64_t checkpoint_bytes_ = 0;

  BlockMap block_map_;
  ListTable list_table_;
  std::unique_ptr<UsageTable> usage_;

  // Open segment.
  SegmentImage open_;
  uint32_t open_dead_bytes_ = 0;
  // (bid, offset, stored) appended since the segment opened, for relocation
  // at full flush.
  struct Appended {
    Bid bid;
    uint32_t offset;
    uint32_t stored;
  };
  std::vector<Appended> open_appended_;
  int64_t scratch_segment_ = -1;  // Holds the latest partial write, if any.

  // Pipelined segment writes (§3.3): a sealed segment's image moves into an
  // InflightWrite and is submitted asynchronously; open_.buffer keeps
  // accepting writes (and the CPU that fills it — compression, list
  // maintenance — genuinely overlaps the in-flight disk writes). Up to
  // MaxInflight() writes are outstanding — one per device channel, each
  // striped to its own actuator — and ReapInflightTo() is the barrier.
  struct InflightWrite {
    std::vector<uint8_t> buffer;
    IoTag tag = kInvalidIoTag;
    // Scratch segment superseded by this full write: it may only be
    // recycled once the full image is durable, otherwise a crash between
    // the two writes could leave neither copy on disk.
    int64_t scratch_free = -1;
  };
  std::deque<InflightWrite> inflight_writes_;
  // Segment-sized buffers recycled from retired in-flight writes.
  std::vector<std::vector<uint8_t>> spare_buffers_;
  // Next channel the striped allocator prefers (round-robin cursor).
  uint32_t next_stripe_channel_ = 0;

  // Logical clocks.
  OpTimestamp next_ts_ = 1;
  uint64_t next_seq_ = 1;
  uint32_t next_aru_id_ = 1;
  uint32_t current_aru_ = 0;  // 0 = no ARU selected.
  std::unordered_set<uint32_t> open_arus_;
  // Units abandoned at runtime: their records must never be re-logged as
  // committed by the cleaner.
  std::unordered_set<uint32_t> abandoned_arus_;
  // Shadow pins held per open ARU: segments whose (in-memory dead) copies
  // are the last durably-committed versions of blocks this unit superseded
  // or freed. Pinned segments are ineligible cleaner victims — recycling one
  // and then crashing before the unit's commit record seals would destroy
  // the copy recovery rolls back to. On commit the pins move to
  // aru_pins_awaiting_seal_ (the commit record sits in the open segment
  // buffer and is only durable once that image is on media); the next full
  // or partial flush drains them. An abandoned unit's pins are kept for the
  // rest of the session: its superseded copies stay authoritative for every
  // future crash, and abandonment already demands a reopen.
  // Sentinel in the lists above for a superseded copy that still lives in
  // the *open* buffer: the full seal that writes the buffer out resolves it
  // to the real segment and takes the pin then. Sentinels that survive to
  // EndConcurrentARU need no pin at all — the copy and the unit's commit
  // record share the open buffer from that point on, so any image that
  // makes one durable makes both durable.
  static constexpr uint32_t kOpenCopyPin = UINT32_MAX;
  std::unordered_map<uint32_t, std::vector<uint32_t>> aru_shadow_segments_;
  std::vector<uint32_t> aru_pins_awaiting_seal_;

  uint64_t reserved_bytes_ = 0;
  bool shut_down_ = false;
  // Set when the device lost a write even after retries: the in-memory state
  // no longer converges to the on-disk log, so LLD stops mutating (reads
  // still work) rather than risk undefined behavior. See CheckWritable().
  bool degraded_ = false;
  std::string degraded_cause_;
  bool cleaning_ = false;         // Re-entrancy guard.
  const MaintenanceScheduler* maintenance_ = nullptr;  // See set_maintenance.
  // When >= 0, the cleaner's segment writer places its output as close to
  // this segment index as possible (used by RearrangeHotBlocks to center
  // the hot set); -1 = first-free placement.
  int64_t writer_placement_hint_ = -1;
  bool dirty_since_flush_ = false;

  // ---- Incremental-scrub state (lld_scrub.cc) ------------------------------
  // One scrub cycle walks the segment cursor across the volume in slices;
  // the report accumulates over the cycle and the whole struct resets when
  // the cursor wraps (or a monolithic Scrub() abandons the cycle).
  struct ScrubState {
    bool active = false;
    uint32_t cursor = 0;
    ScrubReport report;
  };
  ScrubState scrub_;
  // What one ScrubStep finds in its window of segments [begin, end), carried
  // through its phases: the suspects, the blocks and lists that valid
  // summaries mention, and the repair batch.
  struct ScrubWindow {
    uint32_t begin = 0;
    uint32_t end = 0;
    std::unordered_set<uint32_t> suspects;
    std::unordered_set<Bid> mentioned_bids;
    std::unordered_set<Lid> mentioned_lids;
    CleanerBatch batch;
  };
  // ScrubStep's phases, steps 2-5 of lld_scrub.cc's header: verify the
  // window's summaries, verify its blocks, re-log what the suspects held the
  // authority for, retire the suspects.
  Status ScrubSummaries(ScrubWindow* window);
  Status ScrubBlocks(ScrubWindow* window);
  void RelogSuspectAuthority(ScrubWindow* window);
  Status RetireSuspects(ScrubWindow* window);

  LldCounters counters_;
  RecoveryReport last_recovery_;

  // ---- Incremental-checkpoint state (lld_recovery.cc) ----------------------
  // A/B slot bookkeeping for the active chain. `ckpt_generation_` is the
  // monotonic generation of the active slot's marker; frames append at the
  // sector-aligned offset `ckpt_payload_bytes_` and commit by rewriting the
  // marker (so a torn append is simply invisible).
  bool ckpt_disabled_ = false;       // DisableIncrementalCheckpoints fired.
  bool ckpt_have_chain_ = false;     // An active slot exists on disk.
  uint32_t ckpt_slot_ = 0;           // Active slot index (0/1).
  uint64_t ckpt_generation_ = 0;
  uint32_t ckpt_frame_count_ = 0;
  uint64_t ckpt_payload_bytes_ = 0;  // Sector-aligned bytes used in the slot.
  uint64_t ckpt_covered_seq_ = 0;    // Newest seq the chain covers.
  uint32_t ckpt_seals_since_frame_ = 0;
  // Durable segments sealed since the last frame, in seal order: the next
  // delta frame's payload.
  std::vector<LoggedSegment> ckpt_pending_;
  // Segments retired (summary zeroed) since the last frame.
  std::vector<uint32_t> ckpt_retired_pending_;
  // Re-entrancy guard: frame writes flush the open segment, whose full-seal
  // hook would otherwise try to start another frame.
  bool ckpt_in_frame_write_ = false;
  // Allocation window of the latest durable frame (usage-table filter):
  // segment writes may only target masked segments, so recovery's scan is
  // bounded by the window instead of the volume.
  std::vector<uint8_t> ckpt_window_mask_;

  std::vector<uint8_t> io_scratch_;  // Reusable sector-aligned I/O buffer.
  std::vector<uint8_t> zero_summary_;  // ZeroSummary's source buffer.
  std::vector<uint8_t> compress_buf_;  // Write's compressed form, reused per block.
  std::vector<uint8_t> stored_buf_;    // Read's stored form of a compressed block, reused.
};

}  // namespace ld

#endif  // SRC_LLD_LLD_H_
