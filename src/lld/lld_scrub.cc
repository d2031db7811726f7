// Media scrub: read-repair for latent errors and silent corruption.
//
// The log structure makes LLD its own repair engine: every live block is
// reachable through the block map, every live metadata record through the
// authority fields, so a scrub pass can re-verify all of it and relocate
// whatever sits on damaged media through the normal cleaner write path.
//
//   1. Quiesce: flush the open segment (full) and drain in-flight writes, so
//      the in-memory tables describe exactly the durable state.
//   2. Verify every written segment's summary. Summaries that cannot be read
//      or fail their CRC are *suspects*: recovery would refuse such a log
//      (mid-log corruption), so the whole segment must be retired now.
//   3. Read every live on-disk block back (with retries) and check its
//      payload CRC. A damaged block whose segment carries a parity block is
//      *reconstructed* (XOR of parity and the rest of the covered area,
//      verified against the block's original CRC) and relocated through the
//      normal log append path. Blocks on suspect segments are relocated:
//      healthy/reconstructed ones verbatim; corrupt ones verbatim with
//      their *original* CRC (the damage stays typed, never laundered);
//      unreadable ones as zeros with a deliberately poisoned CRC so reads
//      keep failing typed. Damaged blocks on healthy segments without
//      parity (or with a second fault eating the redundancy) are left in
//      place and reported.
//   4. Re-log, from the in-memory tables, every metadata record whose
//      authoritative copy lived in a suspect summary, and write countermand
//      tombstones for any dead block/list still mentioned by the surviving
//      summaries (the suspect may have held the only tombstone).
//   5. Write the batch through the cleaner writer (durable before reuse),
//      then log a kScrubIntent record per suspect (durable as its own
//      batch), and only then zero the suspect summaries and mark their
//      segments free.
//
// The intent records close what used to be a documented crash window: a
// crash after the relocation batch is durable but before a suspect summary
// is zeroed leaves mid-log damage that recovery would refuse with
// CORRUPTION. Recovery now matches the damaged summary against the logged
// intents (segment index + the retired summary's sequence number) and
// *completes* the retirement — zeroing the summary and freeing the segment —
// exactly as the interrupted scrub would have. A segment reused after
// retirement carries a newer sequence than the intent, so a stale intent can
// never retire live data.
//
// Incremental form (ScrubStep): the same pass, restricted to a cursor-driven
// window of `max_segments` segment indices per call, so the maintenance
// scheduler can run it in paced slices during device idle time. Each slice
// verifies its window's summaries and the payloads of live blocks stored
// there, and — only when it finds suspects — quiesces, widens the mention
// scan to the rest of the volume (countermand tombstones need every valid
// summary's mentions), and runs the full step-4/5 retirement protocol for
// its own suspects. The crash-ordering guarantees above therefore hold
// within every slice; a crash *between* slices is indistinguishable from a
// crash between two foreground Scrub() calls. A clean slice issues only
// reads and needs no quiesce at all (data effects are applied eagerly at
// submit time, so verification observes in-flight segment writes). One
// cycle's slices accumulate into a single report; Scrub() is one full-range
// slice after a quiesce, preserving the all-at-once, reset-per-call
// semantics as the differential baseline.

#include <algorithm>
#include <unordered_set>

#include "src/lld/lld.h"
#include "src/util/log.h"

namespace ld {

namespace {

// Notes the blocks and lists that `records` mention.
void NoteMentions(const std::vector<SummaryRecord>& records, std::unordered_set<Bid>* bids,
                  std::unordered_set<Lid>* lids) {
  for (const auto& r : records) {
    switch (r.type) {
      case SummaryRecordType::kBlockEntry:
        bids->insert(r.block.bid);
        break;
      case SummaryRecordType::kBlockAlloc:
        bids->insert(r.alloc.bid);
        break;
      case SummaryRecordType::kLinkTuple:
        bids->insert(r.link.bid);
        break;
      case SummaryRecordType::kBlockFree:
        bids->insert(r.freed.bid);
        break;
      case SummaryRecordType::kListHead:
        lids->insert(r.head.lid);
        break;
      case SummaryRecordType::kListCreate:
      case SummaryRecordType::kListMove:
        lids->insert(r.list.lid);
        break;
      case SummaryRecordType::kListDelete:
        lids->insert(r.deleted.lid);
        break;
      case SummaryRecordType::kAruCommit:
      case SummaryRecordType::kSegmentParity:
      case SummaryRecordType::kScrubIntent:
      case SummaryRecordType::kStripeParity:
        break;
    }
  }
}

}  // namespace

StatusOr<ScrubReport> LogStructuredDisk::Scrub() {
  RETURN_IF_ERROR(CheckWritable());
  if (!open_arus_.empty()) {
    return FailedPreconditionError("close open atomic recovery units before scrubbing");
  }
  // A monolithic pass abandons any incremental cycle: its report must
  // describe exactly this call, from a fresh cursor.
  scrub_ = ScrubState{};
  // Quiesce: after this, memory and durable state agree.
  RETURN_IF_ERROR(FlushOpenSegmentFull());
  RETURN_IF_ERROR(WaitForInflight());
  return ScrubStep(std::max(usage_->num_segments(), 1u));
}

StatusOr<ScrubReport> LogStructuredDisk::ScrubStep(uint32_t max_segments) {
  RETURN_IF_ERROR(CheckWritable());
  if (!open_arus_.empty()) {
    return FailedPreconditionError("close open atomic recovery units before scrubbing");
  }
  if (!scrub_.active) {
    scrub_ = ScrubState{};
    scrub_.active = true;
  }
  const uint32_t num_segments = usage_->num_segments();
  ScrubWindow window;
  window.begin = std::min(scrub_.cursor, num_segments);
  window.end = static_cast<uint32_t>(std::min<uint64_t>(
      static_cast<uint64_t>(window.begin) + std::max(max_segments, 1u), num_segments));
  RETURN_IF_ERROR(ScrubSummaries(&window));
  RETURN_IF_ERROR(ScrubBlocks(&window));
  if (!window.suspects.empty()) {
    RelogSuspectAuthority(&window);
  }
  RETURN_IF_ERROR(RetireSuspects(&window));

  const ScrubReport out = scrub_.report;
  scrub_.cursor = window.end;
  if (scrub_.cursor >= num_segments) {
    // Cycle complete: the next ScrubStep starts a fresh cursor and report.
    scrub_.active = false;
    scrub_.cursor = 0;
  }
  return out;
}

Status LogStructuredDisk::ScrubSummaries(ScrubWindow* window) {
  // Step 2: verify the window's written summaries; collect entity mentions
  // from the valid ones (needed for the countermand tombstones in step 4).
  // One scan serves the window and the widened mention scan below.
  const auto scan = [this, window](uint32_t seg) -> Status {
    const SegmentState state = usage_->segment(seg).state;
    if (state != SegmentState::kFull && state != SegmentState::kScratch) {
      return OkStatus();
    }
    const bool inside = seg >= window->begin && seg < window->end;
    scrub_.report.segments_scanned += inside ? 1 : 0;
    // A written segment's summary must decode: even an all-zero one is
    // damage here.
    ASSIGN_OR_RETURN(const SummaryRead read, ReadSummary(seg));
    if (read.outcome == SummaryRead::kValid) {
      NoteMentions(read.records, &window->mentioned_bids, &window->mentioned_lids);
    } else if (inside) {
      const char* why = read.outcome != SummaryRead::kUnreadable
                            ? "corrupt"
                            : (read.seq_known ? "extension unreadable" : "unreadable");
      LD_LOG(kWarn) << "scrub: segment " << seg << " summary " << why;
      window->suspects.insert(seg);
      scrub_.report.suspect_segments++;
    }
    return OkStatus();
  };
  for (uint32_t seg = window->begin; seg < window->end; ++seg) {
    RETURN_IF_ERROR(scan(seg));
  }
  if (window->suspects.empty()) {
    return OkStatus();
  }
  // Damage found: quiesce before harvesting, so the in-memory tables
  // describe exactly the durable state (an open-segment copy newer than a
  // suspect's on-disk one would otherwise be skipped while the suspect is
  // retired under it). A no-op for the monolithic pass, which quiesced
  // before the scan.
  RETURN_IF_ERROR(FlushOpenSegmentFull());
  RETURN_IF_ERROR(WaitForInflight());
  // Countermand tombstones need mentions from *all* valid summaries, not
  // just the window's: widen the mention scan to the rest of the volume.
  // Damaged summaries out there contribute nothing — exactly as monolithic
  // suspects don't — and are retired when their own slice reaches them.
  for (uint32_t seg = 0; seg < usage_->num_segments(); ++seg) {
    if (seg < window->begin || seg >= window->end) {
      RETURN_IF_ERROR(scan(seg));
    }
  }
  return OkStatus();
}

Status LogStructuredDisk::ScrubBlocks(ScrubWindow* window) {
  // Step 3: verify every live on-disk block stored in the window; relocate
  // whatever lives on a suspect segment so the segment can be retired.
  ScrubReport& report = scrub_.report;
  for (Bid bid = 1; bid <= block_map_.max_bid(); ++bid) {
    if (!block_map_.IsAllocated(bid)) {
      continue;
    }
    const BlockMapEntry& e = block_map_.entry(bid);
    const PhysAddr phys = e.phys();
    if (!phys.IsOnDisk() || phys.segment < window->begin || phys.segment >= window->end) {
      continue;
    }
    report.blocks_scanned++;
    const bool on_suspect = window->suspects.count(phys.segment) != 0;
    CleanedBlock b = CleanedBlock::FromEntry(bid, e);
    Status damage = ReadStored(e, b.stored);
    if (!damage.ok() && damage.code() != ErrorCode::kIoError) {
      return damage;
    }
    const bool unreadable = !damage.ok();
    if (damage.ok() && PayloadCrc(b.stored) != e.payload_crc()) {
      damage = CorruptionError("scrub: block payload crc mismatch");
    }
    if (damage.ok()) {
      // Intact: relocated only off a suspect.
    } else if (TryReconstructStored(bid, e, b.stored, damage).ok()) {
      // Parity first: a verified reconstruction recovers the lost bytes and
      // the block is relocated with its original (verbatim) CRC, which the
      // reconstruction was checked against.
      report.blocks_reconstructed++;
    } else if (TryStripeReconstructStored(bid, e, b.stored, damage).ok()) {
      // Second tier: the per-segment lane could not repair it, the
      // cross-channel stripe peers could. Accounted separately so the report
      // shows which redundancy actually carried the block.
      report.blocks_stripe_reconstructed++;
    } else if (!on_suspect) {
      (unreadable ? report.blocks_unreadable : report.blocks_corrupt)++;
      LD_LOG(kWarn) << "scrub: block " << bid << " in healthy segment " << phys.segment
                    << " is damaged and has no redundant copy";
      continue;  // Report only: nothing here can repair it.
    } else if (unreadable) {
      // The segment is being retired, so *something* must be written for
      // this block. Zeros with a CRC guaranteed not to match them keep every
      // future read failing as typed CORRUPTION instead of resurrecting
      // garbage.
      report.blocks_unreadable++;
      std::fill(b.stored.begin(), b.stored.end(), 0);
      b.payload_crc = ~PayloadCrc(b.stored) & 0xffffffu;
    } else {
      // Carried verbatim (bytes and original CRC): relocation must never
      // launder corruption into a fresh valid checksum.
      report.blocks_corrupt++;
    }
    if (on_suspect || !damage.ok()) {
      window->batch.blocks.push_back(std::move(b));
    }
  }
  return OkStatus();
}

void LogStructuredDisk::RelogSuspectAuthority(ScrubWindow* window) {
  // Step 4: re-log metadata whose authoritative record sits in a suspect
  // summary. The quiesce in ScrubSummaries makes the in-memory tables a
  // faithful source (the cleaner must use the victim's own records because
  // unflushed state may be newer; after a full flush there is no such state).
  const auto& suspects = window->suspects;
  std::vector<SummaryRecord>& records = window->batch.records;
  const size_t before = records.size();
  for (Bid bid = 1; bid <= block_map_.max_bid(); ++bid) {
    if (!block_map_.IsAllocated(bid)) {
      continue;
    }
    const BlockMapEntry& e = block_map_.entry(bid);
    if (options_.maintain_lists && suspects.count(e.link_seg()) != 0) {
      records.push_back(SummaryRecord::LinkTuple(NextTs(), bid, e.successor()));
    }
    if (suspects.count(e.alloc_seg()) != 0) {
      records.push_back(SummaryRecord::BlockAlloc(NextTs(), bid, e.list(), e.size_class()));
    }
  }
  for (Lid lid = 1; lid <= list_table_.max_lid(); ++lid) {
    if (!list_table_.IsAllocated(lid)) {
      continue;
    }
    const ListEntry& e = list_table_.entry(lid);
    if (suspects.count(e.head_seg()) != 0) {
      records.push_back(SummaryRecord::ListHead(NextTs(), lid, e.first()));
    }
    if (suspects.count(e.create_seg()) != 0) {
      records.push_back(SummaryRecord::ListCreate(NextTs(), lid, e.hints(), e.lol_next()));
    }
  }
  // Countermand tombstones: a suspect summary may have held the only
  // tombstone for an entity that surviving summaries still mention; a fresh
  // tombstone (newest seq) keeps recovery from resurrecting it.
  for (Bid bid : window->mentioned_bids) {
    if (!block_map_.IsAllocated(bid)) {
      records.push_back(SummaryRecord::BlockFree(NextTs(), bid));
    }
  }
  for (Lid lid : window->mentioned_lids) {
    if (!list_table_.IsAllocated(lid)) {
      records.push_back(SummaryRecord::ListDelete(NextTs(), lid));
    }
  }
  scrub_.report.records_relogged += records.size() - before;
}

Status LogStructuredDisk::RetireSuspects(ScrubWindow* window) {
  // A suspect that is a stripe member takes its set down with it: the image
  // being retired is exactly what the parity explains. The countermand rides
  // the repair batch; the parity segments are freed once it is durable.
  const std::vector<uint32_t> suspects(window->suspects.begin(), window->suspects.end());
  CleanerBatch& batch = window->batch;
  ASSIGN_OR_RETURN(const std::vector<uint32_t> dissolved_parity,
                   DissolveStripesTouching(suspects, &batch.records));

  // Step 5: make the repairs durable, then retire the suspects.
  scrub_.report.blocks_relocated += batch.blocks.size();
  if (!batch.blocks.empty() || !batch.records.empty()) {
    OrderByLists(&batch.blocks);
    FlagGuard cleaning(&cleaning_);
    RETURN_IF_ERROR(WriteCleanerBatch(std::move(batch)));
  }
  for (uint32_t p : dissolved_parity) {
    ResetSegment(p, SegmentState::kFree);
  }
  if (suspects.empty()) {
    return OkStatus();
  }
  // Log one retirement intent per suspect (its own durable batch, written
  // only after the relocation batch above drained): from here on a crash at
  // any point lets recovery finish the retirement instead of refusing the
  // damaged summary as mid-log corruption.
  CleanerBatch intents;
  for (uint32_t seg : suspects) {
    intents.records.push_back(SummaryRecord::ScrubIntent(NextTs(), seg, usage_->segment(seg).seq));
  }
  {
    FlagGuard cleaning(&cleaning_);
    RETURN_IF_ERROR(WriteCleanerBatch(std::move(intents)));
  }
  for (uint32_t seg : suspects) {
    if (Status s = ZeroSummary(seg); !s.ok()) {
      return HandleWriteFailure(s);
    }
    usage_->SetLive(seg, 0);
    usage_->segment(seg).seq = 0;
    ResetSegment(seg, SegmentState::kFree);
    // The next checkpoint frame must record the retirement, or chain replay
    // would resurrect the segment as written.
    CaptureRetiredSegment(seg);
    counters_.segments_cleaned++;
  }
  return OkStatus();
}

}  // namespace ld
