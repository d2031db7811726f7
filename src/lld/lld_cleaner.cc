// Segment cleaning and idle-time reorganization (paper §3.5).
//
// The cleaner picks victims with the configured policy and harvests two
// kinds of live state from each:
//
//   * live data blocks — entries the block map still points into the victim;
//     they are reordered by list order (cluster-on-clean) and rewritten;
//   * live metadata records — a segment summary is part of LLD's metadata
//     log, so a record that still describes current state (the latest link
//     tuple of a block, an allocation, or a deletion tombstone with no newer
//     allocation) must be re-logged with a fresh timestamp before its
//     segment can be reused. Stale tuples and old ARU markers are dropped,
//     which is the paper's "removes old logging information ... during
//     cleaning".
//
// Victims are freed only after the batch is durable, so a crash mid-clean
// never loses data or metadata.
//
// Each byte moves once: a harvested block borrows its stored bytes from its
// victim's data-area read, and the writer copies them into its output image.
// A block that fails its payload CRC on a victim with a parity lane or a
// stripe is rebuilt before it moves.

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "src/lld/lld.h"
#include "src/lld/lld_maintenance.h"
#include "src/util/log.h"

namespace ld {

Status LogStructuredDisk::HarvestVictim(uint32_t victim, CleanerBatch* batch,
                                        VictimDataRead* pending, uint32_t* ext_live) {
  ASSIGN_OR_RETURN(const SummaryRead read, ReadSummary(victim));
  if (read.outcome == SummaryRead::kNeverWritten) {
    return OkStatus();  // Nothing to preserve.
  }
  // An unreadable or damaged summary fails the round, typed: without it the
  // victim's live state cannot be told apart, so the victim stays kFull for
  // Scrub to retire.
  RETURN_IF_ERROR(read.status);
  const SummaryHeader& header = read.header;
  const std::vector<SummaryRecord>& records = read.records;
  if (header.ext_bytes > 0) {
    // The spilled record bytes were accounted live when this segment was
    // written; harvesting re-logs what still matters. Their release is
    // *deferred* to the commit point (the victim-free loop): a failed pass
    // restores victims to kFull and retries, and an eager release here would
    // be applied once per attempt, underflowing the segment's live count.
    *ext_live = std::min<uint32_t>(header.ext_bytes, usage_->segment(victim).live_bytes());
  }

  // Pass 1: which block entries are live? (Checked before reading data.)
  std::vector<const SummaryRecord*> live;
  for (const auto& r : records) {
    if (r.type != SummaryRecordType::kBlockEntry || !block_map_.IsAllocated(r.block.bid)) {
      continue;
    }
    const BlockMapEntry& e = block_map_.entry(r.block.bid);
    const PhysAddr phys = e.phys();
    if (phys.IsOnDisk() && phys.segment == victim && phys.offset == r.block.offset) {
      live.push_back(&r);
    }
  }

  if (!live.empty()) {
    // One read of the used data area covers every live block; the read is
    // *deferred* into `pending` so the caller can submit all victims' reads
    // as one async batch (they overlap across channels). Each block points
    // at its bytes in the read's buffer, which hold them once the batch
    // completes.
    const uint64_t data_len =
        std::min<uint64_t>(RoundUp(header.data_bytes, device_->sector_size()), data_capacity_);
    pending->victim = victim;
    pending->buffer = ReadBuffer(data_len);
    pending->data = std::span<uint8_t>(pending->buffer.get(), data_len);
    for (const SummaryRecord* r : live) {
      // ARU hygiene: an entry written inside a still-open unit keeps its
      // tag (committing it here would smuggle uncommitted data into the
      // durable state); an abandoned unit's entries are never copied.
      if (r->aru_id != 0 && abandoned_arus_.count(r->aru_id) != 0) {
        continue;
      }
      CleanedBlock b;
      b.bid = r->block.bid;
      b.orig_size = block_map_.entry(b.bid).size_class();
      b.compressed = block_map_.entry(b.bid).compressed();
      if (r->aru_id != 0 && open_arus_.count(r->aru_id) != 0) {
        b.aru_id = r->aru_id;
      }
      // Checksums travel verbatim with the bytes: recomputing one here would
      // launder any corruption picked up since the block was written.
      b.payload_crc = r->block.payload_crc;
      b.stored = pending->data.subspan(r->block.offset, r->block.stored_size);
      counters_.cleaner_bytes_copied += b.stored.size();
      batch->blocks.push_back(std::move(b));
    }
    counters_.blocks_cleaned += live.size();
  }

  // Pass 2: re-log metadata records that still describe durable state.
  //
  // Authority rule: only the segment holding the *latest durable* record for
  // an entity re-logs it (BlockMapEntry::link_seg etc. track that segment),
  // so record mass stays bounded instead of multiplying with every cleaning
  // pass. Values are re-logged *verbatim from the victim* (last mention
  // wins), not from the in-memory tables: the in-memory state may already
  // contain newer, not-yet-flushed operations, and recovery must never
  // surface those ahead of their turn.
  std::unordered_map<Bid, const SummaryRecord*> last_link, last_alloc;
  std::unordered_map<Lid, const SummaryRecord*> last_head, last_create;
  std::unordered_set<Bid> freed;
  std::unordered_set<Lid> deleted;
  std::unordered_set<uint32_t> relog_stripes;
  // Tombstones: without one, an older surviving record could resurrect a
  // freed block or a deleted list at recovery.
  const auto tombstone_block = [&](Bid bid) {
    if (!block_map_.IsAllocated(bid)) {
      freed.insert(bid);
    }
  };
  const auto tombstone_list = [&](Lid lid) {
    if (!list_table_.IsAllocated(lid)) {
      deleted.insert(lid);
    }
  };
  for (const auto& r : records) {
    switch (r.type) {
      case SummaryRecordType::kLinkTuple:
        if (options_.maintain_lists && block_map_.IsAllocated(r.link.bid) &&
            block_map_.entry(r.link.bid).link_seg() == victim) {
          last_link[r.link.bid] = &r;
        }
        break;
      case SummaryRecordType::kBlockAlloc:
        if (block_map_.IsAllocated(r.alloc.bid) &&
            block_map_.entry(r.alloc.bid).alloc_seg() == victim) {
          last_alloc[r.alloc.bid] = &r;
        }
        tombstone_block(r.alloc.bid);
        break;
      case SummaryRecordType::kBlockEntry:
        tombstone_block(r.block.bid);
        break;
      case SummaryRecordType::kBlockFree:
        tombstone_block(r.freed.bid);
        break;
      case SummaryRecordType::kListHead:
        if (options_.maintain_lists && list_table_.IsAllocated(r.head.lid) &&
            list_table_.entry(r.head.lid).head_seg() == victim) {
          last_head[r.head.lid] = &r;
        }
        break;
      case SummaryRecordType::kListCreate:
      case SummaryRecordType::kListMove:
        if (list_table_.IsAllocated(r.list.lid) &&
            list_table_.entry(r.list.lid).create_seg() == victim) {
          last_create[r.list.lid] = &r;
        }
        tombstone_list(r.list.lid);
        break;
      case SummaryRecordType::kListDelete:
        tombstone_list(r.deleted.lid);
        break;
      case SummaryRecordType::kAruCommit:
        // A unit that straddled a seal left records tagged with its id in
        // *other* segments; they stay tagged on media forever, and replay
        // drops any tagged record whose commit marker it cannot find. So the
        // marker must outlive the victim: re-log it (the authority rule does
        // not apply — there is exactly one marker per unit, never refreshed).
        batch->records.push_back(SummaryRecord::AruCommit(NextTs(), r.aru_id));
        break;
      case SummaryRecordType::kSegmentParity:
        break;  // Described the dying segment image: dropped with it.
      case SummaryRecordType::kScrubIntent:
        break;  // Only meaningful to the recovery that follows the scrub
                // that wrote it; a surviving one is stale and dropped.
      case SummaryRecordType::kStripeParity:
        // A live set's records are re-logged in full when this victim holds
        // their latest copy. Dead sets' records and countermands are simply
        // dropped: the dissolve protocol zeroes the parity summary before
        // its countermand can net, so nothing on the media needs them.
        if (const auto it = stripes_.find(r.stripe.parity_segment);
            it != stripes_.end() && it->second.record_segment == victim) {
          relog_stripes.insert(r.stripe.parity_segment);
        }
        break;
    }
  }
  // Re-logged records keep an open unit's tag and are dropped for an
  // abandoned one, exactly like data entries.
  auto retag = [this](SummaryRecord record, const SummaryRecord* source,
                      std::vector<SummaryRecord>* out) {
    if (source->aru_id != 0) {
      if (abandoned_arus_.count(source->aru_id) != 0) {
        return;
      }
      if (open_arus_.count(source->aru_id) != 0) {
        record.aru_id = source->aru_id;
      }
    }
    out->push_back(record);
  };
  for (const auto& [bid, r] : last_link) {
    retag(SummaryRecord::LinkTuple(NextTs(), bid, r->link.successor), r, &batch->records);
  }
  for (const auto& [bid, r] : last_alloc) {
    retag(SummaryRecord::BlockAlloc(NextTs(), bid, r->alloc.lid, r->alloc.size_class), r,
          &batch->records);
  }
  for (const auto& [lid, r] : last_head) {
    retag(SummaryRecord::ListHead(NextTs(), lid, r->head.first), r, &batch->records);
  }
  for (const auto& [lid, r] : last_create) {
    retag(SummaryRecord::ListCreate(NextTs(), lid, r->list.hints, r->list.lol_next), r,
          &batch->records);
  }
  for (Bid bid : freed) {
    batch->records.push_back(SummaryRecord::BlockFree(NextTs(), bid));
  }
  for (Lid lid : deleted) {
    batch->records.push_back(SummaryRecord::ListDelete(NextTs(), lid));
  }
  for (uint32_t parity : relog_stripes) {
    AppendStripeRecords(stripes_.at(parity), NextTs(), &batch->records);
  }
  return OkStatus();
}

void LogStructuredDisk::RepairHarvested(std::vector<CleanedBlock>* blocks) {
  // Once a victim is freed nothing can rebuild a block that rotted on it, and
  // the writer would seal the rotted bytes under a fresh lane that then
  // explains them. A victim without redundancy has nothing to rebuild from,
  // so its blocks move unchecked. The block map still points into the
  // victims here.
  for (CleanedBlock& b : *blocks) {
    const BlockMapEntry& entry = block_map_.entry(b.bid);
    const uint32_t victim = entry.phys().segment;
    if ((!usage_->segment(victim).parity.has && member_stripe_.count(victim) == 0) ||
        PayloadCrc(b.stored) == b.payload_crc) {
      continue;
    }
    const Status damage = CorruptionError("cleaner: block " + std::to_string(b.bid) +
                                          " payload crc mismatch");
    if (const StatusOr<RebuiltFrom> rebuilt = RebuildBlock(entry, damage, &b); !rebuilt.ok()) {
      LD_LOG(kWarn) << "cleaner: block " << b.bid
                    << " moves damaged: " << rebuilt.status().ToString();
    }
  }
}

StatusOr<LogStructuredDisk::RebuiltFrom> LogStructuredDisk::RebuildBlock(const BlockMapEntry& e,
                                                                         const Status& damage,
                                                                         CleanedBlock* b) {
  std::vector<uint8_t> rebuilt(b->stored.size());
  RebuiltFrom from = RebuiltFrom::kLane;
  Status repaired = TryReconstructStored(b->bid, e, rebuilt, damage);
  if (!repaired.ok()) {
    from = RebuiltFrom::kStripe;
    repaired = TryStripeReconstructStored(b->bid, e, rebuilt, repaired);
  }
  RETURN_IF_ERROR(repaired);
  b->Own(std::move(rebuilt));
  return from;
}

void LogStructuredDisk::OrderByLists(std::vector<CleanedBlock>* blocks) {
  if (!options_.cluster_on_clean || !options_.maintain_lists) {
    return;
  }
  // Build a position index for every list that owns a block being moved,
  // then sort by (list, position) to restore sequential read order.
  std::unordered_map<Bid, uint64_t> position;
  std::unordered_set<Lid> walked;
  for (const auto& b : *blocks) {
    const Lid lid = block_map_.entry(b.bid).list();
    if (lid == kNilLid || !walked.insert(lid).second || !list_table_.IsAllocated(lid)) {
      continue;
    }
    uint64_t pos = 0;
    for (Bid cur = list_table_.entry(lid).first(); cur != kNilBid;
         cur = block_map_.entry(cur).successor()) {
      position[cur] = pos++;
      if (pos > block_map_.allocated_count()) {
        break;  // Defensive: a corrupt cycle must not hang the cleaner.
      }
    }
  }
  std::stable_sort(blocks->begin(), blocks->end(),
                   [&](const CleanedBlock& a, const CleanedBlock& b) {
                     const Lid la = block_map_.entry(a.bid).list();
                     const Lid lb = block_map_.entry(b.bid).list();
                     if (la != lb) {
                       return la < lb;
                     }
                     const auto pa = position.find(a.bid);
                     const auto pb = position.find(b.bid);
                     const uint64_t va = pa == position.end() ? UINT64_MAX : pa->second;
                     const uint64_t vb = pb == position.end() ? UINT64_MAX : pb->second;
                     return va < vb;
                   });
}

Status LogStructuredDisk::WriteCleanerBatch(CleanerBatch batch) {
  if (batch.blocks.empty() && batch.records.empty()) {
    return OkStatus();
  }
  // Direct callers (ReorganizeLists, RearrangeHotBlocks) may arrive with a
  // pipelined user-segment write still in flight; order it first.
  RETURN_IF_ERROR(WaitForInflight());
  // A dedicated segment image, independent of the user's open segment, so
  // cleaned state is durable before any victim is reused. Its buffer is
  // borrowed from the LLD and handed back at the end (a nested call would
  // just build its own), and is zero-filled only when first made: each
  // image zeroes the bytes it writes that its data does not cover.
  SegmentImage image;
  image.buffer = std::move(cleaner_image_);
  image.buffer.resize(options_.segment_bytes);
  const uint32_t sector = device_->sector_size();

  auto flush_segment = [&]() -> Status {
    if (image.records.empty()) {
      return OkStatus();
    }
    // Default placement stripes cleaner output round-robin across channels
    // (like foreground segment writes) so copied-out segments overlap with
    // victim reads on other actuators; an explicit placement hint
    // (RearrangeHotBlocks) still wins.
    int64_t target = writer_placement_hint_ >= 0
                         ? usage_->PickFreeNear(static_cast<uint32_t>(writer_placement_hint_))
                         : PickFreeSegmentStriped();
    if (target < 0 && CheckpointingActive() && usage_->FreeCount() > 0) {
      // The allocation window has no room left for the copied state. Freeing
      // the confinement (and the chain with it) is the sound move; the next
      // open simply scans the log.
      RETURN_IF_ERROR(DisableIncrementalCheckpoints("cleaner outgrew the allocation window"));
      target = writer_placement_hint_ >= 0
                   ? usage_->PickFreeNear(static_cast<uint32_t>(writer_placement_hint_))
                   : PickFreeSegmentStriped();
    }
    if (target < 0) {
      return NoSpaceError("cleaner: no free segment for copied state");
    }
    const uint64_t seq = next_seq_++;
    // The data write (and the lane) covers the sector tail behind the data.
    const uint32_t covered = static_cast<uint32_t>(RoundUp(image.used, sector));
    std::memset(image.buffer.data() + image.used, 0, covered - image.used);
    // Cleaner-written segments carry parity like foreground ones.
    uint32_t ext_used = 0;
    ASSIGN_OR_RETURN(const ParityGeometry parity,
                     SealImage(&image, static_cast<uint32_t>(target), seq, /*lane=*/true,
                               &ext_used));
    if (ext_used > 0) {
      // A whole-segment write also carries the gap between the data (or the
      // lane) and the spilled records.
      const uint32_t data_end = parity.has ? parity.offset + parity.bytes : covered;
      std::memset(image.buffer.data() + data_end, 0, data_capacity_ - ext_used - data_end);
    }
    // Cleaning overlaps foreground traffic: segment images are *submitted*
    // to the device queue (data is captured at submit, so the buffer can be
    // reused for the next image immediately); the Drain() at the end of
    // WriteCleanerBatch is the durability barrier before victims are freed.
    const uint64_t base = SegmentBaseByte(static_cast<uint32_t>(target));
    const std::span<const uint8_t> bytes(image.buffer);
    if (ext_used > 0) {
      // Data, extension, and summary in one whole-segment write.
      if (Status s = io_.SubmitWrite(base / sector, bytes).status(); !s.ok()) {
        return HandleWriteFailure(s);
      }
    } else {
      if (image.used > 0) {
        // The parity block sits just past the sector-rounded data fill, so
        // the data write is extended to carry it in the same request.
        const uint64_t data_len = parity.has ? static_cast<uint64_t>(parity.offset) + parity.bytes
                                             : RoundUp(image.used, sector);
        if (Status s = io_.SubmitWrite(base / sector, bytes.subspan(0, data_len)).status();
            !s.ok()) {
          return HandleWriteFailure(s);
        }
      }
      if (Status s = io_.SubmitWrite((base + data_capacity_) / sector,
                                     bytes.subspan(data_capacity_, options_.summary_bytes))
                         .status();
          !s.ok()) {
        return HandleWriteFailure(s);
      }
    }

    // Frames cover cleaner-written segments like foreground ones; the next
    // frame is only written after this batch's Drain() barrier, so the
    // capture never outruns durability.
    InstallSealedImage(static_cast<uint32_t>(target), SegmentState::kFull, seq, parity,
                       image.records);
    if (ext_used > 0) {
      // Re-logged metadata carries no data age: 0 leaves age_ts alone, so a
      // record-only segment falls back to newest_ts in the scoring.
      usage_->AddLiveAged(static_cast<uint32_t>(target), ext_used, next_ts_, 0);
    }
    // Hot/cold generation split: everything in this image survived at least
    // one cleaning pass, so the segment is tagged cold and each block keeps
    // its *original* write timestamp as its age (read before the install
    // overwrites it). Without the preservation, re-logging would make cold
    // data look freshly written and cost-benefit would never stop recopying
    // it.
    usage_->segment(static_cast<uint32_t>(target)).cold = true;
    counters_.cold_segments_written++;
    for (const auto& r : image.records) {
      if (r.type != SummaryRecordType::kBlockEntry) {
        continue;
      }
      BlockMapEntry& e = block_map_.entry(r.block.bid);
      const OpTimestamp age = e.write_ts();
      usage_->RemoveLive(e.phys().segment, e.stored_size());
      e.set_phys(PhysAddr{static_cast<uint32_t>(target), r.block.offset});
      e.set_write_ts(r.ts);
      e.set_payload_crc(r.block.payload_crc);
      usage_->AddLiveAged(static_cast<uint32_t>(target), r.block.stored_size, r.ts, age);
    }
    image.Clear();
    return OkStatus();
  };

  const size_t entry_size = SummaryRecord::EncodedSize(SummaryRecordType::kBlockEntry);
  for (auto& b : batch.blocks) {
    // Fit is tested before the superseded check below, so a block skipped
    // there can still close an image.
    if (!Fits(image, static_cast<uint32_t>(b.stored.size()), entry_size)) {
      RETURN_IF_ERROR(flush_segment());
    }
    // The block may have been superseded while the cleaner was buffering.
    if (!block_map_.IsAllocated(b.bid) || !block_map_.entry(b.bid).phys().IsOnDisk()) {
      continue;
    }
    const uint32_t offset = image.AppendData(b.stored);
    SummaryRecord entry =
        SummaryRecord::BlockEntry(NextTs(), b.bid, offset, static_cast<uint32_t>(b.stored.size()),
                                  b.orig_size, b.compressed, b.payload_crc);
    entry.aru_id = b.aru_id;
    image.AddRecord(entry);
  }
  // The blocks are in: records may now spill into the data area's free end.
  image.data_complete = true;
  for (const auto& r : batch.records) {
    if (!Fits(image, 0, SummaryRecord::EncodedSize(r.type))) {
      RETURN_IF_ERROR(flush_segment());
    }
    image.AddRecord(r);
  }
  RETURN_IF_ERROR(flush_segment());
  cleaner_image_ = std::move(image.buffer);
  // Durability barrier: every submitted cleaner segment must be on disk
  // before the caller frees the victims it copied from.
  if (Status s = device_->Drain(); !s.ok()) {
    return HandleWriteFailure(s);
  }
  return OkStatus();
}

Status LogStructuredDisk::CleanSegments(uint32_t count) {
  if (cleaning_) {
    return OkStatus();  // Re-entrant call from our own allocation path.
  }
  // The cleaner frees and reuses segments; a pipelined segment write must be
  // durable before any segment holding superseded copies can be recycled.
  RETURN_IF_ERROR(WaitForInflight());
  FlagGuard cleaning(&cleaning_);
  // From here on the round's I/O — victim summary/data reads, copied-out
  // segment writes — bills to the attached maintenance scheduler's tenant,
  // not to the foreground session that happened to trip the free-pool
  // threshold. Without a scheduler it stays on the session's tenant.
  TenantScope tenant(device_,
                     maintenance_ != nullptr ? kMaintenanceTenant : device_->request_tenant());

  // The cleaner writes copied state into fresh segments *before* freeing the
  // victims, so the batch's live bytes must fit the current free pool (minus
  // one segment of slack for the user's next flush). Within that budget,
  // victims are added until the round nets at least two segments of space —
  // the guard that keeps an age-dominated cost-benefit policy from spinning
  // on almost-fully-live cold segments without replenishing the pool.
  // Allocatable, not merely free: in degraded mode free segments on a failed
  // channel cannot take copied state, and budgeting against them makes the
  // batch overcommit and die with NO_SPACE mid-write.
  const uint32_t free_now = usage_->AllocatableCount();
  if (free_now <= 1) {
    return NoSpaceError("cleaner: free pool exhausted");
  }
  const uint32_t writer_budget = free_now - 1;  // Segments the writer may consume.
  const uint32_t max_victims = std::max(count, 64u);

  CleanerBatch batch;
  std::vector<uint32_t> victims;
  // Until the batch is durable, every exit hands the victims back as kFull.
  struct RestoreVictims {
    UsageTable* usage;
    std::vector<uint32_t>* victims;
    ~RestoreVictims() {
      for (uint32_t v : *victims) {
        usage->segment(v).state = SegmentState::kFull;
      }
    }
  } restore{usage_.get(), &victims};
  std::vector<uint32_t> victim_ext;  // Deferred ext-record release per victim.
  std::vector<VictimDataRead> reads;
  uint64_t batch_live = 0;
  uint64_t batch_record_bytes = 0;
  while (victims.size() < max_victims) {
    int64_t victim = options_.cleaning_policy == CleaningPolicy::kGreedy
                         ? usage_->PickGreedy()
                         : usage_->PickCostBenefit(data_capacity_, next_ts_);
    if (victim < 0) {
      break;
    }
    // Until this round has secured at least one segment of net gain, prefer
    // the emptiest segment over the policy's choice. An age-dominated
    // cost-benefit score otherwise keeps electing cold segments that are
    // still ~85 % live, and a string of such rounds drains the free pool
    // without ever refilling it.
    const uint64_t net_gain =
        victims.size() * static_cast<uint64_t>(data_capacity_) - batch_live;
    if (net_gain < data_capacity_) {
      const int64_t greedy = usage_->PickGreedy();
      if (greedy >= 0 && usage_->segment(static_cast<uint32_t>(greedy)).live_bytes() <
                             usage_->segment(static_cast<uint32_t>(victim)).live_bytes()) {
        victim = greedy;
      }
    }
    // Budget check: the writer must be able to hold the whole batch in the
    // current free pool (victims are only released after the batch is
    // durable). Records are counted against the data area (they pack into
    // summary tails first, so this over-reserves), and each image gives up
    // one block of packing fragmentation plus the parity reservation. The
    // one segment of slack for the user's next flush is already carved out
    // of writer_budget — adding a second flat segment here double-reserves
    // and leaves a two-free-segment pool unable to merge two half-dead
    // victims into one output, the only move that lets it recover.
    const uint64_t victim_live = usage_->segment(static_cast<uint32_t>(victim)).live_bytes();
    const uint64_t per_image_overhead =
        static_cast<uint64_t>(options_.block_size) + ParityBytesFor(options_.block_size);
    const uint64_t per_image =
        per_image_overhead < data_capacity_ ? data_capacity_ - per_image_overhead : 1;
    const uint64_t expected_segments =
        (batch_live + victim_live + batch_record_bytes + per_image - 1) / per_image;
    if (!victims.empty() && expected_segments > writer_budget) {
      break;  // Keep the in-flight copy within the free pool.
    }
    usage_->segment(static_cast<uint32_t>(victim)).state = SegmentState::kCleaning;
    victims.push_back(static_cast<uint32_t>(victim));
    const size_t records_before = batch.records.size();
    VictimDataRead pending;
    uint32_t ext_live = 0;
    RETURN_IF_ERROR(HarvestVictim(static_cast<uint32_t>(victim), &batch, &pending, &ext_live));
    if (!pending.data.empty()) {
      reads.push_back(std::move(pending));
    }
    for (size_t i = records_before; i < batch.records.size(); ++i) {
      batch_record_bytes += SummaryRecord::EncodedSize(batch.records[i].type);
    }
    victim_ext.push_back(ext_live);
    batch_live += victim_live;
    const uint64_t reclaimed = victims.size() * static_cast<uint64_t>(data_capacity_);
    if (victims.size() >= count && reclaimed >= batch_live + 2 * data_capacity_) {
      break;  // Net gain achieved.
    }
  }
  if (victims.empty()) {
    return OkStatus();
  }

  // Submit every victim's data-area read as one async batch: on a
  // multi-channel device the reads overlap instead of serializing one
  // blocking read per victim. The blocks already point into the buffers;
  // from here they hold their bytes, which move once, into the writer's
  // image.
  {
    const uint32_t sector = device_->sector_size();
    Status failure = OkStatus();
    std::vector<IoTag> tags(reads.size(), kInvalidIoTag);
    for (size_t i = 0; i < reads.size(); ++i) {
      StatusOr<IoTag> tag =
          io_.SubmitRead(SegmentBaseByte(reads[i].victim) / sector, reads[i].data);
      if (!tag.ok()) {
        failure = tag.status();
        break;
      }
      tags[i] = *tag;
    }
    for (size_t i = 0; i < reads.size(); ++i) {
      if (tags[i] == kInvalidIoTag) {
        continue;
      }
      if (Status s = device_->WaitFor(tags[i]); !s.ok() && failure.ok()) {
        failure = s;
      }
    }
    RETURN_IF_ERROR(failure);
  }
  RepairHarvested(&batch.blocks);

  // A stripe touching a victim is dissolved before the batch goes out: the
  // member image about to be freed is exactly what the parity explains. The
  // countermand record rides the batch (and any records the harvest re-logged
  // for the set are stripped from it); the parity segments rejoin the free
  // pool with the victims once the batch is durable.
  ASSIGN_OR_RETURN(const std::vector<uint32_t> dissolved_parity,
                   DissolveStripesTouching(victims, &batch.records));

  OrderByLists(&batch.blocks);
  RETURN_IF_ERROR(WriteCleanerBatch(std::move(batch)));

  for (uint32_t p : dissolved_parity) {
    ResetSegment(p, SegmentState::kFree);
  }
  for (size_t i = 0; i < victims.size(); ++i) {
    const uint32_t live = usage_->segment(victims[i]).live_bytes();
    // After the installs, the only live bytes left should be the victim's
    // spilled record extension (its release was deferred from the harvest).
    if (live != victim_ext[i]) {
      LD_LOG(kWarn) << "cleaner: victim " << victims[i] << " still reports " << live
                    << " live bytes (expected " << victim_ext[i] << " ext record bytes)";
    }
    usage_->SetLive(victims[i], 0);
    ResetSegment(victims[i], SegmentState::kFree);
    counters_.segments_cleaned++;
  }
  victims.clear();  // Freed for good: nothing left to restore.
  return OkStatus();
}

StatusOr<uint32_t> LogStructuredDisk::RearrangeHotBlocks(uint32_t max_blocks) {
  if (shut_down_) {
    return FailedPreconditionError("LLD is shut down");
  }
  if (!options_.track_read_heat) {
    return FailedPreconditionError("enable LldOptions::track_read_heat first");
  }
  // Rank on-disk blocks by read frequency.
  std::vector<std::pair<uint32_t, Bid>> ranked;
  for (Bid bid = 1; bid <= block_map_.max_bid(); ++bid) {
    if (!block_map_.IsAllocated(bid)) {
      continue;
    }
    const uint32_t reads = block_map_.read_count(bid);
    if (block_map_.entry(bid).phys().IsOnDisk() && reads > 0) {
      ranked.emplace_back(reads, bid);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (ranked.size() > max_blocks) {
    ranked.resize(max_blocks);
  }
  if (ranked.empty()) {
    return 0u;
  }

  CleanerBatch batch;
  for (const auto& [count, bid] : ranked) {
    const BlockMapEntry& e = block_map_.entry(bid);
    CleanedBlock b = CleanedBlock::FromEntry(bid, e);
    RETURN_IF_ERROR(ReadStored(e, b.owned));
    batch.blocks.push_back(std::move(b));
  }
  const uint32_t moved = static_cast<uint32_t>(batch.blocks.size());
  // Center the hot set in the data region (Akyurek & Salem place hot blocks
  // near the middle of the disk to halve average seeks from everywhere).
  FlagGuard cleaning(&cleaning_);
  writer_placement_hint_ = usage_->num_segments() / 2;
  const Status status = WriteCleanerBatch(std::move(batch));
  writer_placement_hint_ = -1;
  RETURN_IF_ERROR(status);
  return moved;
}

StatusOr<uint32_t> LogStructuredDisk::ReorganizeLists(uint32_t max_segments) {
  if (shut_down_) {
    return FailedPreconditionError("LLD is shut down");
  }
  // Collect on-disk blocks in list-of-lists order, then in list order: the
  // layout the reorganizer wants on disk.
  CleanerBatch batch;
  uint64_t bytes = 0;
  const uint64_t budget = static_cast<uint64_t>(max_segments) * data_capacity_;
  for (Lid lid = list_table_.lol_head(); lid != kNilLid && bytes < budget;
       lid = list_table_.entry(lid).lol_next()) {
    if (!list_table_.entry(lid).hints().cluster) {
      continue;
    }
    for (Bid bid = list_table_.entry(lid).first(); bid != kNilBid && bytes < budget;
         bid = block_map_.entry(bid).successor()) {
      const BlockMapEntry& e = block_map_.entry(bid);
      if (!e.phys().IsOnDisk()) {
        continue;
      }
      CleanedBlock b = CleanedBlock::FromEntry(bid, e);
      RETURN_IF_ERROR(ReadStored(e, b.owned));
      bytes += e.stored_size();
      batch.blocks.push_back(std::move(b));
    }
  }
  if (batch.blocks.empty()) {
    return 0u;
  }
  const uint64_t before = counters_.segments_written;
  FlagGuard cleaning(&cleaning_);
  RETURN_IF_ERROR(WriteCleanerBatch(std::move(batch)));
  // Segments drained by the rewrite are reclaimed by the cleaner, which
  // preserves any live metadata records in their summaries.
  return static_cast<uint32_t>(counters_.segments_written - before);
}

}  // namespace ld
