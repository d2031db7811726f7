// Cross-channel stripe parity (RAID-5 style), the second redundancy tier
// above the per-segment XOR lane. Sealed segments — one per channel — are
// grouped into stripe sets; each set stores one parity segment holding the
// XOR of the members' *full* images (data area + summary tail, so a dead
// channel's member summaries are themselves recoverable). The set is
// declared by kStripeParity summary records riding the sealing segment's
// summary through the normal append path: no extra on-disk map, no
// superblock change. Parity placement rotates across channels so no single
// channel carries all parity.
//
// Crash ordering: a set's records are submitted (with the sealing segment)
// strictly before its parity image is written. A crash between the two
// leaves records whose parity CRC does not verify — recovery sees a dead
// stripe — never a parity image the log cannot explain.
//
// Degraded reads XOR the block's sector-aligned extent across the N-1
// surviving peers and the parity segment, gated on the block's payload CRC:
// a second fault (peer unreadable, CRC mismatch) stays a typed CORRUPTION,
// never silently wrong bytes. Rebuild re-materializes a healed channel's
// striped segments in place from the surviving peers, verifying member
// images against their recorded summary sequence and parity images against
// the recorded parity CRC.

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <unordered_set>

#include "src/lld/lld.h"
#include "src/util/log.h"

namespace ld {

uint32_t LogStructuredDisk::SegmentChannel(uint32_t segment) const {
  return device_->ChannelOf(SegmentBaseByte(segment) / device_->sector_size());
}

uint32_t LogStructuredDisk::SegmentLastChannel(uint32_t segment) const {
  const uint32_t sector = device_->sector_size();
  return device_->ChannelOf((SegmentBaseByte(segment) + options_.segment_bytes) / sector - 1);
}

bool LogStructuredDisk::SegmentOnChannel(uint32_t segment, uint32_t ch) const {
  return SegmentChannel(segment) <= ch && ch <= SegmentLastChannel(segment);
}

bool LogStructuredDisk::SegmentChannelsUsable(uint32_t segment) const {
  for (uint32_t ch = SegmentChannel(segment); ch <= SegmentLastChannel(segment); ++ch) {
    if (!ChannelUsable(ch)) {
      return false;
    }
  }
  return true;
}

Status LogStructuredDisk::XorSegmentRange(uint32_t segment, uint32_t offset,
                                          std::span<uint8_t> acc) {
  std::vector<uint8_t> peer(acc.size());
  RETURN_IF_ERROR(
      io_.Read((SegmentBaseByte(segment) + offset) / device_->sector_size(), std::span(peer)));
  for (size_t i = 0; i < peer.size(); ++i) {
    acc[i] ^= peer[i];
  }
  return OkStatus();
}

StatusOr<LogStructuredDisk::SummaryRead> LogStructuredDisk::RebuildStripeMember(
    uint32_t parity, uint32_t parity_crc, const std::vector<uint32_t>& members, size_t index,
    uint64_t seq, std::span<uint8_t> image) {
  std::fill(image.begin(), image.end(), 0);
  if (Status s = XorSegmentRange(parity, 0, image); !s.ok()) {
    return Status(s.code(), "parity image unreadable: " + s.ToString());
  }
  if (PayloadCrc(image) != parity_crc) {
    return CorruptionError("parity image fails its recorded crc");
  }
  for (size_t j = 0; j < members.size(); ++j) {
    if (j == index) {
      continue;
    }
    if (Status s = XorSegmentRange(members[j], 0, image); !s.ok()) {
      return Status(s.code(), "stripe peer " + std::to_string(members[j]) +
                                  " unreadable: " + s.ToString());
    }
  }
  // `image` is now the lost member; its summary must decode at exactly the
  // recorded seal.
  SummaryRead read = *ReadSummary(members[index], {}, image);  // In memory: cannot fail.
  if (read.outcome != SummaryRead::kValid || read.header.seq != seq) {
    return CorruptionError("rebuilt summary does not decode at the recorded seal");
  }
  return read;
}

StatusOr<LogStructuredDisk::StripeSet> LogStructuredDisk::ComputeStripe(
    const std::vector<uint32_t>& members, uint32_t parity_segment,
    std::vector<uint8_t>* image) {
  image->assign(options_.segment_bytes, 0);
  StripeSet set;
  set.parity_segment = parity_segment;
  for (uint32_t m : members) {
    RETURN_IF_ERROR(XorSegmentRange(m, 0, *image));
    set.members.push_back(m);
    set.member_seqs.push_back(usage_->segment(m).seq);
  }
  set.parity_crc = PayloadCrc(*image);
  return set;
}

void LogStructuredDisk::RegisterStripe(StripeSet set) {
  for (uint32_t m : set.members) {
    member_stripe_[m] = set.parity_segment;
  }
  const uint32_t parity = set.parity_segment;
  stripes_[parity] = std::move(set);
  if (!channel_alloc_mask_.empty()) {
    InstallChannelFilter();  // Degraded mode: re-derive stripe pins.
  }
}

void LogStructuredDisk::EraseStripe(uint32_t parity_segment) {
  auto it = stripes_.find(parity_segment);
  if (it == stripes_.end()) {
    return;
  }
  for (uint32_t m : it->second.members) {
    member_stripe_.erase(m);
  }
  stripes_.erase(it);
  // A queued duplicate declaration written after the dissolve would
  // resurrect the set at recovery (newer seq beats the countermand).
  redeclare_groups_.erase(
      std::remove_if(redeclare_groups_.begin(), redeclare_groups_.end(),
                     [parity_segment](const std::vector<SummaryRecord>& g) {
                       return !g.empty() && g.front().stripe.parity_segment == parity_segment;
                     }),
      redeclare_groups_.end());
  counters_.stripes_dissolved++;
  if (!channel_alloc_mask_.empty()) {
    InstallChannelFilter();  // Degraded mode: drop this set's stripe pins.
  }
}

void LogStructuredDisk::AppendStripeRecords(const StripeSet& set, OpTimestamp ts,
                                            std::vector<SummaryRecord>* records) const {
  const uint32_t count = static_cast<uint32_t>(set.members.size());
  for (uint32_t i = 0; i < count; ++i) {
    records->push_back(SummaryRecord::StripeParity(ts, set.parity_segment, set.members[i], i,
                                                   count, set.member_seqs[i], set.parity_crc));
  }
}

Status LogStructuredDisk::CommitStripe(StripeSet set, const std::vector<uint8_t>& parity_image) {
  const uint32_t parity = set.parity_segment;
  RETURN_IF_ERROR(
      io_.Write(SegmentBaseByte(parity) / device_->sector_size(), parity_image));
  NoteSegmentImageWrite(parity);
  ResetSegment(parity, SegmentState::kParity);
  counters_.stripes_formed++;
  // Queue the duplicate declaration for the next seal (see
  // redeclare_groups_): the set must stay discoverable when the carrier's
  // channel is replaced by a blank spare.
  std::vector<SummaryRecord> duplicate;
  AppendStripeRecords(set, NextTs(), &duplicate);
  redeclare_groups_.push_back(std::move(duplicate));
  RegisterStripe(std::move(set));
  return OkStatus();
}

StatusOr<bool> LogStructuredDisk::PlanStripe(bool full_width,
                                             const std::function<bool(uint32_t)>& skip) {
  // The parity image takes a free segment outside the utilization budget:
  // stay clear of the cleaner's reserve, plus one segment for the carrier's
  // seal, so formation never forces a clean.
  if (usage_->FreeCount() <= CleaningReserve() + 1) {
    return false;
  }
  const uint32_t nch = device_->num_channels();
  // Members of sets planned but not yet sealed are taken.
  std::unordered_set<uint32_t> taken;
  for (const PendingParity& p : pending_parity_) {
    taken.insert(p.set.members.begin(), p.set.members.end());
  }
  // Oldest unstriped sealed segment per base channel. The seal-time shape
  // leaves segments that straddle a channel-band boundary to FormStripes.
  std::vector<int64_t> candidate(nch, -1);
  for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
    const SegmentUsage& seg = usage_->segment(s);
    if (seg.state != SegmentState::kFull || member_stripe_.count(s) != 0 || skip(s) ||
        taken.count(s) != 0 || !SegmentChannelsUsable(s) ||
        (full_width && SegmentLastChannel(s) != SegmentChannel(s))) {
      continue;
    }
    const uint32_t ch = SegmentChannel(s);
    if (candidate[ch] < 0 ||
        seg.seq < usage_->segment(static_cast<uint32_t>(candidate[ch])).seq) {
      candidate[ch] = s;
    }
  }
  const size_t live_channels =
      nch - static_cast<size_t>(std::count(channel_failed_.begin(), channel_failed_.end(), true));
  for (uint32_t probe = 0; probe < nch; ++probe) {
    const uint32_t p_ch = (next_parity_channel_ + probe) % nch;
    if (!ChannelUsable(p_ch)) {
      continue;
    }
    // Greedy span-disjoint member pick: buckets ascend by base channel, so a
    // member is kept only when its span starts past the previous member's and
    // stays off the parity channel. Reconstruction depends on this: losing
    // any one channel can then damage at most one component of the set.
    std::vector<uint32_t> members;
    int64_t prev_last = -1;
    for (uint32_t ch = 0; ch < nch; ++ch) {
      if (ch == p_ch || candidate[ch] < 0) {
        continue;
      }
      const uint32_t m = static_cast<uint32_t>(candidate[ch]);
      if (static_cast<int64_t>(SegmentChannel(m)) <= prev_last || SegmentOnChannel(m, p_ch)) {
        continue;
      }
      members.push_back(m);
      prev_last = SegmentLastChannel(m);
    }
    // Full width is a member on every live channel but the parity's. Partial
    // width goes down to a mirror, to cover stragglers after a failover.
    if (members.empty() || (full_width && members.size() + 1 != live_channels)) {
      continue;
    }
    int64_t parity = -1;
    for (uint32_t s = 0; s < usage_->num_segments() && parity < 0; ++s) {
      if (usage_->segment(s).state == SegmentState::kFree && SegmentChannel(s) == p_ch &&
          !skip(s) && SegmentChannelsUsable(s) &&
          std::none_of(members.begin(), members.end(), [&](uint32_t m) {
            return SegmentChannel(m) <= SegmentLastChannel(s) &&
                   SegmentChannel(s) <= SegmentLastChannel(m);
          })) {
        parity = s;
      }
    }
    if (parity < 0) {
      continue;
    }
    // The records must fit the carrier's summary. A full one ends planning:
    // a seal cannot flush mid-seal (the candidates wait for the next seal),
    // and a pass seals this carrier and starts another.
    if (!Fits(open_, 0,
              members.size() * SummaryRecord::EncodedSize(SummaryRecordType::kStripeParity))) {
      return false;
    }
    std::vector<uint8_t> image;
    ASSIGN_OR_RETURN(StripeSet set, ComputeStripe(members, static_cast<uint32_t>(parity), &image));
    std::vector<SummaryRecord> records;
    AppendStripeRecords(set, NextTs(), &records);
    for (const SummaryRecord& r : records) {
      open_.AddRecord(r);
    }
    dirty_since_flush_ = true;
    // Reserve the parity target: until CommitStripe writes it, it must not
    // become a seal target or cleaner destination, which the parity image
    // would overwrite. A failed seal returns it to the free pool.
    usage_->segment(static_cast<uint32_t>(parity)).state = SegmentState::kParity;
    pending_parity_.push_back(PendingParity{std::move(set), std::move(image)});
    next_parity_channel_ = (p_ch + 1) % nch;
    return true;
  }
  return false;
}

StatusOr<uint32_t> LogStructuredDisk::FormStripes(uint32_t max_sets) {
  RETURN_IF_ERROR(CheckWritable());
  if (!open_arus_.empty()) {
    return FailedPreconditionError("FormStripes requires no open atomic recovery units");
  }
  if (!StripeEnabled()) {
    return 0u;
  }
  RETURN_IF_ERROR(FlushOpenSegmentFull());
  RETURN_IF_ERROR(WaitForInflight());

  // The record carriers this pass seals are excluded from candidacy:
  // striping a carrier would seal another carrier, chaining
  // carrier-of-carrier mirrors until the free pool is gone. Carriers stay
  // eligible for the next pass or the next natural seal. The exclusion holds
  // only while the carrier is sealed at its recorded seq: the cleaner can
  // free a carrier mid-pass (its records relog elsewhere), and the freed
  // segment keeps its seq, so it must stay eligible as a parity target and,
  // once reused, as a member.
  std::unordered_map<uint32_t, uint64_t> carriers;
  const auto is_carrier = [&carriers, this](uint32_t s) {
    const auto it = carriers.find(s);
    return it != carriers.end() && usage_->segment(s).state == SegmentState::kFull &&
           it->second == usage_->segment(s).seq;
  };
  // Seals the open segment as a record carrier; CommitStripe runs inside the
  // seal, after the carrier was submitted. The carrier is the last segment
  // sealed (cleaner seals triggered by the allocation happen before the
  // carrier's seq is assigned).
  const auto seal_carrier = [&]() -> Status {
    FlagGuard forming(&forming_stripe_);
    RETURN_IF_ERROR(FlushOpenSegmentFull());
    for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
      if (usage_->segment(s).state == SegmentState::kFull &&
          usage_->segment(s).seq == next_seq_ - 1) {
        carriers[s] = next_seq_ - 1;
        break;
      }
    }
    return OkStatus();
  };

  uint32_t formed = 0;
  bool progressed = true;
  // Round bound: every round either stripes a candidate or frees garbage,
  // both monotone; the bound is a backstop, not the expected exit.
  for (uint32_t round = 0; progressed && round <= usage_->num_segments(); ++round) {
    // Plan as many sets as one carrier's summary can declare, then seal
    // once: a seal per set would burn a whole segment per ~two records. A
    // bounded pass (maintenance slice) stops planning at its quota.
    uint32_t batch = 0;
    while (max_sets == 0 || formed + batch < max_sets) {
      ASSIGN_OR_RETURN(const bool planned, PlanStripe(/*full_width=*/false, is_carrier));
      if (!planned) {
        break;
      }
      batch++;
    }
    // With nothing planned, still drain pending duplicate declarations: a
    // maintenance pass must leave every set declared on two channels, not
    // wait for the next natural seal.
    if (batch > 0 || !redeclare_groups_.empty()) {
      RETURN_IF_ERROR(seal_carrier());
      formed += batch;
      if (max_sets > 0 && formed >= max_sets) {
        break;
      }
      continue;
    }
    // No set could be planned. If unstriped candidates remain, the pool is
    // parity-starved: reclaim churn garbage and retry — a maintenance pass
    // meant to survive planned failover must not stop at the write path's
    // reserve floor.
    bool candidates_left = false;
    for (uint32_t s = 0; s < usage_->num_segments() && !candidates_left; ++s) {
      candidates_left = usage_->segment(s).state == SegmentState::kFull &&
                        member_stripe_.count(s) == 0 && !is_carrier(s) &&
                        SegmentChannelsUsable(s);
    }
    if (!candidates_left) {
      break;
    }
    const uint64_t cleaned_before = counters_.segments_cleaned;
    const uint32_t free_before = usage_->FreeCount();
    if (Status s = CleanSegments(options_.segments_per_clean); !s.ok()) {
      LD_LOG(kWarn) << "stripe formation: cleaning for parity space failed: " << s.ToString();
      break;
    }
    progressed = counters_.segments_cleaned > cleaned_before || usage_->FreeCount() > free_before;
  }
  RETURN_IF_ERROR(WaitForInflight());
  return formed;
}

Status LogStructuredDisk::TryStripeReconstructStored(Bid bid, const BlockMapEntry& entry,
                                                     std::span<uint8_t> out,
                                                     const Status& damage) {
  const PhysAddr phys = entry.phys();
  if (!phys.IsOnDisk()) {
    return damage;
  }
  const auto mit = member_stripe_.find(phys.segment);
  if (mit == member_stripe_.end()) {
    return damage;
  }
  const auto sit = stripes_.find(mit->second);
  if (sit == stripes_.end()) {
    return damage;
  }
  const StripeSet& set = sit->second;

  // XOR the block's sector-aligned extent across the parity segment and the
  // surviving members. Peers are read at the same in-segment byte range —
  // stripe XOR is positional over full segment images.
  const uint32_t sector = device_->sector_size();
  const uint32_t lo = phys.offset / sector * sector;
  const uint32_t hi =
      static_cast<uint32_t>(RoundUp(phys.offset + entry.stored_size(), sector));
  std::vector<uint8_t> acc(hi - lo, 0);
  Status s = XorSegmentRange(set.parity_segment, lo, acc);
  for (uint32_t m : set.members) {
    if (!s.ok()) {
      break;
    }
    if (m != phys.segment) {
      s = XorSegmentRange(m, lo, acc);
    }
  }
  if (!s.ok()) {
    std::string comp = "parity=" + std::to_string(set.parity_segment) + "@ch" +
                       std::to_string(SegmentChannel(set.parity_segment));
    for (uint32_t m : set.members) {
      comp += " m=" + std::to_string(m) + "@ch" + std::to_string(SegmentChannel(m));
    }
    LD_LOG(kWarn) << "stripe reconstruction of block " << bid
                  << " hit a second fault: " << s.ToString() << " [" << comp << "]";
    return CorruptionError("block " + std::to_string(bid) +
                           ": stripe peer unreadable (double fault): " +
                           std::string(s.message()));
  }
  std::memcpy(out.data(), acc.data() + (phys.offset - lo), out.size());
  // Only a reconstruction that round-trips the block's original checksum is
  // the lost data; anything else means a second fault ate the redundancy.
  if (PayloadCrc(out) != entry.payload_crc()) {
    return CorruptionError("block " + std::to_string(bid) +
                           ": stripe reconstruction failed its payload crc (double fault)");
  }
  counters_.blocks_stripe_reconstructed++;
  LD_LOG(kInfo) << "reconstructed block " << bid << " from the stripe peers of segment "
                << phys.segment;
  return OkStatus();
}

StatusOr<std::vector<uint32_t>> LogStructuredDisk::DissolveStripesTouching(
    const std::vector<uint32_t>& victims, std::vector<SummaryRecord>* batch_records) {
  std::vector<uint32_t> freed;
  if (stripes_.empty()) {
    return freed;
  }
  std::vector<uint32_t> parities;
  for (uint32_t v : victims) {
    if (auto it = member_stripe_.find(v); it != member_stripe_.end()) {
      if (std::find(parities.begin(), parities.end(), it->second) == parities.end()) {
        parities.push_back(it->second);
      }
    } else if (stripes_.count(v) != 0 &&
               std::find(parities.begin(), parities.end(), v) == parities.end()) {
      parities.push_back(v);
    }
  }
  for (uint32_t parity : parities) {
    // Zero the parity segment's summary region *before* the dissolve record
    // can net: once nothing excludes the segment from recovery's suspect
    // ladder, its XOR image must read as "never written", not as a garbage
    // summary recovery would refuse on.
    if (!SegmentChannelsUsable(parity)) {
      // Dead channel: the region cannot be zeroed, so no dissolve record is
      // written either — recovery keeps seeing a net-live stripe (validated
      // against member seqs) and the segment stays out of the suspect
      // ladder. The set is only dropped from memory; the segment is not
      // reusable until a later dissolve or rebuild settles it.
      EraseStripe(parity);
      continue;
    }
    if (Status s = ZeroSummary(parity); !s.ok()) {
      LD_LOG(kWarn) << "could not zero parity segment " << parity
                    << " summary during dissolve: " << s.ToString();
      EraseStripe(parity);
      continue;
    }
    if (batch_records != nullptr) {
      // Drop any re-logged records of this set from the batch and append the
      // countermand (member count 0) instead.
      batch_records->erase(
          std::remove_if(batch_records->begin(), batch_records->end(),
                         [parity](const SummaryRecord& r) {
                           return r.type == SummaryRecordType::kStripeParity &&
                                  r.stripe.parity_segment == parity;
                         }),
          batch_records->end());
      batch_records->push_back(SummaryRecord::StripeParity(NextTs(), parity, 0, 0, 0, 0, 0));
    }
    EraseStripe(parity);
    freed.push_back(parity);
  }
  return freed;
}

void LogStructuredDisk::InstallChannelFilter() {
  bool any_failed = false;
  for (size_t ch = 0; ch < channel_failed_.size(); ++ch) {
    any_failed = any_failed || channel_failed_[ch];
  }
  if (!any_failed) {
    if (!channel_alloc_mask_.empty()) {
      usage_->SetAllocFilter(nullptr);
      usage_->SetVictimFilter(nullptr);
      channel_alloc_mask_.clear();
    }
    return;
  }
  channel_alloc_mask_.assign(usage_->num_segments(), 0);
  for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
    channel_alloc_mask_[s] = SegmentChannelsUsable(s) ? 1 : 0;
  }
  // Pin the surviving components of load-bearing stripes: while any member
  // or the parity sits on a failed channel, the peers' on-media images are
  // the only reconstruction source for the dead data. Cleaning a peer would
  // dissolve the set and strand the dead segments; reusing a freed peer
  // would rewrite the image the XOR depends on. Rebuild (or healing the
  // channel) recomputes this mask and releases the pins.
  for (const auto& [parity, set] : stripes_) {
    bool load_bearing = !SegmentChannelsUsable(parity);
    for (uint32_t m : set.members) {
      load_bearing = load_bearing || !SegmentChannelsUsable(m);
    }
    if (!load_bearing) {
      continue;
    }
    channel_alloc_mask_[parity] = 0;
    for (uint32_t m : set.members) {
      channel_alloc_mask_[m] = 0;
    }
  }
  usage_->SetAllocFilter(&channel_alloc_mask_);
  // The cleaner must not pick victims it cannot read either: harvesting a
  // segment on a failed channel aborts the whole cleaning pass with an I/O
  // error that then surfaces through every allocation-triggered clean.
  usage_->SetVictimFilter(&channel_alloc_mask_);
}

void LogStructuredDisk::EnqueueRebuild(uint32_t segment) {
  if (rebuild_queued_.insert(segment).second) {
    rebuild_pending_.push_back(segment);
  }
}

Status LogStructuredDisk::SetChannelFailed(uint32_t ch, bool failed) {
  if (ch >= device_->num_channels()) {
    return InvalidArgumentError("channel index out of range");
  }
  if (channel_failed_.size() < device_->num_channels()) {
    channel_failed_.resize(device_->num_channels(), false);
  }
  if (channel_failed_[ch] == failed) {
    return OkStatus();
  }
  channel_failed_[ch] = failed;
  if (failed) {
    // The hardened checkpoint region may sit inside the dead band; windowed
    // allocation would also fight the channel filter. Drop to full-scan
    // recovery for this volume. If invalidating the markers itself fails
    // (region unreachable), the in-memory switch still must flip — the
    // on-disk chain just stays stale and loses to the log's newer seqs.
    if (CheckpointingActive()) {
      if (Status s = DisableIncrementalCheckpoints("channel " + std::to_string(ch) + " failed");
          !s.ok()) {
        LD_LOG(kWarn) << "could not invalidate checkpoints on channel failure: "
                      << s.ToString();
        ckpt_disabled_ = true;
        usage_->SetAllocFilter(nullptr);
      }
    }
  } else {
    // Heal semantics are a *blank spare*: every striped image on the channel
    // is gone until Rebuild re-materializes it. Unstriped segments on the
    // channel have no redundancy and stay typed-lost.
    for (const auto& [parity, set] : stripes_) {
      if (SegmentOnChannel(parity, ch)) {
        EnqueueRebuild(parity);
      }
      for (uint32_t m : set.members) {
        if (SegmentOnChannel(m, ch)) {
          EnqueueRebuild(m);
        }
      }
    }
  }
  InstallChannelFilter();
  return OkStatus();
}

StatusOr<RebuildReport> LogStructuredDisk::Rebuild(uint32_t max_segments) {
  // One queue-drain is one rebuild cycle: incremental calls accumulate into
  // a single report until the pending queue empties, so a paced background
  // rebuild reports exactly what one monolithic Rebuild(0) would have.
  if (!rebuild_cycle_active_) {
    rebuild_report_ = RebuildReport{};
  }
  RebuildReport& report = rebuild_report_;
  const double start = device_->clock()->Now();
  uint32_t budget =
      max_segments == 0 ? std::numeric_limits<uint32_t>::max() : max_segments;
  std::vector<uint32_t> requeue;
  std::vector<uint8_t> image(options_.segment_bytes);

  while (budget > 0 && !rebuild_pending_.empty()) {
    budget--;
    const uint32_t seg = rebuild_pending_.front();
    rebuild_pending_.pop_front();
    rebuild_queued_.erase(seg);

    const StripeSet* set = nullptr;
    bool is_parity = false;
    if (auto it = stripes_.find(seg); it != stripes_.end()) {
      set = &it->second;
      is_parity = true;
    } else if (auto mit = member_stripe_.find(seg); mit != member_stripe_.end()) {
      set = &stripes_.at(mit->second);
    }
    if (set == nullptr) {
      continue;  // Dissolved since it was queued.
    }
    if (!SegmentChannelsUsable(seg)) {
      requeue.push_back(seg);  // Channel still down; keep it queued.
      continue;
    }

    // XOR the surviving peers into `image`. For a member rebuild the parity
    // image is CRC-verified before it is trusted and the result must decode
    // at the recorded seq; for a parity rebuild the recomputed XOR must match
    // the recorded CRC. Either mismatch — or an unreadable peer — is a typed
    // double fault: the stripe is dissolved, never guessed at.
    Status rebuilt;
    if (is_parity) {
      StatusOr<StripeSet> fresh = ComputeStripe(set->members, seg, &image);
      rebuilt = fresh.status();
      if (fresh.ok() && fresh->parity_crc != set->parity_crc) {
        rebuilt = CorruptionError("rebuilt parity image fails its recorded crc");
      }
    } else {
      const size_t idx =
          std::find(set->members.begin(), set->members.end(), seg) - set->members.begin();
      rebuilt = RebuildStripeMember(set->parity_segment, set->parity_crc, set->members, idx,
                                    set->member_seqs[idx], image)
                    .status();
    }

    if (!rebuilt.ok()) {
      const uint32_t parity = is_parity ? seg : set->parity_segment;
      LD_LOG(kWarn) << "rebuild of segment " << seg << " unrecoverable (" << rebuilt.ToString()
                    << "); dissolving stripe " << parity;
      // DissolveStripesTouching zeroes the parity summary and appends the
      // countermand through the log (guarded so the flush it may trigger
      // does not re-form stripes mid-rebuild).
      FlagGuard forming(&forming_stripe_);
      std::vector<SummaryRecord> countermand;
      auto freed = DissolveStripesTouching({parity}, &countermand);
      Status logged = freed.ok() && !countermand.empty()
                          ? AppendRecordsAtomic(&countermand)
                          : freed.status();
      if (logged.ok() && freed.ok()) {
        for (uint32_t p : *freed) {
          ResetSegment(p, SegmentState::kFree);
        }
      } else if (!logged.ok()) {
        LD_LOG(kWarn) << "could not log stripe dissolve during rebuild: " << logged.ToString();
      }
      report.segments_unrecoverable++;
      continue;
    }

    if (Status s = io_.Write(SegmentBaseByte(seg) / device_->sector_size(), image); !s.ok()) {
      LD_LOG(kWarn) << "rebuild write of segment " << seg << " failed: " << s.ToString();
      requeue.push_back(seg);
      break;  // The spare is misbehaving; keep the rest queued for a retry.
    }
    NoteSegmentImageWrite(seg);
    report.bytes_rewritten += image.size();
    if (is_parity) {
      report.parity_rebuilt++;
    } else {
      report.segments_rebuilt++;
    }
  }

  for (uint32_t seg : requeue) {
    EnqueueRebuild(seg);
  }
  report.segments_pending = static_cast<uint32_t>(rebuild_pending_.size());
  report.seconds += device_->clock()->Now() - start;
  rebuild_cycle_active_ = !rebuild_pending_.empty();
  return report;
}

}  // namespace ld
