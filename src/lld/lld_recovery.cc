// Crash recovery and checkpointing (paper §3.6, extended with bounded
// recovery).
//
// The paper's LLD takes no checkpoints during normal operation: recovery
// reads every segment summary in one sweep, orders segments by write
// sequence number, and replays the records (ARU records apply only if their
// commit record is on disk). That behaviour is preserved verbatim with
// LldOptions::checkpoint_interval_segments == 0.
//
// With an interval set, the reserved checkpoint region becomes a hardened
// A/B pair of slots. Each slot holds a marker sector plus a chain of CRC'd
// frames: frame 0 is a *base* (a full snapshot of the in-memory tables) and
// later frames are *deltas* carrying the summary records of the segments
// sealed since the previous frame. Every frame also records the *allocation
// window* — the small set of free segments new writes are confined to until
// the next frame — so a crash-time open loads base + deltas and scans only
// the window: recovery time is bounded by log-written-since-checkpoint, not
// volume size. Delta appends write their frame first and commit by
// rewriting the marker (frame count + payload bytes), so a torn append is
// simply invisible; when a slot fills up the chain is compacted into a fresh
// base in the *other* slot under a higher generation (the old slot stays
// behind as a fallback).
//
// Damage never downgrades silently: recovery walks a typed ladder
// (RecoveryFallback) — intact newest chain → window scan; rotted trailing
// delta → valid prefix + full-scan merge; rotted marker or base → other
// slot + full-scan merge; nothing usable → full log recovery. A full-scan
// merge is always sound because any segment whose valid summary carries a
// sequence number beyond the chain's coverage is replayed regardless of
// window membership.

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "src/lld/lld.h"
#include "src/util/crc32.h"
#include "src/util/log.h"

namespace ld {

namespace {

// Reads the base frame's table fields, noting whether each fits the packed
// table field it goes into.
class TableFieldReader {
 public:
  explicit TableFieldReader(Decoder* dec) : dec_(dec) {}

  // A `bytes`-wide value bound for the packed field `packed`.
  uint64_t Get(int bytes, PackedField packed) {
    const uint64_t v = dec_->GetLe(bytes);
    fits_ = fits_ && v <= packed.max();
    return v;
  }
  // A 4-byte Bid or Lid.
  uint32_t Id() {
    const uint32_t v = dec_->GetU32();
    fits_ = fits_ && v <= kMaxId;
    return v;
  }
  // A 4-byte segment index or one of its two 32-bit sentinels.
  uint32_t Segment() {
    const uint32_t v = dec_->GetU32();
    fits_ = fits_ && (v < kMaxSegments || v >= PhysAddr::kOpenSegment);
    return v;
  }
  bool fits() const { return fits_; }

 private:
  Decoder* dec_;
  bool fits_ = true;
};

// Refuses a replayed successor or list head that names a block past the end
// of the block map: a summary can pass its CRC and still carry one, and the
// list walks index the block map with these ids unchecked. A free block
// inside the map is a legal target. DeleteList logs each BlockFree on its own
// and the ListDelete last, so a crash partway through leaves the list's head
// on a freed block, and a walk stops at that block's reset entry.
Status CheckListLinks(const BlockMap& blocks, const ListTable& lists) {
  for (Bid bid = 1; bid <= blocks.max_bid(); ++bid) {
    const Bid next = blocks.entry(bid).successor();
    if (next > blocks.max_bid()) {
      return CorruptionError("recovery: block " + std::to_string(bid) + " links to block " +
                             std::to_string(next) + ", past the block map");
    }
  }
  for (Lid lid = 1; lid <= lists.max_lid(); ++lid) {
    const Bid first = lists.IsAllocated(lid) ? lists.entry(lid).first() : kNilBid;
    if (first > blocks.max_bid()) {
      return CorruptionError("recovery: list " + std::to_string(lid) + " starts at block " +
                             std::to_string(first) + ", past the block map");
    }
  }
  return OkStatus();
}

// "LDC3": bumped from "LDC2" when the single-marker checkpoint region became
// the A/B slot pair with framed payloads. An old marker reads as *absent*
// (not rotted): the volume opens via log recovery, which handles every
// record layout.
constexpr uint32_t kSlotMagic = 0x4c444333;
constexpr uint32_t kLegacyCheckpointMagic = 0x4c444332;

// "LDCF": frame header magic.
constexpr uint32_t kFrameMagic = 0x4c444346;
constexpr uint8_t kFrameBase = 0;
constexpr uint8_t kFrameDelta = 1;
// magic + kind + generation + chain_index + covered_seq + body_len + crc.
constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 4 + 8 + 8 + 4;

struct SlotMarker {
  bool valid = false;
  bool clean = false;
  uint64_t generation = 0;
  uint32_t frame_count = 0;
  uint64_t payload_bytes = 0;  // Sector-aligned bytes of frames in the slot.
};

void EncodeMarker(const SlotMarker& m, uint32_t sector, std::vector<uint8_t>* out) {
  out->clear();
  Encoder enc(out);
  enc.PutU32(kSlotMagic);
  enc.PutU8(m.valid ? 1 : 0);
  enc.PutU8(m.clean ? 1 : 0);
  enc.PutU64(m.generation);
  enc.PutU32(m.frame_count);
  enc.PutU64(m.payload_bytes);
  enc.PutU32(Crc32(*out));
  out->resize(sector, 0);
}

// kAbsent covers blank media, legacy-format markers, and explicitly
// invalidated slots — shapes where "no checkpoint" is the truthful answer.
// kRejected means the sector holds damaged content: that is rot, and it
// must surface on the fallback ladder instead of masquerading as absence.
enum class MarkerState { kValid, kAbsent, kRejected };

MarkerState ParseMarker(std::span<const uint8_t> buf, SlotMarker* m) {
  Decoder dec(buf);
  const uint32_t magic = dec.GetU32();
  m->valid = dec.GetU8() != 0;
  m->clean = dec.GetU8() != 0;
  m->generation = dec.GetU64();
  m->frame_count = dec.GetU32();
  m->payload_bytes = dec.GetU64();
  const size_t crc_end = dec.position();
  const uint32_t crc = dec.GetU32();
  if (!dec.ok()) {
    return MarkerState::kRejected;
  }
  if (magic != kSlotMagic) {
    const bool all_zero =
        std::all_of(buf.begin(), buf.end(), [](uint8_t b) { return b == 0; });
    if (all_zero || magic == kLegacyCheckpointMagic) {
      return MarkerState::kAbsent;
    }
    return MarkerState::kRejected;
  }
  if (crc != Crc32(buf.subspan(0, crc_end))) {
    return MarkerState::kRejected;
  }
  return m->valid ? MarkerState::kValid : MarkerState::kAbsent;
}

// Frame bytes: [header | body | body crc], zero-padded to a sector multiple.
std::vector<uint8_t> BuildFrame(uint8_t kind, uint64_t generation, uint32_t chain_index,
                                uint64_t covered_seq, std::span<const uint8_t> body,
                                uint32_t sector) {
  std::vector<uint8_t> frame;
  frame.reserve(RoundUp(kFrameHeaderBytes + body.size() + 4, sector));
  Encoder enc(&frame);
  enc.PutU32(kFrameMagic);
  enc.PutU8(kind);
  enc.PutU64(generation);
  enc.PutU32(chain_index);
  enc.PutU64(covered_seq);
  enc.PutU64(body.size());
  enc.PutU32(Crc32(frame));  // Header CRC over everything before it.
  enc.PutBytes(body);
  enc.PutU32(Crc32(body));
  frame.resize(RoundUp(frame.size(), sector), 0);
  return frame;
}

// A segment's parity geometry, encoded alike in base and delta frames.
void EncodeParity(const ParityGeometry& parity, Encoder* enc) {
  enc->PutU8(parity.has ? 1 : 0);
  enc->PutU32(parity.offset);
  enc->PutU32(parity.bytes);
  enc->PutU32(parity.covered);
  enc->PutU32(parity.crc);
}

ParityGeometry DecodeParity(Decoder* dec) {
  ParityGeometry parity;
  parity.has = dec->GetU8() != 0;
  parity.offset = dec->GetU32();
  parity.bytes = dec->GetU32();
  parity.covered = dec->GetU32();
  parity.crc = dec->GetU32();
  return parity;
}

}  // namespace

// The in-memory image of the newest usable checkpoint chain: the base
// snapshot, the delta operations in frame order, and the last frame's
// allocation window.
struct LogStructuredDisk::LoadedChain {
  bool usable = false;
  bool clean = false;      // Newest frame is a clean-shutdown base.
  bool full_scan = false;  // Chain incomplete/older: scan the whole log.
  uint32_t slot = 0;
  uint64_t generation = 0;
  uint64_t covered_seq = 0;
  std::vector<uint8_t> base_payload;
  std::vector<uint32_t> window;  // Last valid frame's allocation window.
  // Delta operations in frame order; within a frame, seals precede retires.
  // A retire carries only its segment index.
  struct ChainOp {
    bool retire = false;
    LoggedSegment seg;
  };
  std::vector<ChainOp> ops;
  uint32_t chain_segments = 0;
};

// ---- Slot geometry ----------------------------------------------------------

uint64_t LogStructuredDisk::CheckpointSlotBytes() const {
  const uint32_t sector = device_->sector_size();
  return (checkpoint_bytes_ / 2) / sector * sector;
}

uint64_t LogStructuredDisk::CheckpointSlotStartByte(uint32_t slot) const {
  return checkpoint_start_byte_ + slot * CheckpointSlotBytes();
}

// ---- Allocation window ------------------------------------------------------

uint32_t LogStructuredDisk::AllocationWindowTarget() const {
  // Enough for the seals of one interval, two cleaner rounds, the pipeline's
  // in-flight writes, and slack — so frames are driven by the interval, not
  // by window exhaustion.
  return options_.checkpoint_interval_segments + 2 * options_.segments_per_clean +
         static_cast<uint32_t>(MaxInflight()) + 8;
}

std::vector<uint32_t> LogStructuredDisk::BuildAllocationWindow() const {
  const uint32_t target = AllocationWindowTarget();
  const uint32_t n = usage_->num_segments();
  const uint32_t channels = std::max<uint32_t>(1, device_->num_channels());
  const uint32_t band = std::max<uint32_t>(1, n / channels);
  std::vector<uint32_t> window;
  window.reserve(target + 1);
  // Round-robin across the channel bands so both the confined writes and the
  // recovery scan of the window spread over every actuator.
  std::vector<uint32_t> cursor(channels, 0);
  bool progress = true;
  while (window.size() < target && progress) {
    progress = false;
    for (uint32_t c = 0; c < channels && window.size() < target; ++c) {
      const uint32_t start = c * band;
      const uint32_t end = (c + 1 == channels) ? n : std::min(n, (c + 1) * band);
      for (uint32_t& cur = cursor[c]; start + cur < end;) {
        const uint32_t s = start + cur;
        ++cur;
        if (usage_->segment(s).state == SegmentState::kFree) {
          window.push_back(s);
          progress = true;
          break;
        }
      }
    }
  }
  // The live scratch segment keeps absorbing partial flushes after the frame
  // is written, so the window must always cover it.
  if (scratch_segment_ >= 0) {
    window.push_back(static_cast<uint32_t>(scratch_segment_));
  }
  return window;
}

void LogStructuredDisk::InstallAllocationWindow(const std::vector<uint32_t>& window) {
  ckpt_window_mask_.assign(usage_->num_segments(), 0);
  for (uint32_t s : window) {
    if (s < ckpt_window_mask_.size()) {
      ckpt_window_mask_[s] = 1;
    }
  }
  usage_->SetAllocFilter(&ckpt_window_mask_);
}

// ---- Frame capture ----------------------------------------------------------

void LogStructuredDisk::CaptureFrameSegment(uint32_t segment, uint64_t seq,
                                            const ParityGeometry& parity,
                                            const std::vector<SummaryRecord>& records) {
  if (!CheckpointingActive()) {
    return;
  }
  // A re-flushed scratch (or a freed-and-resealed segment) supersedes its
  // previous capture: only the newest summary is on the media.
  for (auto it = ckpt_pending_.begin(); it != ckpt_pending_.end(); ++it) {
    if (it->segment == segment) {
      ckpt_pending_.erase(it);
      break;
    }
  }
  ckpt_pending_.push_back(LoggedSegment{segment, seq, parity, records});
  ckpt_seals_since_frame_++;
}

void LogStructuredDisk::CaptureRetiredSegment(uint32_t segment) {
  if (!CheckpointingActive()) {
    return;
  }
  for (auto it = ckpt_pending_.begin(); it != ckpt_pending_.end(); ++it) {
    if (it->segment == segment) {
      ckpt_pending_.erase(it);
      break;
    }
  }
  ckpt_retired_pending_.push_back(segment);
}

// ---- Base payload (full-table snapshot) -------------------------------------

void LogStructuredDisk::EncodeBasePayload(std::vector<uint8_t>* payload) const {
  Encoder enc(payload);
  enc.PutU64(next_ts_);
  enc.PutU64(next_seq_);
  enc.PutU32(next_aru_id_);

  // Block map: only allocated entries.
  enc.PutU64(block_map_.allocated_count());
  for (Bid bid = 1; bid <= block_map_.max_bid(); ++bid) {
    if (!block_map_.IsAllocated(bid)) {
      continue;
    }
    const BlockMapEntry& e = block_map_.entry(bid);
    const PhysAddr phys = e.phys();
    enc.PutU32(bid);
    enc.PutU32(phys.segment);
    enc.PutU32(phys.offset);
    enc.PutU32(e.successor());
    enc.PutU32(e.list());
    enc.PutU32(e.size_class());
    enc.PutU32(e.stored_size());
    enc.PutU8(e.compressed() ? 1 : 0);
    enc.PutU64(e.write_ts());
    enc.PutU32(e.link_seg());
    enc.PutU32(e.alloc_seg());
    enc.PutU32(e.payload_crc());
    // A retired per-entry byte, kept so the frame layout does not change:
    // 1 when the block has an on-disk copy. Decode skips it.
    enc.PutU8(phys.IsNone() ? 0 : 1);
  }

  // List table.
  enc.PutU64(list_table_.allocated_count());
  for (Lid lid = 1; lid <= list_table_.max_lid(); ++lid) {
    if (!list_table_.IsAllocated(lid)) {
      continue;
    }
    const ListEntry& e = list_table_.entry(lid);
    const ListHints hints = e.hints();
    enc.PutU32(lid);
    enc.PutU32(e.first());
    enc.PutU8(static_cast<uint8_t>((hints.cluster ? 1 : 0) | (hints.compress ? 2 : 0) |
                                   (hints.interlist_cluster ? 4 : 0)));
    enc.PutU32(e.lol_next());
    enc.PutU32(e.head_seg());
    enc.PutU32(e.create_seg());
  }

  // Usage table.
  enc.PutU32(usage_->num_segments());
  for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
    const SegmentUsage& u = usage_->segment(s);
    enc.PutU8(static_cast<uint8_t>(u.state));
    enc.PutU32(u.live_bytes());
    enc.PutU64(u.newest_ts);
    enc.PutU64(u.seq);
    EncodeParity(u.parity, &enc);
  }

  // Stripe sets, appended only when any exist: a stripe-less volume's base
  // payload stays byte-identical to the pre-stripe layout (and a pre-stripe
  // reader simply has no trailing bytes to misread).
  if (!stripes_.empty()) {
    std::vector<uint32_t> order;
    order.reserve(stripes_.size());
    for (const auto& [p, set] : stripes_) {
      order.push_back(p);
    }
    std::sort(order.begin(), order.end());
    enc.PutU32(static_cast<uint32_t>(order.size()));
    for (uint32_t p : order) {
      const StripeSet& set = stripes_.at(p);
      enc.PutU32(p);
      enc.PutU32(set.record_segment);
      enc.PutU32(set.parity_crc);
      enc.PutU32(static_cast<uint32_t>(set.members.size()));
      for (size_t i = 0; i < set.members.size(); ++i) {
        enc.PutU32(set.members[i]);
        enc.PutU64(set.member_seqs[i]);
      }
    }
  }
}

Status LogStructuredDisk::DecodeBasePayload(std::span<const uint8_t> payload) {
  stripes_.clear();
  member_stripe_.clear();
  Decoder dec(payload);
  next_ts_ = dec.GetU64();
  next_seq_ = dec.GetU64();
  next_aru_id_ = dec.GetU32();

  // The frame stores table fields wider than the packed tables hold them
  // (4-byte ids, 8-byte timestamps); a value that does not fit its packed
  // field is damage and is refused, never truncated.
  TableFieldReader in(&dec);
  block_map_.Clear();
  const uint64_t block_count = dec.GetU64();
  for (uint64_t i = 0; i < block_count; ++i) {
    const Bid bid = in.Id();
    const uint32_t segment = in.Segment();
    const uint32_t offset = in.Get(4, BlockMapEntry::kOffset);
    const Bid successor = in.Id();
    const Lid list = in.Id();
    const uint32_t size_class = in.Get(4, BlockMapEntry::kSizeClass);
    const uint32_t stored_size = in.Get(4, BlockMapEntry::kStoredSize);
    const bool compressed = dec.GetU8() != 0;
    const OpTimestamp write_ts = in.Get(8, BlockMapEntry::kWriteTs);
    const uint32_t link_seg = in.Segment();
    const uint32_t alloc_seg = in.Segment();
    const uint32_t payload_crc = in.Get(4, BlockMapEntry::kPayloadCrc);
    dec.Skip(1);  // The retired per-entry byte.
    if (!dec.ok()) {
      return CorruptionError("checkpoint block map truncated");
    }
    if (bid == kNilBid || !in.fits()) {
      return CorruptionError("checkpoint block " + std::to_string(bid) +
                             " does not fit the packed block map");
    }
    BlockMapEntry& e = block_map_.EnsureAllocated(bid);
    e.set_phys(PhysAddr{segment, offset});
    e.set_successor(successor);
    e.set_list(list);
    e.set_size_class(size_class);
    e.set_stored_size(stored_size);
    e.set_compressed(compressed);
    e.set_write_ts(write_ts);
    e.set_link_seg(link_seg);
    e.set_alloc_seg(alloc_seg);
    e.set_payload_crc(payload_crc);
  }

  list_table_.Clear();
  const uint64_t list_count = dec.GetU64();
  for (uint64_t i = 0; i < list_count; ++i) {
    const Lid lid = in.Id();
    const Bid first = in.Id();
    const uint8_t hints = dec.GetU8();
    const Lid lol_next = in.Id();
    const uint32_t head_seg = in.Segment();
    const uint32_t create_seg = in.Segment();
    if (!dec.ok()) {
      return CorruptionError("checkpoint list table truncated");
    }
    if (lid == kNilLid || !in.fits()) {
      return CorruptionError("checkpoint list " + std::to_string(lid) +
                             " does not fit the packed list table");
    }
    ListEntry& e = list_table_.EnsureAllocated(lid);
    e.set_first(first);
    e.set_hints(ListHints{(hints & 1) != 0, (hints & 2) != 0, (hints & 4) != 0});
    e.set_lol_next(lol_next);
    e.set_head_seg(head_seg);
    e.set_create_seg(create_seg);
    // The frame holds allocated blocks only, but a list cut short by a crash
    // inside DeleteList keeps its head on a freed block, which may be the
    // highest bid. The map that wrote the frame covered it; so must this one,
    // or the list walks read past its end.
    block_map_.Extend(first);
  }

  const uint32_t seg_count = dec.GetU32();
  if (seg_count != usage_->num_segments()) {
    return CorruptionError("checkpoint segment count mismatch");
  }
  for (uint32_t s = 0; s < seg_count; ++s) {
    SegmentUsage& u = usage_->segment(s);
    u.state = static_cast<SegmentState>(dec.GetU8());
    usage_->SetLive(s, dec.GetU32());
    u.newest_ts = dec.GetU64();
    u.seq = dec.GetU64();
    u.parity = DecodeParity(&dec);
    // A scratch segment cannot survive a base frame (bases flush full), and
    // a mid-clean segment still holds its data.
    if (u.state == SegmentState::kScratch) {
      u.state = SegmentState::kFree;
    } else if (u.state == SegmentState::kCleaning) {
      u.state = SegmentState::kFull;
    }
  }

  // Optional trailing stripe section (bases written before stripes existed,
  // or with none live, end right here).
  if (dec.ok() && dec.position() < payload.size()) {
    const uint32_t stripe_count = dec.GetU32();
    if (!dec.ok() || stripe_count > seg_count) {
      return CorruptionError("checkpoint stripe section truncated");
    }
    for (uint32_t i = 0; i < stripe_count; ++i) {
      StripeSet set;
      set.parity_segment = dec.GetU32();
      set.record_segment = dec.GetU32();
      set.parity_crc = dec.GetU32();
      const uint32_t member_count = dec.GetU32();
      if (!dec.ok() || set.parity_segment >= seg_count || member_count == 0 ||
          member_count > seg_count) {
        return CorruptionError("checkpoint stripe section invalid");
      }
      set.members.reserve(member_count);
      set.member_seqs.reserve(member_count);
      for (uint32_t j = 0; j < member_count; ++j) {
        const uint32_t m = dec.GetU32();
        const uint64_t seq = dec.GetU64();
        if (!dec.ok() || m >= seg_count) {
          return CorruptionError("checkpoint stripe member invalid");
        }
        set.members.push_back(m);
        set.member_seqs.push_back(seq);
      }
      RegisterStripe(std::move(set));
    }
  }
  RETURN_IF_ERROR(dec.ToStatus("checkpoint payload"));

  block_map_.RebuildFreeList();
  list_table_.RebuildFreeList();
  list_table_.RelinkListOfLists();
  return OkStatus();
}

// ---- Frame writers ----------------------------------------------------------

Status LogStructuredDisk::WriteBaseFrame(bool clean) {
  FlagGuard in_frame(&ckpt_in_frame_write_);

  // A base frame is a snapshot of the in-memory tables: everything sealed
  // must be durable and nothing may sit in the open segment (open-segment
  // blocks carry unserializable in-memory addresses).
  if (!open_.empty()) {
    RETURN_IF_ERROR(FlushOpenSegmentFull());
  }
  RETURN_IF_ERROR(WaitForInflight());

  const uint32_t sector = device_->sector_size();
  std::vector<uint32_t> window;
  std::vector<uint8_t> body;
  Encoder enc(&body);
  if (CheckpointingActive()) {
    window = BuildAllocationWindow();
  }
  enc.PutU32(static_cast<uint32_t>(window.size()));
  for (uint32_t s : window) {
    enc.PutU32(s);
  }
  EncodeBasePayload(&body);

  const uint64_t covered = next_seq_ - 1;
  const uint32_t target = ckpt_have_chain_ ? (1 - ckpt_slot_) : ckpt_slot_;
  const uint64_t generation = ckpt_generation_ + 1;
  std::vector<uint8_t> frame = BuildFrame(kFrameBase, generation, 0, covered, body, sector);
  const uint64_t capacity = CheckpointSlotBytes() - sector;
  if (frame.size() > capacity) {
    counters_.checkpoints_skipped_oversize++;
    const std::string msg = "checkpoint oversize: base frame of " +
                            std::to_string(frame.size()) + " bytes exceeds the " +
                            std::to_string(capacity) + "-byte slot";
    if (CheckpointingActive()) {
      RETURN_IF_ERROR(DisableIncrementalCheckpoints(msg));
    } else {
      RETURN_IF_ERROR(InvalidateCheckpoint());
    }
    return NoSpaceError(msg);
  }

  const uint64_t slot_start = CheckpointSlotStartByte(target);
  RETURN_IF_ERROR(io_.Write((slot_start + sector) / sector, frame));

  // Marker written last: its single-sector write commits the new chain. The
  // other slot keeps the previous chain as the fallback rung.
  SlotMarker m;
  m.valid = true;
  m.clean = clean;
  m.generation = generation;
  m.frame_count = 1;
  m.payload_bytes = frame.size();
  std::vector<uint8_t> marker;
  EncodeMarker(m, sector, &marker);
  RETURN_IF_ERROR(io_.Write(slot_start / sector, marker));

  ckpt_have_chain_ = true;
  ckpt_slot_ = target;
  ckpt_generation_ = generation;
  ckpt_frame_count_ = 1;
  ckpt_payload_bytes_ = frame.size();
  ckpt_covered_seq_ = covered;
  ckpt_seals_since_frame_ = 0;
  ckpt_pending_.clear();
  ckpt_retired_pending_.clear();
  counters_.checkpoint_frames_written++;
  if (CheckpointingActive()) {
    InstallAllocationWindow(window);
  }
  return OkStatus();
}

Status LogStructuredDisk::MaybeWriteDeltaFrame(bool force) {
  if (!CheckpointingActive() || ckpt_in_frame_write_ || cleaning_ || !ckpt_have_chain_) {
    return OkStatus();
  }
  if (!force && ckpt_seals_since_frame_ < options_.checkpoint_interval_segments) {
    return OkStatus();
  }
  if (!force && ckpt_pending_.empty() && ckpt_retired_pending_.empty()) {
    return OkStatus();
  }
  FlagGuard in_frame(&ckpt_in_frame_write_);

  // The frame covers its segments' sequence numbers, so those segment writes
  // must be on the media before the marker says so.
  RETURN_IF_ERROR(WaitForInflight());

  const uint32_t sector = device_->sector_size();
  const std::vector<uint32_t> window = BuildAllocationWindow();
  uint64_t covered = ckpt_covered_seq_;
  for (const LoggedSegment& p : ckpt_pending_) {
    covered = std::max(covered, p.seq);
  }

  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU32(static_cast<uint32_t>(window.size()));
  for (uint32_t s : window) {
    enc.PutU32(s);
  }
  enc.PutU32(static_cast<uint32_t>(ckpt_retired_pending_.size()));
  for (uint32_t s : ckpt_retired_pending_) {
    enc.PutU32(s);
  }
  enc.PutU32(static_cast<uint32_t>(ckpt_pending_.size()));
  for (const LoggedSegment& p : ckpt_pending_) {
    enc.PutU32(p.segment);
    enc.PutU64(p.seq);
    EncodeParity(p.parity, &enc);
    enc.PutU32(static_cast<uint32_t>(p.records.size()));
    for (const SummaryRecord& r : p.records) {
      r.EncodeTo(&enc);
    }
  }

  std::vector<uint8_t> frame =
      BuildFrame(kFrameDelta, ckpt_generation_, ckpt_frame_count_, covered, body, sector);
  const uint64_t capacity = CheckpointSlotBytes() - sector;
  if (ckpt_payload_bytes_ + frame.size() > capacity) {
    // Slot full: compact the chain into a fresh base in the other slot. A
    // base is a table snapshot, so it must not embed the effects of ARUs
    // that might still abort.
    if (!open_arus_.empty()) {
      return DisableIncrementalCheckpoints(
          "checkpoint slot full while ARUs are open; cannot rebase");
    }
    counters_.checkpoint_rebases++;
    return WriteBaseFrame(/*clean=*/false);
  }

  const uint64_t slot_start = CheckpointSlotStartByte(ckpt_slot_);
  RETURN_IF_ERROR(io_.Write((slot_start + sector + ckpt_payload_bytes_) / sector, frame));

  SlotMarker m;
  m.valid = true;
  m.clean = false;
  m.generation = ckpt_generation_;
  m.frame_count = ckpt_frame_count_ + 1;
  m.payload_bytes = ckpt_payload_bytes_ + frame.size();
  std::vector<uint8_t> marker;
  EncodeMarker(m, sector, &marker);
  RETURN_IF_ERROR(io_.Write(slot_start / sector, marker));

  ckpt_frame_count_++;
  ckpt_payload_bytes_ += frame.size();
  ckpt_covered_seq_ = covered;
  ckpt_seals_since_frame_ = 0;
  ckpt_pending_.clear();
  ckpt_retired_pending_.clear();
  counters_.checkpoint_frames_written++;
  InstallAllocationWindow(window);
  return OkStatus();
}

StatusOr<bool> LogStructuredDisk::CheckpointStep() {
  RETURN_IF_ERROR(CheckWritable());
  if (!CheckpointFrameDue()) {
    return false;
  }
  // A due frame can still come back without writing (slot rebase refusal
  // with open ARUs degrades to disabled checkpoints, which is not an
  // error); report progress from the counter, not from the call succeeding.
  const uint64_t before = counters_.checkpoint_frames_written;
  RETURN_IF_ERROR(MaybeWriteDeltaFrame(/*force=*/false));
  return counters_.checkpoint_frames_written > before;
}

Status LogStructuredDisk::InvalidateCheckpoint() {
  const uint32_t sector = device_->sector_size();
  SlotMarker m;  // valid = false.
  std::vector<uint8_t> marker;
  for (uint32_t slot = 0; slot < 2; ++slot) {
    EncodeMarker(m, sector, &marker);
    RETURN_IF_ERROR(io_.Write(CheckpointSlotStartByte(slot) / sector, marker));
  }
  ckpt_have_chain_ = false;
  ckpt_frame_count_ = 0;
  ckpt_payload_bytes_ = 0;
  ckpt_covered_seq_ = 0;
  ckpt_seals_since_frame_ = 0;
  ckpt_pending_.clear();
  ckpt_retired_pending_.clear();
  return OkStatus();
}

Status LogStructuredDisk::DisableIncrementalCheckpoints(const std::string& reason) {
  if (ckpt_disabled_) {
    return OkStatus();
  }
  LD_LOG(kWarn) << "incremental checkpointing disabled: " << reason
                << "; the next open will recover from the log";
  ckpt_disabled_ = true;
  usage_->SetAllocFilter(nullptr);
  return InvalidateCheckpoint();
}

// ---- Chain loading ----------------------------------------------------------

Status LogStructuredDisk::LoadCheckpointChain(LoadedChain* chain) {
  *chain = LoadedChain{};
  const uint32_t sector = device_->sector_size();
  const uint64_t capacity = CheckpointSlotBytes() - sector;

  struct Candidate {
    uint32_t slot = 0;
    SlotMarker marker;
  };
  std::vector<Candidate> candidates;
  uint32_t rejected = 0;
  uint64_t max_generation = 0;
  for (uint32_t slot = 0; slot < 2; ++slot) {
    std::vector<uint8_t> buf(sector);
    if (Status s = io_.Read(CheckpointSlotStartByte(slot) / sector, buf); !s.ok()) {
      if (s.code() != ErrorCode::kIoError) {
        return s;
      }
      rejected++;
      continue;
    }
    SlotMarker m;
    switch (ParseMarker(buf, &m)) {
      case MarkerState::kValid:
        max_generation = std::max(max_generation, m.generation);
        if (m.frame_count == 0 || m.payload_bytes > capacity) {
          rejected++;  // Impossible shape under a passing CRC: treat as rot.
          break;
        }
        candidates.push_back({slot, m});
        break;
      case MarkerState::kAbsent:
        max_generation = std::max(max_generation, m.generation);
        break;
      case MarkerState::kRejected:
        rejected++;
        break;
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.marker.generation > b.marker.generation;
            });

  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const SlotMarker& marker = candidates[ci].marker;
    LoadedChain parsed;
    parsed.slot = candidates[ci].slot;
    parsed.generation = marker.generation;
    parsed.clean = marker.clean;
    // The chain is usable iff its base frame (frame 0) loads, possibly with
    // a dropped tail.
    uint32_t frames_loaded = 0;
    uint64_t offset = 0;
    while (frames_loaded < marker.frame_count &&
           LoadCheckpointFrame(frames_loaded, marker.payload_bytes, &offset, &parsed)) {
      frames_loaded++;
    }
    if (frames_loaded == 0) {
      // Marker was fine but the base frame rotted: this slot is unusable.
      LD_LOG(kWarn) << "checkpoint slot " << parsed.slot
                    << " rejected: base frame invalid (generation " << marker.generation << ")";
      rejected++;
      continue;
    }
    const uint32_t frames_dropped = marker.frame_count - frames_loaded;
    parsed.usable = true;
    // Window-only recovery is sound only for the *newest* chain taken whole:
    // a dropped tail or a skipped/rotted slot means writes may exist outside
    // this chain's window, so merge with a full summary scan.
    parsed.full_scan = frames_dropped > 0 || ci > 0 || rejected > 0;
    if (ci > 0 || rejected > 0) {
      last_recovery_.fallback_reason = RecoveryFallback::kSlotFallback;
    } else if (frames_dropped > 0) {
      last_recovery_.fallback_reason = RecoveryFallback::kDeltaTailDropped;
    }
    if (frames_dropped > 0) {
      LD_LOG(kWarn) << "checkpoint chain in slot " << parsed.slot << ": dropped "
                    << frames_dropped << " trailing frame(s); merging with a full scan";
    }
    last_recovery_.frames_loaded = frames_loaded;
    last_recovery_.frames_dropped = frames_dropped;
    last_recovery_.slots_rejected = rejected;
    last_recovery_.chain_segments = parsed.chain_segments;
    last_recovery_.covered_seq = parsed.covered_seq;
    *chain = std::move(parsed);
    break;
  }
  if (!chain->usable) {
    last_recovery_.slots_rejected = rejected;
    if (rejected > 0) {
      // There *was* checkpoint state and it rotted away: the bottom rung.
      last_recovery_.fallback_reason = RecoveryFallback::kCheckpointLost;
      LD_LOG(kWarn) << "no usable checkpoint chain (" << rejected
                    << " slot(s) rejected); full log recovery";
    }
  }

  // Session bookkeeping: the next base frame must out-generation everything
  // seen on the media, and land in the slot not holding the chain we loaded.
  ckpt_generation_ = std::max(max_generation,
                              chain->usable ? chain->generation : uint64_t{0});
  ckpt_slot_ = chain->usable ? chain->slot : 0;
  ckpt_have_chain_ = chain->usable;
  return OkStatus();
}

bool LogStructuredDisk::LoadCheckpointFrame(uint32_t index, uint64_t payload_bytes,
                                            uint64_t* offset, LoadedChain* chain) {
  const uint32_t sector = device_->sector_size();
  const uint64_t capacity = CheckpointSlotBytes() - sector;
  const uint32_t num_segments = usage_->num_segments();
  const uint64_t start_sector = (CheckpointSlotStartByte(chain->slot) + sector + *offset) / sector;
  if (*offset + sector > capacity) {
    return false;
  }
  std::vector<uint8_t> head(sector);
  if (!io_.Read(start_sector, head).ok()) {
    return false;
  }
  Decoder hd(head);
  const uint32_t magic = hd.GetU32();
  const uint8_t kind = hd.GetU8();
  const uint64_t generation = hd.GetU64();
  const uint32_t chain_index = hd.GetU32();
  const uint64_t covered_seq = hd.GetU64();
  const uint64_t body_len = hd.GetU64();
  const size_t crc_end = hd.position();
  const uint32_t header_crc = hd.GetU32();
  if (!hd.ok() || magic != kFrameMagic ||
      header_crc != Crc32(std::span<const uint8_t>(head).subspan(0, crc_end))) {
    return false;
  }
  if (generation != chain->generation || chain_index != index ||
      kind != (index == 0 ? kFrameBase : kFrameDelta)) {
    return false;
  }
  const uint64_t total = RoundUp(kFrameHeaderBytes + body_len + 4, sector);
  if (body_len > capacity || *offset + total > capacity || *offset + total > payload_bytes) {
    return false;
  }
  std::vector<uint8_t> raw(total);
  if (!io_.Read(start_sector, raw).ok()) {
    return false;
  }
  std::span<const uint8_t> body(raw.data() + kFrameHeaderBytes, body_len);
  Decoder crc_dec(std::span<const uint8_t>(raw.data() + kFrameHeaderBytes + body_len, 4));
  if (crc_dec.GetU32() != Crc32(body)) {
    return false;
  }

  Decoder dec(body);
  const uint32_t window_count = dec.GetU32();
  if (!dec.ok() || window_count > num_segments + 1) {
    return false;
  }
  std::vector<uint32_t> window(window_count);
  for (uint32_t& s : window) {
    s = dec.GetU32();
  }
  if (index == 0) {
    if (!dec.ok()) {
      return false;
    }
    chain->base_payload.assign(body.begin() + dec.position(), body.end());
  } else {
    const uint32_t retired_count = dec.GetU32();
    if (!dec.ok() || retired_count > num_segments) {
      return false;
    }
    std::vector<uint32_t> retired(retired_count);
    for (uint32_t& s : retired) {
      s = dec.GetU32();
    }
    const uint32_t seg_count = dec.GetU32();
    if (!dec.ok() || seg_count > num_segments) {
      return false;
    }
    std::vector<LoggedSegment> segs(seg_count);
    for (LoggedSegment& seg : segs) {
      seg.segment = dec.GetU32();
      seg.seq = dec.GetU64();
      seg.parity = DecodeParity(&dec);
      const uint32_t record_count = dec.GetU32();
      if (!dec.ok() || seg.segment >= num_segments ||
          record_count > options_.summary_bytes + data_capacity_) {
        return false;
      }
      seg.records.reserve(record_count);
      for (uint32_t k = 0; k < record_count; ++k) {
        StatusOr<SummaryRecord> r = SummaryRecord::DecodeFrom(&dec);
        if (!r.ok()) {
          return false;
        }
        seg.records.push_back(std::move(*r));
      }
    }
    if (!dec.ok()) {
      return false;
    }
    // Commit the parsed frame: seals first, then retires.
    for (LoggedSegment& seg : segs) {
      chain->ops.push_back({false, std::move(seg)});
      chain->chain_segments++;
    }
    for (uint32_t s : retired) {
      chain->ops.push_back({true, LoggedSegment{s, 0, {}, {}}});
    }
  }
  chain->window = std::move(window);
  chain->covered_seq = covered_seq;
  *offset += total;
  return true;
}

// ---- Recovery ---------------------------------------------------------------

Status LogStructuredDisk::RecoverState() {
  const double start = device_->clock()->Now();
  last_recovery_ = RecoveryReport{};

  LoadedChain chain;
  RETURN_IF_ERROR(LoadCheckpointChain(&chain));
  RETURN_IF_ERROR(RecoverFromLog(chain.usable ? &chain : nullptr));

  // Lifecycle. The paper's checkpoint-free mode invalidates the marker on
  // every startup, so only clean-shutdown → clean-startup skips recovery.
  // Incremental mode instead opens a fresh epoch: a new base frame in the
  // other slot, with a new allocation window confining writes.
  if (options_.checkpoint_interval_segments == 0) {
    RETURN_IF_ERROR(InvalidateCheckpoint());
  } else if (!ckpt_disabled_) {
    Status base = WriteBaseFrame(/*clean=*/false);
    if (!base.ok() && base.code() != ErrorCode::kNoSpace) {
      return base;
    }
    // Oversize base: typed, counted, and checkpointing is already disabled —
    // the open itself still succeeds (log recovery covers the session).
  }

  last_recovery_.live_blocks = block_map_.allocated_count();
  last_recovery_.seconds = device_->clock()->Now() - start;
  return OkStatus();
}

// Working state of one RecoverFromLog pass, threaded through its phases.
struct LogStructuredDisk::RecoveryScan {
  explicit RecoveryScan(uint32_t num_segments)
      : seqs(num_segments, 0), has_summary(num_segments, false), parity(num_segments) {}
  const LoadedChain* chain = nullptr;  // Null: recovering from zero.
  bool clean_load = false;  // Clean shutdown with an intact newest chain.
  uint64_t covered_seq = 0;
  // Per segment: the seq of the summary it holds, whether it holds one, and
  // its parity geometry.
  std::vector<uint64_t> seqs;
  std::vector<bool> has_summary;
  std::vector<ParityGeometry> parity;
  // Chain delta segments and scanned segments, merged and replayed together
  // in sequence order (so ARU gating sees the union).
  std::vector<LoggedSegment> replay;
  // The valid summaries the sweep found past the chain's coverage (plus any
  // stripe member rebuilt in memory), by segment.
  std::unordered_map<uint32_t, uint64_t> scanned_seqs;
  struct Suspect {
    uint32_t index = 0;
    bool seq_known = false;
    uint64_t claimed_seq = 0;
    bool unreadable = false;  // I/O error (vs. failed validation).
  };
  std::vector<Suspect> suspects;
  struct StripeNet {
    uint64_t seq = 0;  // Seq of the summary that carried the record set.
    uint32_t record_segment = 0;
    uint32_t member_count = 0;  // 0 = dissolved.
    uint32_t parity_crc = 0;
    std::vector<uint32_t> members;
    std::vector<uint64_t> member_seqs;
  };
  std::unordered_map<uint32_t, StripeNet> stripe_net;  // By parity segment.
  std::unordered_set<uint32_t> stripe_channels_touched;
};

Status LogStructuredDisk::RecoverFromLog(const LoadedChain* chain) {
  RecoveryScan scan(usage_->num_segments());
  scan.chain = chain;
  SeedFromChain(&scan);
  RETURN_IF_ERROR(SweepSummaries(ScanScope(scan), &scan));
  if (!scan.clean_load) {
    RETURN_IF_ERROR(ResolveStripeNet(&scan));
  }
  RETURN_IF_ERROR(ClassifySuspects(scan));
  ReplayLog(&scan);

  last_recovery_.mode = scan.clean_load ? RecoveryMode::kCheckpointClean
                        : (scan.chain != nullptr ? RecoveryMode::kCheckpointChain
                                                 : RecoveryMode::kLogScan);
  last_recovery_.used_checkpoint = scan.chain != nullptr;
  if (scan.clean_load) {
    // The decoded tables are the total state (the base snapshot already has
    // exact live counts); nothing to rebuild.
    return OkStatus();
  }
  return DeriveState(scan);
}

void LogStructuredDisk::SeedFromChain(RecoveryScan* scan) {
  RecoveryReport& rep = last_recovery_;
  if (scan->chain != nullptr) {
    if (Status base = DecodeBasePayload(scan->chain->base_payload); !base.ok()) {
      // The CRC passed but the snapshot does not parse (e.g. a geometry
      // change): treat like a rotted slot, never fail the open over it.
      LD_LOG(kWarn) << "checkpoint base unusable (" << base.message()
                    << "); full log recovery";
      scan->chain = nullptr;
      ckpt_have_chain_ = false;
      stripes_.clear();
      member_stripe_.clear();
      rep.slots_rejected++;
      rep.fallback_reason = RecoveryFallback::kCheckpointLost;
      rep.frames_loaded = 0;
      rep.frames_dropped = 0;
      rep.chain_segments = 0;
      rep.covered_seq = 0;
    }
  }
  const LoadedChain* chain = scan->chain;
  if (chain == nullptr) {
    block_map_.Clear();
    list_table_.Clear();
    return;
  }
  scan->covered_seq = chain->covered_seq;
  scan->clean_load = chain->clean && !chain->full_scan;
  for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
    const SegmentUsage& u = usage_->segment(s);
    if (u.state == SegmentState::kFull) {
      scan->has_summary[s] = true;
      scan->seqs[s] = u.seq;
      scan->parity[s] = u.parity;
    }
  }
  for (const LoadedChain::ChainOp& op : chain->ops) {
    const uint32_t s = op.seg.segment;
    if (op.retire) {
      if (s < usage_->num_segments()) {
        scan->has_summary[s] = false;
        scan->seqs[s] = 0;
        scan->parity[s] = ParityGeometry{};
      }
      continue;
    }
    scan->has_summary[s] = true;
    scan->seqs[s] = op.seg.seq;
    scan->parity[s] = op.seg.parity;
    scan->replay.push_back(op.seg);
  }
}

std::vector<uint32_t> LogStructuredDisk::ScanScope(const RecoveryScan& scan) const {
  const uint32_t num_segments = usage_->num_segments();
  std::vector<uint32_t> to_scan;
  if (scan.clean_load) {
    return to_scan;  // The chain's tables are total.
  }
  if (scan.chain != nullptr && !scan.chain->full_scan) {
    // Intact newest chain: every post-checkpoint write is confined to the
    // last frame's allocation window. This is the bounded scan.
    std::vector<bool> seen(num_segments, false);
    for (uint32_t s : scan.chain->window) {
      if (s < num_segments && !seen[s]) {
        seen[s] = true;
        to_scan.push_back(s);
      }
    }
    std::sort(to_scan.begin(), to_scan.end());
    return to_scan;
  }
  to_scan.resize(num_segments);
  for (uint32_t s = 0; s < num_segments; ++s) {
    to_scan[s] = s;
  }
  return to_scan;
}

Status LogStructuredDisk::SweepSummaries(const std::vector<uint32_t>& to_scan,
                                         RecoveryScan* scan) {
  RecoveryReport& rep = last_recovery_;
  const uint32_t sector = device_->sector_size();
  // Classifies one segment's summary. Identical for the serial and parallel
  // sweeps: parallelism only reorders the device reads, never the
  // classification (which runs in segment order).
  auto classify = [&](uint32_t seg, StatusOr<SummaryRead> read) -> Status {
    RETURN_IF_ERROR(read.status());
    if (read->outcome == SummaryRead::kNeverWritten) {
      return OkStatus();
    }
    if (read->outcome != SummaryRead::kValid) {
      scan->suspects.push_back({seg, read->seq_known, read->header.seq,
                                read->outcome == SummaryRead::kUnreadable});
      return OkStatus();
    }
    rep.summaries_valid++;
    const uint64_t seq = read->header.seq;
    if (scan->chain != nullptr && seq <= scan->covered_seq) {
      // Stale: the chain already accounts for this segment (it was freed, or
      // its records are covered). The chain is authoritative.
      return OkStatus();
    }
    scan->has_summary[seg] = true;
    scan->scanned_seqs.emplace(seg, seq);
    scan->replay.push_back({seg, seq, ParityGeometry{}, std::move(read->records)});
    return OkStatus();
  };

  const uint32_t channels = std::max<uint32_t>(1, device_->num_channels());
  const bool parallel = options_.parallel_recovery_scan && to_scan.size() > 1;
  rep.parallel_scan = parallel;
  rep.scan_channels = parallel ? channels : 1;
  if (!parallel) {
    for (uint32_t seg : to_scan) {
      rep.summaries_scanned++;
      RETURN_IF_ERROR(classify(seg, ReadSummary(seg)));
    }
    return OkStatus();
  }
  // Fan the fixed-location summary reads out through the async request
  // queue in waves, so each channel's arm streams its own band while the
  // others seek; decode and classification stay in segment order.
  const size_t wave = static_cast<size_t>(channels) * 4;
  std::vector<std::vector<uint8_t>> bufs(wave, std::vector<uint8_t>(options_.summary_bytes));
  std::vector<IoTag> tags(wave);
  for (size_t base = 0; base < to_scan.size(); base += wave) {
    const size_t n = std::min(wave, to_scan.size() - base);
    for (size_t i = 0; i < n; ++i) {
      rep.summaries_scanned++;
      StatusOr<IoTag> tag =
          io_.SubmitRead(SegmentSummaryStartByte(to_scan[base + i]) / sector, bufs[i]);
      if (!tag.ok() && tag.status().code() != ErrorCode::kIoError) {
        return tag.status();
      }
      tags[i] = tag.ok() ? *tag : kInvalidIoTag;
    }
    for (size_t i = 0; i < n; ++i) {
      if (tags[i] != kInvalidIoTag) {
        RETURN_IF_ERROR(device_->WaitFor(tags[i]));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t seg = to_scan[base + i];
      if (tags[i] == kInvalidIoTag) {
        scan->suspects.push_back({seg, false, 0, /*unreadable=*/true});
        continue;
      }
      RETURN_IF_ERROR(classify(seg, ReadSummary(seg, bufs[i])));
    }
  }
  return OkStatus();
}

// Stripe parity sets (pre-pass before suspect classification).
//
// kStripeParity records describe cross-channel stripe sets: one record per
// member, keyed by the parity segment, a member-count of zero being the
// dissolve countermand. The newest record set per parity segment wins in
// sequence order; the base snapshot's decoded sets sit beneath every
// logged record. A net-live parity segment holds an XOR image whose
// summary region is expected garbage (an odd member count even leaves a
// valid-looking magic over a failing CRC), so it must leave the suspect
// ladder — unless its own media decodes as a fully valid summary NEWER
// than the records, which proves them stale (media wins). Members of a
// net-live set that lost their summaries (a dead or blank-swapped channel)
// are rebuilt here, image and all, from the N-1 surviving peers plus
// parity; any second fault along the way refuses the open, typed.
Status LogStructuredDisk::ResolveStripeNet(RecoveryScan* scan) {
  using StripeNet = RecoveryScan::StripeNet;
  const uint32_t num_segments = usage_->num_segments();
  std::unordered_map<uint32_t, StripeNet>& stripe_net = scan->stripe_net;
  for (const auto& [p, set] : stripes_) {
    StripeNet net;
    net.record_segment = set.record_segment;
    net.member_count = static_cast<uint32_t>(set.members.size());
    net.parity_crc = set.parity_crc;
    net.members = set.members;
    net.member_seqs = set.member_seqs;
    stripe_net.emplace(p, std::move(net));
  }
  stripes_.clear();
  member_stripe_.clear();

  for (const LoggedSegment& seg : scan->replay) {
    for (const auto& r : seg.records) {
      if (r.type != SummaryRecordType::kStripeParity) {
        continue;
      }
      StripeNet& net = stripe_net[r.stripe.parity_segment];
      const uint32_t count = r.stripe.member_count;
      if (seg.seq < net.seq) {
        continue;
      }
      if (seg.seq > net.seq || count != net.member_count || count == 0) {
        net = StripeNet{};
        net.seq = seg.seq;
        net.member_count = count;
        net.parity_crc = r.stripe.parity_crc;
        net.members.assign(count, UINT32_MAX);
        net.member_seqs.assign(count, 0);
      }
      net.record_segment = seg.segment;
      if (count == 0 || r.stripe.member_index >= count) {
        continue;
      }
      net.members[r.stripe.member_index] = r.stripe.member_segment;
      net.member_seqs[r.stripe.member_index] = r.stripe.member_seq;
    }
  }

  // Prune: dissolved sets, sets with impossible shapes (a torn crash can
  // never produce one — the records ride a single CRC'd summary — but a
  // leaked dissolve can strand nonsense), and media-wins conflicts.
  for (auto it = stripe_net.begin(); it != stripe_net.end();) {
    const uint32_t p = it->first;
    StripeNet& net = it->second;
    bool dead = net.member_count == 0 || p >= num_segments;
    for (size_t i = 0; !dead && i < net.members.size(); ++i) {
      const uint32_t m = net.members[i];
      dead = m == UINT32_MAX || m >= num_segments || m == p;
    }
    if (!dead) {
      if (const auto ps = scan->scanned_seqs.find(p);
          ps != scan->scanned_seqs.end() && ps->second > net.seq) {
        // Media wins: the parity segment's own summary out-sequences the
        // stripe records — the set is stale and the segment is live data.
        dead = true;
      }
    }
    if (dead) {
      it = stripe_net.erase(it);
    } else {
      ++it;
    }
  }

  if (!stripe_net.empty()) {
    scan->suspects.erase(std::remove_if(scan->suspects.begin(), scan->suspects.end(),
                                        [&](const RecoveryScan::Suspect& s) {
                                          return stripe_net.count(s.index) != 0;
                                        }),
                         scan->suspects.end());
    for (const auto& [p, net] : stripe_net) {
      // The XOR image is not a summary, whatever the chain seed or a
      // stale media decode claimed.
      scan->has_summary[p] = false;
      scan->seqs[p] = 0;
    }
  }

  std::vector<uint32_t> stale_parity;
  for (auto it = stripe_net.begin(); it != stripe_net.end();) {
    const uint32_t p = it->first;
    StripeNet& net = it->second;
    bool stale = false;
    std::vector<uint32_t> missing;
    for (uint32_t i = 0; i < net.member_count; ++i) {
      const uint32_t m = net.members[i];
      if (const auto ms = scan->scanned_seqs.find(m); ms != scan->scanned_seqs.end()) {
        if (ms->second != net.member_seqs[i]) {
          stale = true;
        }
      } else if (scan->has_summary[m]) {
        if (scan->seqs[m] != net.member_seqs[i]) {
          stale = true;
        }
      } else {
        missing.push_back(i);
      }
    }
    if (stale) {
      // A dissolve that could not log its countermand (the parity channel
      // was down at dissolve time) leaks its records; a member resealed
      // since proves the set dead. The parity segment is ordinary free
      // space — scrub its garbage summary region below.
      stale_parity.push_back(p);
      it = stripe_net.erase(it);
      continue;
    }
    for (uint32_t i : missing) {
      RETURN_IF_ERROR(ReconstructStripeMember(p, i, scan));
    }
    ++it;
  }
  for (uint32_t p : stale_parity) {
    if (!SegmentChannelsUsable(p)) {
      continue;
    }
    if (Status s = ZeroSummary(p); !s.ok() && s.code() != ErrorCode::kIoError) {
      return s;
    }
  }
  return OkStatus();
}

Status LogStructuredDisk::ReconstructStripeMember(uint32_t p, uint32_t idx,
                                                  RecoveryScan* scan) {
  const RecoveryScan::StripeNet& net = scan->stripe_net.at(p);
  const uint32_t m = net.members[idx];
  const auto fault = [&](const std::string& what) {
    return CorruptionError("recovery: stripe member " + std::to_string(m) +
                           " (parity segment " + std::to_string(p) + "): " + what +
                           " (double fault)");
  };
  std::vector<uint8_t> image(options_.segment_bytes);
  StatusOr<SummaryRead> read =
      RebuildStripeMember(p, net.parity_crc, net.members, idx, net.member_seqs[idx], image);
  if (!read.ok()) {
    // An unreadable component or a failed check refuses the open; any other
    // device error propagates as it is.
    const ErrorCode code = read.status().code();
    if (code != ErrorCode::kIoError && code != ErrorCode::kCorruption) {
      return read.status();
    }
    return fault(read.status().message());
  }
  scan->has_summary[m] = true;
  scan->scanned_seqs.emplace(m, read->header.seq);
  scan->replay.push_back({m, read->header.seq, ParityGeometry{}, std::move(read->records)});
  scan->suspects.erase(std::remove_if(scan->suspects.begin(), scan->suspects.end(),
                                      [&](const RecoveryScan::Suspect& s) {
                                        return s.index == m;
                                      }),
                       scan->suspects.end());
  last_recovery_.stripe_members_reconstructed++;
  for (uint32_t c = SegmentChannel(m); c <= SegmentLastChannel(m); ++c) {
    scan->stripe_channels_touched.insert(c);
  }
  // Re-materialize the media copy when the channel can take it; a failed
  // or withheld write leaves the segment for Rebuild() to lay down.
  bool wrote = false;
  if (SegmentChannelsUsable(m)) {
    if (Status s = io_.Write(SegmentBaseByte(m) / device_->sector_size(), image); s.ok()) {
      wrote = true;
    } else if (s.code() != ErrorCode::kIoError) {
      return s;
    } else {
      LD_LOG(kWarn) << "recovery: write-back of reconstructed stripe member "
                    << m << " failed: " << s.ToString();
    }
  }
  if (!wrote) {
    EnqueueRebuild(m);
  }
  LD_LOG(kInfo) << "recovery: reconstructed stripe member " << m
                << " from parity segment " << p
                << (wrote ? "" : " (media copy deferred to rebuild)");
  return OkStatus();
}

Status LogStructuredDisk::ClassifySuspects(const RecoveryScan& scan) {
  RecoveryReport& rep = last_recovery_;
  // Scrub intents: a kScrubIntent record says "segment X (whose retired
  // summary carried seq S) has been fully relocated; its summary is garbage
  // awaiting the zeroing write". Gathered from the chain *and* the scan.
  std::unordered_map<uint32_t, uint64_t> scrub_intents;  // segment -> newest intent seq
  for (const LoggedSegment& seg : scan.replay) {
    for (const auto& r : seg.records) {
      if (r.type == SummaryRecordType::kScrubIntent) {
        uint64_t& newest = scrub_intents[r.scrub.segment];
        newest = std::max(newest, r.scrub.seq);
      }
    }
  }

  // Segments hit the device in seq order, so the durable valid summaries
  // always form a seq prefix of the log: a suspect claiming a seq beyond the
  // prefix was in flight at the crash and is discarded like any torn write;
  // one the chain proves stale is tolerated; one inside the committed prefix
  // is media corruption and is refused (typed) unless a logged scrub intent
  // vouches for its retirement.
  uint64_t max_valid_seq = scan.covered_seq;
  for (const auto& [s, seq] : scan.scanned_seqs) {
    max_valid_seq = std::max(max_valid_seq, seq);
  }
  Status corrupt_log = OkStatus();
  for (const auto& s : scan.suspects) {
    if (s.seq_known && s.claimed_seq > max_valid_seq) {
      // In flight at the crash: discarding it yields the consistent prefix.
      LD_LOG(kInfo) << "recovery: ignoring torn segment " << s.index;
      continue;
    }
    if (scan.chain != nullptr && s.seq_known && s.claimed_seq <= scan.covered_seq) {
      // Damaged but provably stale: the chain covers everything up to
      // covered_seq, so nothing in this summary is the latest word. A
      // chain-less scan would have had to refuse this as CORRUPTION.
      rep.stale_damage_tolerated++;
      LD_LOG(kInfo) << "recovery: tolerating stale damaged summary on segment " << s.index
                    << " (seq " << s.claimed_seq << " <= covered " << scan.covered_seq << ")";
      continue;
    }
    if (auto it = scrub_intents.find(s.index);
        it != scrub_intents.end() && (!s.seq_known || s.claimed_seq <= it->second)) {
      // Covered by a scrub intent: the scrub already relocated everything
      // live here before logging the intent, so complete the interrupted
      // retirement — zero the summary and let the segment come back free. A
      // summary too damaged to claim a seq is covered too (the intent is the
      // only witness left); a *newer* seq than the intent means the segment
      // was reused after retirement and the damage is fresh, so the intent
      // must not retire it — fall through to the refusal below.
      LD_LOG(kInfo) << "recovery: completing scrub retirement of segment " << s.index;
      RETURN_IF_ERROR(ZeroSummary(s.index));
      rep.retirements_completed++;
      continue;
    }
    if (s.unreadable) {
      rep.summaries_unreadable++;
    } else {
      rep.summaries_corrupt++;
    }
    LD_LOG(kWarn) << "recovery: segment " << s.index << " summary "
                  << (s.unreadable ? "unreadable" : "corrupt") << " inside the committed log";
    if (corrupt_log.ok()) {
      corrupt_log = CorruptionError(
          "recovery: segment " + std::to_string(s.index) + " summary " +
          (s.unreadable ? "unreadable" : "corrupt") +
          " inside the committed log; refusing to resurrect stale state");
    }
  }
  return corrupt_log;
}

void LogStructuredDisk::ReplayLog(RecoveryScan* scan) {
  RecoveryReport& rep = last_recovery_;
  std::vector<LoggedSegment>& replay = scan->replay;
  // Write order: every seq is unique, so the order is total.
  std::sort(replay.begin(), replay.end(),
            [](const LoggedSegment& a, const LoggedSegment& b) { return a.seq < b.seq; });

  // Pass 1: which ARUs committed?
  std::unordered_set<uint32_t> committed;
  for (const auto& seg : replay) {
    for (const auto& r : seg.records) {
      if (r.type == SummaryRecordType::kAruCommit) {
        committed.insert(r.aru_id);
      }
    }
  }

  // Pass 2: apply.
  uint64_t max_ts = 0;
  uint64_t max_seq = 0;
  uint32_t max_aru = 0;
  for (const auto& seg : replay) {
    max_seq = std::max(max_seq, seg.seq);
    for (const auto& r : seg.records) {
      max_ts = std::max(max_ts, r.ts);
      max_aru = std::max(max_aru, r.aru_id);
      if (r.aru_id != 0 && committed.count(r.aru_id) == 0) {
        rep.records_dropped_uncommitted++;
        continue;
      }
      rep.records_applied++;
      switch (r.type) {
        case SummaryRecordType::kBlockAlloc: {
          BlockMapEntry& e = block_map_.EnsureAllocated(r.alloc.bid);
          e.set_list(r.alloc.lid);
          e.set_size_class(r.alloc.size_class);
          e.set_alloc_seg(seg.segment);
          break;
        }
        case SummaryRecordType::kBlockEntry: {
          BlockMapEntry& e = block_map_.EnsureAllocated(r.block.bid);
          e.set_size_class(r.block.size_class);
          e.set_phys(PhysAddr{seg.segment, r.block.offset});
          e.set_stored_size(r.block.stored_size);
          e.set_compressed(r.block.compressed);
          e.set_write_ts(r.ts);
          e.set_payload_crc(r.block.payload_crc);
          break;
        }
        case SummaryRecordType::kLinkTuple: {
          BlockMapEntry& e = block_map_.EnsureAllocated(r.link.bid);
          e.set_successor(r.link.successor);
          e.set_link_seg(seg.segment);
          break;
        }
        case SummaryRecordType::kBlockFree:
          block_map_.ForceFree(r.freed.bid);
          break;
        case SummaryRecordType::kListHead: {
          ListEntry& e = list_table_.EnsureAllocated(r.head.lid);
          e.set_first(r.head.first);
          e.set_head_seg(seg.segment);
          break;
        }
        case SummaryRecordType::kListCreate: {
          ListEntry& e = list_table_.EnsureAllocated(r.list.lid);
          e.set_hints(r.list.hints);
          e.set_lol_next(r.list.lol_next);
          e.set_create_seg(seg.segment);
          break;
        }
        case SummaryRecordType::kListMove: {
          ListEntry& e = list_table_.EnsureAllocated(r.list.lid);
          e.set_lol_next(r.list.lol_next);
          e.set_create_seg(seg.segment);
          break;
        }
        case SummaryRecordType::kListDelete:
          list_table_.ForceFree(r.deleted.lid);
          break;
        case SummaryRecordType::kAruCommit:
          break;
        case SummaryRecordType::kSegmentParity:
          if (scan->has_summary[seg.segment]) {
            const SummaryRecord::SegmentParityFields& p = r.parity;
            scan->parity[seg.segment] = ParityGeometry{true, p.offset, p.bytes, p.covered, p.crc};
          }
          break;
        case SummaryRecordType::kScrubIntent:
          break;  // Consumed by ClassifySuspects.
        case SummaryRecordType::kStripeParity:
          break;  // Consumed by ResolveStripeNet.
      }
    }
  }
  for (const auto& [s, seq] : scan->scanned_seqs) {
    scan->seqs[s] = seq;
  }

  // A chain base carries its own clocks; the replayed tail only advances them.
  next_ts_ = std::max(next_ts_, max_ts + 1);
  next_seq_ = std::max(next_seq_, max_seq + 1);
  next_aru_id_ = std::max(next_aru_id_, max_aru + 1);
}

Status LogStructuredDisk::DeriveState(const RecoveryScan& scan) {
  RETURN_IF_ERROR(CheckListLinks(block_map_, list_table_));
  block_map_.RebuildFreeList();
  list_table_.RebuildFreeList();
  list_table_.RelinkListOfLists();
  RebuildDerivedState(scan.seqs, scan.has_summary);
  for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
    if (scan.parity[s].has && scan.has_summary[s]) {
      usage_->segment(s).parity = scan.parity[s];
    }
  }

  // Surviving stripe sets come back online: every member stands at its
  // recorded seal (the pre-pass reconstructed the lost ones or refused the
  // open), so each parity segment resumes kParity and degraded reads /
  // rebuild see the set. When leaked records leave overlapping sets, the
  // newer set wins and the older parity reverts to free space.
  std::vector<uint32_t> order;
  for (const auto& [p, net] : scan.stripe_net) {
    order.push_back(p);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint64_t sa = scan.stripe_net.at(a).seq;
    const uint64_t sb = scan.stripe_net.at(b).seq;
    return sa != sb ? sa > sb : a < b;
  });
  for (uint32_t p : order) {
    const RecoveryScan::StripeNet& net = scan.stripe_net.at(p);
    bool ok = usage_->segment(p).state == SegmentState::kFree;
    for (uint32_t i = 0; ok && i < net.member_count; ++i) {
      const uint32_t m = net.members[i];
      ok = scan.has_summary[m] && scan.seqs[m] == net.member_seqs[i] &&
           usage_->segment(m).state == SegmentState::kFull && member_stripe_.count(m) == 0;
    }
    if (!ok) {
      if (SegmentChannelsUsable(p) && usage_->segment(p).state == SegmentState::kFree) {
        if (Status s = ZeroSummary(p); !s.ok() && s.code() != ErrorCode::kIoError) {
          return s;
        }
      }
      continue;
    }
    usage_->SetLive(p, 0);
    ResetSegment(p, SegmentState::kParity);
    StripeSet set;
    set.parity_segment = p;
    set.members = net.members;
    set.member_seqs = net.member_seqs;
    set.parity_crc = net.parity_crc;
    set.record_segment = net.record_segment;
    RegisterStripe(std::move(set));
    bool parity_touched = false;
    for (uint32_t c = SegmentChannel(p); c <= SegmentLastChannel(p) && !parity_touched; ++c) {
      parity_touched = scan.stripe_channels_touched.count(c) != 0;
    }
    if (parity_touched) {
      // The parity image itself may sit on the replaced channel: have the
      // rebuild lay it down again.
      EnqueueRebuild(p);
    }
  }
  return OkStatus();
}

void LogStructuredDisk::RebuildDerivedState(const std::vector<uint64_t>& segment_seqs,
                                            const std::vector<bool>& segment_has_summary) {
  usage_->Reset();
  for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
    SegmentUsage& u = usage_->segment(s);
    if (segment_has_summary[s]) {
      u.state = SegmentState::kFull;
      u.seq = segment_seqs[s];
    } else {
      u.state = SegmentState::kFree;
    }
  }
  for (Bid bid = 1; bid <= block_map_.max_bid(); ++bid) {
    if (!block_map_.IsAllocated(bid)) {
      continue;
    }
    const BlockMapEntry& e = block_map_.entry(bid);
    const PhysAddr phys = e.phys();
    if (phys.IsOnDisk()) {
      usage_->AddLive(phys.segment, e.stored_size(), e.write_ts());
    }
  }
  // Segments without live data (e.g. superseded partial-write scratches)
  // stay kFull: their summaries may still hold the latest metadata records,
  // so only the cleaner — which re-logs live records — may reuse them.
}

}  // namespace ld
