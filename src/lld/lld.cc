#include "src/lld/lld.h"

#include <algorithm>
#include <cstring>

#include "src/lld/lld_maintenance.h"
#include "src/util/crc32.h"
#include "src/util/log.h"

namespace ld {

namespace {

// Fraction of data capacity that may hold live bytes before writes fail
// with NO_SPACE; the remainder is cleaning headroom.
constexpr double kMaxUtilization = 0.95;

// (De)compression CPU bandwidths charged to the simulated clock.
constexpr double kCompressKbPerS = 1600.0;
constexpr double kDecompressKbPerS = 1400.0;

// When the number of free segments drops to this reserve, the cleaner runs
// before the next segment allocation. CleaningReserve() scales it up with
// the disk (min(num_segments/8, 32)) so that a cleaning round over high-live
// victims still nets free segments at high utilization.
constexpr uint32_t kFreeSegmentReserve = 4;

// Fixed bytes of a serialized summary besides the records: header + CRC.
constexpr size_t kSummaryOverhead = SummaryHeader::kEncodedSize + 16;

}  // namespace

LogStructuredDisk::LogStructuredDisk(BlockDevice* device, const LldOptions& options)
    : device_(device), options_(options), io_(device) {}

Status LogStructuredDisk::ComputeLayout() {
  const uint32_t sector = device_->sector_size();
  if (options_.segment_bytes % sector != 0 || options_.summary_bytes % sector != 0) {
    return InvalidArgumentError("segment and summary sizes must be sector-aligned");
  }
  if (options_.summary_bytes >= options_.segment_bytes) {
    return InvalidArgumentError("summary must be smaller than the segment");
  }
  if (options_.segment_bytes > kMaxSegmentBytes) {
    return InvalidArgumentError("segment larger than a summary record's block offset can address");
  }
  data_capacity_ = options_.segment_bytes - options_.summary_bytes;
  if (options_.block_size == 0 || options_.block_size > data_capacity_ ||
      options_.block_size > kMaxBlockSize) {
    return InvalidArgumentError("default block size does not fit a segment");
  }

  const uint64_t capacity = device_->capacity_bytes();
  checkpoint_start_byte_ = 4096;  // Sector 0..7 reserved for the superblock.
  checkpoint_bytes_ = RoundUp(std::max<uint64_t>(1 << 20, capacity / 32), sector);
  data_start_byte_ = RoundUp(checkpoint_start_byte_ + checkpoint_bytes_, sector);
  // The final sector holds the superblock replica. The primary lives at
  // sector 0 — channel 0 — so losing that channel to a blank spare would
  // otherwise take the volume identity with it; the replica sits on the
  // last channel and covers that case.
  if (data_start_byte_ + options_.segment_bytes + sector > capacity) {
    return InvalidArgumentError("device too small for one segment");
  }
  const uint64_t num_segments = (capacity - data_start_byte_ - sector) / options_.segment_bytes;
  if (num_segments > kMaxSegments) {
    return InvalidArgumentError(std::to_string(num_segments) +
                                " segments; a 24-bit segment index names at most " +
                                std::to_string(kMaxSegments));
  }
  usage_ = std::make_unique<UsageTable>(static_cast<uint32_t>(num_segments));
  open_.buffer.assign(options_.segment_bytes, 0);
  return OkStatus();
}

uint64_t LogStructuredDisk::SegmentBaseByte(uint32_t segment) const {
  return data_start_byte_ + static_cast<uint64_t>(segment) * options_.segment_bytes;
}

// ---- Superblock ------------------------------------------------------------

namespace {
constexpr uint32_t kSuperMagic = 0x4c445342;  // "LDSB"
// Version 2 is the payload-checksum format: every block entry in the
// summary stream carries a CRC of its stored bytes, and every on-disk read
// verifies against it. A version-1 volume may hold pre-checksum entries, so
// Open refuses it as CORRUPTION; nothing writes a version-1 superblock.
constexpr uint32_t kSuperVersion = 2;

// Magic, version, block/segment/summary sizes and segment count (u32 each),
// then data start, checkpoint start and checkpoint size (u64 each); the
// CRC-32 of these bytes follows them.
constexpr size_t kSuperFieldBytes = 6 * 4 + 3 * 8;

// One superblock copy is valid with the magic, the current version, and a
// matching CRC over every field.
Status CheckSuperblock(std::span<const uint8_t> sector) {
  Decoder dec(sector);
  const uint32_t magic = dec.GetU32();
  const uint32_t version = dec.GetU32();
  if (!dec.ok() || magic != kSuperMagic) {
    return CorruptionError("device is not an LLD volume");
  }
  if (version != kSuperVersion) {
    return CorruptionError("unsupported superblock version " + std::to_string(version));
  }
  dec.Skip(kSuperFieldBytes - dec.position());
  const uint32_t stored_crc = dec.GetU32();
  RETURN_IF_ERROR(dec.ToStatus("superblock"));
  if (stored_crc != Crc32(sector.subspan(0, kSuperFieldBytes))) {
    return CorruptionError("superblock crc mismatch");
  }
  return OkStatus();
}
}  // namespace

Status LogStructuredDisk::WriteSuperblock() {
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  enc.PutU32(kSuperMagic);
  enc.PutU32(kSuperVersion);
  enc.PutU32(options_.block_size);
  enc.PutU32(options_.segment_bytes);
  enc.PutU32(options_.summary_bytes);
  enc.PutU32(usage_->num_segments());
  enc.PutU64(data_start_byte_);
  enc.PutU64(checkpoint_start_byte_);
  enc.PutU64(checkpoint_bytes_);
  const uint32_t crc = Crc32(payload);
  enc.PutU32(crc);

  std::vector<uint8_t> sector(device_->sector_size(), 0);
  std::memcpy(sector.data(), payload.data(), payload.size());
  RETURN_IF_ERROR(io_.Write(0, sector));
  return io_.Write(SuperblockReplicaSector(), sector);
}

uint64_t LogStructuredDisk::SuperblockReplicaSector() const {
  return device_->capacity_bytes() / device_->sector_size() - 1;
}

Status LogStructuredDisk::ReadAndCheckSuperblock() {
  std::vector<uint8_t> sector(device_->sector_size());
  const auto read_valid = [&](uint64_t at) -> Status {
    RETURN_IF_ERROR(io_.Read(at, sector));
    return CheckSuperblock(sector);
  };
  // Primary first; if it is unreadable or fails validation, fall back to the
  // replica in the device's last sector. A blank-spare swap of channel 0
  // zeroes the primary, so the fallback is what keeps the volume openable.
  const Status primary = read_valid(0);
  const bool from_replica = !primary.ok();
  if (from_replica) {
    if (!read_valid(SuperblockReplicaSector()).ok()) {
      return primary;  // Both copies bad: report the primary's failure.
    }
    LD_LOG(kWarn) << "superblock: primary unusable (" << primary.ToString()
                  << "), using replica";
  }

  // The superblock is the source of truth for the layout; runtime knobs
  // (policies, compressor, threshold) come from the caller's options.
  Decoder dec(sector);
  dec.Skip(8);  // Magic and version, checked above.
  options_.block_size = dec.GetU32();
  options_.segment_bytes = dec.GetU32();
  options_.summary_bytes = dec.GetU32();
  usage_ = std::make_unique<UsageTable>(dec.GetU32());
  data_start_byte_ = dec.GetU64();
  checkpoint_start_byte_ = dec.GetU64();
  checkpoint_bytes_ = dec.GetU64();
  data_capacity_ = options_.segment_bytes - options_.summary_bytes;
  open_.buffer.assign(options_.segment_bytes, 0);
  if (from_replica) {
    // Heal the primary best-effort: if channel 0 is a freshly swapped blank
    // spare this restores it; if the channel is still dead the write fails
    // and the volume simply keeps opening from the replica.
    if (Status heal = io_.Write(0, sector); !heal.ok()) {
      LD_LOG(kWarn) << "superblock: primary rewrite failed: " << heal.ToString();
    }
  }
  return OkStatus();
}

// ---- Factory ----------------------------------------------------------------

StatusOr<std::unique_ptr<LogStructuredDisk>> LogStructuredDisk::Format(
    BlockDevice* device, const LldOptions& options) {
  std::unique_ptr<LogStructuredDisk> lld(new LogStructuredDisk(device, options));
  RETURN_IF_ERROR(lld->ComputeLayout());
  RETURN_IF_ERROR(lld->WriteSuperblock());
  RETURN_IF_ERROR(lld->InvalidateCheckpoint());
  // Erase stale summaries so a reformat never resurrects old metadata.
  for (uint32_t seg = 0; seg < lld->usage_->num_segments(); ++seg) {
    RETURN_IF_ERROR(lld->ZeroSummary(seg));
  }
  // Incremental mode starts its first chain (and allocation window) right at
  // format, so even the first session's crash recovers bounded.
  if (options.checkpoint_interval_segments > 0) {
    if (Status base = lld->WriteBaseFrame(/*clean=*/false);
        !base.ok() && base.code() != ErrorCode::kNoSpace) {
      return base;
    }
  }
  return lld;
}

StatusOr<std::unique_ptr<LogStructuredDisk>> LogStructuredDisk::Open(
    BlockDevice* device, const LldOptions& options) {
  std::unique_ptr<LogStructuredDisk> lld(new LogStructuredDisk(device, options));
  RETURN_IF_ERROR(lld->ReadAndCheckSuperblock());
  RETURN_IF_ERROR(lld->RecoverState());
  return lld;
}

// ---- Segment images ------------------------------------------------------------

uint32_t LogStructuredDisk::SegmentImage::AppendData(std::span<const uint8_t> stored) {
  const uint32_t offset = used;
  std::memcpy(buffer.data() + offset, stored.data(), stored.size());
  used += static_cast<uint32_t>(stored.size());
  max_stored = std::max(max_stored, static_cast<uint32_t>(stored.size()));
  return offset;
}

void LogStructuredDisk::SegmentImage::AddRecord(const SummaryRecord& record) {
  records.push_back(record);
  record_bytes += SummaryRecord::EncodedSize(record.type);
}

void LogStructuredDisk::SegmentImage::Clear() {
  used = 0;
  max_stored = 0;
  records.clear();
  record_bytes = 0;
}

bool LogStructuredDisk::Fits(const SegmentImage& image, uint32_t data_bytes,
                             size_t record_bytes) const {
  // With segment parity on, the seal places a parity block after the
  // sector-rounded data and logs one more record; both are reserved here.
  const uint32_t sector = device_->sector_size();
  const uint32_t lane = ParityBytesFor(std::max(image.max_stored, data_bytes));
  const uint64_t data_end =
      lane > 0 ? RoundUp(image.used + data_bytes, sector) + lane : image.used + data_bytes;
  if (data_end > data_capacity_) {
    return false;
  }
  const size_t lane_record =
      lane > 0 ? SummaryRecord::EncodedSize(SummaryRecordType::kSegmentParity) : 0;
  int64_t room = static_cast<int64_t>(options_.summary_bytes - kSummaryOverhead - lane_record);
  if (image.data_complete) {
    // Spilled records fill the data area from its end, one sector clear of
    // the data (or of the lane).
    room += static_cast<int64_t>(data_capacity_ - data_end) - sector;
  }
  return static_cast<int64_t>(image.record_bytes + record_bytes) <= room;
}

StatusOr<ParityGeometry> LogStructuredDisk::SealImage(SegmentImage* image, uint32_t segment,
                                                      uint64_t seq, bool lane,
                                                      uint32_t* spill) {
  const uint32_t sector = device_->sector_size();
  const uint32_t covered = static_cast<uint32_t>(RoundUp(image->used, sector));
  const uint32_t parity_bytes = lane ? ParityBytesFor(image->max_stored) : 0;
  ParityGeometry parity;
  // Fits() reserved room for the lane; the bound keeps the summary tail
  // safe regardless, and an image without room goes out bare.
  if (image->used > 0 && parity_bytes > 0 &&
      static_cast<uint64_t>(covered) + parity_bytes <= data_capacity_) {
    uint8_t* block = image->buffer.data() + covered;
    std::memset(block, 0, parity_bytes);
    for (uint32_t o = 0; o < covered; ++o) {
      block[o % parity_bytes] ^= image->buffer[o];
    }
    const uint32_t crc = PayloadCrc(std::span<const uint8_t>(block, parity_bytes));
    image->AddRecord(SummaryRecord::SegmentParity(NextTs(), covered, parity_bytes, covered, crc));
    parity = ParityGeometry{true, covered, parity_bytes, covered, crc};
  }
  SummaryHeader header;
  header.seq = seq;
  header.segment_index = segment;
  header.data_bytes = image->used;
  const std::span<uint8_t> buffer(image->buffer);
  RETURN_IF_ERROR(EncodeSummary(
      header, image->records, buffer.subspan(data_capacity_),
      image->data_complete ? buffer.subspan(image->used, data_capacity_ - image->used)
                           : std::span<uint8_t>(),
      spill));
  return parity;
}

// ---- Open-segment management --------------------------------------------------

Status LogStructuredDisk::EnsureRoom(uint32_t data_bytes, size_t record_bytes) {
  if (Fits(open_, data_bytes, record_bytes)) {
    return OkStatus();
  }
  RETURN_IF_ERROR(FlushOpenSegmentFull());
  if (!Fits(SegmentImage{}, data_bytes, record_bytes)) {
    return InvalidArgumentError("request larger than a segment");
  }
  return OkStatus();
}

Status LogStructuredDisk::AppendBlockData(Bid bid, std::span<const uint8_t> stored,
                                          uint32_t orig_size, bool compressed, bool internal) {
  RETURN_IF_ERROR(EnsureRoom(static_cast<uint32_t>(stored.size()),
                             SummaryRecord::EncodedSize(SummaryRecordType::kBlockEntry)));

  BlockMapEntry& entry = block_map_.entry(bid);
  ReleaseBlockSpace(entry);

  const OpTimestamp ts = NextTs();
  const uint32_t offset = open_.AppendData(stored);

  // Checksum the *stored* form (post-compression): that is what reads and
  // the scrubber can re-hash straight off the media.
  const uint32_t payload_crc = PayloadCrc(stored);
  SummaryRecord record = SummaryRecord::BlockEntry(
      ts, bid, offset, static_cast<uint32_t>(stored.size()), orig_size, compressed, payload_crc);
  if (!internal) {
    record.aru_id = current_aru_;
  }
  open_.AddRecord(record);
  open_appended_.push_back(Appended{bid, offset, static_cast<uint32_t>(stored.size())});

  entry.set_phys(PhysAddr{PhysAddr::kOpenSegment, offset});
  entry.set_stored_size(static_cast<uint32_t>(stored.size()));
  entry.set_compressed(compressed);
  entry.set_write_ts(ts);
  entry.set_payload_crc(payload_crc);
  counters_.stored_bytes_written += stored.size();
  return OkStatus();
}

uint32_t LogStructuredDisk::CleaningReserve() const {
  // The cleaning reserve must scale with the disk: at high utilization the
  // cleaner needs enough writer headroom that a round of high-live victims
  // still nets free segments (see CleanSegments' budget).
  return std::max(kFreeSegmentReserve, std::min(usage_->num_segments() / 8, 32u));
}

StatusOr<uint32_t> LogStructuredDisk::AllocateFreeSegment(bool allow_clean) {
  const uint32_t reserve = CleaningReserve();
  if (allow_clean && !cleaning_ && usage_->FreeCount() <= reserve) {
    // Keep cleaning until the reserve is replenished or cleaning stops
    // making headway (each round is bounded, so this terminates).
    for (int attempt = 0; attempt < 4; ++attempt) {
      const uint32_t before = usage_->FreeCount();
      const Status status = CleanSegments(options_.segments_per_clean);
      if (!status.ok() && status.code() != ErrorCode::kNoSpace) {
        return status;
      }
      if (usage_->FreeCount() > reserve || usage_->FreeCount() <= before) {
        break;
      }
    }
  }
  int64_t seg = PickFreeSegmentStriped();
  if (seg < 0 && CheckpointingActive() && usage_->FreeCount() > 0) {
    // Free segments exist, but none inside the allocation window (the
    // cleaner or a burst outran the frame cadence). Writing into an
    // off-window segment would break the bounded scan's soundness, so drop
    // to full-scan recovery for this volume and retry unconfined.
    RETURN_IF_ERROR(DisableIncrementalCheckpoints("allocation window ran dry"));
    seg = PickFreeSegmentStriped();
  }
  if (seg < 0) {
    return NoSpaceError("no free segments");
  }
  return static_cast<uint32_t>(seg);
}

int64_t LogStructuredDisk::PickFreeSegmentStriped() {
  const uint32_t nch = device_->num_channels();
  if (nch <= 1) {
    return usage_->PickFree();
  }
  // Round-robin across channels: prefer the first free segment in the
  // cursor's channel band so consecutive sealed segments land on different
  // actuators; fall through to the next channel (and finally to any free
  // segment) when a band is exhausted.
  const uint32_t sector = device_->sector_size();
  for (uint32_t probe = 0; probe < nch; ++probe) {
    const uint32_t want = (next_stripe_channel_ + probe) % nch;
    for (uint32_t s = 0; s < usage_->num_segments(); ++s) {
      if (usage_->segment(s).state != SegmentState::kFree || !usage_->Allocatable(s)) {
        continue;
      }
      if (device_->ChannelOf(SegmentBaseByte(s) / sector) == want) {
        next_stripe_channel_ = (want + 1) % nch;
        return s;
      }
    }
  }
  return usage_->PickFree();
}

size_t LogStructuredDisk::MaxInflight() const {
  return options_.pipeline_segment_writes
             ? std::max<size_t>(1, device_->num_channels())
             : 1;
}

Status LogStructuredDisk::ReapInflightTo(size_t max_outstanding) {
  while (inflight_writes_.size() > max_outstanding) {
    InflightWrite w = std::move(inflight_writes_.front());
    inflight_writes_.pop_front();
    if (Status s = device_->WaitFor(w.tag); !s.ok()) {
      // A lost in-flight segment write: the block map already points into
      // that segment, so the in-memory state can no longer be made durable.
      return HandleWriteFailure(s);
    }
    // Only now that the full image is durable may the scratch segment it
    // supersedes be recycled.
    if (w.scratch_free >= 0) {
      usage_->segment(static_cast<uint32_t>(w.scratch_free)).state = SegmentState::kFree;
    }
    spare_buffers_.push_back(std::move(w.buffer));
  }
  return OkStatus();
}

Status LogStructuredDisk::FlushOpenSegmentFull() {
  if (open_.empty() && redeclare_groups_.empty()) {
    return OkStatus();
  }
  // Keep at most one in-flight write per channel: the oldest must complete
  // before another is issued, which also bounds buffer memory.
  RETURN_IF_ERROR(ReapInflightTo(MaxInflight() - 1));
  ASSIGN_OR_RETURN(uint32_t target, AllocateFreeSegment(/*allow_clean=*/true));
  // Cross-channel stripe formation rides the seal: when one unstriped sealed
  // segment exists on every live channel but one, their kStripeParity
  // records join this summary and the parity image is written right after
  // this segment is submitted (so a crash before the records never leaves a
  // parity image the log does not explain). Best-effort: a short segment
  // supply or summary space just skips this round. The target is still
  // kFree while it is planned, so it must not become the parity segment.
  if (StripeEnabled() && !forming_stripe_ && !cleaning_) {
    const auto is_target = [target](uint32_t s) { return s == target; };
    if (Status s = PlanStripe(/*full_width=*/true, is_target).status(); !s.ok()) {
      LD_LOG(kWarn) << "stripe formation skipped: " << s.ToString();
    }
  }
  // Second-channel redeclaration: duplicate stripe records queued by earlier
  // seals join this summary (whole groups only), putting every set's
  // declaration on two channels. Groups that do not fit beside the seal's
  // own parity record wait for the next seal.
  while (!redeclare_groups_.empty()) {
    const std::vector<SummaryRecord>& group = redeclare_groups_.front();
    size_t group_bytes = 0;
    for (const auto& r : group) {
      group_bytes += SummaryRecord::EncodedSize(r.type);
    }
    if (!Fits(open_, 0, group_bytes)) {
      break;
    }
    for (const auto& r : group) {
      open_.AddRecord(r);
    }
    redeclare_groups_.erase(redeclare_groups_.begin());
  }
  const uint64_t seq = next_seq_++;
  ASSIGN_OR_RETURN(const ParityGeometry parity, SealImage(&open_, target, seq, /*lane=*/true));

  // Double buffering: the sealed image moves into an InflightWrite and is
  // submitted asynchronously; a recycled (or fresh) buffer becomes the open
  // segment and starts accepting the next segment's writes immediately.
  std::vector<uint8_t> sealed = std::move(open_.buffer);
  if (!spare_buffers_.empty()) {
    open_.buffer = std::move(spare_buffers_.back());
    spare_buffers_.pop_back();
  } else {
    open_.buffer.assign(sealed.size(), 0);
  }
  StatusOr<IoTag> tag =
      io_.SubmitWrite(SegmentBaseByte(target) / device_->sector_size(), sealed);
  if (!tag.ok()) {
    // Device failure surviving the retry shim: restore the sealed image as
    // the open segment so state stays consistent (no metadata was updated),
    // then go read-only — the log can no longer accept this segment.
    spare_buffers_.push_back(std::move(open_.buffer));
    open_.buffer = std::move(sealed);
    // Any stripe set formed for this seal dies with it: its records were
    // never submitted, so no parity image may reach the media either. The
    // parity targets reserved at planning time return to the free pool.
    for (const PendingParity& p : pending_parity_) {
      usage_->segment(p.set.parity_segment).state = SegmentState::kFree;
    }
    pending_parity_.clear();
    return HandleWriteFailure(tag.status());
  }

  InstallSealedImage(target, SegmentState::kFull, seq, parity, open_.records);
  for (const Appended& a : open_appended_) {
    if (!block_map_.IsAllocated(a.bid)) {
      continue;
    }
    BlockMapEntry& e = block_map_.entry(a.bid);
    if (e.phys() == PhysAddr{PhysAddr::kOpenSegment, a.offset}) {
      e.set_phys(PhysAddr{target, a.offset});
      usage_->AddLive(target, a.stored, e.write_ts());
    }
  }
  // Stripe parity images go out strictly *after* the sealing segment that
  // carries their records was submitted (submit order is crash order): a
  // crash between the two leaves records whose parity CRC does not verify —
  // a dead stripe — never an unexplained parity image. A failed parity
  // write just drops the set; the members' data is unaffected.
  if (!pending_parity_.empty()) {
    std::vector<PendingParity> pending = std::move(pending_parity_);
    pending_parity_.clear();
    for (PendingParity& p : pending) {
      p.set.record_segment = target;
      if (Status s = CommitStripe(std::move(p.set), p.image); !s.ok()) {
        LD_LOG(kWarn) << "stripe parity write failed; set dropped: " << s.ToString();
      }
    }
  }
  InflightWrite inflight;
  inflight.buffer = std::move(sealed);
  inflight.tag = *tag;
  if (scratch_segment_ >= 0) {
    inflight.scratch_free = scratch_segment_;
    scratch_segment_ = -1;
  }
  inflight_writes_.push_back(std::move(inflight));
  open_.Clear();
  open_dead_bytes_ = 0;
  open_appended_.clear();
  dirty_since_flush_ = false;
  // Superseded-in-ARU copies that lived in this buffer are now dead bytes in
  // `target`: resolve their sentinels into real pins so the cleaner cannot
  // recycle the segment before the owning units' commit records seal.
  for (auto& shadow : aru_shadow_segments_) {
    for (uint32_t& pinned : shadow.second) {
      if (pinned == kOpenCopyPin) {
        pinned = target;
        usage_->PinAru(target);
      }
    }
  }
  // Commit records of ended ARUs rode this seal. Dropping their pins is
  // safe even while the write is still in flight — the cleaner waits for
  // in-flight segment writes before it touches any victim, so the seal is
  // durable by the time a formerly pinned segment could be recycled.
  return FinishSeal(!options_.pipeline_segment_writes);
}

Status LogStructuredDisk::FinishSeal(bool wait_for_inflight) {
  for (uint32_t pinned : aru_pins_awaiting_seal_) {
    usage_->UnpinAru(pinned);
  }
  aru_pins_awaiting_seal_.clear();
  if (wait_for_inflight) {
    RETURN_IF_ERROR(WaitForInflight());
  }
  // Checkpoint cadence rides the seal: every interval (or when the window
  // runs low) the pending captures go out as a delta frame. This runs here —
  // with the open buffer empty — rather than inside AllocateFreeSegment,
  // where a rebase would recurse into a half-sealed flush. No-op when the
  // seal came from a frame write itself (ckpt_in_frame_write_). While a
  // scheduler with the checkpoint duty is attached, cadence-driven frames
  // wait for CheckpointStep (the idle-time maintenance path); forced frames —
  // the allocation window running out of free segments — must still go out
  // inline, because new seals are confined to the window the latest durable
  // frame recorded.
  if (CheckpointingActive() && !ckpt_in_frame_write_) {
    const bool force = usage_->AllocatableCount() <
                       options_.segments_per_clean + static_cast<uint32_t>(MaxInflight()) + 2;
    if (force || maintenance_ == nullptr || !maintenance_->options().checkpoint) {
      RETURN_IF_ERROR(MaybeWriteDeltaFrame(force));
    }
  }
  return OkStatus();
}

Status LogStructuredDisk::FlushOpenSegmentPartial() {
  if (open_.empty()) {
    return OkStatus();
  }
  // A pipelined full-segment write may still be in flight (and may own a
  // scratch segment pending recycling); it must be durable before a partial
  // write — which the caller treats as a durability point — is issued.
  RETURN_IF_ERROR(WaitForInflight());
  ASSIGN_OR_RETURN(uint32_t target, AllocateFreeSegment(/*allow_clean=*/true));
  const uint64_t seq = next_seq_++;
  // Partial (scratch) writes carry no parity: the segment is superseded by
  // its eventual full write, which does.
  RETURN_IF_ERROR(SealImage(&open_, target, seq, /*lane=*/false).status());

  const uint32_t sector = device_->sector_size();
  const uint64_t base = SegmentBaseByte(target);
  const std::span<const uint8_t> image(open_.buffer);
  if (open_.used > 0) {
    if (Status s = io_.Write(base / sector, image.subspan(0, RoundUp(open_.used, sector)));
        !s.ok()) {
      return HandleWriteFailure(s);
    }
  }
  if (Status s = io_.Write((base + data_capacity_) / sector,
                           image.subspan(data_capacity_, options_.summary_bytes));
      !s.ok()) {
    return HandleWriteFailure(s);
  }

  // The scratch summary is durable (synchronous writes above), so a frame
  // may cover it; a later re-flush supersedes this capture in place.
  InstallSealedImage(target, SegmentState::kScratch, seq, ParityGeometry{}, open_.records);
  if (scratch_segment_ >= 0) {
    usage_->segment(static_cast<uint32_t>(scratch_segment_)).state = SegmentState::kFree;
  }
  scratch_segment_ = target;
  dirty_since_flush_ = false;
  // The partial image is durable (synchronous writes above), so commit
  // records buffered before this flush are sealed: drop their shadow pins.
  return FinishSeal(/*wait_for_inflight=*/false);
}

// ---- Segment lifecycle ---------------------------------------------------------

StatusOr<LogStructuredDisk::SummaryRead> LogStructuredDisk::ReadSummary(
    uint32_t segment, std::span<const uint8_t> tail, std::span<const uint8_t> image) {
  const uint32_t sector = device_->sector_size();
  SummaryRead read;
  const auto unreadable = [&read](const Status& s) -> StatusOr<SummaryRead> {
    if (s.code() != ErrorCode::kIoError) {
      return s;
    }
    read.outcome = SummaryRead::kUnreadable;
    read.status = s;
    return std::move(read);
  };
  std::unique_ptr<uint8_t[]> tail_buf;
  if (!image.empty()) {
    tail = image.subspan(data_capacity_, options_.summary_bytes);
  } else if (tail.empty()) {
    tail_buf = ReadBuffer(options_.summary_bytes);
    const std::span<uint8_t> bytes(tail_buf.get(), options_.summary_bytes);
    if (Status s = io_.Read(SegmentSummaryStartByte(segment) / sector, bytes); !s.ok()) {
      return unreadable(s);
    }
    tail = bytes;
  }
  SummaryHeader& header = read.header;
  const Status head = DecodeSummaryHeader(tail, &header);
  if (head.code() == ErrorCode::kNotFound &&
      std::all_of(tail.begin(), tail.end(), [](uint8_t b) { return b == 0; })) {
    return read;  // Untouched, or zeroed by a retirement.
  }
  // Any other region without a sane header is damage, including a damaged
  // magic. The spill length must be checked before it sizes a read.
  if (!head.ok() || header.ext_bytes > data_capacity_ || header.segment_index != segment) {
    read.outcome = SummaryRead::kCorrupt;
    read.status = CorruptionError("segment " + std::to_string(segment) +
                                  " summary header damaged");
    return read;
  }
  read.seq_known = true;
  // Record-heavy segments spill records into the end of their data area.
  const uint32_t spill_offset = data_capacity_ - header.ext_bytes;
  std::unique_ptr<uint8_t[]> spill_buf;
  std::span<const uint8_t> spill;
  if (!image.empty()) {
    spill = image.subspan(spill_offset, header.ext_bytes);
  } else if (header.ext_bytes > 0) {
    const uint64_t start = SegmentBaseByte(segment) + spill_offset;
    const uint64_t first = start / sector * sector;
    const size_t len = RoundUp(SegmentSummaryStartByte(segment) - first, sector);
    spill_buf = ReadBuffer(len);
    const std::span<uint8_t> bytes(spill_buf.get(), len);
    if (Status s = io_.Read(first / sector, bytes); !s.ok()) {
      return unreadable(s);
    }
    spill = bytes.subspan(start - first, header.ext_bytes);
  }
  read.status = DecodeSummary(tail, spill, &header, &read.records);
  read.outcome = read.status.ok() ? SummaryRead::kValid : SummaryRead::kCorrupt;
  return read;
}

void LogStructuredDisk::InstallSealedImage(uint32_t segment, SegmentState state, uint64_t seq,
                                           const ParityGeometry& parity,
                                           const std::vector<SummaryRecord>& records) {
  SegmentUsage& seg = usage_->segment(segment);
  seg.state = state;
  seg.seq = seq;
  seg.parity = parity;
  UpdateRecordAuthority(segment, records);
  CaptureFrameSegment(segment, seq, parity, records);
  if (state == SegmentState::kScratch) {
    counters_.partial_segments_written++;
  } else {
    counters_.segments_written++;
  }
  NoteSegmentImageWrite(segment);
}

void LogStructuredDisk::ResetSegment(uint32_t segment, SegmentState state) {
  SegmentUsage& seg = usage_->segment(segment);
  seg.state = state;
  seg.newest_ts = 0;
  seg.age_ts = 0;
  seg.cold = false;
  seg.parity = ParityGeometry{};
}

Status LogStructuredDisk::ZeroSummary(uint32_t segment) {
  zero_summary_.resize(options_.summary_bytes, 0);
  return io_.Write(SegmentSummaryStartByte(segment) / device_->sector_size(), zero_summary_);
}

// ---- Helpers -------------------------------------------------------------------

std::unique_ptr<uint8_t[]> LogStructuredDisk::ReadBuffer(size_t bytes) {
  std::unique_ptr<uint8_t[]> buffer = std::make_unique_for_overwrite<uint8_t[]>(bytes);
#ifndef NDEBUG
  std::memset(buffer.get(), 0xa5, bytes);
#endif
  return buffer;
}

void LogStructuredDisk::NoteSegmentImageWrite(uint32_t segment) {
  SegmentUsage& seg = usage_->segment(segment);
  seg.wear++;
  counters_.NoteSegmentImage(seg.wear);
}

void LogStructuredDisk::UpdateRecordAuthority(uint32_t segment,
                                              const std::vector<SummaryRecord>& records) {
  for (const auto& r : records) {
    switch (r.type) {
      case SummaryRecordType::kLinkTuple:
        if (block_map_.IsAllocated(r.link.bid)) {
          block_map_.entry(r.link.bid).set_link_seg(segment);
        }
        break;
      case SummaryRecordType::kBlockAlloc:
        if (block_map_.IsAllocated(r.alloc.bid)) {
          block_map_.entry(r.alloc.bid).set_alloc_seg(segment);
        }
        break;
      case SummaryRecordType::kListHead:
        if (list_table_.IsAllocated(r.head.lid)) {
          list_table_.entry(r.head.lid).set_head_seg(segment);
        }
        break;
      case SummaryRecordType::kListCreate:
      case SummaryRecordType::kListMove:
        if (list_table_.IsAllocated(r.list.lid)) {
          list_table_.entry(r.list.lid).set_create_seg(segment);
        }
        break;
      case SummaryRecordType::kStripeParity:
        // The newest on-disk record set for a live stripe is authoritative;
        // the cleaner re-logs a set when it reclaims its record segment.
        if (auto it = stripes_.find(r.stripe.parity_segment); it != stripes_.end()) {
          it->second.record_segment = segment;
        }
        break;
      default:
        break;
    }
  }
}

void LogStructuredDisk::ReleaseBlockSpace(const BlockMapEntry& entry) {
  const PhysAddr phys = entry.phys();
  if (phys.IsOnDisk()) {
    usage_->RemoveLive(phys.segment, entry.stored_size());
    // Inside an ARU the on-disk copy is dead only if the unit commits: until
    // the commit record is durable, recovery may roll back to it, so its
    // segment must stay off the cleaner's victim list (see aru_shadow_segments_).
    if (InAru()) {
      usage_->PinAru(phys.segment);
      aru_shadow_segments_[current_aru_].push_back(phys.segment);
    }
  } else if (phys.IsOpen()) {
    open_dead_bytes_ += entry.stored_size();
    // Same hazard with the copy still in the open buffer: once a full seal
    // writes it out as dead bytes, that segment must not be recycled before
    // the unit commits durably. The segment number does not exist yet, so
    // record a sentinel the seal resolves (see FlushOpenSegmentFull).
    if (InAru()) {
      aru_shadow_segments_[current_aru_].push_back(kOpenCopyPin);
    }
  }
}

StatusOr<IoTag> LogStructuredDisk::SubmitStored(const BlockMapEntry& entry,
                                                std::span<uint8_t> out) {
  const uint32_t sector = device_->sector_size();
  const PhysAddr phys = entry.phys();
  const uint64_t start_byte = SegmentBaseByte(phys.segment) + phys.offset;
  const uint64_t end_byte = start_byte + entry.stored_size();
  const uint64_t first_sector = start_byte / sector;
  const uint64_t last_sector = (end_byte + sector - 1) / sector;
  const size_t span_bytes = static_cast<size_t>((last_sector - first_sector) * sector);
  if (io_scratch_.size() < span_bytes) {
    io_scratch_.resize(span_bytes);
  }
  const std::span<uint8_t> scratch(io_scratch_.data(), span_bytes);
  ASSIGN_OR_RETURN(IoTag tag, io_.SubmitRead(first_sector, scratch));
  // Data effects are eager (BlockDevice contract): the bytes are final now,
  // only the transfer's timing is still in flight, so the scratch buffer can
  // be drained before the tag completes.
  std::memcpy(out.data(), io_scratch_.data() + (start_byte - first_sector * sector), out.size());
  return tag;
}

Status LogStructuredDisk::ReadStored(const BlockMapEntry& entry, std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(IoTag tag, SubmitStored(entry, out));
  return device_->WaitFor(tag);
}

// ---- Segment parity ----------------------------------------------------------

uint32_t LogStructuredDisk::ParityBytesFor(uint32_t max_stored) const {
  if (!options_.segment_parity || max_stored == 0) {
    return 0;
  }
  // One sector beyond the sector-rounded largest block: any damaged extent
  // that is one block widened to sector boundaries spans at most
  // RoundUp(max_stored, sector) + sector bytes, so with this lane period no
  // two bytes of the extent share a lane and all of them are solvable.
  const uint32_t sector = device_->sector_size();
  return static_cast<uint32_t>(RoundUp(max_stored, sector)) + sector;
}

Status LogStructuredDisk::ReconstructExtent(uint32_t segment, uint32_t offset,
                                            std::span<uint8_t> out) {
  const ParityGeometry& geometry = usage_->segment(segment).parity;
  if (!geometry.has) {
    return FailedPreconditionError("segment has no parity block");
  }
  const uint32_t sector = device_->sector_size();
  const uint64_t base = SegmentBaseByte(segment);
  const uint32_t period = geometry.bytes;
  // Widen the damaged range to sector boundaries: an unreadable sector loses
  // every byte it holds, so the whole aligned extent must be re-derived.
  const uint32_t ext_start = offset / sector * sector;
  const uint32_t ext_end = std::min(
      static_cast<uint32_t>(RoundUp(offset + out.size(), sector)), geometry.covered);
  if (offset + out.size() > geometry.covered) {
    return FailedPreconditionError("extent outside the parity-covered area");
  }
  if (ext_end - ext_start > period) {
    return FailedPreconditionError("damaged extent wider than the parity lane period");
  }

  // The parity block itself must be intact before it is trusted.
  std::vector<uint8_t> parity(period);
  {
    std::vector<uint8_t> span(RoundUp(period, sector));
    RETURN_IF_ERROR(io_.Read((base + geometry.offset) / sector, std::span<uint8_t>(span)));
    std::memcpy(parity.data(), span.data(), period);
  }
  if (PayloadCrc(parity) != geometry.crc) {
    return CorruptionError("segment parity block is itself damaged");
  }

  // XOR every covered byte outside the damaged extent into its lane. What
  // remains in each lane touched by the extent is exactly that extent byte
  // (the extent fits one lane period, so no two of its bytes collide).
  auto absorb = [&](uint32_t from, uint32_t to) -> Status {
    std::vector<uint8_t> chunk;
    uint32_t at = from;
    while (at < to) {
      const uint32_t len = std::min(to - at, 1u << 20);
      chunk.resize(len);
      RETURN_IF_ERROR(io_.Read((base + at) / sector, std::span<uint8_t>(chunk)));
      for (uint32_t i = 0; i < len; ++i) {
        parity[(at + i) % period] ^= chunk[i];
      }
      at += len;
    }
    return OkStatus();
  };
  RETURN_IF_ERROR(absorb(0, ext_start));
  RETURN_IF_ERROR(absorb(ext_end, geometry.covered));

  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = parity[(offset + i) % period];
  }
  return OkStatus();
}

Status LogStructuredDisk::TryReconstructStored(Bid bid, const BlockMapEntry& entry,
                                               std::span<uint8_t> out, const Status& damage) {
  const PhysAddr phys = entry.phys();
  if (!phys.IsOnDisk() || !usage_->segment(phys.segment).parity.has) {
    return damage;
  }
  if (Status s = ReconstructExtent(phys.segment, phys.offset, out); !s.ok()) {
    LD_LOG(kWarn) << "parity reconstruction of block " << bid << " failed: " << s.ToString();
    return damage;
  }
  // Only a reconstruction that round-trips the block's original checksum is
  // the lost data; anything else means a second fault ate the redundancy.
  if (PayloadCrc(out) != entry.payload_crc()) {
    LD_LOG(kWarn) << "parity reconstruction of block " << bid
                  << " did not match its payload crc (second fault in segment "
                  << phys.segment << ")";
    return damage;
  }
  counters_.blocks_reconstructed++;
  LD_LOG(kInfo) << "reconstructed block " << bid << " from segment "
                << phys.segment << " parity";
  return OkStatus();
}

Status LogStructuredDisk::EnterDegradedMode(const Status& cause) {
  if (!degraded_) {
    degraded_ = true;
    degraded_cause_ = cause.ToString();
    LD_LOG(kWarn) << "LLD entering degraded (read-only) mode: " << degraded_cause_;
  }
  return DegradedError("device lost a write; LLD is read-only (" + degraded_cause_ + ")");
}

Status LogStructuredDisk::CheckWritable() const {
  if (shut_down_) {
    return FailedPreconditionError("LLD is shut down");
  }
  if (degraded_) {
    return DegradedError("LLD is read-only after a device write failure (" + degraded_cause_ +
                         ")");
  }
  return OkStatus();
}

void LogStructuredDisk::ChargeListCpu() {
  if (options_.cpu_per_list_op_us > 0) {
    device_->clock()->Advance(options_.cpu_per_list_op_us * 1e-6);
  }
}

void LogStructuredDisk::ChargeCompressCpu(uint64_t bytes) {
  // Plain CPU time. The paper's §3.3 pipelining needs no special credit any
  // more: while a sealed segment's write is in flight, this advance runs the
  // clock concurrently with it, and the next WaitForInflight only advances
  // to the write's (already fixed) completion time.
  device_->clock()->Advance(static_cast<double>(bytes) / (kCompressKbPerS * 1024.0));
}

void LogStructuredDisk::ChargeDecompressCpu(uint64_t bytes) {
  device_->clock()->Advance(static_cast<double>(bytes) / (kDecompressKbPerS * 1024.0));
}

uint64_t LogStructuredDisk::LiveBytes() const {
  return usage_->TotalLiveBytes() + (open_.used - open_dead_bytes_);
}

uint64_t LogStructuredDisk::FreeBytes() const {
  const double budget = static_cast<double>(TotalDataCapacity()) * kMaxUtilization;
  const uint64_t used = LiveBytes() + reserved_bytes_;
  if (static_cast<double>(used) >= budget) {
    return 0;
  }
  return static_cast<uint64_t>(budget) - used;
}

Status LogStructuredDisk::AppendRecordsAtomic(std::vector<SummaryRecord>* records) {
  size_t total = 0;
  for (auto& r : *records) {
    if (InAru() && r.type != SummaryRecordType::kAruCommit) {
      r.aru_id = current_aru_;
    }
    total += SummaryRecord::EncodedSize(r.type);
  }
  RETURN_IF_ERROR(EnsureRoom(0, total));
  for (const auto& r : *records) {
    open_.AddRecord(r);
  }
  dirty_since_flush_ = true;
  return OkStatus();
}

// ---- LogicalDisk: blocks -----------------------------------------------------

// Verifies on-disk payload bytes against the CRC logged when the block was
// appended, so silent media corruption surfaces as a typed error instead of
// wrong data. Open-segment copies live in memory and are not checked.
Status LogStructuredDisk::VerifyStored(Bid bid, const BlockMapEntry& entry,
                                       std::span<const uint8_t> stored_bytes) {
  if (PayloadCrc(stored_bytes) != entry.payload_crc()) {
    counters_.read_crc_failures++;
    return CorruptionError("block " + std::to_string(bid) + " payload crc mismatch");
  }
  return OkStatus();
}

// A read that failed with damage (unreadable sectors or a CRC mismatch) is
// retried through parity reconstruction when the segment carries a parity
// block; a verified reconstruction also gets relocated through the log so the
// repaired copy is durable and later reads leave the rotted media behind. In
// degraded mode the data is still served, just not rewritten.
Status LogStructuredDisk::RepairStored(Bid bid, const BlockMapEntry& entry,
                                       std::span<uint8_t> stored_bytes, bool compressed,
                                       const Status& damage) {
  if (damage.code() != ErrorCode::kCorruption && damage.code() != ErrorCode::kIoError) {
    return damage;
  }
  const uint32_t orig_size = entry.size_class();
  // Repair ladder: the per-segment XOR lane first (one damaged extent in an
  // otherwise-healthy segment), then the cross-channel stripe peers (whole
  // segment — or whole channel — gone). Both gate on the block's payload CRC,
  // so a double fault stays a typed CORRUPTION.
  Status repaired = TryReconstructStored(bid, entry, stored_bytes, damage);
  if (!repaired.ok()) {
    repaired = TryStripeReconstructStored(bid, entry, stored_bytes, repaired);
  }
  RETURN_IF_ERROR(repaired);
  // Relocation is best-effort and additionally yields when the usable pool is
  // thin: under a dead channel every read of that channel reconstructs, and
  // relocating them all would race the foreground writer for the last free
  // segments. Unrelocated blocks just reconstruct again next read.
  if (CheckWritable().ok() && !cleaning_ &&
      usage_->AllocatableCount() > kFreeSegmentReserve) {
    if (Status reloc = AppendBlockData(bid, stored_bytes, orig_size, compressed,
                                       /*internal=*/true);
        !reloc.ok()) {
      LD_LOG(kWarn) << "could not relocate reconstructed block " << bid << ": "
                    << reloc.ToString();
    } else {
      dirty_since_flush_ = true;
    }
  }
  return OkStatus();
}

Status LogStructuredDisk::Read(Bid bid, std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(const BlockMapEntry* entry, block_map_.Lookup(bid));
  if (out.size() != entry->size_class()) {
    return InvalidArgumentError("read buffer does not match block size");
  }
  counters_.user_reads++;
  if (options_.track_read_heat) {
    block_map_.CountRead(bid);
  }
  const PhysAddr phys = entry->phys();
  if (phys.IsNone()) {
    std::memset(out.data(), 0, out.size());
    return OkStatus();
  }

  auto read_with_repair = [&](std::span<uint8_t> stored_bytes, bool compressed) -> Status {
    Status s = ReadStored(*entry, stored_bytes);
    if (s.ok()) {
      s = VerifyStored(bid, *entry, stored_bytes);
    }
    return s.ok() ? s : RepairStored(bid, *entry, stored_bytes, compressed, s);
  };

  if (!entry->compressed()) {
    if (phys.IsOpen()) {
      std::memcpy(out.data(), open_.buffer.data() + phys.offset, out.size());
      return OkStatus();
    }
    return read_with_repair(out, /*compressed=*/false);
  }

  // The stored form goes into a buffer kept across reads and regrown only
  // for a larger block, so a warm read neither allocates nor zero-fills. The
  // span ends where the allocation ends, so a sanitizer build still faults a
  // Decompress that reads past its input. Nothing that runs while the buffer
  // is held (repair, relocation, Decompress) reads a block through Read.
  const size_t stored_size = entry->stored_size();
  if (stored_buf_.size() < stored_size) {
    stored_buf_ = std::vector<uint8_t>(stored_size);
  }
  const std::span<uint8_t> stored(stored_buf_.data() + stored_buf_.size() - stored_size,
                                  stored_size);
  if (phys.IsOpen()) {
    std::memcpy(stored.data(), open_.buffer.data() + phys.offset, stored.size());
  } else {
    RETURN_IF_ERROR(read_with_repair(stored, /*compressed=*/true));
  }
  if (options_.compressor == nullptr) {
    return FailedPreconditionError("compressed block but no compressor configured");
  }
  RETURN_IF_ERROR(options_.compressor->Decompress(stored, out));
  ChargeDecompressCpu(out.size());
  return OkStatus();
}

StatusOr<IoTag> LogStructuredDisk::SubmitRead(Bid bid, std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(const BlockMapEntry* entry, block_map_.Lookup(bid));
  if (out.size() != entry->size_class()) {
    return InvalidArgumentError("read buffer does not match block size");
  }
  // Only a plain stored copy on the media is a raw transfer that can ride
  // the queue: holes cost nothing, open-segment copies are memcpys, and
  // compressed blocks need the decompress (and possibly repair) machinery of
  // the synchronous path.
  if (!entry->phys().IsOnDisk() || entry->compressed()) {
    RETURN_IF_ERROR(Read(bid, out));
    return kInvalidIoTag;
  }
  counters_.user_reads++;
  if (options_.track_read_heat) {
    block_map_.CountRead(bid);
  }
  auto tag = SubmitStored(*entry, out);
  if (!tag.ok()) {
    // Unreadable media at submit time, after ReliableIo's retries: straight
    // to the repair ladder, as Read would go.
    RETURN_IF_ERROR(RepairStored(bid, *entry, out, /*compressed=*/false, tag.status()));
    return kInvalidIoTag;
  }
  // The bytes are final at submit, so the payload is verified before the
  // tag completes.
  if (Status s = VerifyStored(bid, *entry, out); !s.ok()) {
    // Silent corruption: charge the wasted transfer, then repair.
    RETURN_IF_ERROR(device_->WaitFor(tag.value()));
    RETURN_IF_ERROR(RepairStored(bid, *entry, out, /*compressed=*/false, s));
    return kInvalidIoTag;
  }
  return tag.value();
}

Status LogStructuredDisk::WaitRead(IoTag tag) {
  if (tag == kInvalidIoTag) {
    return OkStatus();
  }
  return device_->WaitFor(tag);
}

Status LogStructuredDisk::Write(Bid bid, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(BlockMapEntry * entry, block_map_.Lookup(bid));
  if (data.size() != entry->size_class()) {
    return InvalidArgumentError("write does not match block size class");
  }
  // A first write of a block consumes new space; require headroom.
  if (entry->phys().IsNone() && FreeBytes() < data.size()) {
    return NoSpaceError("disk full");
  }
  counters_.user_writes++;
  counters_.user_bytes_written += data.size();

  bool compress = false;
  if (options_.compressor != nullptr && list_table_.IsAllocated(entry->list())) {
    compress = list_table_.entry(entry->list()).hints().compress;
  }

  Status status;
  if (compress) {
    const size_t csize = options_.compressor->Compress(data, &compress_buf_);
    ChargeCompressCpu(data.size());
    if (csize < data.size()) {
      counters_.blocks_compressed++;
      counters_.compression_saved_bytes += data.size() - csize;
      status = AppendBlockData(bid, compress_buf_, static_cast<uint32_t>(data.size()),
                               /*compressed=*/true, /*internal=*/false);
    } else {
      status = AppendBlockData(bid, data, static_cast<uint32_t>(data.size()),
                               /*compressed=*/false, /*internal=*/false);
    }
  } else {
    status = AppendBlockData(bid, data, static_cast<uint32_t>(data.size()),
                             /*compressed=*/false, /*internal=*/false);
  }
  if (status.ok()) {
    dirty_since_flush_ = true;
  }
  return status;
}

StatusOr<Bid> LogStructuredDisk::NewBlock(Lid lid, Bid pred_bid, uint32_t size_bytes) {
  RETURN_IF_ERROR(CheckWritable());
  const uint32_t size = size_bytes == 0 ? options_.block_size : size_bytes;
  if (size == 0 || size > data_capacity_ || size > kMaxBlockSize) {
    return InvalidArgumentError("unsupported block size " + std::to_string(size));
  }
  ASSIGN_OR_RETURN(ListEntry * list, list_table_.Lookup(lid));
  if (pred_bid != kBeginOfList) {
    ASSIGN_OR_RETURN(const BlockMapEntry* pred, block_map_.Lookup(pred_bid));
    if (pred->list() != lid) {
      return InvalidArgumentError("predecessor is not on the given list");
    }
  }
  if (FreeBytes() < size) {
    return NoSpaceError("disk full");
  }

  ASSIGN_OR_RETURN(const Bid bid, block_map_.Allocate(lid, size));
  const OpTimestamp ts = NextTs();
  std::vector<SummaryRecord> records;
  records.push_back(SummaryRecord::BlockAlloc(ts, bid, lid, size));
  if (!options_.maintain_lists) {
    const Status status = AppendRecordsAtomic(&records);
    if (!status.ok()) {
      (void)block_map_.Free(bid);
      return status;
    }
    return bid;
  }
  ChargeListCpu();
  Bid old_succ;
  if (pred_bid == kBeginOfList) {
    old_succ = list->first();
    records.push_back(SummaryRecord::LinkTuple(ts, bid, old_succ));
    records.push_back(SummaryRecord::ListHead(ts, lid, bid));
  } else {
    old_succ = block_map_.entry(pred_bid).successor();
    records.push_back(SummaryRecord::LinkTuple(ts, bid, old_succ));
    records.push_back(SummaryRecord::LinkTuple(ts, pred_bid, bid));
  }
  const Status status = AppendRecordsAtomic(&records);
  if (!status.ok()) {
    (void)block_map_.Free(bid);
    return status;
  }
  block_map_.entry(bid).set_successor(old_succ);
  if (pred_bid == kBeginOfList) {
    list->set_first(bid);
  } else {
    block_map_.entry(pred_bid).set_successor(bid);
  }
  return bid;
}

Status LogStructuredDisk::UnlinkFromList(Bid bid, Lid lid, Bid pred_bid_hint) {
  ListEntry& list = list_table_.entry(lid);
  BlockMapEntry& entry = block_map_.entry(bid);
  const OpTimestamp ts = NextTs();
  std::vector<SummaryRecord> records;

  if (!options_.maintain_lists) {
    records.push_back(SummaryRecord::BlockFree(ts, bid));
    return AppendRecordsAtomic(&records);
  }
  ChargeListCpu();

  if (list.first() == bid) {
    records.push_back(SummaryRecord::ListHead(ts, lid, entry.successor()));
    records.push_back(SummaryRecord::BlockFree(ts, bid));
    RETURN_IF_ERROR(AppendRecordsAtomic(&records));
    list.set_first(entry.successor());
    return OkStatus();
  }

  // Locate the predecessor: trust the hint if it checks out, else walk the
  // list from its first block (paper §2.2).
  Bid pred = kNilBid;
  if (pred_bid_hint != kNilBid && block_map_.IsAllocated(pred_bid_hint) &&
      block_map_.entry(pred_bid_hint).list() == lid &&
      block_map_.entry(pred_bid_hint).successor() == bid) {
    pred = pred_bid_hint;
    counters_.pred_hint_hits++;
  } else {
    if (pred_bid_hint != kNilBid) {
      counters_.pred_hint_misses++;
    }
    for (Bid cur = list.first(); cur != kNilBid; cur = block_map_.entry(cur).successor()) {
      if (block_map_.entry(cur).successor() == bid) {
        pred = cur;
        break;
      }
    }
    if (pred == kNilBid) {
      return NotFoundError("block not found on list");
    }
  }

  records.push_back(SummaryRecord::LinkTuple(ts, pred, entry.successor()));
  records.push_back(SummaryRecord::BlockFree(ts, bid));
  RETURN_IF_ERROR(AppendRecordsAtomic(&records));
  block_map_.entry(pred).set_successor(entry.successor());
  return OkStatus();
}

Status LogStructuredDisk::DeleteBlock(Bid bid, Lid lid, Bid pred_bid_hint) {
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(list_table_.Lookup(lid).status());
  ASSIGN_OR_RETURN(BlockMapEntry * entry, block_map_.Lookup(bid));
  if (entry->list() != lid) {
    return InvalidArgumentError("block is not on the given list");
  }
  RETURN_IF_ERROR(UnlinkFromList(bid, lid, pred_bid_hint));
  // Re-fetch: the unlink may have flushed the segment and relocated copies.
  ReleaseBlockSpace(block_map_.entry(bid));
  return block_map_.Free(bid);
}

// ---- LogicalDisk: lists ---------------------------------------------------------

StatusOr<Lid> LogStructuredDisk::NewList(Lid pred_lid, ListHints hints) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(Lid lid, list_table_.Allocate(pred_lid, hints));
  const OpTimestamp ts = NextTs();
  std::vector<SummaryRecord> records;
  records.push_back(SummaryRecord::ListCreate(ts, lid, hints, list_table_.entry(lid).lol_next()));
  if (pred_lid != kBeginOfListOfLists) {
    records.push_back(
        SummaryRecord::ListMove(ts, pred_lid, lid, list_table_.entry(pred_lid).hints()));
  }
  const Status status = AppendRecordsAtomic(&records);
  if (!status.ok()) {
    (void)list_table_.Free(lid);
    return status;
  }
  return lid;
}

Status LogStructuredDisk::DeleteList(Lid lid, Lid pred_lid_hint) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(ListEntry * list, list_table_.Lookup(lid));
  if (pred_lid_hint != kNilLid) {
    if (list->lol_prev() == pred_lid_hint) {
      counters_.pred_hint_hits++;
    } else {
      counters_.pred_hint_misses++;
    }
  }
  // Free every block still on the list (paper: DeleteList deletes a list
  // "and its blocks"). Each free is logged individually so arbitrarily long
  // lists never overflow one summary.
  Bid cur = list->first();
  while (cur != kNilBid) {
    const Bid next = block_map_.entry(cur).successor();
    const OpTimestamp ts = NextTs();
    std::vector<SummaryRecord> records;
    records.push_back(SummaryRecord::BlockFree(ts, cur));
    RETURN_IF_ERROR(AppendRecordsAtomic(&records));
    ReleaseBlockSpace(block_map_.entry(cur));
    RETURN_IF_ERROR(block_map_.Free(cur));
    cur = next;
  }
  const OpTimestamp ts = NextTs();
  std::vector<SummaryRecord> records;
  records.push_back(SummaryRecord::ListDelete(ts, lid));
  RETURN_IF_ERROR(AppendRecordsAtomic(&records));
  return list_table_.Free(lid);
}

Status LogStructuredDisk::MoveSublist(Bid first, Bid last, Lid from_lid, Lid to_lid,
                                      Bid pred_bid) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(ListEntry * from, list_table_.Lookup(from_lid));
  ASSIGN_OR_RETURN(ListEntry * to, list_table_.Lookup(to_lid));
  // Validate the chain first..last inside from_lid, collecting its members.
  std::vector<Bid> chain;
  Bid cur = first;
  while (true) {
    if (!block_map_.IsAllocated(cur) || block_map_.entry(cur).list() != from_lid) {
      return InvalidArgumentError("sublist is not a chain within the source list");
    }
    chain.push_back(cur);
    if (cur == last) {
      break;
    }
    cur = block_map_.entry(cur).successor();
    if (cur == kNilBid) {
      return InvalidArgumentError("sublist end not reachable from its start");
    }
  }
  if (pred_bid != kBeginOfList) {
    ASSIGN_OR_RETURN(const BlockMapEntry* pred, block_map_.Lookup(pred_bid));
    if (pred->list() != to_lid) {
      return InvalidArgumentError("insertion predecessor is not on the target list");
    }
  }
  // Find the predecessor of `first` in the source list.
  Bid src_pred = kNilBid;
  if (from->first() != first) {
    for (Bid b = from->first(); b != kNilBid; b = block_map_.entry(b).successor()) {
      if (block_map_.entry(b).successor() == first) {
        src_pred = b;
        break;
      }
    }
    if (src_pred == kNilBid) {
      return InvalidArgumentError("sublist start not found on source list");
    }
  }

  const Bid after_last = block_map_.entry(last).successor();
  // A long sublist produces more re-homing records than one summary holds,
  // so the records go out in chunks — under an atomic recovery unit (the
  // caller's, or an internal one), making the whole move crash-atomic.
  const bool own_unit = !InAru();
  if (own_unit) {
    ASSIGN_OR_RETURN(AruId unit, BeginConcurrentARU());
    (void)unit;
  }
  const uint32_t unit_id = current_aru_;

  const OpTimestamp ts = NextTs();
  std::vector<SummaryRecord> records;
  // Unlink from the source list.
  if (src_pred == kNilBid) {
    records.push_back(SummaryRecord::ListHead(ts, from_lid, after_last));
  } else {
    records.push_back(SummaryRecord::LinkTuple(ts, src_pred, after_last));
  }
  // Link into the target list.
  Bid new_succ;
  if (pred_bid == kBeginOfList) {
    new_succ = to->first();
    records.push_back(SummaryRecord::ListHead(ts, to_lid, first));
  } else {
    new_succ = block_map_.entry(pred_bid).successor();
    records.push_back(SummaryRecord::LinkTuple(ts, pred_bid, first));
  }
  records.push_back(SummaryRecord::LinkTuple(ts, last, new_succ));
  Status status = AppendRecordsAtomic(&records);
  // Re-home every moved block so recovery knows the new owner.
  for (size_t i = 0; status.ok() && i < chain.size(); i += 64) {
    records.clear();
    for (size_t j = i; j < std::min(chain.size(), i + 64); ++j) {
      records.push_back(SummaryRecord::BlockAlloc(ts, chain[j], to_lid,
                                                  block_map_.entry(chain[j]).size_class()));
    }
    status = AppendRecordsAtomic(&records);
  }
  if (own_unit) {
    if (status.ok()) {
      status = EndConcurrentARU(unit_id);
    } else {
      (void)AbandonARU(unit_id);
    }
  }
  RETURN_IF_ERROR(status);

  if (src_pred == kNilBid) {
    from->set_first(after_last);
  } else {
    block_map_.entry(src_pred).set_successor(after_last);
  }
  if (pred_bid == kBeginOfList) {
    to->set_first(first);
  } else {
    block_map_.entry(pred_bid).set_successor(first);
  }
  block_map_.entry(last).set_successor(new_succ);
  for (Bid b : chain) {
    block_map_.entry(b).set_list(to_lid);
  }
  return OkStatus();
}

Status LogStructuredDisk::MoveList(Lid lid, Lid new_pred_lid) {
  RETURN_IF_ERROR(CheckWritable());
  const Lid old_prev = list_table_.IsAllocated(lid) ? list_table_.entry(lid).lol_prev() : kNilLid;
  RETURN_IF_ERROR(list_table_.Move(lid, new_pred_lid));
  const OpTimestamp ts = NextTs();
  std::vector<SummaryRecord> records;
  if (old_prev != kNilLid) {
    records.push_back(SummaryRecord::ListMove(
        ts, old_prev, list_table_.entry(old_prev).lol_next(), list_table_.entry(old_prev).hints()));
  }
  records.push_back(SummaryRecord::ListMove(ts, lid, list_table_.entry(lid).lol_next(),
                                            list_table_.entry(lid).hints()));
  if (new_pred_lid != kBeginOfListOfLists) {
    records.push_back(
        SummaryRecord::ListMove(ts, new_pred_lid, list_table_.entry(new_pred_lid).lol_next(),
                                list_table_.entry(new_pred_lid).hints()));
  }
  return AppendRecordsAtomic(&records);
}

Status LogStructuredDisk::FlushList(Lid lid) {
  RETURN_IF_ERROR(list_table_.Lookup(lid).status());
  // Forcing the current segment out is sufficient: everything older is
  // already durable (an easy fsync, §2.2).
  return Flush(FailureSet::kPowerFailure);
}

// ---- LogicalDisk: ARUs & durability -----------------------------------------------

Status LogStructuredDisk::BeginARU() {
  RETURN_IF_ERROR(CheckWritable());
  if (InAru()) {
    return FailedPreconditionError("an ARU is already selected; use BeginConcurrentARU");
  }
  ASSIGN_OR_RETURN(AruId id, BeginConcurrentARU());
  (void)id;  // Selected by BeginConcurrentARU.
  return OkStatus();
}

Status LogStructuredDisk::EndARU() {
  if (!InAru()) {
    return FailedPreconditionError("EndARU without BeginARU");
  }
  return EndConcurrentARU(current_aru_);
}

StatusOr<LogicalDisk::AruId> LogStructuredDisk::BeginConcurrentARU() {
  RETURN_IF_ERROR(CheckWritable());
  const AruId id = next_aru_id_++;
  open_arus_.insert(id);
  current_aru_ = id;
  return id;
}

Status LogStructuredDisk::SelectARU(AruId id) {
  if (id != 0 && open_arus_.count(id) == 0) {
    return NotFoundError("unknown or committed ARU " + std::to_string(id));
  }
  current_aru_ = id;
  return OkStatus();
}

Status LogStructuredDisk::EndConcurrentARU(AruId id) {
  if (open_arus_.count(id) == 0) {
    return NotFoundError("unknown or committed ARU " + std::to_string(id));
  }
  std::vector<SummaryRecord> records;
  records.push_back(SummaryRecord::AruCommit(NextTs(), id));
  const Status status = AppendRecordsAtomic(&records);
  open_arus_.erase(id);
  if (current_aru_ == id) {
    current_aru_ = 0;
  }
  if (status.ok()) {
    counters_.arus_committed++;
    // The commit record is buffered in the open segment; the shadow pins on
    // the superseded copies' segments drain once the seal carrying it goes
    // out (see FlushOpenSegment{Full,Partial}). On failure the pins are kept
    // for the session, same as abandonment: recovery will drop the unit.
    if (auto it = aru_shadow_segments_.find(id); it != aru_shadow_segments_.end()) {
      for (uint32_t pinned : it->second) {
        // Unresolved sentinels drop here: the copy and this commit record
        // now share the open buffer, so no image can hold one without the
        // other — there is no crash point where recovery rolls back to a
        // copy the media lacks.
        if (pinned != kOpenCopyPin) {
          aru_pins_awaiting_seal_.push_back(pinned);
        }
      }
      aru_shadow_segments_.erase(it);
    }
  }
  return status;
}

Status LogStructuredDisk::AbandonARU(AruId id) {
  if (open_arus_.count(id) == 0) {
    return NotFoundError("unknown or committed ARU " + std::to_string(id));
  }
  open_arus_.erase(id);
  abandoned_arus_.insert(id);
  if (current_aru_ == id) {
    current_aru_ = 0;
  }
  return OkStatus();
}

Status LogStructuredDisk::SwapContents(Bid a, Bid b) {
  RETURN_IF_ERROR(CheckWritable());
  if (a == b) {
    return InvalidArgumentError("swapping a block with itself");
  }
  ASSIGN_OR_RETURN(const BlockMapEntry* ea, block_map_.Lookup(a));
  ASSIGN_OR_RETURN(const BlockMapEntry* eb, block_map_.Lookup(b));
  if (ea->size_class() != eb->size_class()) {
    return InvalidArgumentError("SwapContents requires equal block sizes");
  }
  const uint32_t size = ea->size_class();
  std::vector<uint8_t> data_a(size);
  std::vector<uint8_t> data_b(size);
  RETURN_IF_ERROR(Read(a, data_a));
  RETURN_IF_ERROR(Read(b, data_b));

  // The exchange rides through the log inside a recovery unit, so a crash
  // exposes either both new versions or both old ones. Inside a caller's
  // open ARU the swap joins that unit (so several swaps can commit
  // together, the Mime-style transaction pattern of §5.2); otherwise it
  // gets a unit of its own.
  const bool own_unit = !InAru();
  AruId unit = current_aru_;
  if (own_unit) {
    ASSIGN_OR_RETURN(unit, BeginConcurrentARU());
  }
  Status status = Write(a, data_b);
  if (status.ok()) {
    status = Write(b, data_a);
  }
  if (own_unit) {
    if (status.ok()) {
      status = EndConcurrentARU(unit);
    } else {
      (void)AbandonARU(unit);  // Its records stay uncommitted.
    }
  }
  return status;
}

StatusOr<Bid> LogStructuredDisk::BlockAtIndex(Lid lid, uint64_t index) {
  ASSIGN_OR_RETURN(const ListEntry* list, list_table_.Lookup(lid));
  Bid cur = list->first();
  for (uint64_t i = 0; cur != kNilBid && i < index; ++i) {
    cur = block_map_.entry(cur).successor();
  }
  if (cur == kNilBid) {
    return NotFoundError("list " + std::to_string(lid) + " has no block at index " +
                         std::to_string(index));
  }
  return cur;
}

Status LogStructuredDisk::Flush(FailureSet failures) {
  RETURN_IF_ERROR(CheckWritable());
  counters_.flushes++;
  if (failures == FailureSet::kNone) {
    return OkStatus();
  }
  if (failures == FailureSet::kMediaFailure) {
    return UnimplementedError("LLD cannot survive media failure");
  }
  if (!dirty_since_flush_) {
    return OkStatus();
  }
  const double fill = OpenSegmentFill();
  if (fill >= options_.partial_segment_threshold) {
    // Flush() promises durability, so the pipelined write must complete.
    RETURN_IF_ERROR(FlushOpenSegmentFull());
    return WaitForInflight();
  }
  // NVRAM absorption: small pending state is durable in NVRAM; no partial
  // disk write needed (Baker et al. 1992 model, §5.3).
  if (options_.nvram_bytes > 0 &&
      open_.used + open_.record_bytes <= options_.nvram_bytes) {
    counters_.nvram_absorbed_flushes++;
    dirty_since_flush_ = false;
    return OkStatus();
  }
  return FlushOpenSegmentPartial();
}

Status LogStructuredDisk::ReserveBlocks(uint64_t count, uint32_t size_bytes) {
  const uint32_t size = size_bytes == 0 ? options_.block_size : size_bytes;
  const uint64_t bytes = count * size;
  if (FreeBytes() < bytes) {
    return NoSpaceError("cannot reserve " + std::to_string(bytes) + " bytes");
  }
  reserved_bytes_ += bytes;
  return OkStatus();
}

Status LogStructuredDisk::CancelReservation(uint64_t count, uint32_t size_bytes) {
  const uint32_t size = size_bytes == 0 ? options_.block_size : size_bytes;
  const uint64_t bytes = count * size;
  if (bytes > reserved_bytes_) {
    return InvalidArgumentError("cancelling more than is reserved");
  }
  reserved_bytes_ -= bytes;
  return OkStatus();
}

Status LogStructuredDisk::Shutdown() {
  if (shut_down_) {
    return OkStatus();
  }
  if (degraded_) {
    // Nothing can be made durable; the next Open() must re-scan the log.
    return DegradedError("cannot shut down cleanly (" + degraded_cause_ + ")");
  }
  if (!open_arus_.empty()) {
    return FailedPreconditionError("cannot shut down with open ARUs");
  }
  RETURN_IF_ERROR(FlushOpenSegmentFull());
  RETURN_IF_ERROR(WaitForInflight());
  RETURN_IF_ERROR(device_->Drain());
  if (Status s = WriteCheckpoint(); !s.ok()) {
    // Oversize is typed, counted, and the region is already invalidated:
    // the next open recovers from the log. Anything else is a real failure.
    if (s.code() != ErrorCode::kNoSpace) {
      return s;
    }
    LD_LOG(kWarn) << "shutdown without checkpoint: " << s.message();
  }
  shut_down_ = true;
  return OkStatus();
}

StatusOr<uint32_t> LogStructuredDisk::BlockSize(Bid bid) const {
  ASSIGN_OR_RETURN(const BlockMapEntry* entry, block_map_.Lookup(bid));
  return entry->size_class();
}

// ---- Introspection ------------------------------------------------------------------

StatusOr<std::vector<Bid>> LogStructuredDisk::ListBlocks(Lid lid) const {
  ASSIGN_OR_RETURN(const ListEntry* list, list_table_.Lookup(lid));
  std::vector<Bid> blocks;
  for (Bid b = list->first(); b != kNilBid; b = block_map_.entry(b).successor()) {
    blocks.push_back(b);
    if (blocks.size() > block_map_.allocated_count()) {
      return CorruptionError("cycle detected in list " + std::to_string(lid));
    }
  }
  return blocks;
}

MemoryFootprint LogStructuredDisk::MeasureMemory() const {
  MemoryFootprint fp;
  fp.block_map_bytes = block_map_.MemoryBytes();
  fp.list_table_bytes = list_table_.MemoryBytes();
  fp.usage_table_bytes = usage_->MemoryBytes();
  fp.open_segment_bytes = open_.buffer.capacity();
  for (const LoggedSegment& p : ckpt_pending_) {
    fp.checkpoint_pending_bytes += sizeof(LoggedSegment) +
                                   p.records.capacity() * sizeof(SummaryRecord);
  }
  return fp;
}

double LogStructuredDisk::OpenSegmentFill() const {
  return static_cast<double>(open_.used) / static_cast<double>(data_capacity_);
}

}  // namespace ld
