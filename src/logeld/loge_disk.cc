#include "src/logeld/loge_disk.h"

#include <cstring>

#include "src/util/crc32.h"
#include "src/util/serialize.h"

namespace ld {

namespace {

constexpr uint32_t kHeaderMagic = 0x4c4f4745;  // "LOGE"

// Header sector content: magic, bid, lid, timestamp, crc.
struct SlotHeader {
  Bid bid = kNilBid;
  Lid lid = kNilLid;
  uint64_t ts = 0;
};

void EncodeHeader(const SlotHeader& header, std::span<uint8_t> sector) {
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  enc.PutU32(kHeaderMagic);
  enc.PutU32(header.bid);
  enc.PutU32(header.lid);
  enc.PutU64(header.ts);
  enc.PutU32(Crc32(payload));
  std::memset(sector.data(), 0, sector.size());
  std::memcpy(sector.data(), payload.data(), payload.size());
}

bool DecodeHeader(std::span<const uint8_t> sector, SlotHeader* header) {
  Decoder dec(sector);
  if (dec.GetU32() != kHeaderMagic) {
    return false;
  }
  header->bid = dec.GetU32();
  header->lid = dec.GetU32();
  header->ts = dec.GetU64();
  const size_t body_end = dec.position();
  const uint32_t crc = dec.GetU32();
  return dec.ok() && crc == Crc32(sector.subspan(0, body_end));
}

}  // namespace

Status LogeDisk::ComputeLayout() {
  const uint32_t sector = device_->sector_size();
  if (kLogeBlockSize % sector != 0) {
    return InvalidArgumentError("block size must be sector-aligned");
  }
  sectors_per_slot_ = kLogeBlockSize / sector + 1;  // +1 header sector.
  data_start_sector_ = 8;  // A small reserved area (unused; symmetry with LLD).
  num_slots_ = (device_->num_sectors() - data_start_sector_) / sectors_per_slot_;
  if (num_slots_ < 16) {
    return InvalidArgumentError("device too small for LogeDisk");
  }
  slot_used_.assign(num_slots_, false);
  return OkStatus();
}

uint64_t LogeDisk::SlotSector(uint64_t slot) const {
  return data_start_sector_ + slot * sectors_per_slot_;
}

StatusOr<std::unique_ptr<LogeDisk>> LogeDisk::Format(BlockDevice* device) {
  std::unique_ptr<LogeDisk> loge(new LogeDisk(device));
  RETURN_IF_ERROR(loge->ComputeLayout());
  // Erase stale slot headers so reopened devices do not resurrect blocks.
  std::vector<uint8_t> zero(device->sector_size(), 0);
  for (uint64_t slot = 0; slot < loge->num_slots_; ++slot) {
    RETURN_IF_ERROR(device->Write(loge->SlotSector(slot), zero));
  }
  return loge;
}

StatusOr<std::unique_ptr<LogeDisk>> LogeDisk::Open(BlockDevice* device,
                                                   LogeRecoveryStats* stats) {
  std::unique_ptr<LogeDisk> loge(new LogeDisk(device));
  RETURN_IF_ERROR(loge->ComputeLayout());

  // Loge recovery: read every slot header on the disk; the newest timestamp
  // per logical block wins.
  const double start = device->clock()->Now();
  std::vector<uint8_t> sector(device->sector_size());
  std::vector<uint64_t> best_ts;
  uint64_t max_ts = 0;
  for (uint64_t slot = 0; slot < loge->num_slots_; ++slot) {
    RETURN_IF_ERROR(device->Read(loge->SlotSector(slot), sector));
    SlotHeader header;
    if (!DecodeHeader(sector, &header) || header.bid == kNilBid) {
      continue;
    }
    if (header.bid >= loge->entries_.size()) {
      loge->entries_.resize(header.bid + 1);
      best_ts.resize(header.bid + 1, 0);
    }
    if (best_ts.size() < loge->entries_.size()) {
      best_ts.resize(loge->entries_.size(), 0);
    }
    Entry& entry = loge->entries_[header.bid];
    if (header.ts > best_ts[header.bid]) {
      if (entry.slot >= 0) {
        loge->slot_used_[entry.slot] = false;
        loge->used_slots_--;
      }
      best_ts[header.bid] = header.ts;
      entry.allocated = true;
      entry.slot = static_cast<int64_t>(slot);
      entry.list = header.lid;
      loge->slot_used_[slot] = true;
      loge->used_slots_++;
      if (header.lid >= loge->list_used_.size()) {
        loge->list_used_.resize(header.lid + 1, false);
      }
      loge->list_used_[header.lid] = true;
    }
    max_ts = std::max(max_ts, header.ts);
  }
  loge->next_ts_ = max_ts + 1;
  for (Bid bid = static_cast<Bid>(loge->entries_.size()) - 1; bid >= 1; --bid) {
    if (!loge->entries_[bid].allocated) {
      loge->free_bids_.push_back(bid);
    }
  }
  if (stats != nullptr) {
    stats->slots_scanned = loge->num_slots_;
    stats->seconds = device->clock()->Now() - start;
    stats->live_blocks = loge->used_slots_;
  }
  return loge;
}

StatusOr<uint64_t> LogeDisk::AllocSlot() {
  if (used_slots_ >= num_slots_) {
    return NoSpaceError("LogeDisk full");
  }
  // Scan forward from just past the head (approximated by the last write),
  // skipping kLogeRotationalSkip slots so the target sector is still ahead of
  // the head after per-request overhead.
  for (uint64_t probe = 0; probe < num_slots_; ++probe) {
    const uint64_t slot = (last_slot_ + 1 + kLogeRotationalSkip + probe) % num_slots_;
    if (!slot_used_[slot]) {
      return slot;
    }
  }
  return NoSpaceError("LogeDisk full");
}

Status LogeDisk::Read(Bid bid, std::span<uint8_t> out) {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  if (out.size() != kLogeBlockSize) {
    return InvalidArgumentError("read size mismatch");
  }
  const Entry& entry = entries_[bid];
  if (entry.slot < 0) {
    std::memset(out.data(), 0, out.size());
    return OkStatus();
  }
  return device_->Read(SlotSector(static_cast<uint64_t>(entry.slot)) + 1, out);
}

Status LogeDisk::Write(Bid bid, std::span<const uint8_t> data) {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  if (data.size() != kLogeBlockSize) {
    return InvalidArgumentError("write size mismatch");
  }
  Entry& entry = entries_[bid];
  ASSIGN_OR_RETURN(uint64_t slot, AllocSlot());

  // One contiguous request: header sector + data.
  std::vector<uint8_t> image(static_cast<size_t>(sectors_per_slot_) * device_->sector_size());
  SlotHeader header;
  header.bid = bid;
  header.lid = entry.list;
  header.ts = next_ts_++;
  EncodeHeader(header, std::span<uint8_t>(image).subspan(0, device_->sector_size()));
  std::memcpy(image.data() + device_->sector_size(), data.data(), data.size());
  RETURN_IF_ERROR(device_->Write(SlotSector(slot), image));

  // The old physical location becomes one of the reserved free blocks.
  if (entry.slot >= 0) {
    slot_used_[entry.slot] = false;
    used_slots_--;
  }
  entry.slot = static_cast<int64_t>(slot);
  slot_used_[slot] = true;
  used_slots_++;
  last_slot_ = slot;
  return OkStatus();
}

StatusOr<Bid> LogeDisk::NewBlock(Lid lid, Bid pred_bid, uint32_t size_bytes) {
  (void)pred_bid;  // Loge sees no inter-block relationships (§5.2).
  if (size_bytes != 0 && size_bytes != kLogeBlockSize) {
    return InvalidArgumentError("LogeDisk supports a single block size");
  }
  if (lid == kNilLid || lid >= list_used_.size() || !list_used_[lid]) {
    return NotFoundError("unknown list");
  }
  Bid bid;
  if (!free_bids_.empty()) {
    bid = free_bids_.back();
    free_bids_.pop_back();
  } else {
    bid = static_cast<Bid>(entries_.size());
    entries_.emplace_back();
  }
  entries_[bid] = Entry{};
  entries_[bid].allocated = true;
  entries_[bid].list = lid;
  return bid;
}

Status LogeDisk::DeleteBlock(Bid bid, Lid lid, Bid pred_bid_hint) {
  (void)pred_bid_hint;
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  if (entries_[bid].list != lid) {
    return InvalidArgumentError("block not on the given list");
  }
  Entry& entry = entries_[bid];
  if (entry.slot >= 0) {
    // Erase the header so recovery does not resurrect the block.
    std::vector<uint8_t> zero(device_->sector_size(), 0);
    RETURN_IF_ERROR(device_->Write(SlotSector(static_cast<uint64_t>(entry.slot)), zero));
    slot_used_[entry.slot] = false;
    used_slots_--;
  }
  entry = Entry{};
  free_bids_.push_back(bid);
  return OkStatus();
}

StatusOr<Lid> LogeDisk::NewList(Lid pred_lid, ListHints hints) {
  (void)pred_lid;
  (void)hints;
  const Lid lid = static_cast<Lid>(list_used_.size());
  list_used_.push_back(true);
  return lid;
}

Status LogeDisk::DeleteList(Lid lid, Lid pred_lid_hint) {
  (void)pred_lid_hint;
  if (lid == kNilLid || lid >= list_used_.size() || !list_used_[lid]) {
    return NotFoundError("unknown list");
  }
  for (Bid bid = 1; bid < entries_.size(); ++bid) {
    if (entries_[bid].allocated && entries_[bid].list == lid) {
      RETURN_IF_ERROR(DeleteBlock(bid, lid, kNilBid));
    }
  }
  list_used_[lid] = false;
  return OkStatus();
}

Status LogeDisk::FlushList(Lid lid) {
  if (lid == kNilLid || lid >= list_used_.size() || !list_used_[lid]) {
    return NotFoundError("unknown list");
  }
  return OkStatus();  // Writes are already through.
}

Status LogeDisk::Flush(FailureSet failures) {
  if (failures == FailureSet::kMediaFailure) {
    return UnimplementedError("LogeDisk cannot survive media failure");
  }
  return OkStatus();  // Every Write is immediately durable (per-block).
}

Status LogeDisk::ReserveBlocks(uint64_t count, uint32_t size_bytes) {
  const uint32_t size = size_bytes == 0 ? kLogeBlockSize : size_bytes;
  if (FreeBytes() < count * size) {
    return NoSpaceError("cannot reserve");
  }
  reserved_bytes_ += count * size;
  return OkStatus();
}

Status LogeDisk::CancelReservation(uint64_t count, uint32_t size_bytes) {
  const uint32_t size = size_bytes == 0 ? kLogeBlockSize : size_bytes;
  if (count * size > reserved_bytes_) {
    return InvalidArgumentError("cancelling more than is reserved");
  }
  reserved_bytes_ -= count * size;
  return OkStatus();
}

Status LogeDisk::Shutdown() { return OkStatus(); }  // Nothing volatile to save.

StatusOr<uint32_t> LogeDisk::BlockSize(Bid bid) const {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  return kLogeBlockSize;
}

uint64_t LogeDisk::FreeBytes() const {
  const uint64_t bytes = (num_slots_ - used_slots_) * kLogeBlockSize;
  return bytes > reserved_bytes_ ? bytes - reserved_bytes_ : 0;
}

StatusOr<std::vector<Bid>> LogeDisk::ListMembers(Lid lid) const {
  if (lid == kNilLid || lid >= list_used_.size() || !list_used_[lid]) {
    return NotFoundError("unknown list");
  }
  std::vector<Bid> members;
  for (Bid bid = 1; bid < entries_.size(); ++bid) {
    if (entries_[bid].allocated && entries_[bid].list == lid) {
      members.push_back(bid);
    }
  }
  return members;
}

}  // namespace ld
