#include "src/flatld/flat_disk.h"

#include <cstring>

#include "src/util/crc32.h"
#include "src/util/serialize.h"

namespace ld {

namespace {
constexpr uint32_t kTableMagic = 0x464c4154;  // "FLAT"
}  // namespace

Status FlatDisk::ComputeLayout() {
  // Reserve ~1/32 of the device for the allocation table, after one sector
  // of header space.
  const uint64_t total = device_->num_sectors();
  table_start_sector_ = 1;
  table_sectors_ = std::max<uint64_t>(total / 32, 256);
  data_start_sector_ = table_start_sector_ + table_sectors_;
  if (data_start_sector_ >= total) {
    return InvalidArgumentError("device too small for FlatDisk");
  }
  data_sectors_ = total - data_start_sector_;
  sector_used_.assign(data_sectors_, false);
  return OkStatus();
}

StatusOr<std::unique_ptr<FlatDisk>> FlatDisk::Format(BlockDevice* device) {
  std::unique_ptr<FlatDisk> fd(new FlatDisk(device));
  RETURN_IF_ERROR(fd->ComputeLayout());
  fd->dirty_table_ = true;
  RETURN_IF_ERROR(fd->PersistTable());
  return fd;
}

StatusOr<std::unique_ptr<FlatDisk>> FlatDisk::Open(BlockDevice* device) {
  std::unique_ptr<FlatDisk> fd(new FlatDisk(device));
  RETURN_IF_ERROR(fd->ComputeLayout());
  RETURN_IF_ERROR(fd->LoadTable());
  return fd;
}

StatusOr<uint64_t> FlatDisk::AllocExtent(uint32_t sectors, uint64_t near_sector) {
  const uint64_t start_hint =
      near_sector >= data_start_sector_ ? near_sector - data_start_sector_ : 0;
  // First fit scanning forward from the hint, wrapping once.
  for (uint64_t pass = 0; pass < 2; ++pass) {
    const uint64_t begin = pass == 0 ? start_hint : 0;
    const uint64_t end = pass == 0 ? data_sectors_ : start_hint;
    uint64_t run = 0;
    for (uint64_t s = begin; s < end; ++s) {
      run = sector_used_[s] ? 0 : run + 1;
      if (run == sectors) {
        const uint64_t first = s + 1 - sectors;
        for (uint64_t i = first; i <= s; ++i) {
          sector_used_[i] = true;
        }
        used_sectors_ += sectors;
        return data_start_sector_ + first;
      }
    }
  }
  return NoSpaceError("FlatDisk: no free extent of " + std::to_string(sectors) + " sectors");
}

void FlatDisk::FreeExtent(uint64_t start, uint32_t sectors) {
  const uint64_t first = start - data_start_sector_;
  for (uint64_t i = first; i < first + sectors; ++i) {
    sector_used_[i] = false;
  }
  used_sectors_ -= sectors;
}

Status FlatDisk::Read(Bid bid, std::span<uint8_t> out) {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  const Entry& e = entries_[bid];
  if (out.size() != e.size_class) {
    return InvalidArgumentError("read size mismatch");
  }
  const size_t span_bytes = static_cast<size_t>(e.sectors) * device_->sector_size();
  std::vector<uint8_t> buf(span_bytes);
  RETURN_IF_ERROR(device_->Read(e.start_sector, buf));
  std::memcpy(out.data(), buf.data(), out.size());
  return OkStatus();
}

Status FlatDisk::Write(Bid bid, std::span<const uint8_t> data) {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  Entry& e = entries_[bid];
  if (data.size() != e.size_class) {
    return InvalidArgumentError("write size mismatch");
  }
  const uint32_t sector = device_->sector_size();
  if (data.size() % sector == 0) {
    return device_->Write(e.start_sector, data);
  }
  // Sub-sector block: read-modify-write its extent.
  std::vector<uint8_t> buf(static_cast<size_t>(e.sectors) * sector);
  RETURN_IF_ERROR(device_->Read(e.start_sector, buf));
  std::memcpy(buf.data(), data.data(), data.size());
  return device_->Write(e.start_sector, buf);
}

StatusOr<Bid> FlatDisk::NewBlock(Lid lid, Bid pred_bid, uint32_t size_bytes) {
  const uint32_t size = size_bytes == 0 ? block_size_ : size_bytes;
  if (size == 0) {
    return InvalidArgumentError("zero block size");
  }
  if (lid == kNilLid || lid >= lists_.size() || !lists_[lid].allocated) {
    return NotFoundError("unknown list");
  }
  uint64_t near = data_start_sector_;
  Bid succ = kNilBid;
  if (pred_bid != kBeginOfList) {
    if (pred_bid >= entries_.size() || !entries_[pred_bid].allocated ||
        entries_[pred_bid].list != lid) {
      return InvalidArgumentError("bad predecessor");
    }
    const Entry& pred = entries_[pred_bid];
    near = pred.start_sector + pred.sectors;  // Cluster after the predecessor.
    succ = pred.successor;
  } else {
    succ = lists_[lid].first;
  }
  const uint32_t sector = device_->sector_size();
  const uint32_t sectors = (size + sector - 1) / sector;
  ASSIGN_OR_RETURN(uint64_t start, AllocExtent(sectors, near));

  Bid bid;
  if (!free_bids_.empty()) {
    bid = free_bids_.back();
    free_bids_.pop_back();
  } else {
    bid = static_cast<Bid>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[bid];
  e = Entry{};
  e.allocated = true;
  e.start_sector = start;
  e.sectors = sectors;
  e.size_class = size;
  e.list = lid;
  e.successor = succ;
  if (pred_bid == kBeginOfList) {
    lists_[lid].first = bid;
  } else {
    entries_[pred_bid].successor = bid;
  }
  dirty_table_ = true;
  return bid;
}

Status FlatDisk::DeleteBlock(Bid bid, Lid lid, Bid pred_bid_hint) {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  Entry& e = entries_[bid];
  if (e.list != lid) {
    return InvalidArgumentError("block not on the given list");
  }
  if (lists_[lid].first == bid) {
    lists_[lid].first = e.successor;
  } else {
    Bid pred = kNilBid;
    if (pred_bid_hint != kNilBid && pred_bid_hint < entries_.size() &&
        entries_[pred_bid_hint].allocated && entries_[pred_bid_hint].list == lid &&
        entries_[pred_bid_hint].successor == bid) {
      pred = pred_bid_hint;
    } else {
      for (Bid cur = lists_[lid].first; cur != kNilBid; cur = entries_[cur].successor) {
        if (entries_[cur].successor == bid) {
          pred = cur;
          break;
        }
      }
      if (pred == kNilBid) {
        return NotFoundError("block not found on list");
      }
    }
    entries_[pred].successor = e.successor;
  }
  FreeExtent(e.start_sector, e.sectors);
  e = Entry{};
  free_bids_.push_back(bid);
  dirty_table_ = true;
  return OkStatus();
}

StatusOr<Lid> FlatDisk::NewList(Lid pred_lid, ListHints hints) {
  (void)hints;  // FlatDisk ignores clustering hints beyond predecessor placement.
  if (pred_lid != kBeginOfListOfLists &&
      (pred_lid >= lists_.size() || !lists_[pred_lid].allocated)) {
    return NotFoundError("unknown predecessor list");
  }
  Lid lid;
  if (!free_lids_.empty()) {
    lid = free_lids_.back();
    free_lids_.pop_back();
  } else {
    lid = static_cast<Lid>(lists_.size());
    lists_.emplace_back();
  }
  lists_[lid] = List{};
  lists_[lid].allocated = true;
  dirty_table_ = true;
  return lid;
}

Status FlatDisk::DeleteList(Lid lid, Lid pred_lid_hint) {
  (void)pred_lid_hint;
  if (lid == kNilLid || lid >= lists_.size() || !lists_[lid].allocated) {
    return NotFoundError("unknown list");
  }
  Bid cur = lists_[lid].first;
  while (cur != kNilBid) {
    const Bid next = entries_[cur].successor;
    FreeExtent(entries_[cur].start_sector, entries_[cur].sectors);
    entries_[cur] = Entry{};
    free_bids_.push_back(cur);
    cur = next;
  }
  lists_[lid] = List{};
  free_lids_.push_back(lid);
  dirty_table_ = true;
  return OkStatus();
}

Status FlatDisk::MoveSublist(Bid, Bid, Lid, Lid, Bid) {
  return UnimplementedError("FlatDisk does not support MoveSublist");
}

Status FlatDisk::MoveList(Lid, Lid) {
  return OkStatus();  // No inter-list clustering: the move is a no-op.
}

Status FlatDisk::FlushList(Lid lid) {
  if (lid == kNilLid || lid >= lists_.size() || !lists_[lid].allocated) {
    return NotFoundError("unknown list");
  }
  return Flush(FailureSet::kPowerFailure);
}

Status FlatDisk::BeginARU() {
  return UnimplementedError("FlatDisk does not support atomic recovery units");
}

Status FlatDisk::EndARU() {
  return UnimplementedError("FlatDisk does not support atomic recovery units");
}

StatusOr<Bid> FlatDisk::BlockAtIndex(Lid lid, uint64_t index) {
  if (lid == kNilLid || lid >= lists_.size() || !lists_[lid].allocated) {
    return NotFoundError("unknown list");
  }
  Bid cur = lists_[lid].first;
  for (uint64_t i = 0; cur != kNilBid && i < index; ++i) {
    cur = entries_[cur].successor;
  }
  if (cur == kNilBid) {
    return NotFoundError("list has no block at index " + std::to_string(index));
  }
  return cur;
}

Status FlatDisk::Flush(FailureSet failures) {
  if (failures == FailureSet::kNone) {
    return OkStatus();
  }
  if (failures == FailureSet::kMediaFailure) {
    return UnimplementedError("FlatDisk cannot survive media failure");
  }
  // FlatDisk issues only synchronous writes itself, but the device queue may
  // hold requests from other users of the device; a durability point must
  // cover them too.
  RETURN_IF_ERROR(device_->Drain());
  return PersistTable();
}

Status FlatDisk::ReserveBlocks(uint64_t count, uint32_t size_bytes) {
  const uint32_t size = size_bytes == 0 ? block_size_ : size_bytes;
  if (FreeBytes() < count * size) {
    return NoSpaceError("cannot reserve");
  }
  reserved_bytes_ += count * size;
  return OkStatus();
}

Status FlatDisk::CancelReservation(uint64_t count, uint32_t size_bytes) {
  const uint32_t size = size_bytes == 0 ? block_size_ : size_bytes;
  if (count * size > reserved_bytes_) {
    return InvalidArgumentError("cancelling more than is reserved");
  }
  reserved_bytes_ -= count * size;
  return OkStatus();
}

Status FlatDisk::Shutdown() {
  RETURN_IF_ERROR(device_->Drain());
  return PersistTable();
}

StatusOr<uint32_t> FlatDisk::BlockSize(Bid bid) const {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  return entries_[bid].size_class;
}

uint64_t FlatDisk::FreeBytes() const {
  const uint64_t free_sectors = data_sectors_ - used_sectors_;
  const uint64_t bytes = free_sectors * device_->sector_size();
  return bytes > reserved_bytes_ ? bytes - reserved_bytes_ : 0;
}

StatusOr<std::vector<Bid>> FlatDisk::ListBlocks(Lid lid) const {
  if (lid == kNilLid || lid >= lists_.size() || !lists_[lid].allocated) {
    return NotFoundError("unknown list");
  }
  std::vector<Bid> blocks;
  for (Bid b = lists_[lid].first; b != kNilBid; b = entries_[b].successor) {
    blocks.push_back(b);
    if (blocks.size() > entries_.size()) {
      return CorruptionError("cycle in list");
    }
  }
  return blocks;
}

StatusOr<uint64_t> FlatDisk::PhysicalSector(Bid bid) const {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated) {
    return NotFoundError("unknown block");
  }
  return entries_[bid].start_sector;
}

Status FlatDisk::PersistTable() {
  if (!dirty_table_) {
    return OkStatus();
  }
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  enc.PutU32(kTableMagic);
  enc.PutU32(block_size_);
  enc.PutU64(entries_.size());
  for (const Entry& e : entries_) {
    enc.PutU8(e.allocated ? 1 : 0);
    if (!e.allocated) {
      continue;
    }
    enc.PutU64(e.start_sector);
    enc.PutU32(e.sectors);
    enc.PutU32(e.size_class);
    enc.PutU32(e.successor);
    enc.PutU32(e.list);
  }
  enc.PutU64(lists_.size());
  for (const List& l : lists_) {
    enc.PutU8(l.allocated ? 1 : 0);
    if (l.allocated) {
      enc.PutU32(l.first);
    }
  }
  enc.PutU32(Crc32(payload));

  const uint32_t sector = device_->sector_size();
  if (payload.size() > table_sectors_ * sector) {
    return NoSpaceError("FlatDisk allocation table overflow");
  }
  std::vector<uint8_t> padded(((payload.size() + sector - 1) / sector) * sector, 0);
  std::memcpy(padded.data(), payload.data(), payload.size());
  RETURN_IF_ERROR(device_->Write(table_start_sector_, padded));
  dirty_table_ = false;
  return OkStatus();
}

Status FlatDisk::LoadTable() {
  const uint32_t sector = device_->sector_size();
  std::vector<uint8_t> buf(table_sectors_ * sector);
  RETURN_IF_ERROR(device_->Read(table_start_sector_, buf));
  Decoder dec(buf);
  const uint32_t magic = dec.GetU32();
  if (!dec.ok() || magic != kTableMagic) {
    return CorruptionError("device is not a FlatDisk volume");
  }
  block_size_ = dec.GetU32();
  const uint64_t entry_count = dec.GetU64();
  entries_.assign(entry_count, Entry{});
  used_sectors_ = 0;
  for (uint64_t i = 0; i < entry_count; ++i) {
    Entry& e = entries_[i];
    if (dec.GetU8() == 0) {
      continue;
    }
    e.allocated = true;
    e.start_sector = dec.GetU64();
    e.sectors = dec.GetU32();
    e.size_class = dec.GetU32();
    e.successor = dec.GetU32();
    e.list = dec.GetU32();
    for (uint64_t s = e.start_sector - data_start_sector_;
         s < e.start_sector - data_start_sector_ + e.sectors; ++s) {
      sector_used_[s] = true;
    }
    used_sectors_ += e.sectors;
  }
  const uint64_t list_count = dec.GetU64();
  lists_.assign(list_count, List{});
  for (uint64_t i = 0; i < list_count; ++i) {
    if (dec.GetU8() == 1) {
      lists_[i].allocated = true;
      lists_[i].first = dec.GetU32();
    }
  }
  RETURN_IF_ERROR(dec.ToStatus("FlatDisk table"));

  free_bids_.clear();
  for (Bid b = static_cast<Bid>(entries_.size()) - 1; b >= 1; --b) {
    if (!entries_[b].allocated) {
      free_bids_.push_back(b);
    }
  }
  free_lids_.clear();
  for (Lid l = static_cast<Lid>(lists_.size()) - 1; l >= 1; --l) {
    if (!lists_[l].allocated) {
      free_lids_.push_back(l);
    }
  }
  return OkStatus();
}

}  // namespace ld
