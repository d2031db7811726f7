#include "src/lld/block_map.h"

namespace ld {

StatusOr<Bid> BlockMap::Allocate(Lid list, uint32_t size_class) {
  Bid bid;
  if (!free_bids_.empty()) {
    bid = free_bids_.back();
    free_bids_.pop_back();
  } else if (entries_.size() <= kMaxId) {
    bid = static_cast<Bid>(entries_.size());
    entries_.resize(bid + 1);
  } else {
    return NoSpaceError("every block number up to " + std::to_string(kMaxId) + " is live");
  }
  BlockMapEntry& e = entries_[bid];
  e = BlockMapEntry{};
  e.set_allocated(true);
  e.set_list(list);
  e.set_size_class(size_class);
  allocated_count_++;
  return bid;
}

Status BlockMap::Free(Bid bid) {
  if (!IsAllocated(bid)) {
    return NotFoundError("free of unallocated block " + std::to_string(bid));
  }
  ResetEntry(bid);
  free_bids_.push_back(bid);
  allocated_count_--;
  return OkStatus();
}

bool BlockMap::IsAllocated(Bid bid) const {
  return bid != kNilBid && bid < entries_.size() && entries_[bid].allocated();
}

StatusOr<BlockMapEntry*> BlockMap::Lookup(Bid bid) {
  if (!IsAllocated(bid)) {
    return NotFoundError("unknown block " + std::to_string(bid));
  }
  return &entries_[bid];
}

StatusOr<const BlockMapEntry*> BlockMap::Lookup(Bid bid) const {
  if (!IsAllocated(bid)) {
    return NotFoundError("unknown block " + std::to_string(bid));
  }
  return &entries_[bid];
}

BlockMapEntry& BlockMap::EnsureAllocated(Bid bid) {
  Extend(bid);
  BlockMapEntry& e = entries_[bid];
  if (!e.allocated()) {
    e.set_allocated(true);
    allocated_count_++;
  }
  return e;
}

void BlockMap::ForceFree(Bid bid) {
  if (bid == kNilBid || bid >= entries_.size() || !entries_[bid].allocated()) {
    return;
  }
  ResetEntry(bid);
  allocated_count_--;
}

void BlockMap::Extend(Bid bid) {
  if (bid >= entries_.size()) {
    entries_.resize(bid + 1);
  }
}

void BlockMap::ResetEntry(Bid bid) {
  entries_[bid] = BlockMapEntry{};
  if (bid < read_counts_.size()) {
    read_counts_[bid] = 0;
  }
}

void BlockMap::RebuildFreeList() {
  free_bids_.clear();
  for (Bid bid = static_cast<Bid>(entries_.size()) - 1; bid >= 1; --bid) {
    if (!entries_[bid].allocated()) {
      free_bids_.push_back(bid);
    }
  }
}

void BlockMap::CountRead(Bid bid) {
  if (bid >= read_counts_.size()) {
    read_counts_.resize(entries_.size());
  }
  read_counts_[bid]++;
}

uint64_t BlockMap::MemoryBytes() const {
  return entries_.MemoryBytes() + free_bids_.MemoryBytes() + read_counts_.MemoryBytes();
}

void BlockMap::Clear() {
  entries_.clear();
  entries_.resize(1);
  free_bids_.clear();
  read_counts_.clear();
  allocated_count_ = 0;
}

}  // namespace ld
