#include "src/lld/list_table.h"

namespace ld {

StatusOr<Lid> ListTable::Allocate(Lid pred_lid, ListHints hints) {
  if (pred_lid != kBeginOfListOfLists && !IsAllocated(pred_lid)) {
    return NotFoundError("NewList: unknown predecessor list " + std::to_string(pred_lid));
  }
  Lid lid;
  if (!free_lids_.empty()) {
    lid = free_lids_.back();
    free_lids_.pop_back();
  } else {
    lid = static_cast<Lid>(entries_.size());
    if (lid > kMaxId) {
      return NoSpaceError("every list number up to " + std::to_string(kMaxId) + " is live");
    }
    entries_.emplace_back();
  }
  ListEntry& e = entries_[lid];
  e = ListEntry{};
  e.set_allocated(true);
  e.set_hints(hints);
  LinkIntoLol(lid, pred_lid);
  allocated_count_++;
  return lid;
}

Status ListTable::Free(Lid lid) {
  if (!IsAllocated(lid)) {
    return NotFoundError("free of unallocated list " + std::to_string(lid));
  }
  UnlinkFromLol(lid);
  entries_[lid] = ListEntry{};
  free_lids_.push_back(lid);
  allocated_count_--;
  return OkStatus();
}

bool ListTable::IsAllocated(Lid lid) const {
  return lid != kNilLid && lid < entries_.size() && entries_[lid].allocated();
}

StatusOr<ListEntry*> ListTable::Lookup(Lid lid) {
  if (!IsAllocated(lid)) {
    return NotFoundError("unknown list " + std::to_string(lid));
  }
  return &entries_[lid];
}

StatusOr<const ListEntry*> ListTable::Lookup(Lid lid) const {
  if (!IsAllocated(lid)) {
    return NotFoundError("unknown list " + std::to_string(lid));
  }
  return &entries_[lid];
}

Status ListTable::Move(Lid lid, Lid new_pred) {
  if (!IsAllocated(lid)) {
    return NotFoundError("MoveList: unknown list " + std::to_string(lid));
  }
  if (new_pred == lid) {
    return InvalidArgumentError("MoveList: list cannot follow itself");
  }
  if (new_pred != kBeginOfListOfLists && !IsAllocated(new_pred)) {
    return NotFoundError("MoveList: unknown predecessor " + std::to_string(new_pred));
  }
  UnlinkFromLol(lid);
  LinkIntoLol(lid, new_pred);
  return OkStatus();
}

void ListTable::UnlinkFromLol(Lid lid) {
  ListEntry& e = entries_[lid];
  if (e.lol_prev() != kNilLid) {
    entries_[e.lol_prev()].set_lol_next(e.lol_next());
  } else if (lol_head_ == lid) {
    lol_head_ = e.lol_next();
  }
  if (e.lol_next() != kNilLid) {
    entries_[e.lol_next()].set_lol_prev(e.lol_prev());
  }
  e.set_lol_prev(kNilLid);
  e.set_lol_next(kNilLid);
}

void ListTable::LinkIntoLol(Lid lid, Lid pred) {
  ListEntry& e = entries_[lid];
  if (pred == kBeginOfListOfLists) {
    e.set_lol_prev(kNilLid);
    e.set_lol_next(lol_head_);
    if (lol_head_ != kNilLid) {
      entries_[lol_head_].set_lol_prev(lid);
    }
    lol_head_ = lid;
  } else {
    ListEntry& p = entries_[pred];
    e.set_lol_prev(pred);
    e.set_lol_next(p.lol_next());
    if (p.lol_next() != kNilLid) {
      entries_[p.lol_next()].set_lol_prev(lid);
    }
    p.set_lol_next(lid);
  }
}

ListEntry& ListTable::EnsureAllocated(Lid lid) {
  if (lid >= entries_.size()) {
    entries_.resize(lid + 1);
  }
  ListEntry& e = entries_[lid];
  if (!e.allocated()) {
    e.set_allocated(true);
    allocated_count_++;
  }
  return e;
}

void ListTable::ForceFree(Lid lid) {
  if (lid == kNilLid || lid >= entries_.size() || !entries_[lid].allocated()) {
    return;
  }
  entries_[lid] = ListEntry{};
  allocated_count_--;
}

void ListTable::RebuildFreeList() {
  free_lids_.clear();
  for (Lid lid = static_cast<Lid>(entries_.size()) - 1; lid >= 1; --lid) {
    if (!entries_[lid].allocated()) {
      free_lids_.push_back(lid);
    }
  }
}

void ListTable::RelinkListOfLists() {
  // Recovery restores only lol_next chains; rebuild prev pointers and find
  // the head (the allocated list no one points to).
  std::vector<bool> has_pred(entries_.size(), false);
  for (Lid lid = 1; lid < entries_.size(); ++lid) {
    if (!entries_[lid].allocated()) {
      continue;
    }
    entries_[lid].set_lol_prev(kNilLid);
    const Lid next = entries_[lid].lol_next();
    if (next != kNilLid && next < entries_.size() && entries_[next].allocated()) {
      has_pred[next] = true;
    }
  }
  lol_head_ = kNilLid;
  for (Lid lid = 1; lid < entries_.size(); ++lid) {
    if (!entries_[lid].allocated()) {
      continue;
    }
    const Lid next = entries_[lid].lol_next();
    if (next != kNilLid && next < entries_.size() && entries_[next].allocated()) {
      entries_[next].set_lol_prev(lid);
    } else {
      entries_[lid].set_lol_next(kNilLid);
    }
    if (!has_pred[lid] && lol_head_ == kNilLid) {
      lol_head_ = lid;
    }
  }
}

uint64_t ListTable::MemoryBytes() const {
  return entries_.capacity() * sizeof(ListEntry) + free_lids_.capacity() * sizeof(Lid);
}

void ListTable::Clear() {
  entries_.assign(1, ListEntry{});
  free_lids_.clear();
  lol_head_ = kNilLid;
  allocated_count_ = 0;
}

}  // namespace ld
