#include "src/minixfs/buffer_cache.h"

#include <algorithm>
#include <bit>

namespace ld {

BufferCache::BufferCache(uint32_t block_size, uint32_t capacity_blocks, SubmitFn submit,
                         WaitFn wait, WriteFn write)
    : block_size_(block_size),
      capacity_(std::max(capacity_blocks, 8u)),
      submit_(std::move(submit)),
      wait_(std::move(wait)),
      write_(std::move(write)),
      entries_(capacity_),
      index_(std::bit_ceil(2 * static_cast<uint64_t>(capacity_))),
      index_shift_(64 - std::countr_zero(index_.size())) {
  Clear();
}

void BufferCache::ResetCounters() {
  hits_ = 0;
  misses_ = 0;
  prefetch_hits_ = 0;
  prefetch_issued_ = 0;
  prefetch_wasted_ = 0;
  coalesced_reads_ = 0;
}

void BufferCache::NoteDropped(const CacheBlock& block) {
  if (block.prefetched && !block.referenced) {
    prefetch_wasted_++;
  }
}

// ---- Index and LRU chain -----------------------------------------------------

uint32_t BufferCache::Home(uint32_t bno) const {
  // Fibonacci hashing: the top bits of the product spread runs of
  // consecutive block numbers over the table.
  return static_cast<uint32_t>((bno * 0x9e3779b97f4a7c15ull) >> index_shift_);
}

uint32_t BufferCache::Find(uint32_t bno) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = Home(bno);; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.entry == kNil || slot.bno == bno) {
      return slot.entry;
    }
  }
}

CacheBlock* BufferCache::Lookup(uint32_t bno) const {
  const uint32_t e = Find(bno);
  return e == kNil ? nullptr : entries_[e].block.get();
}

void BufferCache::Unlink(uint32_t e) {
  Entry& entry = entries_[e];
  (entry.prev == kNil ? head_ : entries_[entry.prev].next) = entry.next;
  (entry.next == kNil ? tail_ : entries_[entry.next].prev) = entry.prev;
  entry.prev = kNil;
  entry.next = kNil;
}

void BufferCache::LinkFront(uint32_t e) {
  entries_[e].next = head_;
  (head_ == kNil ? tail_ : entries_[head_].prev) = e;
  head_ = e;
}

void BufferCache::Insert(std::shared_ptr<CacheBlock> block) {
  const uint32_t e = free_entries_.back();
  free_entries_.pop_back();
  const size_t mask = index_.size() - 1;
  size_t i = Home(block->bno);
  while (index_[i].entry != kNil) {
    i = (i + 1) & mask;
  }
  index_[i] = IndexSlot{block->bno, e};
  entries_[e].block = std::move(block);
  LinkFront(e);
}

void BufferCache::Erase(uint32_t e) {
  const size_t mask = index_.size() - 1;
  const uint32_t bno = entries_[e].block->bno;
  size_t hole = Home(bno);
  while (index_[hole].entry != e) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later slot of the probe run whose
  // home is not in (hole, j] into the hole, so no tombstones build up.
  for (size_t j = (hole + 1) & mask; index_[j].entry != kNil; j = (j + 1) & mask) {
    if (((j - Home(index_[j].bno)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].entry = kNil;
  Unlink(e);
  std::shared_ptr<CacheBlock>& block = entries_[e].block;
  if (block.use_count() == 1 && spare_buffers_.size() < kMaxSpareBuffers) {
    spare_buffers_.push_back(std::move(block->data));
  }
  block.reset();
  free_entries_.push_back(e);
}

std::vector<uint8_t> BufferCache::TakeBuffer(bool for_read) {
  if (spare_buffers_.empty()) {
    return std::vector<uint8_t>(block_size_, 0);
  }
  std::vector<uint8_t> buffer = std::move(spare_buffers_.back());
  spare_buffers_.pop_back();
#ifdef NDEBUG
  constexpr bool kPoisonReads = false;
#else
  // A read that leaves part of its buffer unwritten then shows wrong bytes,
  // not another block's plausible ones.
  constexpr bool kPoisonReads = true;
#endif
  if (!for_read) {
    std::fill(buffer.begin(), buffer.end(), 0);
  } else if (kPoisonReads) {
    std::fill(buffer.begin(), buffer.end(), 0xa5);
  }
  return buffer;
}

void BufferCache::Clear() {
  for (Entry& entry : entries_) {
    entry = Entry{};
  }
  std::fill(index_.begin(), index_.end(), IndexSlot{});
  free_entries_.clear();
  for (uint32_t e = capacity_; e-- > 0;) {
    free_entries_.push_back(e);
  }
  head_ = kNil;
  tail_ = kNil;
}

// ---- Eviction and write-back ---------------------------------------------------

Status BufferCache::EvictOne() {
  if (tail_ == kNil) {
    return OkStatus();
  }
  const uint32_t victim = tail_;
  CacheBlock& block = *entries_[victim].block;
  if (block.dirty) {
    // A failed write-back leaves the victim where it is: cached, dirty and
    // coldest, so the next eviction tries it first.
    if (cluster_writes_) {
      RETURN_IF_ERROR(WriteClusterAround(block.bno));
    } else {
      CacheBlock* run[] = {&block};
      RETURN_IF_ERROR(WriteRun(run));
    }
  }
  NoteDropped(block);
  Erase(victim);
  return OkStatus();
}

Status BufferCache::WriteClusterAround(uint32_t bno) {
  // FFS-style clustering: when a dirty block must go out, take its whole run
  // of cached adjacent dirty blocks with it in one request.
  auto dirty_at = [this](uint32_t b) {
    const CacheBlock* block = Lookup(b);
    return block != nullptr && block->dirty;
  };
  uint32_t first = bno;
  while (first > 0 && bno - (first - 1) < max_cluster_blocks_ && dirty_at(first - 1)) {
    first--;
  }
  uint32_t last = bno;
  while (last + 1 - first < max_cluster_blocks_ && dirty_at(last + 1)) {
    last++;
  }
  std::vector<CacheBlock*> run;
  for (uint32_t b = first; b <= last; ++b) {
    run.push_back(Lookup(b));
  }
  return WriteRun(run);
}

Status BufferCache::WriteRun(std::span<CacheBlock* const> run) {
  const uint32_t first = run.front()->bno;
  const auto count = static_cast<uint32_t>(run.size());
  if (count == 1) {
    RETURN_IF_ERROR(write_(first, 1, run.front()->data));
  } else {
    std::vector<uint8_t> cluster(static_cast<size_t>(count) * block_size_);
    for (uint32_t i = 0; i < count; ++i) {
      std::copy(run[i]->data.begin(), run[i]->data.end(),
                cluster.begin() + static_cast<size_t>(i) * block_size_);
    }
    RETURN_IF_ERROR(write_(first, count, cluster));
  }
  for (CacheBlock* block : run) {
    block->dirty = false;
  }
  return OkStatus();
}

Status BufferCache::CancelPending(uint32_t bno) {
  auto it = pending_.find(bno);
  if (it == pending_.end()) {
    return OkStatus();
  }
  const uint64_t token = it->second.token;
  const bool was_prefetch = it->second.prefetch;
  pending_.erase(it);
  if (was_prefetch) {
    prefetch_wasted_++;
  }
  // The device already did (or scheduled) the transfer; waiting it out
  // charges that cost even though the bytes die here. A completion must
  // never install data for a cancelled read.
  return WaitOut(token);
}

StatusOr<std::shared_ptr<CacheBlock>> BufferCache::AdoptPending(uint32_t bno) {
  auto it = pending_.find(bno);
  PendingRead p = std::move(it->second);
  // Drop the table entry before waiting: eviction triggered below must not
  // see a stale pending record for a block that is materializing.
  pending_.erase(it);
  RETURN_IF_ERROR(WaitOut(p.token));
  while (size() >= capacity_) {
    RETURN_IF_ERROR(EvictOne());
  }
  auto block = std::make_shared<CacheBlock>();
  block->bno = bno;
  block->data = std::move(p.data);
  block->prefetched = p.prefetch;
  block->referenced = true;
  // A read-ahead fill serves this lookup as a hit; a demand fill is the miss
  // that started it.
  if (p.prefetch) {
    hits_++;
    prefetch_hits_++;
  } else {
    misses_++;
  }
  Insert(block);
  return block;
}

StatusOr<std::shared_ptr<CacheBlock>> BufferCache::Get(uint32_t bno, bool load) {
  if (const uint32_t e = Find(bno); e != kNil) {
    CacheBlock& block = *entries_[e].block;
    hits_++;
    if (block.prefetched && !block.referenced) {
      prefetch_hits_++;
    }
    block.referenced = true;
    Unlink(e);
    LinkFront(e);
    return entries_[e].block;
  }
  if (pending_.count(bno) != 0) {
    if (load) {
      return AdoptPending(bno);
    }
    // The caller overwrites the whole block: the in-flight bytes are dead.
    RETURN_IF_ERROR(CancelPending(bno));
  }
  misses_++;
  while (size() >= capacity_) {
    RETURN_IF_ERROR(EvictOne());
  }
  auto block = std::make_shared<CacheBlock>();
  block->bno = bno;
  block->data = TakeBuffer(/*for_read=*/load);
  if (load) {
    // Submit + wait: the service time of a synchronous read for a single
    // outstanding request, but queued behind (and merged with) any
    // read-ahead already in flight.
    ASSIGN_OR_RETURN(uint64_t token, submit_(bno, block->data));
    RETURN_IF_ERROR(WaitOut(token));
  }
  block->referenced = true;
  Insert(block);
  return block;
}

Status BufferCache::GetAsync(uint32_t bno, bool prefetch) {
  if (Contains(bno)) {
    return OkStatus();
  }
  if (pending_.count(bno) != 0) {
    // Single flight: the second request coalesces onto the first.
    coalesced_reads_++;
    return OkStatus();
  }
  PendingRead p;
  p.data = TakeBuffer(/*for_read=*/true);
  p.prefetch = prefetch;
  ASSIGN_OR_RETURN(p.token, submit_(bno, p.data));
  if (prefetch) {
    prefetch_issued_++;
  }
  pending_.emplace(bno, std::move(p));
  return OkStatus();
}

Status BufferCache::FlushAll() {
  std::vector<CacheBlock*> dirty;
  for (uint32_t e = head_; e != kNil; e = entries_[e].next) {
    if (entries_[e].block->dirty) {
      dirty.push_back(entries_[e].block.get());
    }
  }
  // Ascending block order, whatever the chain's order.
  std::sort(dirty.begin(), dirty.end(),
            [](const CacheBlock* a, const CacheBlock* b) { return a->bno < b->bno; });
  // One request per block, or per run of adjacent blocks when clustering.
  size_t i = 0;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (cluster_writes_ && j < dirty.size() && dirty[j]->bno == dirty[j - 1]->bno + 1 &&
           j - i < max_cluster_blocks_) {
      ++j;
    }
    RETURN_IF_ERROR(WriteRun(std::span(dirty).subspan(i, j - i)));
    i = j;
  }
  return OkStatus();
}

Status BufferCache::InvalidateAll() {
  while (!pending_.empty()) {
    RETURN_IF_ERROR(CancelPending(pending_.begin()->first));
  }
  RETURN_IF_ERROR(FlushAll());
  for (uint32_t e = head_; e != kNil; e = entries_[e].next) {
    NoteDropped(*entries_[e].block);
  }
  Clear();
  return OkStatus();
}

void BufferCache::Discard(uint32_t bno) {
  (void)CancelPending(bno);
  const uint32_t e = Find(bno);
  if (e == kNil) {
    return;
  }
  NoteDropped(*entries_[e].block);
  Erase(e);
}

}  // namespace ld
