#include "src/minixfs/buffer_cache.h"

#include <algorithm>
#include <iterator>

namespace ld {

BufferCache::BufferCache(uint32_t block_size, uint32_t capacity_blocks, ReadFn read, WriteFn write)
    : block_size_(block_size),
      capacity_(std::max(capacity_blocks, 8u)),
      read_(std::move(read)),
      write_(std::move(write)) {}

void BufferCache::SetAsyncBackend(SubmitFn submit, WaitFn wait) {
  submit_ = std::move(submit);
  wait_ = std::move(wait);
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

void BufferCache::Touch(uint32_t bno) {
  auto pos = lru_pos_.find(bno);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
  }
  lru_.push_front(bno);
  lru_pos_[bno] = lru_.begin();
}

Status BufferCache::EvictOne() {
  if (lru_.empty()) {
    return OkStatus();
  }
  const uint32_t victim = lru_.back();
  lru_.pop_back();
  lru_pos_.erase(victim);
  auto it = blocks_.find(victim);
  if (it != blocks_.end()) {
    if (it->second->dirty) {
      const Status written = cluster_writes_ ? WriteClusterAround(victim)
                                             : write_(victim, 1, it->second->data);
      if (!written.ok()) {
        // Put the victim back at the cold end: dropping it from the LRU
        // while it stays in blocks_ would orphan the dirty block (its data
        // could never be written out or evicted again).
        lru_.push_back(victim);
        lru_pos_[victim] = std::prev(lru_.end());
        return written;
      }
      it->second->dirty = false;
    }
    NoteDropped(*it->second);
    blocks_.erase(it);
  }
  return OkStatus();
}

Status BufferCache::WriteClusterAround(uint32_t bno) {
  // FFS-style clustering: when a dirty block must go out, take its whole run
  // of cached adjacent dirty blocks with it in one request.
  uint32_t first = bno;
  while (first > 0 && bno - (first - 1) < max_cluster_blocks_) {
    auto it = blocks_.find(first - 1);
    if (it == blocks_.end() || !it->second->dirty) {
      break;
    }
    first--;
  }
  uint32_t last = bno;
  while (last + 1 - first < max_cluster_blocks_) {
    auto it = blocks_.find(last + 1);
    if (it == blocks_.end() || !it->second->dirty) {
      break;
    }
    last++;
  }
  const uint32_t count = last - first + 1;
  if (count == 1) {
    auto& block = blocks_[bno];
    RETURN_IF_ERROR(write_(bno, 1, block->data));
    block->dirty = false;
    return OkStatus();
  }
  std::vector<uint8_t> cluster(static_cast<size_t>(count) * block_size_);
  for (uint32_t i = 0; i < count; ++i) {
    auto& block = blocks_[first + i];
    std::copy(block->data.begin(), block->data.end(),
              cluster.begin() + static_cast<size_t>(i) * block_size_);
  }
  RETURN_IF_ERROR(write_(first, count, cluster));
  for (uint32_t i = 0; i < count; ++i) {
    blocks_[first + i]->dirty = false;
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
  if (wait_ && token != 0) {
    RETURN_IF_ERROR(wait_(token));
  }
  return OkStatus();
}

StatusOr<std::shared_ptr<CacheBlock>> BufferCache::AdoptPending(uint32_t bno) {
  auto it = pending_.find(bno);
  PendingRead p = std::move(it->second);
  // Drop the table entry before waiting: eviction triggered below must not
  // see a stale pending record for a block that is materializing.
  pending_.erase(it);
  if (wait_ && p.token != 0) {
    RETURN_IF_ERROR(wait_(p.token));
  }
  while (blocks_.size() >= capacity_) {
    RETURN_IF_ERROR(EvictOne());
  }
  auto block = std::make_shared<CacheBlock>();
  block->bno = bno;
  block->data = std::move(p.data);
  block->prefetched = p.prefetch;
  blocks_[bno] = block;
  Touch(bno);
  return block;
}

StatusOr<std::shared_ptr<CacheBlock>> BufferCache::Get(uint32_t bno, bool load) {
  auto it = blocks_.find(bno);
  if (it != blocks_.end()) {
    hits_++;
    if (it->second->prefetched && !it->second->referenced) {
      prefetch_hits_++;
    }
    it->second->referenced = true;
    Touch(bno);
    return it->second;
  }
  if (pending_.count(bno) != 0) {
    if (!load) {
      // The caller overwrites the whole block: the in-flight bytes are dead.
      RETURN_IF_ERROR(CancelPending(bno));
    } else {
      auto adopted = AdoptPending(bno);
      if (adopted.ok()) {
        if (adopted.value()->prefetched) {
          hits_++;
          prefetch_hits_++;
        } else {
          misses_++;
        }
        adopted.value()->referenced = true;
      }
      return adopted;
    }
  }
  misses_++;
  while (blocks_.size() >= capacity_) {
    RETURN_IF_ERROR(EvictOne());
  }
  auto block = std::make_shared<CacheBlock>();
  block->bno = bno;
  block->data.assign(block_size_, 0);
  if (load) {
    if (submit_) {
      // Submit + wait: identical service time to a synchronous read for a
      // single outstanding request, but queued behind (and merged with) any
      // read-ahead already in flight.
      ASSIGN_OR_RETURN(uint64_t token, submit_(bno, block->data));
      if (wait_ && token != 0) {
        RETURN_IF_ERROR(wait_(token));
      }
    } else {
      RETURN_IF_ERROR(read_(bno, block->data));
    }
  }
  block->referenced = true;
  blocks_[bno] = block;
  Touch(bno);
  return block;
}

Status BufferCache::GetAsync(uint32_t bno, bool prefetch) {
  if (blocks_.count(bno) != 0) {
    return OkStatus();
  }
  if (pending_.count(bno) != 0) {
    // Single flight: the second request coalesces onto the first.
    coalesced_reads_++;
    return OkStatus();
  }
  PendingRead p;
  p.data.assign(block_size_, 0);
  p.prefetch = prefetch;
  if (submit_) {
    ASSIGN_OR_RETURN(p.token, submit_(bno, p.data));
  } else {
    RETURN_IF_ERROR(read_(bno, p.data));
  }
  if (prefetch) {
    prefetch_issued_++;
  }
  pending_.emplace(bno, std::move(p));
  return OkStatus();
}

StatusOr<std::shared_ptr<CacheBlock>> BufferCache::Wait(uint32_t bno) {
  if (blocks_.count(bno) != 0 || pending_.count(bno) == 0) {
    return Get(bno, /*load=*/true);
  }
  auto adopted = AdoptPending(bno);
  if (adopted.ok()) {
    if (adopted.value()->prefetched) {
      hits_++;
      prefetch_hits_++;
    } else {
      misses_++;
    }
    adopted.value()->referenced = true;
  }
  return adopted;
}

Status BufferCache::FlushAll() {
  std::vector<uint32_t> dirty;
  dirty.reserve(blocks_.size());
  for (const auto& [bno, block] : blocks_) {
    if (block->dirty) {
      dirty.push_back(bno);
    }
  }
  std::sort(dirty.begin(), dirty.end());

  if (!cluster_writes_) {
    for (uint32_t bno : dirty) {
      auto& block = blocks_[bno];
      RETURN_IF_ERROR(write_(bno, 1, block->data));
      block->dirty = false;
    }
    return OkStatus();
  }

  // Coalesce runs of adjacent dirty blocks into single requests.
  size_t i = 0;
  std::vector<uint8_t> cluster;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1 &&
           j - i < max_cluster_blocks_) {
      ++j;
    }
    const uint32_t count = static_cast<uint32_t>(j - i);
    if (count == 1) {
      auto& block = blocks_[dirty[i]];
      RETURN_IF_ERROR(write_(dirty[i], 1, block->data));
      block->dirty = false;
    } else {
      cluster.resize(static_cast<size_t>(count) * block_size_);
      for (uint32_t k = 0; k < count; ++k) {
        auto& block = blocks_[dirty[i + k]];
        std::copy(block->data.begin(), block->data.end(),
                  cluster.begin() + static_cast<size_t>(k) * block_size_);
      }
      RETURN_IF_ERROR(write_(dirty[i], count, cluster));
      for (uint32_t k = 0; k < count; ++k) {
        blocks_[dirty[i + k]]->dirty = false;
      }
    }
    i = j;
  }
  return OkStatus();
}

Status BufferCache::InvalidateAll() {
  while (!pending_.empty()) {
    RETURN_IF_ERROR(CancelPending(pending_.begin()->first));
  }
  RETURN_IF_ERROR(FlushAll());
  for (const auto& [bno, block] : blocks_) {
    NoteDropped(*block);
  }
  blocks_.clear();
  lru_.clear();
  lru_pos_.clear();
  return OkStatus();
}

void BufferCache::Discard(uint32_t bno) {
  (void)CancelPending(bno);
  auto it = blocks_.find(bno);
  if (it == blocks_.end()) {
    return;
  }
  NoteDropped(*it->second);
  blocks_.erase(it);
  auto pos = lru_pos_.find(bno);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }
}

}  // namespace ld
