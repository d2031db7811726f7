// Direct unit tests for the MINIX buffer cache: LRU eviction, dirty
// write-back, flush ordering, clustering (both on sync and on eviction),
// discard semantics, the pending-read table (single-flight coalescing,
// cancellation, adoption), recycled read buffers, and a seeded differential
// test against a reference LRU model.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>

#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/minixfs/buffer_cache.h"
#include "src/util/random.h"

namespace ld {
namespace {

// A backing store that records the requests it receives.
struct Backing {
  std::map<uint32_t, std::vector<uint8_t>> blocks;
  std::vector<std::pair<uint32_t, uint32_t>> writes;  // (bno, count)
  uint32_t block_size = 512;
  uint32_t fail_writes = 0;  // The next this many writes fail.

  BufferCache Cache(uint32_t capacity) {
    return BufferCache(block_size, capacity, Submitter(), Waiter(), Writer());
  }

  BufferCache::WriteFn Writer() {
    return [this](uint32_t bno, uint32_t count, std::span<const uint8_t> data) {
      if (fail_writes > 0) {
        fail_writes--;
        return IoError("injected write failure");
      }
      writes.emplace_back(bno, count);
      for (uint32_t i = 0; i < count; ++i) {
        blocks[bno + i] = std::vector<uint8_t>(
            data.begin() + static_cast<size_t>(i) * block_size,
            data.begin() + static_cast<size_t>(i + 1) * block_size);
      }
      return OkStatus();
    };
  }

  // Reads follow the simulator's eager-data contract: bytes land in `out` at
  // submit time, only the completion (the wait) is deferred.
  uint32_t submits = 0;
  uint64_t next_token = 1;
  std::vector<uint64_t> waited;

  BufferCache::SubmitFn Submitter() {
    return [this](uint32_t bno, std::span<uint8_t> out) -> StatusOr<uint64_t> {
      submits++;
      auto it = blocks.find(bno);
      if (it == blocks.end()) {
        std::fill(out.begin(), out.end(), 0);
      } else {
        std::copy(it->second.begin(), it->second.end(), out.begin());
      }
      return next_token++;
    };
  }

  BufferCache::WaitFn Waiter() {
    return [this](uint64_t token) {
      waited.push_back(token);
      return OkStatus();
    };
  }
};

TEST(BufferCacheTest, HitsAndMisses) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  backing.blocks[5] = std::vector<uint8_t>(512, 0x42);
  auto block = cache.Get(5, /*load=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0x42);
  EXPECT_EQ(cache.misses(), 1u);
  (void)cache.Get(5, true);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(backing.submits, 1u);
}

TEST(BufferCacheTest, LoadFalseSkipsRead) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  auto block = cache.Get(3, /*load=*/false);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(backing.submits, 0u);
  EXPECT_EQ((*block)->data[0], 0);  // Zeroed.
}

TEST(BufferCacheTest, EvictionWritesBackDirtyInLruOrder) {
  Backing backing;
  BufferCache cache = backing.Cache(8);
  for (uint32_t bno = 0; bno < 8; ++bno) {
    auto block = cache.Get(bno, false);
    (*block)->data[0] = static_cast<uint8_t>(bno);
    cache.MarkDirty(*block);
  }
  // Touch block 0 so block 1 is the LRU victim.
  (void)cache.Get(0, true);
  (void)cache.Get(100, false);  // Forces one eviction.
  ASSERT_EQ(backing.writes.size(), 1u);
  EXPECT_EQ(backing.writes[0].first, 1u);
  EXPECT_EQ(backing.blocks[1][0], 1);
}

// A failed write-back leaves the victim cached, dirty and coldest, so the
// next eviction writes that same block first.
TEST(BufferCacheTest, FailedEvictionWriteBackKeepsVictimColdest) {
  for (bool cluster : {false, true}) {
    SCOPED_TRACE(cluster ? "clustered" : "single-block");
    Backing backing;
    BufferCache cache = backing.Cache(8);
    cache.set_cluster_writes(cluster);
    std::vector<std::shared_ptr<CacheBlock>> held;
    for (uint32_t bno = 0; bno < 8; ++bno) {
      auto block = cache.Get(bno, /*load=*/false);
      ASSERT_TRUE(block.ok());
      cache.MarkDirty(*block);
      held.push_back(*block);
    }
    backing.fail_writes = 1;
    auto failed = cache.Get(100, /*load=*/false);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), ErrorCode::kIoError);
    EXPECT_TRUE(backing.writes.empty());
    EXPECT_TRUE(cache.Contains(0));
    EXPECT_TRUE(held[0]->dirty);
    EXPECT_FALSE(cache.Contains(100));
    EXPECT_EQ(cache.size(), 8u);

    ASSERT_TRUE(cache.Get(101, /*load=*/false).ok());
    ASSERT_FALSE(backing.writes.empty());
    // Block 0 is still the coldest: it goes out first (with its dirty run
    // when clustering), and block 1 stays cached.
    EXPECT_EQ(backing.writes[0], (std::pair<uint32_t, uint32_t>{0, cluster ? 8 : 1}));
    EXPECT_FALSE(cache.Contains(0));
    EXPECT_FALSE(held[0]->dirty);
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_TRUE(cache.Contains(101));
    EXPECT_EQ(cache.size(), 8u);
  }
}

TEST(BufferCacheTest, CleanEvictionWritesNothing) {
  Backing backing;
  BufferCache cache = backing.Cache(4);
  for (uint32_t bno = 0; bno < 6; ++bno) {
    (void)cache.Get(bno, true);  // Clean blocks only.
  }
  EXPECT_TRUE(backing.writes.empty());
}

TEST(BufferCacheTest, FlushAllWritesAscending) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  for (uint32_t bno : {9u, 2u, 7u, 4u}) {
    auto block = cache.Get(bno, false);
    cache.MarkDirty(*block);
  }
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_EQ(backing.writes.size(), 4u);
  EXPECT_EQ(backing.writes[0].first, 2u);
  EXPECT_EQ(backing.writes[3].first, 9u);
  // Second flush: nothing dirty.
  backing.writes.clear();
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_TRUE(backing.writes.empty());
}

TEST(BufferCacheTest, ClusteringCoalescesAdjacentOnSync) {
  Backing backing;
  BufferCache cache = backing.Cache(32);
  cache.set_cluster_writes(true);
  cache.set_max_cluster_blocks(4);
  for (uint32_t bno : {10u, 11u, 12u, 13u, 14u, 20u}) {
    auto block = cache.Get(bno, false);
    (*block)->data[0] = static_cast<uint8_t>(bno);
    cache.MarkDirty(*block);
  }
  ASSERT_TRUE(cache.FlushAll().ok());
  // 10..13 as one 4-block cluster, 14 alone, 20 alone.
  ASSERT_EQ(backing.writes.size(), 3u);
  EXPECT_EQ(backing.writes[0], (std::pair<uint32_t, uint32_t>{10, 4}));
  EXPECT_EQ(backing.writes[1], (std::pair<uint32_t, uint32_t>{14, 1}));
  EXPECT_EQ(backing.writes[2], (std::pair<uint32_t, uint32_t>{20, 1}));
  EXPECT_EQ(backing.blocks[12][0], 12);
}

TEST(BufferCacheTest, ClusteringOnEvictionTakesNeighbors) {
  Backing backing;
  BufferCache cache = backing.Cache(8);
  cache.set_cluster_writes(true);
  cache.set_max_cluster_blocks(8);
  for (uint32_t bno = 0; bno < 8; ++bno) {
    auto block = cache.Get(bno, false);
    cache.MarkDirty(*block);
  }
  (void)cache.Get(50, false);  // Evicts bno 0 — and its whole dirty run.
  ASSERT_EQ(backing.writes.size(), 1u);
  EXPECT_EQ(backing.writes[0].first, 0u);
  EXPECT_EQ(backing.writes[0].second, 8u);
  // The neighbors are now clean: further evictions write nothing.
  (void)cache.Get(51, false);
  EXPECT_EQ(backing.writes.size(), 1u);
}

TEST(BufferCacheTest, DiscardDropsWithoutWriteback) {
  Backing backing;
  BufferCache cache = backing.Cache(8);
  auto block = cache.Get(5, false);
  (*block)->data[0] = 0x99;
  cache.MarkDirty(*block);
  cache.Discard(5);
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_TRUE(backing.writes.empty());
  EXPECT_FALSE(cache.Contains(5));
}

TEST(BufferCacheTest, InvalidateAllFlushesFirst) {
  Backing backing;
  BufferCache cache = backing.Cache(8);
  auto block = cache.Get(1, false);
  (*block)->data[0] = 0x11;
  cache.MarkDirty(*block);
  ASSERT_TRUE(cache.InvalidateAll().ok());
  EXPECT_EQ(backing.blocks[1][0], 0x11);
  EXPECT_EQ(cache.size(), 0u);
  // Next access re-reads.
  (void)cache.Get(1, true);
  EXPECT_EQ(backing.submits, 1u);
}

// --- Pending-read table ----------------------------------------------------

TEST(BufferCacheAsyncTest, TwoGetAsyncCallsCoalesceToOneDeviceRead) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  backing.blocks[4] = std::vector<uint8_t>(512, 0x4a);
  ASSERT_TRUE(cache.GetAsync(4, /*prefetch=*/true).ok());
  ASSERT_TRUE(cache.GetAsync(4, /*prefetch=*/true).ok());
  EXPECT_EQ(backing.submits, 1u);  // Single flight.
  EXPECT_EQ(cache.coalesced_reads(), 1u);
  EXPECT_EQ(cache.pending_reads(), 1u);
  auto block = cache.Get(4, /*load=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0x4a);
  EXPECT_EQ(backing.submits, 1u);
  EXPECT_EQ(cache.pending_reads(), 0u);
  EXPECT_EQ(cache.prefetch_hits(), 1u);  // The adopting lookup counts as one.
}

TEST(BufferCacheAsyncTest, DemandGetAdoptsPendingReadWithoutSecondSubmit) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  backing.blocks[9] = std::vector<uint8_t>(512, 0x77);
  ASSERT_TRUE(cache.GetAsync(9, /*prefetch=*/false).ok());
  auto block = cache.Get(9, /*load=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0x77);
  EXPECT_EQ(backing.submits, 1u);
  // The transfer was waited out exactly once, at adoption.
  ASSERT_EQ(backing.waited.size(), 1u);
  EXPECT_EQ(backing.waited[0], 1u);
}

TEST(BufferCacheAsyncTest, DiscardCancelsInFlightRead) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  backing.blocks[6] = std::vector<uint8_t>(512, 0x66);
  ASSERT_TRUE(cache.GetAsync(6, /*prefetch=*/true).ok());
  cache.Discard(6);
  // The in-flight transfer is waited out (the device did the work) but its
  // bytes never enter the cache, and the prefetch counts as wasted.
  EXPECT_EQ(cache.pending_reads(), 0u);
  EXPECT_FALSE(cache.Contains(6));
  ASSERT_EQ(backing.waited.size(), 1u);
  EXPECT_EQ(cache.prefetch_wasted(), 1u);
  // A later demand read starts over.
  auto block = cache.Get(6, /*load=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0x66);
  EXPECT_EQ(backing.submits, 2u);
}

TEST(BufferCacheAsyncTest, GetForOverwriteCancelsPendingRead) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  backing.blocks[8] = std::vector<uint8_t>(512, 0x88);
  ASSERT_TRUE(cache.GetAsync(8, /*prefetch=*/true).ok());
  // The caller overwrites the whole block: the in-flight bytes are dead.
  auto block = cache.Get(8, /*load=*/false);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0);  // Zeroed, not the stale media bytes.
  EXPECT_EQ(cache.pending_reads(), 0u);
  ASSERT_EQ(backing.waited.size(), 1u);
}

TEST(BufferCacheAsyncTest, EvictionPressureWithOutstandingReads) {
  Backing backing;
  BufferCache cache = backing.Cache(8);
  for (uint32_t bno = 100; bno < 106; ++bno) {
    backing.blocks[bno] = std::vector<uint8_t>(512, static_cast<uint8_t>(bno));
    ASSERT_TRUE(cache.GetAsync(bno, /*prefetch=*/true).ok());
  }
  EXPECT_EQ(cache.pending_reads(), 6u);
  // Churn the cache well past capacity while the reads are outstanding;
  // dirty blocks force write-back evictions around the pending table.
  for (uint32_t bno = 0; bno < 24; ++bno) {
    auto block = cache.Get(bno, /*load=*/false);
    ASSERT_TRUE(block.ok());
    cache.MarkDirty(*block);
  }
  EXPECT_EQ(cache.pending_reads(), 6u);  // Eviction never touches in-flight reads.
  for (uint32_t bno = 100; bno < 106; ++bno) {
    auto block = cache.Get(bno, /*load=*/true);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ((*block)->data[0], static_cast<uint8_t>(bno));
  }
  EXPECT_EQ(cache.pending_reads(), 0u);
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(backing.submits, 6u);
}

TEST(BufferCacheAsyncTest, InvalidateAllDrainsPendingReads) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  ASSERT_TRUE(cache.GetAsync(1, /*prefetch=*/true).ok());
  ASSERT_TRUE(cache.GetAsync(2, /*prefetch=*/false).ok());
  ASSERT_TRUE(cache.InvalidateAll().ok());
  EXPECT_EQ(cache.pending_reads(), 0u);
  EXPECT_EQ(backing.waited.size(), 2u);  // Both transfers waited out.
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(BufferCacheAsyncTest, DemandMissGoesThroughSubmitWait) {
  Backing backing;
  BufferCache cache = backing.Cache(16);
  backing.blocks[2] = std::vector<uint8_t>(512, 0x22);
  auto block = cache.Get(2, /*load=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0x22);
  EXPECT_EQ(backing.submits, 1u);
  ASSERT_EQ(backing.waited.size(), 1u);
}

// A read-ahead request for a block that is dirty in the cache must not
// replace the dirty copy: the cached bytes are newer than anything the media
// can supply, so GetAsync submits no read and FlushAll writes them back.
TEST(BufferCacheAsyncTest, GetAsyncOfDirtyBlockSubmitsNoRead) {
  Backing backing;
  BufferCache cache = backing.Cache(8);
  backing.blocks[7] = std::vector<uint8_t>(512, 0x00);
  auto block = cache.Get(7, /*load=*/false);
  ASSERT_TRUE(block.ok());
  (*block)->data[0] = 0x5e;
  cache.MarkDirty(*block);
  ASSERT_TRUE(cache.GetAsync(7, /*prefetch=*/true).ok());
  EXPECT_EQ(cache.pending_reads(), 0u);
  EXPECT_EQ(backing.submits, 0u);
  auto again = cache.Get(7, /*load=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->data[0], 0x5e);
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_EQ(backing.blocks[7][0], 0x5e);  // The dirty bytes reach the media.
}

// --- Recycled buffers ----------------------------------------------------------

// A block dropped while the cache held its only reference leaves its data
// vector for a later load to read into. A load that fails, at submit (a
// latent sector error on a FaultDisk) or at the wait, and a cancelled
// read-ahead must never let such a buffer's old bytes into the cache; and
// the counters of this fixed trace are those the cache gave before it
// recycled buffers.
TEST(BufferCacheTest, RecycledBuffersNeverExposeOldBytes) {
  constexpr uint32_t kBlockSize = 512;  // One sector per block.
  SimClock clock;
  MemDisk mem(256, kBlockSize, &clock);
  FaultDisk disk(&mem);
  auto media_byte = [](uint32_t bno) { return static_cast<uint8_t>(0x40 + bno); };
  for (uint32_t bno = 0; bno < 64; ++bno) {
    ASSERT_TRUE(disk.Write(bno, std::vector<uint8_t>(kBlockSize, media_byte(bno))).ok());
  }
  uint32_t fail_waits = 0;
  BufferCache cache(
      kBlockSize, 8,
      [&disk](uint32_t bno, std::span<uint8_t> out) -> StatusOr<uint64_t> {
        return disk.SubmitRead(bno, out);
      },
      [&disk, &fail_waits](uint64_t token) {
        Status s = disk.WaitFor(token);
        if (fail_waits > 0) {
          fail_waits--;
          return IoError("injected wait failure");
        }
        return s;
      },
      [&disk](uint32_t bno, uint32_t count, std::span<const uint8_t> data) {
        EXPECT_EQ(count, 1u);
        return disk.Write(bno, data);
      });
  // Each block the cache holds has all of its media bytes, or all zeros
  // for one got with load=false, and none of another block's.
  auto expect_block = [&](uint32_t bno, uint8_t byte) {
    auto block = cache.Get(bno, /*load=*/true);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ((*block)->data, std::vector<uint8_t>(kBlockSize, byte)) << "block " << bno;
  };

  for (uint32_t bno = 0; bno < 8; ++bno) {
    expect_block(bno, media_byte(bno));
  }
  cache.Discard(0);
  cache.Discard(1);

  // A latent error fails the load at submit: nothing is cached, and after
  // the sector is rewritten the next load reads it whole.
  disk.InjectLatentError(20);
  auto failed = cache.Get(20, /*load=*/true);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kIoError);
  EXPECT_FALSE(cache.Contains(20));
  ASSERT_TRUE(disk.Write(20, std::vector<uint8_t>(kBlockSize, 0x77)).ok());
  expect_block(20, 0x77);

  // A failed wait drops its buffer too.
  cache.Discard(2);
  fail_waits = 1;
  failed = cache.Get(21, /*load=*/true);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(cache.Contains(21));
  expect_block(21, media_byte(21));

  // Evictions of clean blocks leave spares; load=false gets zeros.
  for (uint32_t bno = 30; bno < 36; ++bno) {
    expect_block(bno, media_byte(bno));
  }
  auto fresh = cache.Get(40, /*load=*/false);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->data, std::vector<uint8_t>(kBlockSize, 0));

  // A read-ahead cancelled by an overwrite or a discard installs nothing:
  // the overwrite sees zeros, and a later load reads the media.
  cache.Discard(30);
  cache.Discard(31);
  ASSERT_TRUE(cache.GetAsync(41, /*prefetch=*/true).ok());
  auto overwrite = cache.Get(41, /*load=*/false);
  ASSERT_TRUE(overwrite.ok());
  EXPECT_EQ((*overwrite)->data, std::vector<uint8_t>(kBlockSize, 0));
  ASSERT_TRUE(cache.GetAsync(42, /*prefetch=*/true).ok());
  cache.Discard(42);
  EXPECT_FALSE(cache.Contains(42));
  expect_block(42, media_byte(42));

  // An adopted read-ahead holds its media bytes.
  ASSERT_TRUE(cache.GetAsync(43, /*prefetch=*/true).ok());
  expect_block(43, media_byte(43));
  for (uint32_t bno = 0; bno < 64; ++bno) {
    if (cache.Contains(bno)) {
      SCOPED_TRACE("block " + std::to_string(bno));
      expect_block(bno, bno == 20 ? 0x77 : bno == 40 || bno == 41 ? 0 : media_byte(bno));
    }
  }

  EXPECT_EQ(cache.hits(), 9u);
  EXPECT_EQ(cache.misses(), 21u);
  EXPECT_EQ(cache.prefetch_hits(), 1u);
  EXPECT_EQ(cache.prefetch_issued(), 3u);
  EXPECT_EQ(cache.prefetch_wasted(), 2u);
  EXPECT_EQ(cache.coalesced_reads(), 0u);
}

// --- Differential test against a reference LRU model ------------------------

// One backend call. A write carries the first byte of each block it writes,
// so the data that reaches the backend is compared too.
struct IoEvent {
  char kind = 0;  // 'S' submit, 'W' write.
  uint32_t bno = 0;
  uint32_t count = 0;
  std::vector<uint8_t> firsts;
  bool operator==(const IoEvent&) const = default;
};

std::ostream& operator<<(std::ostream& os, const IoEvent& e) {
  return os << e.kind << "(" << e.bno << "," << e.count << ")";
}

// A backend that keeps only each block's first byte and logs every call.
struct Recorder {
  static constexpr uint32_t kBlockSize = 64;
  std::map<uint32_t, uint8_t> media;
  std::vector<IoEvent> events;
  uint64_t next_token = 1;
  uint64_t waits = 0;

  uint8_t Submit(uint32_t bno) {
    events.push_back({'S', bno, 1, {}});
    auto it = media.find(bno);
    return it == media.end() ? 0 : it->second;
  }
  void Store(uint32_t bno, std::vector<uint8_t> firsts) {
    for (uint32_t i = 0; i < firsts.size(); ++i) {
      media[bno + i] = firsts[i];
    }
    events.push_back({'W', bno, static_cast<uint32_t>(firsts.size()), std::move(firsts)});
  }
};

// Reference LRU model built from standard containers: blocks in a map,
// recency in a std::list with an iterator map, pending reads in a map. It
// follows the cache's ordering contract (DESIGN.md, "Read path") for every
// backend call, counter and eviction.
class ModelCache {
 public:
  struct Block {
    uint32_t bno = 0;
    uint8_t first = 0;  // The block's data[0].
    bool dirty = false;
    bool prefetched = false;
    bool referenced = false;
  };
  using Ref = std::shared_ptr<Block>;

  // `immediate`: every submit completes at once (token 0), so nothing is
  // ever waited for.
  ModelCache(Recorder* rec, uint32_t capacity, bool immediate, bool cluster,
             uint32_t max_cluster)
      : rec_(rec), capacity_(capacity), immediate_(immediate), cluster_(cluster),
        max_cluster_(max_cluster) {}

  Ref Get(uint32_t bno, bool load) {
    if (auto it = blocks_.find(bno); it != blocks_.end()) {
      hits++;
      if (it->second->prefetched && !it->second->referenced) {
        prefetch_hits++;
      }
      it->second->referenced = true;
      Touch(bno);
      return it->second;
    }
    if (pending_.count(bno) != 0) {
      if (!load) {
        Cancel(bno);
      } else {
        return AdoptAndCount(bno);
      }
    }
    misses++;
    MakeRoom();
    auto block = std::make_shared<Block>();
    block->bno = bno;
    if (load) {
      block->first = rec_->Submit(bno);
      WaitOut();
    }
    block->referenced = true;
    blocks_[bno] = block;
    Touch(bno);
    return block;
  }

  void GetAsync(uint32_t bno, bool prefetch) {
    if (blocks_.count(bno) != 0) {
      return;
    }
    if (pending_.count(bno) != 0) {
      coalesced++;
      return;
    }
    pending_[bno] = PendingRead{rec_->Submit(bno), prefetch};
    if (prefetch) {
      prefetch_issued++;
    }
  }

  void FlushAll() {
    std::vector<uint32_t> dirty;  // std::map iterates in ascending bno.
    for (const auto& [bno, block] : blocks_) {
      if (block->dirty) {
        dirty.push_back(bno);
      }
    }
    size_t i = 0;
    while (i < dirty.size()) {
      size_t j = i + 1;
      while (cluster_ && j < dirty.size() && dirty[j] == dirty[j - 1] + 1 &&
             j - i < max_cluster_) {
        ++j;
      }
      WriteRun(dirty[i], static_cast<uint32_t>(j - i));
      i = j;
    }
  }

  void InvalidateAll() {
    while (!pending_.empty()) {
      Cancel(pending_.begin()->first);
    }
    FlushAll();
    for (const auto& [bno, block] : blocks_) {
      NoteDropped(*block);
    }
    blocks_.clear();
    lru_.clear();
    pos_.clear();
  }

  void Discard(uint32_t bno) {
    Cancel(bno);
    auto it = blocks_.find(bno);
    if (it == blocks_.end()) {
      return;
    }
    NoteDropped(*it->second);
    blocks_.erase(it);
    lru_.erase(pos_.at(bno));
    pos_.erase(bno);
  }

  bool Contains(uint32_t bno) const { return blocks_.count(bno) != 0; }
  bool Pending(uint32_t bno) const { return pending_.count(bno) != 0; }
  size_t size() const { return blocks_.size(); }
  size_t pending_reads() const { return pending_.size(); }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t coalesced = 0;

 private:
  struct PendingRead {
    uint8_t first = 0;
    bool prefetch = false;
  };

  void WaitOut() {
    if (!immediate_) {
      rec_->waits++;
    }
  }

  void Touch(uint32_t bno) {
    if (auto pos = pos_.find(bno); pos != pos_.end()) {
      lru_.erase(pos->second);
    }
    lru_.push_front(bno);
    pos_[bno] = lru_.begin();
  }

  void NoteDropped(const Block& block) {
    if (block.prefetched && !block.referenced) {
      prefetch_wasted++;
    }
  }

  void Cancel(uint32_t bno) {
    auto it = pending_.find(bno);
    if (it == pending_.end()) {
      return;
    }
    if (it->second.prefetch) {
      prefetch_wasted++;
    }
    pending_.erase(it);
    WaitOut();
  }

  Ref AdoptAndCount(uint32_t bno) {
    const PendingRead p = pending_.at(bno);
    pending_.erase(bno);
    WaitOut();
    MakeRoom();
    auto block = std::make_shared<Block>();
    block->bno = bno;
    block->first = p.first;
    block->prefetched = p.prefetch;
    blocks_[bno] = block;
    Touch(bno);
    if (block->prefetched) {
      hits++;
      prefetch_hits++;
    } else {
      misses++;
    }
    block->referenced = true;
    return block;
  }

  void WriteRun(uint32_t first, uint32_t count) {
    std::vector<uint8_t> firsts;
    for (uint32_t i = 0; i < count; ++i) {
      firsts.push_back(blocks_.at(first + i)->first);
    }
    rec_->Store(first, std::move(firsts));
    for (uint32_t i = 0; i < count; ++i) {
      blocks_.at(first + i)->dirty = false;
    }
  }

  bool DirtyAt(uint32_t bno) const {
    auto it = blocks_.find(bno);
    return it != blocks_.end() && it->second->dirty;
  }

  void MakeRoom() {
    while (blocks_.size() >= capacity_) {
      const uint32_t victim = lru_.back();
      lru_.pop_back();
      pos_.erase(victim);
      Ref& block = blocks_.at(victim);
      if (block->dirty && !cluster_) {
        WriteRun(victim, 1);
      } else if (block->dirty) {
        uint32_t first = victim;
        while (first > 0 && victim - (first - 1) < max_cluster_ && DirtyAt(first - 1)) {
          first--;
        }
        uint32_t last = victim;
        while (last + 1 - first < max_cluster_ && DirtyAt(last + 1)) {
          last++;
        }
        WriteRun(first, last - first + 1);
      }
      NoteDropped(*block);
      blocks_.erase(victim);
    }
  }

  Recorder* rec_;
  uint32_t capacity_;
  bool immediate_;
  bool cluster_;
  uint32_t max_cluster_;
  std::map<uint32_t, Ref> blocks_;
  std::list<uint32_t> lru_;  // Front = most recent.
  std::map<uint32_t, std::list<uint32_t>::iterator> pos_;
  std::map<uint32_t, PendingRead> pending_;
};

// Random Get/GetAsync/MarkDirty/Discard/FlushAll/InvalidateAll streams
// must give the same backend calls, counters and contents as the model, both
// when submits queue (a token to wait for) and when they complete at once
// (token 0, as LdBackend reports holes, open-segment and compressed blocks).
TEST(BufferCacheTest, MatchesReferenceLruModel) {
  constexpr uint32_t kMaxCluster = 4;
  uint64_t seed = 0;
  for (uint32_t capacity : {8u, 11u, 16u}) {
    for (bool cluster : {false, true}) {
      for (bool immediate : {false, true}) {
        seed++;
        SCOPED_TRACE("capacity " + std::to_string(capacity) + (cluster ? " clustered" : "") +
                     (immediate ? " token 0" : " queued"));
        Recorder real_rec;
        Recorder model_rec;
        BufferCache cache(
            Recorder::kBlockSize, capacity,
            [&real_rec, immediate](uint32_t bno, std::span<uint8_t> out) -> StatusOr<uint64_t> {
              std::fill(out.begin(), out.end(), 0);
              out[0] = real_rec.Submit(bno);
              return immediate ? 0 : real_rec.next_token++;
            },
            [&real_rec](uint64_t token) {
              EXPECT_NE(token, 0u);
              real_rec.waits++;
              return OkStatus();
            },
            [&real_rec](uint32_t bno, uint32_t count, std::span<const uint8_t> data) {
              std::vector<uint8_t> firsts;
              for (uint32_t i = 0; i < count; ++i) {
                firsts.push_back(data[static_cast<size_t>(i) * Recorder::kBlockSize]);
              }
              real_rec.Store(bno, std::move(firsts));
              return OkStatus();
            });
        cache.set_cluster_writes(cluster);
        cache.set_max_cluster_blocks(kMaxCluster);
        ModelCache model(&model_rec, capacity, immediate, cluster, kMaxCluster);

        Rng rng(seed);
        const uint32_t universe = capacity * 3;
        std::shared_ptr<CacheBlock> held;
        ModelCache::Ref held_model;
        for (int op = 0; op < 3000; ++op) {
          SCOPED_TRACE("op " + std::to_string(op));
          const uint32_t bno = static_cast<uint32_t>(rng.Below(universe));
          const uint64_t pick = rng.Below(100);
          const bool flag = rng.Chance(0.6);  // Get's `load`, GetAsync's `prefetch`.
          const auto byte = static_cast<uint8_t>(rng.Next());
          if (pick < 50) {
            const bool load = pick >= 40 || flag;
            auto got = cache.Get(bno, load);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            held = *got;
            held_model = model.Get(bno, load);
            ASSERT_EQ(held->data[0], held_model->first);
          } else if (pick < 65) {
            ASSERT_TRUE(cache.GetAsync(bno, flag).ok());
            model.GetAsync(bno, flag);
          } else if (pick < 85) {
            if (held != nullptr) {
              held->data[0] = byte;
              cache.MarkDirty(held);
              held_model->first = byte;
              held_model->dirty = true;
            }
          } else if (pick < 93) {
            cache.Discard(bno);
            model.Discard(bno);
          } else if (pick < 98) {
            ASSERT_TRUE(cache.FlushAll().ok());
            model.FlushAll();
          } else {
            ASSERT_TRUE(cache.InvalidateAll().ok());
            model.InvalidateAll();
          }
          ASSERT_EQ(real_rec.events, model_rec.events);
          real_rec.events.clear();
          model_rec.events.clear();
          ASSERT_EQ(real_rec.waits, model_rec.waits);
          ASSERT_EQ(cache.hits(), model.hits);
          ASSERT_EQ(cache.misses(), model.misses);
          ASSERT_EQ(cache.prefetch_hits(), model.prefetch_hits);
          ASSERT_EQ(cache.prefetch_issued(), model.prefetch_issued);
          ASSERT_EQ(cache.prefetch_wasted(), model.prefetch_wasted);
          ASSERT_EQ(cache.coalesced_reads(), model.coalesced);
          ASSERT_EQ(cache.size(), model.size());
          ASSERT_EQ(cache.pending_reads(), model.pending_reads());
          for (uint32_t b = 0; b < universe; ++b) {
            ASSERT_EQ(cache.Contains(b), model.Contains(b)) << "bno " << b;
            ASSERT_EQ(cache.Pending(b), model.Pending(b)) << "bno " << b;
          }
        }
        EXPECT_GT(cache.hits(), 0u);
        EXPECT_GT(cache.prefetch_wasted(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace ld
