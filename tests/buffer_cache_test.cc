// Direct unit tests for the MINIX buffer cache: LRU eviction, dirty
// write-back, flush ordering, clustering (both on sync and on eviction),
// discard semantics, and the pending-read table (single-flight coalescing,
// cancellation, adoption).

#include <gtest/gtest.h>

#include <map>

#include "src/minixfs/buffer_cache.h"

namespace ld {
namespace {

// A backing store that records the write requests it receives.
struct Backing {
  std::map<uint32_t, std::vector<uint8_t>> blocks;
  std::vector<std::pair<uint32_t, uint32_t>> writes;  // (bno, count)
  uint32_t reads = 0;
  uint32_t block_size = 512;

  BufferCache::ReadFn Reader() {
    return [this](uint32_t bno, std::span<uint8_t> out) {
      reads++;
      auto it = blocks.find(bno);
      if (it == blocks.end()) {
        std::fill(out.begin(), out.end(), 0);
      } else {
        std::copy(it->second.begin(), it->second.end(), out.begin());
      }
      return OkStatus();
    };
  }

  BufferCache::WriteFn Writer() {
    return [this](uint32_t bno, uint32_t count, std::span<const uint8_t> data) {
      writes.emplace_back(bno, count);
      for (uint32_t i = 0; i < count; ++i) {
        blocks[bno + i] = std::vector<uint8_t>(
            data.begin() + static_cast<size_t>(i) * block_size,
            data.begin() + static_cast<size_t>(i + 1) * block_size);
      }
      return OkStatus();
    };
  }

  // Async backend following the simulator's eager-data contract: bytes land
  // in `out` at submit time, only the completion (the wait) is deferred.
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
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
  backing.blocks[5] = std::vector<uint8_t>(512, 0x42);
  auto block = cache.Get(5, /*load=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0x42);
  EXPECT_EQ(cache.misses(), 1u);
  (void)cache.Get(5, true);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(backing.reads, 1u);
}

TEST(BufferCacheTest, LoadFalseSkipsRead) {
  Backing backing;
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
  auto block = cache.Get(3, /*load=*/false);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(backing.reads, 0u);
  EXPECT_EQ((*block)->data[0], 0);  // Zeroed.
}

TEST(BufferCacheTest, EvictionWritesBackDirtyInLruOrder) {
  Backing backing;
  BufferCache cache(512, 8, backing.Reader(), backing.Writer());
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

TEST(BufferCacheTest, CleanEvictionWritesNothing) {
  Backing backing;
  BufferCache cache(512, 4, backing.Reader(), backing.Writer());
  for (uint32_t bno = 0; bno < 6; ++bno) {
    (void)cache.Get(bno, true);  // Clean blocks only.
  }
  EXPECT_TRUE(backing.writes.empty());
}

TEST(BufferCacheTest, FlushAllWritesAscending) {
  Backing backing;
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
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
  BufferCache cache(512, 32, backing.Reader(), backing.Writer());
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
  BufferCache cache(512, 8, backing.Reader(), backing.Writer());
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
  BufferCache cache(512, 8, backing.Reader(), backing.Writer());
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
  BufferCache cache(512, 8, backing.Reader(), backing.Writer());
  auto block = cache.Get(1, false);
  (*block)->data[0] = 0x11;
  cache.MarkDirty(*block);
  ASSERT_TRUE(cache.InvalidateAll().ok());
  EXPECT_EQ(backing.blocks[1][0], 0x11);
  EXPECT_EQ(cache.size(), 0u);
  // Next access re-reads.
  (void)cache.Get(1, true);
  EXPECT_EQ(backing.reads, 1u);
}

// --- Pending-read table ----------------------------------------------------

TEST(BufferCacheAsyncTest, TwoGetAsyncCallsCoalesceToOneDeviceRead) {
  Backing backing;
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
  cache.SetAsyncBackend(backing.Submitter(), backing.Waiter());
  backing.blocks[4] = std::vector<uint8_t>(512, 0x4a);
  ASSERT_TRUE(cache.GetAsync(4, /*prefetch=*/true).ok());
  ASSERT_TRUE(cache.GetAsync(4, /*prefetch=*/true).ok());
  EXPECT_EQ(backing.submits, 1u);  // Single flight.
  EXPECT_EQ(cache.coalesced_reads(), 1u);
  EXPECT_EQ(cache.pending_reads(), 1u);
  auto block = cache.Wait(4);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0x4a);
  EXPECT_EQ(backing.submits, 1u);
  EXPECT_EQ(cache.pending_reads(), 0u);
  EXPECT_EQ(cache.prefetch_hits(), 1u);  // The adopting lookup counts as one.
}

TEST(BufferCacheAsyncTest, DemandGetAdoptsPendingReadWithoutSecondSubmit) {
  Backing backing;
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
  cache.SetAsyncBackend(backing.Submitter(), backing.Waiter());
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
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
  cache.SetAsyncBackend(backing.Submitter(), backing.Waiter());
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
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
  cache.SetAsyncBackend(backing.Submitter(), backing.Waiter());
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
  BufferCache cache(512, 8, backing.Reader(), backing.Writer());
  cache.SetAsyncBackend(backing.Submitter(), backing.Waiter());
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
    auto block = cache.Wait(bno);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ((*block)->data[0], static_cast<uint8_t>(bno));
  }
  EXPECT_EQ(cache.pending_reads(), 0u);
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(backing.submits, 6u);
}

TEST(BufferCacheAsyncTest, InvalidateAllDrainsPendingReads) {
  Backing backing;
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
  cache.SetAsyncBackend(backing.Submitter(), backing.Waiter());
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
  BufferCache cache(512, 16, backing.Reader(), backing.Writer());
  cache.SetAsyncBackend(backing.Submitter(), backing.Waiter());
  backing.blocks[2] = std::vector<uint8_t>(512, 0x22);
  auto block = cache.Get(2, /*load=*/true);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->data[0], 0x22);
  EXPECT_EQ(backing.submits, 1u);
  EXPECT_EQ(backing.reads, 0u);  // The synchronous ReadFn is bypassed.
  ASSERT_EQ(backing.waited.size(), 1u);
}

// A read-ahead request for a block that is dirty in the cache must not
// replace the dirty copy: the cached bytes are newer than anything the media
// can supply, so GetAsync submits no read and FlushAll writes them back.
TEST(BufferCacheAsyncTest, GetAsyncOfDirtyBlockSubmitsNoRead) {
  Backing backing;
  BufferCache cache(512, 8, backing.Reader(), backing.Writer());
  cache.SetAsyncBackend(backing.Submitter(), backing.Waiter());
  backing.blocks[7] = std::vector<uint8_t>(512, 0x00);
  auto block = cache.Get(7, /*load=*/false);
  ASSERT_TRUE(block.ok());
  (*block)->data[0] = 0x5e;
  cache.MarkDirty(*block);
  ASSERT_TRUE(cache.GetAsync(7, /*prefetch=*/true).ok());
  EXPECT_EQ(cache.pending_reads(), 0u);
  EXPECT_EQ(backing.submits, 0u);
  EXPECT_EQ(backing.reads, 0u);
  auto again = cache.Wait(7);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->data[0], 0x5e);
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_EQ(backing.blocks[7][0], 0x5e);  // The dirty bytes reach the media.
}

}  // namespace
}  // namespace ld
