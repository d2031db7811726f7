// Fixed-capacity LRU buffer cache, the MINIX file system's cache of recently
// used data and i-node blocks (paper §4.1). Dirty blocks are written back on
// eviction and on Sync; Sync writes them in ascending block order (the
// classic elevator) but one block per request — the behaviour whose missed
// rotations the paper measures for MINIX on sequential writes. An optional
// clustering mode coalesces adjacent dirty blocks into one request
// (FFS/SunOS-style), used by the FFS baseline.
//
// Like MINIX's own cache, the bookkeeping is a fixed pool of entries, a hash
// index from block number to entry, and a doubly-linked LRU chain threaded
// through the entries: a hit is one probe and a few link writes.
//
// Every read is a submit and a wait on the backend's request queue. GetAsync
// submits a single-flight load and parks it in a pending-read table; a later
// Get adopts the completed data into the cache. See DESIGN.md "Read path"
// for the single-flight and cancellation rules.
//
// A read lands in a recycled buffer when there is one: the data vector of a
// block the cache dropped while it held the block's only reference. The
// submit fills the whole buffer (the contract below), so such a load does
// not zero-fill memory it is about to overwrite. A failed submit or wait
// drops its buffer, so its old bytes never enter the cache.

#ifndef SRC_MINIXFS_BUFFER_CACHE_H_
#define SRC_MINIXFS_BUFFER_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/util/status.h"

namespace ld {

struct CacheBlock {
  uint32_t bno = 0;
  std::vector<uint8_t> data;
  bool dirty = false;
  bool prefetched = false;  // Brought in by read-ahead...
  bool referenced = false;  // ...and since served a demand lookup.
  // Directory-slot tags, one byte per 64-byte slot packed eight to a word
  // (see the directory scans in minix_fs_ops.cc); empty when not computed.
  // Valid from the scan that computes them until the next MarkDirty; a new
  // block starts without them.
  std::vector<uint64_t> slot_tags;
};

class BufferCache {
 public:
  // Queues a one-block read into `out` and returns an opaque token (0 =
  // already complete). Data lands in `out` at submit time (the simulator's
  // eager-data contract) and covers all of it; only the transfer's timing is
  // pending. `out` may be a recycled buffer holding another block's bytes.
  using SubmitFn = std::function<StatusOr<uint64_t>(uint32_t bno, std::span<uint8_t> out)>;
  // Advances the clock to the token's completion. Never called for token 0.
  using WaitFn = std::function<Status(uint64_t token)>;
  // Writes `count` consecutive blocks starting at `bno`.
  using WriteFn =
      std::function<Status(uint32_t bno, uint32_t count, std::span<const uint8_t> data)>;

  BufferCache(uint32_t block_size, uint32_t capacity_blocks, SubmitFn submit, WaitFn wait,
              WriteFn write);

  uint32_t block_size() const { return block_size_; }

  // Returns the cached block, loading it when absent: one submit and one
  // wait. When `load` is false the caller promises to overwrite the whole
  // block, so no read is issued (an in-flight read of the block is
  // cancelled: its bytes are dead), and a block that was not cached comes
  // back all zero. MinixFs relies on that for freshly allocated blocks,
  // which are never cached: every path that frees a block Discards it. A
  // load that finds the block in the pending-read table adopts it (waiting
  // out the transfer) instead of issuing a second read.
  StatusOr<std::shared_ptr<CacheBlock>> Get(uint32_t bno, bool load);

  // Starts a single-flight load of `bno` unless the block is cached or
  // already in flight (a second call coalesces onto the first — one device
  // read total). `prefetch` marks read-ahead fills for the waste/hit
  // accounting. The queued transfer overlaps the caller; the data enters
  // the cache when Get adopts it.
  Status GetAsync(uint32_t bno, bool prefetch);

  bool Contains(uint32_t bno) const { return Find(bno) != kNil; }
  bool Pending(uint32_t bno) const { return pending_.count(bno) != 0; }

  // Every writer of a block's data calls this after its last write: the
  // block goes out on eviction or sync, and its directory-slot tags, which
  // no longer describe its bytes, are dropped.
  void MarkDirty(const std::shared_ptr<CacheBlock>& block) {
    block->dirty = true;
    block->slot_tags.clear();
  }

  // Writes all dirty blocks (ascending bno; coalesced when clustering).
  Status FlushAll();

  // FlushAll + forget everything (the benchmark's between-phase cache
  // flush). In-flight reads are waited out and dropped first.
  Status InvalidateAll();

  // Drops a single block (e.g. freed blocks) without writing it back. An
  // in-flight read of the block is cancelled — the transfer is waited out
  // (the device already did the work) but its bytes never enter the cache.
  void Discard(uint32_t bno);

  void set_cluster_writes(bool on) { cluster_writes_ = on; }
  void set_max_cluster_blocks(uint32_t n) { max_cluster_blocks_ = n; }

  // Zeroes the hit/miss/prefetch counters (cached blocks and pending reads
  // are untouched). Lets the harness give each measurement phase a clean
  // read-path section instead of counters accumulated since mount.
  void ResetCounters();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t prefetch_hits() const { return prefetch_hits_; }
  uint64_t prefetch_issued() const { return prefetch_issued_; }
  uint64_t prefetch_wasted() const { return prefetch_wasted_; }
  uint64_t coalesced_reads() const { return coalesced_reads_; }
  size_t size() const { return capacity_ - free_entries_.size(); }
  size_t pending_reads() const { return pending_.size(); }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // One cached block and its links in the LRU chain (entry numbers, kNil at
  // either end). Entries come from a pool of capacity_ slots, so a hit moves
  // links and allocates nothing.
  struct Entry {
    std::shared_ptr<CacheBlock> block;  // Null while the slot is free.
    uint32_t prev = kNil;               // Toward the front (more recent).
    uint32_t next = kNil;               // Toward the cold end.
  };
  // One slot of the block-number index: open addressing, linear probing,
  // sized once to a power of two >= 2 x capacity_ and never rehashed.
  struct IndexSlot {
    uint32_t bno = 0;
    uint32_t entry = kNil;  // kNil = empty.
  };

  // One in-flight read. Owns its landing buffer until adopted or cancelled.
  struct PendingRead {
    std::vector<uint8_t> data;
    uint64_t token = 0;
    bool prefetch = false;
  };

  // The entry caching `bno`, or kNil.
  uint32_t Find(uint32_t bno) const;
  uint32_t Home(uint32_t bno) const;
  CacheBlock* Lookup(uint32_t bno) const;
  // Caches `block` at the front of the LRU chain. The pool must have room.
  void Insert(std::shared_ptr<CacheBlock> block);
  // Drops entry `e` from the index, the chain and the pool. When the cache
  // held the block's only reference, its data vector becomes a spare.
  void Erase(uint32_t e);
  // A block_size_ buffer: a spare when there is one, else a new one. A
  // buffer for a read holds stale bytes (a poison byte in builds without
  // NDEBUG) that the read overwrites; any other is zero-filled.
  std::vector<uint8_t> TakeBuffer(bool for_read);
  void Unlink(uint32_t e);
  void LinkFront(uint32_t e);
  // Empties the pool, the index and the chain.
  void Clear();

  Status EvictOne();
  // Writes the run of cached adjacent dirty blocks containing `bno` as one
  // request (FFS-style clustering on eviction).
  Status WriteClusterAround(uint32_t bno);
  // Writes blocks with consecutive numbers as one request and marks them
  // clean.
  Status WriteRun(std::span<CacheBlock* const> run);
  // Waits out a submitted read; token 0 completed at submit.
  Status WaitOut(uint64_t token) { return token == 0 ? OkStatus() : wait_(token); }
  // Waits out a pending read, moves its data into the cache and counts the
  // lookup it serves.
  StatusOr<std::shared_ptr<CacheBlock>> AdoptPending(uint32_t bno);
  // Waits out a pending read and drops its data (discard/overwrite/insert).
  Status CancelPending(uint32_t bno);
  // A block is leaving the cache; account a never-referenced prefetch.
  void NoteDropped(const CacheBlock& block);

  uint32_t block_size_;
  uint32_t capacity_;
  SubmitFn submit_;
  WaitFn wait_;
  WriteFn write_;
  bool cluster_writes_ = false;
  uint32_t max_cluster_blocks_ = 16;

  std::vector<Entry> entries_;            // capacity_ slots.
  std::vector<uint32_t> free_entries_;    // Unused entry numbers.
  std::vector<IndexSlot> index_;
  uint32_t index_shift_ = 0;              // 64 - log2(index_.size()).
  uint32_t head_ = kNil;                  // Most recent.
  uint32_t tail_ = kNil;                  // Coldest: the next victim.
  std::unordered_map<uint32_t, PendingRead> pending_;
  // Data vectors of dropped blocks, reused by the next misses. One eviction
  // precedes each miss of a full cache, so a few are enough.
  static constexpr size_t kMaxSpareBuffers = 4;
  std::vector<std::vector<uint8_t>> spare_buffers_;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t prefetch_hits_ = 0;    // Demand lookups served by a read-ahead fill.
  uint64_t prefetch_issued_ = 0;  // Read-ahead loads started.
  uint64_t prefetch_wasted_ = 0;  // Read-ahead fills dropped unreferenced.
  uint64_t coalesced_reads_ = 0;  // GetAsync calls absorbed by an in-flight read.
};

}  // namespace ld

#endif  // SRC_MINIXFS_BUFFER_CACHE_H_
