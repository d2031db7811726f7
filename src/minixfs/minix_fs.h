// The MINIX-style file system core (paper §4.1).
//
// The same general file-system code (path walking, directories, i-nodes,
// indirect blocks, the buffer cache) runs over either storage backend; the
// differences between classic MINIX and MINIX LLD are confined to the
// MinixBackend implementation plus the few i-node-level hooks below — the
// "<100 changed lines of general file system code" the paper reports.
//
// An FFS/SunOS-style configuration (used as the paper's third measured
// system) reuses the same core with synchronous metadata updates and write
// clustering; see src/ffs/.

#ifndef SRC_MINIXFS_MINIX_FS_H_
#define SRC_MINIXFS_MINIX_FS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/disk/block_device.h"
#include "src/ld/logical_disk.h"
#include "src/minixfs/backend.h"
#include "src/minixfs/buffer_cache.h"
#include "src/minixfs/minix_types.h"

namespace ld {

struct MinixOptions {
  uint32_t block_size = 4096;
  uint32_t num_inodes = 16384;
  uint64_t cache_bytes = 6144 * 1024;  // The paper's static 6,144-KB cache.
  // FFS/SunOS-style behaviour: create/unlink write i-nodes and directory
  // blocks synchronously instead of leaving them dirty in the cache.
  bool synchronous_metadata = false;
  // Blocks fetched per read-ahead request when the backend allows it.
  uint32_t readahead_blocks = 8;
  // Enable per-file read-ahead on LD backends too. Off by default — the
  // paper's MINIX-LLD turns read-ahead off because logically consecutive
  // blocks need not be physically consecutive (§4.1) — but each read is
  // submitted at the block's actual physical location, so prefetching does
  // not depend on physical contiguity.
  bool ld_readahead = false;
  // Coalesce adjacent dirty blocks into single device requests on sync and
  // on eviction (FFS-style clustering; classic MINIX writes one block at a
  // time).
  bool cluster_writes = false;
  uint32_t max_cluster_blocks = 16;
  // LD modes only: mark file-data lists with the compress hint, so an LLD
  // configured with a compressor stores file contents compressed (§3.3).
  bool compress_file_data = false;
  // LD modes only: wrap every sync's write-back in one atomic recovery
  // unit, so a crash always recovers to a sync boundary — the paper's §2.1
  // use of ARUs ("eliminates the need for consistency checks such as those
  // performed by fsck"). The paper's own MINIX did not use ARUs yet (§4.1);
  // this option turns that future work on.
  bool sync_with_arus = false;
};

struct MinixStatInfo {
  uint32_t ino = 0;
  FileType type = FileType::kFree;
  uint32_t size = 0;
  uint16_t nlinks = 0;
  uint32_t mtime = 0;
};

// fsck options. `scrub` is the "--scrub" mode: before the namespace walk,
// drive the storage backend's media scrub (LogicalDisk::Scrub) so latent
// media damage is repaired — or at least surfaced — by the same tool an
// administrator would already reach for after a crash.
struct MinixFsckOptions {
  bool scrub = false;
};

struct MinixFsckReport {
  bool scrubbed = false;  // A media scrub ran (LD backends with scrub support).
  bool degraded = false;  // The LD has failed to read-only service.
  ScrubReport scrub;      // What the scrub verified, repaired, and lost.
  // Blocks whose contents are gone for good (reads keep failing typed).
  uint64_t LostBlocks() const { return scrub.blocks_corrupt + scrub.blocks_unreadable; }

  // Typed outcome + ToString, following the maintenance-report convention
  // shared with RecoveryReport and ScrubReport (src/lld/reports.h).
  enum class Outcome : uint8_t { kClean = 0, kRepaired, kDataLoss, kDegraded };
  Outcome outcome() const {
    if (degraded) {
      return Outcome::kDegraded;
    }
    if (LostBlocks() > 0) {
      return Outcome::kDataLoss;
    }
    if (scrubbed && scrub.outcome() != ScrubReport::Outcome::kClean) {
      return Outcome::kRepaired;
    }
    return Outcome::kClean;
  }
  std::string ToString() const {
    std::string s = "fsck{outcome=";
    switch (outcome()) {
      case Outcome::kClean:
        s += "clean";
        break;
      case Outcome::kRepaired:
        s += "repaired";
        break;
      case Outcome::kDataLoss:
        s += "data-loss";
        break;
      case Outcome::kDegraded:
        s += "degraded";
        break;
    }
    if (scrubbed) {
      s += " " + scrub.ToString();
    }
    s += "}";
    return s;
  }
};

struct MinixFsStats {
  uint64_t creates = 0;
  uint64_t unlinks = 0;
  uint64_t file_reads = 0;
  uint64_t file_writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t readahead_requests = 0;
};

class MinixFs {
 public:
  // ---- Formatting & mounting ------------------------------------------------

  // Classic mode: the file system owns the raw device.
  static StatusOr<std::unique_ptr<MinixFs>> FormatClassic(BlockDevice* device,
                                                          const MinixOptions& options);
  static StatusOr<std::unique_ptr<MinixFs>> MountClassic(BlockDevice* device,
                                                         const MinixOptions& options);

  // LD modes: the file system runs on a (freshly formatted) Logical Disk.
  // `list_per_file` selects the paper's later integration step; small
  // i-nodes select the 64-byte-block experiment (implies list_per_file).
  // Generic hooks used by the FFS baseline (src/ffs/), which supplies its
  // own cylinder-group backend but shares the classic on-disk layout.
  static MinixSuperblock ComputeClassicLayout(BlockDevice* device, const MinixOptions& options);
  static StatusOr<std::unique_ptr<MinixFs>> FormatWithBackend(
      std::unique_ptr<MinixBackend> backend, const MinixSuperblock& sb,
      const MinixOptions& options);
  static StatusOr<std::unique_ptr<MinixFs>> MountWithBackend(
      std::unique_ptr<MinixBackend> backend, const MinixSuperblock& sb,
      const MinixOptions& options);

  static StatusOr<std::unique_ptr<MinixFs>> FormatOnLd(LogicalDisk* ld,
                                                       const MinixOptions& options,
                                                       bool list_per_file,
                                                       bool small_inodes = false);
  static StatusOr<std::unique_ptr<MinixFs>> MountOnLd(LogicalDisk* ld,
                                                      const MinixOptions& options);

  // ---- Files -----------------------------------------------------------------

  StatusOr<uint32_t> CreateFile(const std::string& path);
  StatusOr<uint32_t> OpenFile(const std::string& path);
  Status WriteFile(uint32_t ino, uint64_t offset, std::span<const uint8_t> data);
  StatusOr<size_t> ReadFile(uint32_t ino, uint64_t offset, std::span<uint8_t> out);
  Status Truncate(uint32_t ino, uint64_t new_size);
  Status Unlink(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  // Hard link: `to` becomes another name for the file at `from`.
  Status Link(const std::string& from, const std::string& to);

  // ---- Directories ------------------------------------------------------------

  Status Mkdir(const std::string& path);
  Status Rmdir(const std::string& path);
  StatusOr<std::vector<MinixDirEntry>> ReadDir(const std::string& path);

  // ---- Metadata & control -------------------------------------------------------

  StatusOr<MinixStatInfo> Stat(const std::string& path);
  StatusOr<MinixStatInfo> StatIno(uint32_t ino);
  // Writes everything dirty and issues the backend durability barrier
  // (classic: bitmaps; LD: Flush) — MINIX's sync (§4.1).
  Status SyncFs();
  // SyncFs + drop all cached state, the benchmarks' between-phase flush.
  Status DropCaches();
  Status Shutdown();

  // fsck-style consistency check: walks the directory tree from the root
  // and verifies that every reachable i-node is allocated in the bitmap
  // (and vice versa), that no block is referenced twice, that directory
  // entries point at live i-nodes, and that link counts match the
  // namespace. Returns CORRUPTION with a description on the first failure.
  Status CheckConsistency();

  // Full fsck entry point: optional media scrub (MinixFsckOptions::scrub)
  // followed by CheckConsistency. The report says what the scrub repaired
  // and whether the volume is degraded; a failed consistency walk (or a
  // scrub that cannot run) surfaces as the Status.
  StatusOr<MinixFsckReport> Fsck(const MinixFsckOptions& options);

  const MinixFsStats& stats() const { return stats_; }
  // Zeroes the per-run observability counters — the file-system op counters
  // and the buffer cache's hit/miss/prefetch counters — without touching any
  // cached state.
  // Called between harness measurement phases so each phase's read-path
  // section reports only its own activity.
  void ResetStats();
  const BufferCache& cache() const { return *cache_; }
  const MinixSuperblock& superblock() const { return sb_; }
  MinixBackend* backend() { return backend_.get(); }
  uint64_t FreeInodes() const;

 private:
  MinixFs(std::unique_ptr<MinixBackend> backend, const MinixSuperblock& sb,
          const MinixOptions& options);

  static StatusOr<std::unique_ptr<MinixFs>> FinishFormat(std::unique_ptr<MinixFs> fs);

  // ---- I-nodes ------------------------------------------------------------------
  StatusOr<DiskInode> GetInode(uint32_t ino);
  // `structural` marks namespace-changing updates (create/unlink/mkdir...),
  // which go out synchronously under synchronous_metadata (the FFS
  // behaviour); data-path updates (size/mtime) never force a write.
  Status PutInode(uint32_t ino, const DiskInode& inode, bool structural = true);
  StatusOr<uint32_t> AllocInode();
  Status FreeInode(uint32_t ino);
  Status LoadInodeBitmap();
  Status StoreInodeBitmap();

  // ---- Block mapping --------------------------------------------------------------
  // Maps file block `idx` of `inode` to a block number; allocates missing
  // blocks (and indirect blocks) when `alloc`. Returns 0 for a hole.
  StatusOr<uint32_t> BMap(DiskInode* inode, uint32_t idx, bool alloc);
  // The previous mapped block of the file before `idx` (allocation hint).
  uint32_t PrevBlockHint(DiskInode* inode, uint32_t idx);
  // Frees all blocks of a file from block index `from_idx` on.
  Status FreeFileBlocks(DiskInode* inode, uint32_t from_idx);

  // ---- Directories -----------------------------------------------------------------
  StatusOr<uint32_t> LookupDir(uint32_t dir_ino, const std::string& name);
  Status AddDirEntry(uint32_t dir_ino, const std::string& name, uint32_t ino);
  Status RemoveDirEntry(uint32_t dir_ino, const std::string& name);
  StatusOr<bool> DirIsEmpty(uint32_t dir_ino);

  // ---- Paths -----------------------------------------------------------------------
  // Resolves `path` to (parent ino, leaf name); the full path to an ino.
  StatusOr<uint32_t> Resolve(const std::string& path);
  Status SplitPath(const std::string& path, uint32_t* parent_ino, std::string* leaf);

  // ---- I/O helpers -----------------------------------------------------------------
  // Reads file block `idx` of file `ino` (mapped to `bno`), maintaining the
  // file's read-ahead window when read-ahead is enabled.
  Status ReadFileBlockCached(uint32_t ino, DiskInode* inode, uint32_t idx, uint32_t bno);
  // True when this mount prefetches at all (backend policy + options).
  bool ReadAheadEnabled() const;
  // Drops file `ino`'s read-ahead window (unlink/truncate/rmdir).
  void DropReadAheadState(uint32_t ino) { readahead_state_.erase(ino); }
  // Writes a metadata block synchronously when synchronous_metadata is set.
  Status MaybeSyncBlock(const std::shared_ptr<CacheBlock>& block);
  Status MaybeSyncInode(uint32_t ino);
  // Opens the sync-interval atomic recovery unit lazily (sync_with_arus):
  // every mutation between two syncs rides in one unit, so a crash recovers
  // exactly to a sync boundary. Called at the top of mutating operations.
  Status EnsureSyncUnit();
  uint32_t NowTime() { return ++op_time_; }

  std::unique_ptr<MinixBackend> backend_;
  MinixSuperblock sb_;
  MinixOptions options_;
  std::unique_ptr<BufferCache> cache_;

  std::vector<bool> inode_bitmap_;
  bool inode_bitmap_dirty_ = false;
  // Every i-node below this one is in use, so AllocInode starts its scan
  // here and still returns the lowest free number.
  uint32_t first_free_inode_ = 1;

  // Small-i-node mode keeps a write-back i-node cache; each dirty i-node is
  // written individually as a 64-byte logical block on sync.
  struct CachedInode {
    DiskInode inode;
    bool dirty = false;
  };
  std::unordered_map<uint32_t, CachedInode> inode_cache_;

  // Per-open-file read-ahead window (keyed by i-node): how far ahead of the
  // file's sequential stream prefetches have been issued. Independent
  // windows are what let sequential streams on *different* files overlap
  // their prefetches instead of serializing (see DESIGN.md "Read path").
  struct FileReadAhead {
    uint32_t next_idx = 0;       // Next sequential file-block index expected.
    uint32_t window = 0;         // Current prefetch window in blocks.
    uint32_t prefetched_to = 0;  // First file index not yet prefetched.
    bool started = false;
  };
  std::unordered_map<uint32_t, FileReadAhead> readahead_state_;

  uint32_t op_time_ = 0;
  uint32_t sync_unit_ = 0;  // Open sync-interval ARU id (0 = none).
  MinixFsStats stats_;
};

}  // namespace ld

#endif  // SRC_MINIXFS_MINIX_FS_H_
