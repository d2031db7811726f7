#include "src/minixfs/minix_fs.h"

#include <algorithm>
#include <cstring>

#include "src/minixfs/classic_backend.h"
#include "src/ld/logical_disk.h"
#include "src/minixfs/ld_backend.h"
#include "src/util/log.h"

namespace ld {

namespace {

// File block indices covered by each mapping level.
struct MapGeometry {
  uint32_t ppb;          // Pointers per block.
  uint32_t direct_end;   // First index beyond the direct zones.
  uint32_t ind_end;      // First index beyond the single-indirect range.
  uint32_t dind_end;     // First index beyond the double-indirect range.
};

MapGeometry Geo(const MinixSuperblock& sb) {
  MapGeometry g;
  g.ppb = sb.PointersPerBlock();
  g.direct_end = kMinixDirectZones;
  g.ind_end = g.direct_end + g.ppb;
  g.dind_end = g.ind_end + g.ppb * g.ppb;
  return g;
}

uint32_t ReadPtr(const std::vector<uint8_t>& block, uint32_t index) {
  uint32_t v;
  std::memcpy(&v, block.data() + static_cast<size_t>(index) * 4, 4);
  return v;
}

void WritePtr(std::vector<uint8_t>* block, uint32_t index, uint32_t value) {
  std::memcpy(block->data() + static_cast<size_t>(index) * 4, &value, 4);
}

}  // namespace

MinixFs::MinixFs(std::unique_ptr<MinixBackend> backend, const MinixSuperblock& sb,
                 const MinixOptions& options)
    : backend_(std::move(backend)), sb_(sb), options_(options) {
  const uint32_t capacity =
      static_cast<uint32_t>(options_.cache_bytes / sb_.block_size);
  cache_ = std::make_unique<BufferCache>(
      sb_.block_size, capacity,
      [this](uint32_t bno, std::span<uint8_t> out) { return backend_->SubmitBlock(bno, out); },
      [this](uint64_t token) { return backend_->WaitBlock(token); },
      [this](uint32_t bno, uint32_t count, std::span<const uint8_t> data) {
        return backend_->WriteBlocks(bno, count, data);
      });
  cache_->set_cluster_writes(options_.cluster_writes);
  cache_->set_max_cluster_blocks(options_.max_cluster_blocks);
  inode_bitmap_.assign(sb_.num_inodes + 1, false);
  inode_bitmap_[0] = true;  // I-node 0 is reserved.
}

void MinixFs::ResetStats() {
  stats_ = MinixFsStats{};
  cache_->ResetCounters();
}

// ---- Formatting & mounting ---------------------------------------------------

MinixSuperblock MinixFs::ComputeClassicLayout(BlockDevice* device, const MinixOptions& options) {
  MinixSuperblock sb;
  sb.mode = MinixMode::kClassic;
  sb.block_size = options.block_size;
  sb.num_inodes = options.num_inodes;
  sb.num_blocks = static_cast<uint32_t>(device->capacity_bytes() / options.block_size);

  const uint32_t bits_per_block = sb.block_size * 8;
  uint32_t next = 2;  // Block 0 = boot, block 1 = superblock.
  sb.inode_bitmap_start = next;
  sb.inode_bitmap_blocks = (sb.num_inodes + 1 + bits_per_block - 1) / bits_per_block;
  next += sb.inode_bitmap_blocks;
  sb.zone_bitmap_start = next;
  sb.zone_bitmap_blocks = (sb.num_blocks + bits_per_block - 1) / bits_per_block;
  next += sb.zone_bitmap_blocks;
  sb.itable_start = next;
  sb.itable_blocks =
      (sb.num_inodes * kMinixInodeSize + sb.block_size - 1) / sb.block_size;
  next += sb.itable_blocks;
  sb.first_data_block = next;
  return sb;
}

StatusOr<std::unique_ptr<MinixFs>> MinixFs::FormatWithBackend(
    std::unique_ptr<MinixBackend> backend, const MinixSuperblock& sb,
    const MinixOptions& options) {
  if (sb.first_data_block + 16 >= sb.num_blocks) {
    return InvalidArgumentError("device too small for classic MINIX layout");
  }
  std::unique_ptr<MinixFs> fs(new MinixFs(std::move(backend), sb, options));

  // Superblock.
  std::vector<uint8_t> block(sb.block_size, 0);
  RETURN_IF_ERROR(sb.EncodeTo(block));
  RETURN_IF_ERROR(fs->backend_->WriteBlock(1, block));
  // Zeroed i-node table.
  std::fill(block.begin(), block.end(), 0);
  for (uint32_t b = 0; b < sb.itable_blocks; ++b) {
    RETURN_IF_ERROR(fs->backend_->WriteBlock(sb.itable_start + b, block));
  }
  return FinishFormat(std::move(fs));
}

StatusOr<std::unique_ptr<MinixFs>> MinixFs::MountWithBackend(
    std::unique_ptr<MinixBackend> backend, const MinixSuperblock& sb,
    const MinixOptions& options) {
  std::unique_ptr<MinixFs> fs(new MinixFs(std::move(backend), sb, options));
  RETURN_IF_ERROR(fs->LoadInodeBitmap());
  return fs;
}

StatusOr<std::unique_ptr<MinixFs>> MinixFs::FormatClassic(BlockDevice* device,
                                                          const MinixOptions& options) {
  const MinixSuperblock sb = ComputeClassicLayout(device, options);
  ASSIGN_OR_RETURN(std::unique_ptr<ClassicBackend> backend,
                   ClassicBackend::Create(device, sb, /*fresh=*/true));
  return FormatWithBackend(std::move(backend), sb, options);
}

StatusOr<std::unique_ptr<MinixFs>> MinixFs::MountClassic(BlockDevice* device,
                                                         const MinixOptions& options) {
  std::vector<uint8_t> block(options.block_size);
  const uint64_t sector = static_cast<uint64_t>(options.block_size) / device->sector_size();
  RETURN_IF_ERROR(device->Read(sector, block));
  ASSIGN_OR_RETURN(MinixSuperblock sb, MinixSuperblock::DecodeFrom(block));
  ASSIGN_OR_RETURN(std::unique_ptr<ClassicBackend> backend,
                   ClassicBackend::Create(device, sb, /*fresh=*/false));
  std::unique_ptr<MinixFs> fs(new MinixFs(std::move(backend), sb, options));
  RETURN_IF_ERROR(fs->LoadInodeBitmap());
  return fs;
}

StatusOr<std::unique_ptr<MinixFs>> MinixFs::FormatOnLd(LogicalDisk* ld,
                                                       const MinixOptions& options,
                                                       bool list_per_file, bool small_inodes) {
  MinixSuperblock sb;
  sb.mode = small_inodes ? MinixMode::kLdSmallInodes : MinixMode::kLd;
  sb.block_size = options.block_size;
  sb.num_inodes = options.num_inodes;
  sb.list_per_file = (list_per_file || small_inodes) ? 1 : 0;
  sb.compress_data = options.compress_file_data ? 1 : 0;

  ListHints meta_hints;
  meta_hints.cluster = true;
  ASSIGN_OR_RETURN(Lid meta_list, ld->NewList(kBeginOfListOfLists, meta_hints));

  // The superblock must land on logical block 1: a freshly formatted LD
  // allocates block numbers sequentially from 1.
  ASSIGN_OR_RETURN(Bid super_bid, ld->NewBlock(meta_list, kBeginOfList, sb.block_size));
  if (super_bid != 1) {
    return FailedPreconditionError("LD volume is not freshly formatted");
  }

  const uint32_t bits_per_block = sb.block_size * 8;
  sb.inode_bitmap_blocks = (sb.num_inodes + 1 + bits_per_block - 1) / bits_per_block;
  Bid pred = super_bid;
  sb.inode_bitmap_start = 0;
  for (uint32_t b = 0; b < sb.inode_bitmap_blocks; ++b) {
    ASSIGN_OR_RETURN(Bid bid, ld->NewBlock(meta_list, pred, sb.block_size));
    if (sb.inode_bitmap_start == 0) {
      sb.inode_bitmap_start = bid;
    }
    pred = bid;
  }

  if (small_inodes) {
    // One 64-byte logical block per i-node (multiple block sizes, §2.1).
    sb.inode_bid_base = 0;
    for (uint32_t i = 0; i < sb.num_inodes; ++i) {
      ASSIGN_OR_RETURN(Bid bid, ld->NewBlock(meta_list, pred, kMinixInodeSize));
      if (sb.inode_bid_base == 0) {
        sb.inode_bid_base = bid;
      }
      pred = bid;
    }
  } else {
    sb.itable_blocks = (sb.num_inodes * kMinixInodeSize + sb.block_size - 1) / sb.block_size;
    sb.itable_start = 0;
    for (uint32_t b = 0; b < sb.itable_blocks; ++b) {
      ASSIGN_OR_RETURN(Bid bid, ld->NewBlock(meta_list, pred, sb.block_size));
      if (sb.itable_start == 0) {
        sb.itable_start = bid;
      }
      pred = bid;
    }
  }

  if (!sb.list_per_file) {
    ListHints data_hints;
    data_hints.cluster = true;
    data_hints.compress = options.compress_file_data;
    ASSIGN_OR_RETURN(Lid data_list, ld->NewList(meta_list, data_hints));
    sb.global_list = data_list;
  } else {
    sb.global_list = meta_list;  // Fallback for blocks without a file list.
  }

  auto backend = std::make_unique<LdBackend>(ld, sb);
  std::unique_ptr<MinixFs> fs(new MinixFs(std::move(backend), sb, options));

  std::vector<uint8_t> block(sb.block_size, 0);
  RETURN_IF_ERROR(sb.EncodeTo(block));
  RETURN_IF_ERROR(fs->backend_->WriteBlock(super_bid, block));
  return FinishFormat(std::move(fs));
}

StatusOr<std::unique_ptr<MinixFs>> MinixFs::MountOnLd(LogicalDisk* ld,
                                                      const MinixOptions& options) {
  ASSIGN_OR_RETURN(uint32_t super_size, ld->BlockSize(1));
  std::vector<uint8_t> block(super_size);
  RETURN_IF_ERROR(ld->Read(1, block));
  ASSIGN_OR_RETURN(MinixSuperblock sb, MinixSuperblock::DecodeFrom(block));
  auto backend = std::make_unique<LdBackend>(ld, sb);
  std::unique_ptr<MinixFs> fs(new MinixFs(std::move(backend), sb, options));
  RETURN_IF_ERROR(fs->LoadInodeBitmap());
  return fs;
}

StatusOr<std::unique_ptr<MinixFs>> MinixFs::FinishFormat(std::unique_ptr<MinixFs> fs) {
  // Zeroed i-node bitmap (bit 0 set), then the root directory.
  fs->inode_bitmap_dirty_ = true;
  RETURN_IF_ERROR(fs->StoreInodeBitmap());

  ASSIGN_OR_RETURN(uint32_t root, fs->AllocInode());
  if (root != kRootIno) {
    return FailedPreconditionError("root i-node allocation did not yield i-node 1");
  }
  DiskInode inode;
  inode.type = FileType::kDirectory;
  inode.nlinks = 2;  // "." and the parent link from itself.
  ASSIGN_OR_RETURN(uint32_t lid, fs->backend_->CreateFileList(0));
  inode.lid = lid;
  RETURN_IF_ERROR(fs->PutInode(kRootIno, inode));
  RETURN_IF_ERROR(fs->AddDirEntry(kRootIno, ".", kRootIno));
  RETURN_IF_ERROR(fs->AddDirEntry(kRootIno, "..", kRootIno));
  RETURN_IF_ERROR(fs->SyncFs());
  return fs;
}

// ---- I-node management -----------------------------------------------------------

StatusOr<DiskInode> MinixFs::GetInode(uint32_t ino) {
  if (ino == 0 || ino > sb_.num_inodes) {
    return InvalidArgumentError("bad i-node number " + std::to_string(ino));
  }
  if (backend_->small_inodes()) {
    auto it = inode_cache_.find(ino);
    if (it != inode_cache_.end()) {
      return it->second.inode;
    }
    std::array<uint8_t, kMinixInodeSize> buf;
    RETURN_IF_ERROR(backend_->ReadInodeBlock(ino, buf));
    DiskInode inode = DiskInode::DecodeFrom(buf);
    inode_cache_[ino] = CachedInode{inode, false};
    return inode;
  }
  const uint32_t ipb = sb_.InodesPerBlock();
  const uint32_t bno = sb_.itable_start + (ino - 1) / ipb;
  ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
  const size_t offset = static_cast<size_t>((ino - 1) % ipb) * kMinixInodeSize;
  return DiskInode::DecodeFrom(std::span<const uint8_t>(block->data).subspan(offset,
                                                                             kMinixInodeSize));
}

Status MinixFs::PutInode(uint32_t ino, const DiskInode& inode, bool structural) {
  if (ino == 0 || ino > sb_.num_inodes) {
    return InvalidArgumentError("bad i-node number " + std::to_string(ino));
  }
  if (backend_->small_inodes()) {
    inode_cache_[ino] = CachedInode{inode, true};
    if (structural && options_.synchronous_metadata) {
      return MaybeSyncInode(ino);
    }
    return OkStatus();
  }
  const uint32_t ipb = sb_.InodesPerBlock();
  const uint32_t bno = sb_.itable_start + (ino - 1) / ipb;
  ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
  const size_t offset = static_cast<size_t>((ino - 1) % ipb) * kMinixInodeSize;
  inode.EncodeTo(std::span<uint8_t>(block->data).subspan(offset, kMinixInodeSize));
  cache_->MarkDirty(block);
  if (!structural) {
    return OkStatus();
  }
  return MaybeSyncBlock(block);
}

StatusOr<uint32_t> MinixFs::AllocInode() {
  for (uint32_t ino = first_free_inode_; ino <= sb_.num_inodes; ++ino) {
    if (!inode_bitmap_[ino]) {
      inode_bitmap_[ino] = true;
      inode_bitmap_dirty_ = true;
      first_free_inode_ = ino + 1;
      return ino;
    }
  }
  return NoSpaceError("out of i-nodes");
}

Status MinixFs::FreeInode(uint32_t ino) {
  if (ino == 0 || ino > sb_.num_inodes || !inode_bitmap_[ino]) {
    return InvalidArgumentError("freeing free i-node " + std::to_string(ino));
  }
  inode_bitmap_[ino] = false;
  inode_bitmap_dirty_ = true;
  first_free_inode_ = std::min(first_free_inode_, ino);
  if (backend_->small_inodes()) {
    inode_cache_.erase(ino);
  }
  return OkStatus();
}

Status MinixFs::LoadInodeBitmap() {
  std::vector<uint8_t> buf(static_cast<size_t>(sb_.inode_bitmap_blocks) * sb_.block_size);
  RETURN_IF_ERROR(backend_->ReadBlocks(sb_.inode_bitmap_start, sb_.inode_bitmap_blocks, buf));
  for (uint32_t i = 0; i <= sb_.num_inodes; ++i) {
    inode_bitmap_[i] = (buf[i / 8] & (1u << (i % 8))) != 0;
  }
  inode_bitmap_[0] = true;
  first_free_inode_ = 1;
  return OkStatus();
}

Status MinixFs::StoreInodeBitmap() {
  if (!inode_bitmap_dirty_) {
    return OkStatus();
  }
  std::vector<uint8_t> buf(static_cast<size_t>(sb_.inode_bitmap_blocks) * sb_.block_size, 0);
  for (uint32_t i = 0; i <= sb_.num_inodes; ++i) {
    if (inode_bitmap_[i]) {
      buf[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    }
  }
  RETURN_IF_ERROR(backend_->WriteBlocks(sb_.inode_bitmap_start, sb_.inode_bitmap_blocks, buf));
  inode_bitmap_dirty_ = false;
  return OkStatus();
}

uint64_t MinixFs::FreeInodes() const {
  uint64_t free_count = 0;
  for (uint32_t i = 1; i <= sb_.num_inodes; ++i) {
    if (!inode_bitmap_[i]) {
      free_count++;
    }
  }
  return free_count;
}

// ---- Block mapping -----------------------------------------------------------------

uint32_t MinixFs::PrevBlockHint(DiskInode* inode, uint32_t idx) {
  if (idx == 0) {
    return 0;
  }
  auto prev = BMap(inode, idx - 1, /*alloc=*/false);
  return prev.ok() ? prev.value() : 0;
}

StatusOr<uint32_t> MinixFs::BMap(DiskInode* inode, uint32_t idx, bool alloc) {
  const MapGeometry g = Geo(sb_);

  if (idx < g.direct_end) {
    if (inode->zones[idx] == 0 && alloc) {
      ASSIGN_OR_RETURN(uint32_t bno,
                       backend_->AllocBlock(inode->lid, PrevBlockHint(inode, idx)));
      inode->zones[idx] = bno;
    }
    return inode->zones[idx];
  }

  if (idx < g.ind_end) {
    const uint32_t sub = idx - g.direct_end;
    if (inode->indirect == 0) {
      if (!alloc) {
        return 0u;
      }
      ASSIGN_OR_RETURN(uint32_t bno,
                       backend_->AllocBlock(inode->lid, PrevBlockHint(inode, idx)));
      inode->indirect = bno;
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> fresh, cache_->Get(bno, /*load=*/false));
      cache_->MarkDirty(fresh);
    }
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> ind, cache_->Get(inode->indirect, /*load=*/true));
    uint32_t bno = ReadPtr(ind->data, sub);
    if (bno == 0 && alloc) {
      ASSIGN_OR_RETURN(bno, backend_->AllocBlock(inode->lid, PrevBlockHint(inode, idx)));
      WritePtr(&ind->data, sub, bno);
      cache_->MarkDirty(ind);
    }
    return bno;
  }

  if (idx < g.dind_end) {
    const uint32_t sub = idx - g.ind_end;
    const uint32_t outer = sub / g.ppb;
    const uint32_t inner = sub % g.ppb;
    if (inode->double_indirect == 0) {
      if (!alloc) {
        return 0u;
      }
      ASSIGN_OR_RETURN(uint32_t bno,
                       backend_->AllocBlock(inode->lid, PrevBlockHint(inode, idx)));
      inode->double_indirect = bno;
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> fresh, cache_->Get(bno, /*load=*/false));
      cache_->MarkDirty(fresh);
    }
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> dind,
                     cache_->Get(inode->double_indirect, /*load=*/true));
    uint32_t ind_bno = ReadPtr(dind->data, outer);
    if (ind_bno == 0) {
      if (!alloc) {
        return 0u;
      }
      ASSIGN_OR_RETURN(ind_bno, backend_->AllocBlock(inode->lid, PrevBlockHint(inode, idx)));
      WritePtr(&dind->data, outer, ind_bno);
      cache_->MarkDirty(dind);
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> fresh, cache_->Get(ind_bno, /*load=*/false));
      cache_->MarkDirty(fresh);
    }
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> ind, cache_->Get(ind_bno, /*load=*/true));
    uint32_t bno = ReadPtr(ind->data, inner);
    if (bno == 0 && alloc) {
      ASSIGN_OR_RETURN(bno, backend_->AllocBlock(inode->lid, PrevBlockHint(inode, idx)));
      WritePtr(&ind->data, inner, bno);
      cache_->MarkDirty(ind);
    }
    return bno;
  }

  return InvalidArgumentError("file offset beyond maximum file size");
}

Status MinixFs::FreeFileBlocks(DiskInode* inode, uint32_t from_idx) {
  const MapGeometry g = Geo(sb_);
  const uint32_t total =
      (inode->size + sb_.block_size - 1) / sb_.block_size;
  // Free data blocks in reverse order so the predecessor hints stay valid.
  for (uint32_t idx = total; idx-- > from_idx;) {
    ASSIGN_OR_RETURN(uint32_t bno, BMap(inode, idx, /*alloc=*/false));
    if (bno == 0) {
      continue;
    }
    const uint32_t pred = idx > 0 ? PrevBlockHint(inode, idx) : 0;
    RETURN_IF_ERROR(backend_->FreeBlock(bno, inode->lid, pred));
    cache_->Discard(bno);
    // Clear the mapping.
    if (idx < g.direct_end) {
      inode->zones[idx] = 0;
    } else if (idx < g.ind_end) {
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> ind, cache_->Get(inode->indirect, true));
      WritePtr(&ind->data, idx - g.direct_end, 0);
      cache_->MarkDirty(ind);
    } else {
      const uint32_t sub = idx - g.ind_end;
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> dind, cache_->Get(inode->double_indirect, true));
      const uint32_t ind_bno = ReadPtr(dind->data, sub / g.ppb);
      if (ind_bno != 0) {
        ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> ind, cache_->Get(ind_bno, true));
        WritePtr(&ind->data, sub % g.ppb, 0);
        cache_->MarkDirty(ind);
      }
    }
  }
  // Free indirect blocks that are now entirely unused.
  if (from_idx <= g.direct_end && inode->indirect != 0) {
    RETURN_IF_ERROR(backend_->FreeBlock(inode->indirect, inode->lid, 0));
    cache_->Discard(inode->indirect);
    inode->indirect = 0;
  }
  if (inode->double_indirect != 0) {
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> dind, cache_->Get(inode->double_indirect, true));
    bool any_left = false;
    for (uint32_t i = 0; i < g.ppb; ++i) {
      const uint32_t ind_bno = ReadPtr(dind->data, i);
      if (ind_bno == 0) {
        continue;
      }
      // Is this indirect block still referenced by a surviving data block?
      const uint32_t first_idx = g.ind_end + i * g.ppb;
      if (first_idx >= from_idx) {
        RETURN_IF_ERROR(backend_->FreeBlock(ind_bno, inode->lid, 0));
        cache_->Discard(ind_bno);
        WritePtr(&dind->data, i, 0);
        cache_->MarkDirty(dind);
      } else {
        any_left = true;
      }
    }
    if (!any_left && from_idx <= g.ind_end) {
      RETURN_IF_ERROR(backend_->FreeBlock(inode->double_indirect, inode->lid, 0));
      cache_->Discard(inode->double_indirect);
      inode->double_indirect = 0;
    }
  }
  return OkStatus();
}

// ---- Cache & sync helpers ------------------------------------------------------------

Status MinixFs::MaybeSyncBlock(const std::shared_ptr<CacheBlock>& block) {
  if (!options_.synchronous_metadata || !block->dirty) {
    return OkStatus();
  }
  RETURN_IF_ERROR(backend_->WriteBlock(block->bno, block->data));
  block->dirty = false;
  return OkStatus();
}

Status MinixFs::MaybeSyncInode(uint32_t ino) {
  auto it = inode_cache_.find(ino);
  if (it == inode_cache_.end() || !it->second.dirty) {
    return OkStatus();
  }
  std::array<uint8_t, kMinixInodeSize> buf;
  it->second.inode.EncodeTo(buf);
  RETURN_IF_ERROR(backend_->WriteInodeBlock(ino, buf));
  it->second.dirty = false;
  return OkStatus();
}

Status MinixFs::EnsureSyncUnit() {
  if (!options_.sync_with_arus || sync_unit_ != 0) {
    return OkStatus();
  }
  LogicalDisk* ld = backend_->logical_disk();
  if (ld == nullptr) {
    return OkStatus();  // Classic mode: no recovery units available.
  }
  ASSIGN_OR_RETURN(sync_unit_, ld->BeginConcurrentARU());
  return OkStatus();
}

Status MinixFs::SyncFs() {
  // Dirty small-mode i-nodes are written individually (the experiment's
  // point: a single i-node write instead of a whole i-node block).
  if (backend_->small_inodes()) {
    for (auto& [ino, cached] : inode_cache_) {
      if (cached.dirty) {
        std::array<uint8_t, kMinixInodeSize> buf;
        cached.inode.EncodeTo(buf);
        RETURN_IF_ERROR(backend_->WriteInodeBlock(ino, buf));
        cached.dirty = false;
      }
    }
  }
  RETURN_IF_ERROR(StoreInodeBitmap());
  RETURN_IF_ERROR(cache_->FlushAll());
  if (sync_unit_ != 0) {
    // Commit the sync interval: the following Flush makes the commit record
    // durable, so recovery lands exactly here (or at the previous sync).
    RETURN_IF_ERROR(backend_->logical_disk()->EndConcurrentARU(sync_unit_));
    sync_unit_ = 0;
  }
  return backend_->Sync();
}

Status MinixFs::DropCaches() {
  RETURN_IF_ERROR(SyncFs());
  RETURN_IF_ERROR(cache_->InvalidateAll());
  inode_cache_.clear();
  readahead_state_.clear();
  return OkStatus();
}

Status MinixFs::Shutdown() {
  RETURN_IF_ERROR(SyncFs());
  return backend_->ShutdownBackend();
}

}  // namespace ld
