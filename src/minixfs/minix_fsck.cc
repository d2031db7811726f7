// fsck-style consistency checking (the check the paper says ARUs make
// unnecessary, §2.1). The walk mirrors what fsck verifies on a real MINIX
// volume: namespace reachability, i-node bitmap agreement, link counts,
// block single-ownership, and directory well-formedness.

#include <unordered_map>
#include <unordered_set>

#include "src/minixfs/minix_fs.h"

namespace ld {

Status MinixFs::CheckConsistency() {
  std::unordered_map<uint32_t, uint32_t> name_counts;  // ino -> dir entries.
  std::unordered_set<uint32_t> visited_dirs;
  std::unordered_set<uint32_t> owned_blocks;

  // Claims a block for one owner; reports double ownership.
  auto claim = [&](uint32_t bno, uint32_t ino) -> Status {
    if (bno == 0) {
      return OkStatus();
    }
    if (!owned_blocks.insert(bno).second) {
      return CorruptionError("block " + std::to_string(bno) + " owned twice (i-node " +
                             std::to_string(ino) + ")");
    }
    return OkStatus();
  };

  // Walks an i-node's block mapping (without allocating), claiming every
  // data and indirect block.
  auto walk_blocks = [&](uint32_t ino, DiskInode* inode) -> Status {
    const uint32_t total = (inode->size + sb_.block_size - 1) / sb_.block_size;
    for (uint32_t idx = 0; idx < total; ++idx) {
      ASSIGN_OR_RETURN(uint32_t bno, BMap(inode, idx, /*alloc=*/false));
      RETURN_IF_ERROR(claim(bno, ino));
    }
    RETURN_IF_ERROR(claim(inode->indirect, ino));
    if (inode->double_indirect != 0) {
      RETURN_IF_ERROR(claim(inode->double_indirect, ino));
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> dind,
                       cache_->Get(inode->double_indirect, /*load=*/true));
      for (uint32_t i = 0; i < sb_.PointersPerBlock(); ++i) {
        uint32_t ptr;
        std::memcpy(&ptr, dind->data.data() + static_cast<size_t>(i) * 4, 4);
        RETURN_IF_ERROR(claim(ptr, ino));
      }
    }
    return OkStatus();
  };

  // Breadth-first namespace walk from the root.
  std::vector<uint32_t> queue = {kRootIno};
  name_counts[kRootIno] = 1;  // The implicit root reference.
  while (!queue.empty()) {
    const uint32_t dir_ino = queue.back();
    queue.pop_back();
    if (!visited_dirs.insert(dir_ino).second) {
      return CorruptionError("directory " + std::to_string(dir_ino) +
                             " reachable twice (namespace cycle)");
    }
    ASSIGN_OR_RETURN(DiskInode dir, GetInode(dir_ino));
    if (dir.type != FileType::kDirectory) {
      return CorruptionError("i-node " + std::to_string(dir_ino) +
                             " referenced as a directory but is not one");
    }
    RETURN_IF_ERROR(walk_blocks(dir_ino, &dir));

    const uint32_t epb = sb_.DirEntriesPerBlock();
    const uint32_t nblocks = (dir.size + sb_.block_size - 1) / sb_.block_size;
    for (uint32_t b = 0; b < nblocks; ++b) {
      ASSIGN_OR_RETURN(uint32_t bno, BMap(&dir, b, /*alloc=*/false));
      if (bno == 0) {
        continue;
      }
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
      for (uint32_t e = 0; e < epb; ++e) {
        const auto entry = MinixDirEntry::DecodeFrom(std::span<const uint8_t>(block->data)
                                                         .subspan(e * kMinixDirEntrySize,
                                                                  kMinixDirEntrySize));
        if (entry.ino == 0) {
          continue;
        }
        if (entry.ino > sb_.num_inodes) {
          return CorruptionError("directory entry '" + entry.name + "' points at bad i-node " +
                                 std::to_string(entry.ino));
        }
        if (!inode_bitmap_[entry.ino]) {
          return CorruptionError("directory entry '" + entry.name +
                                 "' points at unallocated i-node " + std::to_string(entry.ino));
        }
        if (entry.name == ".") {
          if (entry.ino != dir_ino) {
            return CorruptionError("broken '.' in directory " + std::to_string(dir_ino));
          }
          continue;  // Self-references are not counted as names.
        }
        if (entry.name == "..") {
          continue;  // Parent links are validated by reachability.
        }
        name_counts[entry.ino]++;
        ASSIGN_OR_RETURN(DiskInode child, GetInode(entry.ino));
        if (child.type == FileType::kDirectory) {
          queue.push_back(entry.ino);
        } else if (child.type != FileType::kRegular) {
          return CorruptionError("entry '" + entry.name + "' points at free i-node " +
                                 std::to_string(entry.ino));
        }
      }
    }
  }

  // Every reachable regular file's blocks are claimed; link counts checked.
  for (const auto& [ino, names] : name_counts) {
    ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
    if (inode.type == FileType::kRegular) {
      RETURN_IF_ERROR(walk_blocks(ino, &inode));
      if (inode.nlinks != names) {
        return CorruptionError("i-node " + std::to_string(ino) + " has nlinks " +
                               std::to_string(inode.nlinks) + " but " + std::to_string(names) +
                               " directory entries");
      }
    }
  }

  // Bitmap agreement: every allocated i-node must be reachable.
  for (uint32_t ino = 1; ino <= sb_.num_inodes; ++ino) {
    const bool allocated = inode_bitmap_[ino];
    const bool reachable = name_counts.count(ino) != 0;
    if (allocated && !reachable) {
      return CorruptionError("i-node " + std::to_string(ino) +
                             " allocated in the bitmap but unreachable (orphan)");
    }
    if (!allocated && reachable) {
      return CorruptionError("i-node " + std::to_string(ino) +
                             " reachable but free in the bitmap");
    }
  }
  return OkStatus();
}

StatusOr<MinixFsckReport> MinixFs::Fsck(const MinixFsckOptions& options) {
  MinixFsckReport report;
  if (LogicalDisk* ld = backend_->logical_disk(); ld != nullptr) {
    report.degraded = ld->degraded();
    if (options.scrub) {
      // The scrub verifies *durable* state, so everything dirty must be on
      // the log first (this also commits the sync-interval ARU — LLD's
      // scrub requires no open units).
      RETURN_IF_ERROR(SyncFs());
      StatusOr<ScrubReport> scrubbed = ld->Scrub();
      if (scrubbed.status().code() == ErrorCode::kUnimplemented) {
        // An LD without media verification: nothing to scrub, walk anyway.
      } else {
        RETURN_IF_ERROR(scrubbed.status());
        report.scrubbed = true;
        report.scrub = *scrubbed;
      }
      report.degraded = ld->degraded();
    }
  } else if (options.scrub) {
    return UnimplementedError("fsck --scrub needs a Logical Disk backend");
  }
  RETURN_IF_ERROR(CheckConsistency());
  return report;
}

}  // namespace ld
