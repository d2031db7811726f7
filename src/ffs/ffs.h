// FFS/SunOS-style baseline file system (the paper's third measured system).
//
// SunOS 4.1.3's file system is a Berkeley FFS derivative. The behaviours the
// paper's evaluation actually exercises are reproduced here on top of the
// shared MINIX core:
//
//   * cylinder groups — the disk is divided into allocation groups; each
//     file's blocks are allocated within its group, and new files rotate
//     across groups (FfsBackend);
//   * synchronous metadata — create and delete write i-nodes and directory
//     blocks synchronously, which is why SunOS loses the small-file
//     create/delete benchmark (MinixOptions::synchronous_metadata);
//   * 8-KB blocks and write clustering — adjacent dirty blocks are merged
//     into single requests, giving near-bandwidth sequential writes
//     (MinixOptions::cluster_writes);
//   * read-ahead.

#ifndef SRC_FFS_FFS_H_
#define SRC_FFS_FFS_H_

#include <memory>

#include "src/disk/block_device.h"
#include "src/minixfs/classic_backend.h"
#include "src/minixfs/minix_fs.h"

namespace ld {

// Cylinder-group block allocator: the group is chosen from the predecessor
// block when the file already has one, otherwise groups are assigned
// round-robin, spreading files across the disk the way FFS does.
class FfsBackend : public ClassicBackend {
 public:
  static constexpr uint32_t kBlocksPerGroup = 2048;  // 16-MB cylinder groups at 8 KB.

  static StatusOr<std::unique_ptr<FfsBackend>> Create(BlockDevice* device,
                                                      const MinixSuperblock& sb, bool fresh);

  StatusOr<uint32_t> AllocBlock(uint32_t lid, uint32_t pred_bno) override;

  uint32_t num_groups() const { return num_groups_; }

 private:
  FfsBackend(BlockDevice* device, const MinixSuperblock& sb);

  StatusOr<uint32_t> AllocInGroup(uint32_t group, uint32_t from);

  uint32_t num_groups_ = 1;
  uint32_t next_group_ = 0;  // Round-robin cursor for first blocks.
};

// Formats / mounts the FFS baseline on a raw device. Both run the SunOS
// profile — 8-KB blocks, synchronous metadata, write clusters of up to 16
// blocks (128 KB) and kBlocksPerGroup-block cylinder groups — over the rest
// of `knobs` (i-node count, cache size, read-ahead window).
StatusOr<std::unique_ptr<MinixFs>> FormatFfs(BlockDevice* device, const MinixOptions& knobs);
StatusOr<std::unique_ptr<MinixFs>> MountFfs(BlockDevice* device, const MinixOptions& knobs);

}  // namespace ld

#endif  // SRC_FFS_FFS_H_
