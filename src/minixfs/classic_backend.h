// Classic MINIX storage backend: physical block numbers on a raw disk and a
// zone bitmap for allocation, with allocate-close-to-previous placement
// (paper §4.1: "when it allocates a block for a file, it allocates it close
// to the previous allocated block for that file").

#ifndef SRC_MINIXFS_CLASSIC_BACKEND_H_
#define SRC_MINIXFS_CLASSIC_BACKEND_H_

#include <memory>
#include <vector>

#include "src/disk/block_device.h"
#include "src/minixfs/backend.h"
#include "src/minixfs/minix_types.h"

namespace ld {

class ClassicBackend : public MinixBackend {
 public:
  // `fresh` = the file system is being formatted: the zone bitmap starts
  // empty with the metadata region pre-marked used, instead of being loaded
  // from disk.
  static StatusOr<std::unique_ptr<ClassicBackend>> Create(BlockDevice* device,
                                                          const MinixSuperblock& sb, bool fresh);

  uint32_t block_size() const override { return sb_.block_size; }
  StatusOr<uint64_t> SubmitBlock(uint32_t bno, std::span<uint8_t> out) override;
  Status WaitBlock(uint64_t token) override;
  Status WriteBlock(uint32_t bno, std::span<const uint8_t> data) override;
  Status ReadBlocks(uint32_t bno, uint32_t count, std::span<uint8_t> out) override;
  Status WriteBlocks(uint32_t bno, uint32_t count, std::span<const uint8_t> data) override;
  StatusOr<uint32_t> AllocBlock(uint32_t lid, uint32_t pred_bno) override;
  Status FreeBlock(uint32_t bno, uint32_t lid, uint32_t pred_bno_hint) override;
  StatusOr<uint32_t> CreateFileList(uint32_t near_lid) override { (void)near_lid; return 0u; }
  Status DeleteFileList(uint32_t lid) override {
    (void)lid;
    return OkStatus();
  }
  Status Sync() override;
  Status ShutdownBackend() override;
  bool readahead() const override { return true; }

  uint64_t free_blocks() const { return free_blocks_; }

 protected:
  ClassicBackend(BlockDevice* device, const MinixSuperblock& sb);

  uint64_t SectorOf(uint32_t bno) const {
    return static_cast<uint64_t>(bno) * sb_.block_size / device_->sector_size();
  }

  Status LoadZoneBitmap();
  Status StoreZoneBitmap();

  // Marks a freshly formatted metadata region used and primes the bitmap.
  void InitFreshBitmap();

  BlockDevice* device_;
  MinixSuperblock sb_;
  std::vector<bool> zone_bitmap_;  // One bit per fs block; true = used.
  uint64_t free_blocks_ = 0;
  bool bitmap_dirty_ = false;
};

}  // namespace ld

#endif  // SRC_MINIXFS_CLASSIC_BACKEND_H_
