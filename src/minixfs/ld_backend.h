// LD storage backend: MINIX block numbers are Logical Disk block ids.
//
// This is the paper's MINIX-LLD integration (§4.1): blocks are allocated
// with NewBlock (on the global list, or on a per-file list whose id the
// i-node stores), freed blocks are reported with DeleteBlock, sync maps to
// Flush, the zone bitmap disappears, and read-ahead is off. The
// small-i-node variant allocates a 64-byte logical block per i-node,
// exercising LD's multiple block sizes.

#ifndef SRC_MINIXFS_LD_BACKEND_H_
#define SRC_MINIXFS_LD_BACKEND_H_

#include "src/ld/logical_disk.h"
#include "src/minixfs/backend.h"
#include "src/minixfs/minix_types.h"

namespace ld {

class LdBackend : public MinixBackend {
 public:
  LdBackend(LogicalDisk* ld, const MinixSuperblock& sb) : ld_(ld), sb_(sb) {}

  uint32_t block_size() const override { return sb_.block_size; }
  // Consecutive block numbers need not be physically consecutive on an LD,
  // so each block is its own transfer and the LD's tag is the token.
  StatusOr<uint64_t> SubmitBlock(uint32_t bno, std::span<uint8_t> out) override {
    return ld_->SubmitRead(bno, out);
  }
  Status WaitBlock(uint64_t token) override { return ld_->WaitRead(token); }
  Status WriteBlock(uint32_t bno, std::span<const uint8_t> data) override {
    return ld_->Write(bno, data);
  }
  StatusOr<uint32_t> AllocBlock(uint32_t lid, uint32_t pred_bno) override {
    return ld_->NewBlock(lid != 0 ? lid : sb_.global_list, pred_bno, sb_.block_size);
  }
  Status FreeBlock(uint32_t bno, uint32_t lid, uint32_t pred_bno_hint) override {
    return ld_->DeleteBlock(bno, lid != 0 ? lid : sb_.global_list, pred_bno_hint);
  }
  StatusOr<uint32_t> CreateFileList(uint32_t near_lid) override {
    if (sb_.list_per_file == 0) {
      return 0u;
    }
    ListHints hints;
    hints.cluster = true;
    hints.interlist_cluster = true;
    hints.compress = sb_.compress_data != 0;
    return ld_->NewList(near_lid, hints);
  }
  Status DeleteFileList(uint32_t lid) override {
    if (lid == 0) {
      return OkStatus();
    }
    return ld_->DeleteList(lid, kNilLid);
  }
  bool small_inodes() const override { return sb_.mode == MinixMode::kLdSmallInodes; }
  Status ReadInodeBlock(uint32_t ino, std::span<uint8_t> out64) override {
    return ld_->Read(sb_.inode_bid_base + ino - 1, out64);
  }
  Status WriteInodeBlock(uint32_t ino, std::span<const uint8_t> in64) override {
    return ld_->Write(sb_.inode_bid_base + ino - 1, in64);
  }
  Status Sync() override { return ld_->Flush(); }
  Status ShutdownBackend() override { return ld_->Shutdown(); }
  bool readahead() const override { return false; }

  LogicalDisk* logical_disk() override { return ld_; }

 private:
  LogicalDisk* ld_;
  MinixSuperblock sb_;
};

}  // namespace ld

#endif  // SRC_MINIXFS_LD_BACKEND_H_
