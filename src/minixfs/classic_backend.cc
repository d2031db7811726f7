#include "src/minixfs/classic_backend.h"

#include <cstring>

namespace ld {

ClassicBackend::ClassicBackend(BlockDevice* device, const MinixSuperblock& sb)
    : device_(device), sb_(sb) {}

StatusOr<std::unique_ptr<ClassicBackend>> ClassicBackend::Create(BlockDevice* device,
                                                                 const MinixSuperblock& sb,
                                                                 bool fresh) {
  std::unique_ptr<ClassicBackend> backend(new ClassicBackend(device, sb));
  if (fresh) {
    backend->InitFreshBitmap();
  } else {
    RETURN_IF_ERROR(backend->LoadZoneBitmap());
  }
  return backend;
}

void ClassicBackend::InitFreshBitmap() {
  zone_bitmap_.assign(sb_.num_blocks, false);
  // Metadata region (boot, superblock, bitmaps, i-node table) is used.
  for (uint32_t b = 0; b < sb_.first_data_block; ++b) {
    zone_bitmap_[b] = true;
  }
  free_blocks_ = sb_.num_blocks - sb_.first_data_block;
  bitmap_dirty_ = true;
}

Status ClassicBackend::WriteBlock(uint32_t bno, std::span<const uint8_t> data) {
  return WriteBlocks(bno, 1, data);
}

Status ClassicBackend::ReadBlocks(uint32_t bno, uint32_t count, std::span<uint8_t> out) {
  if (bno + count > sb_.num_blocks) {
    return InvalidArgumentError("block read past end of file system");
  }
  return device_->Read(SectorOf(bno), out);
}

StatusOr<uint64_t> ClassicBackend::SubmitBlock(uint32_t bno, std::span<uint8_t> out) {
  if (bno >= sb_.num_blocks) {
    return InvalidArgumentError("block read past end of file system");
  }
  // One queued device request; its tag is the token.
  return device_->SubmitRead(SectorOf(bno), out);
}

Status ClassicBackend::WaitBlock(uint64_t token) {
  if (token == 0) {
    return OkStatus();
  }
  return device_->WaitFor(static_cast<IoTag>(token));
}

Status ClassicBackend::WriteBlocks(uint32_t bno, uint32_t count, std::span<const uint8_t> data) {
  if (bno + count > sb_.num_blocks) {
    return InvalidArgumentError("block write past end of file system");
  }
  return device_->Write(SectorOf(bno), data);
}

StatusOr<uint32_t> ClassicBackend::AllocBlock(uint32_t lid, uint32_t pred_bno) {
  (void)lid;  // The classic backend has no lists; the hint is physical.
  if (free_blocks_ == 0) {
    return NoSpaceError("file system full");
  }
  uint32_t start = pred_bno >= sb_.first_data_block ? pred_bno + 1 : sb_.first_data_block;
  if (start >= sb_.num_blocks) {
    start = sb_.first_data_block;
  }
  // Scan forward from the hint, then wrap.
  for (uint32_t pass = 0; pass < 2; ++pass) {
    const uint32_t begin = pass == 0 ? start : sb_.first_data_block;
    const uint32_t end = pass == 0 ? sb_.num_blocks : start;
    for (uint32_t b = begin; b < end; ++b) {
      if (!zone_bitmap_[b]) {
        zone_bitmap_[b] = true;
        free_blocks_--;
        bitmap_dirty_ = true;
        return b;
      }
    }
  }
  return NoSpaceError("file system full");
}

Status ClassicBackend::FreeBlock(uint32_t bno, uint32_t lid, uint32_t pred_bno_hint) {
  (void)lid;
  (void)pred_bno_hint;
  if (bno >= sb_.num_blocks || !zone_bitmap_[bno]) {
    return InvalidArgumentError("freeing unallocated block " + std::to_string(bno));
  }
  if (bno < sb_.first_data_block) {
    return InvalidArgumentError("freeing a metadata block");
  }
  zone_bitmap_[bno] = false;
  free_blocks_++;
  bitmap_dirty_ = true;
  return OkStatus();
}

Status ClassicBackend::Sync() {
  if (bitmap_dirty_) {
    RETURN_IF_ERROR(StoreZoneBitmap());
    bitmap_dirty_ = false;
  }
  return OkStatus();
}

Status ClassicBackend::ShutdownBackend() { return Sync(); }

Status ClassicBackend::LoadZoneBitmap() {
  zone_bitmap_.assign(sb_.num_blocks, false);
  std::vector<uint8_t> buf(static_cast<size_t>(sb_.zone_bitmap_blocks) * sb_.block_size);
  RETURN_IF_ERROR(ReadBlocks(sb_.zone_bitmap_start, sb_.zone_bitmap_blocks, buf));
  free_blocks_ = 0;
  for (uint32_t b = 0; b < sb_.num_blocks; ++b) {
    const bool used = (buf[b / 8] & (1u << (b % 8))) != 0;
    zone_bitmap_[b] = used;
    if (!used) {
      free_blocks_++;
    }
  }
  return OkStatus();
}

Status ClassicBackend::StoreZoneBitmap() {
  std::vector<uint8_t> buf(static_cast<size_t>(sb_.zone_bitmap_blocks) * sb_.block_size, 0);
  for (uint32_t b = 0; b < sb_.num_blocks; ++b) {
    if (zone_bitmap_[b]) {
      buf[b / 8] |= static_cast<uint8_t>(1u << (b % 8));
    }
  }
  return WriteBlocks(sb_.zone_bitmap_start, sb_.zone_bitmap_blocks, buf);
}

}  // namespace ld
