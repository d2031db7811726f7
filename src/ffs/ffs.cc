#include "src/ffs/ffs.h"

namespace ld {

namespace {

// The SunOS profile FormatFfs and MountFfs run (see ffs.h).
MinixOptions SunOsOptions(MinixOptions options) {
  options.block_size = 8192;
  options.synchronous_metadata = true;
  options.cluster_writes = true;
  options.max_cluster_blocks = 16;
  return options;
}

}  // namespace

FfsBackend::FfsBackend(BlockDevice* device, const MinixSuperblock& sb)
    : ClassicBackend(device, sb) {
  const uint32_t data_blocks = sb.num_blocks - sb.first_data_block;
  num_groups_ = std::max(1u, data_blocks / kBlocksPerGroup);
}

StatusOr<std::unique_ptr<FfsBackend>> FfsBackend::Create(BlockDevice* device,
                                                         const MinixSuperblock& sb, bool fresh) {
  std::unique_ptr<FfsBackend> backend(new FfsBackend(device, sb));
  if (fresh) {
    backend->InitFreshBitmap();
  } else {
    RETURN_IF_ERROR(backend->LoadZoneBitmap());
  }
  return backend;
}

StatusOr<uint32_t> FfsBackend::AllocInGroup(uint32_t group, uint32_t from) {
  const uint32_t group_base = sb_.first_data_block + group * kBlocksPerGroup;
  const uint32_t group_end = group + 1 >= num_groups_
                                 ? sb_.num_blocks
                                 : group_base + kBlocksPerGroup;
  const uint32_t start = std::max(from, group_base);
  for (uint32_t b = start; b < group_end; ++b) {
    if (!zone_bitmap_[b]) {
      zone_bitmap_[b] = true;
      free_blocks_--;
      bitmap_dirty_ = true;
      return b;
    }
  }
  for (uint32_t b = group_base; b < start && b < group_end; ++b) {
    if (!zone_bitmap_[b]) {
      zone_bitmap_[b] = true;
      free_blocks_--;
      bitmap_dirty_ = true;
      return b;
    }
  }
  return NoSpaceError("cylinder group full");
}

StatusOr<uint32_t> FfsBackend::AllocBlock(uint32_t lid, uint32_t pred_bno) {
  (void)lid;
  if (free_blocks_ == 0) {
    return NoSpaceError("file system full");
  }
  uint32_t group;
  uint32_t from = 0;
  if (pred_bno >= sb_.first_data_block) {
    // Stay in the predecessor's group, scanning from just after it.
    group = std::min((pred_bno - sb_.first_data_block) / kBlocksPerGroup, num_groups_ - 1);
    from = pred_bno + 1;
  } else {
    // First block of a file: rotate across groups, FFS-style.
    group = next_group_;
    next_group_ = (next_group_ + 1) % num_groups_;
  }
  // Fall over to the following groups when the preferred one is full.
  for (uint32_t attempt = 0; attempt < num_groups_; ++attempt) {
    auto result = AllocInGroup((group + attempt) % num_groups_, attempt == 0 ? from : 0);
    if (result.ok()) {
      return result;
    }
  }
  return NoSpaceError("file system full");
}

StatusOr<std::unique_ptr<MinixFs>> FormatFfs(BlockDevice* device, const MinixOptions& knobs) {
  const MinixOptions options = SunOsOptions(knobs);
  const MinixSuperblock sb = MinixFs::ComputeClassicLayout(device, options);
  ASSIGN_OR_RETURN(std::unique_ptr<FfsBackend> backend,
                   FfsBackend::Create(device, sb, /*fresh=*/true));
  return MinixFs::FormatWithBackend(std::move(backend), sb, options);
}

StatusOr<std::unique_ptr<MinixFs>> MountFfs(BlockDevice* device, const MinixOptions& knobs) {
  const MinixOptions options = SunOsOptions(knobs);
  std::vector<uint8_t> block(options.block_size);
  const uint64_t sector = static_cast<uint64_t>(options.block_size) / device->sector_size();
  RETURN_IF_ERROR(device->Read(sector, block));
  ASSIGN_OR_RETURN(MinixSuperblock sb, MinixSuperblock::DecodeFrom(block));
  ASSIGN_OR_RETURN(std::unique_ptr<FfsBackend> backend,
                   FfsBackend::Create(device, sb, /*fresh=*/false));
  return MinixFs::MountWithBackend(std::move(backend), sb, options);
}

}  // namespace ld
