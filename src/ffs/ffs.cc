#include "src/ffs/ffs.h"

namespace ld {

FfsBackend::FfsBackend(BlockDevice* device, const MinixSuperblock& sb,
                       uint32_t blocks_per_group)
    : ClassicBackend(device, sb), blocks_per_group_(blocks_per_group) {
  const uint32_t data_blocks = sb.num_blocks - sb.first_data_block;
  num_groups_ = std::max(1u, data_blocks / blocks_per_group_);
}

StatusOr<std::unique_ptr<FfsBackend>> FfsBackend::Create(BlockDevice* device,
                                                         const MinixSuperblock& sb, bool fresh,
                                                         uint32_t blocks_per_group) {
  std::unique_ptr<FfsBackend> backend(new FfsBackend(device, sb, blocks_per_group));
  if (fresh) {
    backend->InitFreshBitmap();
  } else {
    RETURN_IF_ERROR(backend->LoadZoneBitmap());
  }
  return backend;
}

StatusOr<uint32_t> FfsBackend::AllocInGroup(uint32_t group, uint32_t from) {
  const uint32_t group_base = sb_.first_data_block + group * blocks_per_group_;
  const uint32_t group_end = group + 1 >= num_groups_
                                 ? sb_.num_blocks
                                 : group_base + blocks_per_group_;
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
    group = std::min((pred_bno - sb_.first_data_block) / blocks_per_group_, num_groups_ - 1);
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

StatusOr<std::unique_ptr<MinixFs>> FormatFfs(BlockDevice* device, const FfsParams& params) {
  MinixOptions options;
  options.block_size = params.block_size;
  options.num_inodes = params.num_inodes;
  options.cache_bytes = params.cache_bytes;
  options.synchronous_metadata = true;
  options.readahead_blocks = params.readahead_blocks;
  options.cluster_writes = true;
  options.max_cluster_blocks = params.max_cluster_blocks;

  const MinixSuperblock sb = MinixFs::ComputeClassicLayout(device, options);
  ASSIGN_OR_RETURN(std::unique_ptr<FfsBackend> backend,
                   FfsBackend::Create(device, sb, /*fresh=*/true, params.blocks_per_group));
  return MinixFs::FormatWithBackend(std::move(backend), sb, options);
}

StatusOr<std::unique_ptr<MinixFs>> MountFfs(BlockDevice* device, const FfsParams& params) {
  MinixOptions options;
  options.block_size = params.block_size;
  options.num_inodes = params.num_inodes;
  options.cache_bytes = params.cache_bytes;
  options.synchronous_metadata = true;
  options.readahead_blocks = params.readahead_blocks;
  options.cluster_writes = true;
  options.max_cluster_blocks = params.max_cluster_blocks;

  std::vector<uint8_t> block(options.block_size);
  const uint64_t sector = static_cast<uint64_t>(options.block_size) / device->sector_size();
  RETURN_IF_ERROR(device->Read(sector, block));
  ASSIGN_OR_RETURN(MinixSuperblock sb, MinixSuperblock::DecodeFrom(block));
  ASSIGN_OR_RETURN(std::unique_ptr<FfsBackend> backend,
                   FfsBackend::Create(device, sb, /*fresh=*/false, params.blocks_per_group));
  return MinixFs::MountWithBackend(std::move(backend), sb, options);
}

}  // namespace ld
