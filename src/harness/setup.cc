#include "src/harness/setup.h"

#include "src/harness/env_knobs.h"

namespace ld {

const char* FsKindName(FsKind kind) {
  switch (kind) {
    case FsKind::kMinixLld:
      return "MINIX LLD";
    case FsKind::kMinixLldSingleList:
      return "MINIX LLD (single list)";
    case FsKind::kMinixLldSmallInodes:
      return "MINIX LLD (small i-nodes)";
    case FsKind::kMinix:
      return "MINIX";
    case FsKind::kSunOs:
      return "SunOS";
  }
  return "?";
}

void FsUnderTest::ResetMeasurement() {
  clock->Reset();
  disk->ResetStats();
  if (lld != nullptr) {
    lld->ResetCounters();
  }
  if (fs != nullptr) {
    fs->ResetStats();
  }
}

StatusOr<MinixFsckReport> FsUnderTest::Fsck(bool scrub) {
  MinixFsckOptions options;
  options.scrub = scrub;
  return fs->Fsck(options);
}

StatusOr<FsStack> MakeFsStack(BlockDevice* device, FsKind kind, const SetupParams& params) {
  FsStack s;

  MinixOptions options;
  options.block_size = params.minix_block_size;
  options.num_inodes = params.num_inodes;
  options.cache_bytes = params.cache_bytes;
  options.compress_file_data = params.compress_file_data;
  options.readahead_blocks = params.readahead_blocks;
  options.ld_readahead = params.ld_readahead;

  switch (kind) {
    case FsKind::kMinixLld:
    case FsKind::kMinixLldSingleList:
    case FsKind::kMinixLldSmallInodes: {
      LldOptions lld_options = params.lld;
      lld_options.block_size = params.minix_block_size;
      lld_options.checkpoint_interval_segments =
          EnvCheckpointInterval(lld_options.checkpoint_interval_segments);
      lld_options.cleaning_policy = EnvCleaningPolicy(lld_options.cleaning_policy);
      ASSIGN_OR_RETURN(s.lld, LogStructuredDisk::Format(device, lld_options));
      // Attached before the file system's format, so the seals that format
      // makes already defer their checkpoint frames to the scheduler.
      if (EnvMaintenance(params.maintenance)) {
        s.maintenance = std::make_unique<MaintenanceScheduler>(s.lld.get(), MaintenanceOptions{});
      }
      const bool list_per_file = kind != FsKind::kMinixLldSingleList;
      const bool small_inodes = kind == FsKind::kMinixLldSmallInodes;
      ASSIGN_OR_RETURN(s.fs,
                       MinixFs::FormatOnLd(s.lld.get(), options, list_per_file, small_inodes));
      break;
    }
    case FsKind::kMinix: {
      ASSIGN_OR_RETURN(s.fs, MinixFs::FormatClassic(device, options));
      break;
    }
    case FsKind::kSunOs: {
      FfsParams ffs;
      ffs.num_inodes = params.num_inodes;
      ffs.cache_bytes = params.cache_bytes;
      ASSIGN_OR_RETURN(s.fs, FormatFfs(device, ffs));
      break;
    }
  }
  return s;
}

StatusOr<FsUnderTest> MakeFsUnderTest(FsKind kind, const SetupParams& params) {
  FsUnderTest t;
  t.name = FsKindName(kind);
  t.clock = std::make_unique<SimClock>();
  DeviceOptions device = params.device;
  device.geometry = DiskGeometry::HpC3010Partition(params.partition_bytes);
  t.disk = MakeDevice(device, t.clock.get());

  ASSIGN_OR_RETURN(FsStack stack, MakeFsStack(t.disk.get(), kind, params));
  t.lld = std::move(stack.lld);
  t.fs = std::move(stack.fs);
  t.maintenance = std::move(stack.maintenance);
  t.ResetMeasurement();
  return t;
}

}  // namespace ld
