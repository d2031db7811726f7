#include "src/harness/setup.h"

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

StatusOr<FsStack> MakeFsStack(BlockDevice* device, FsKind kind, const FsParams& fs,
                              bool maintenance) {
  FsStack s;

  MinixOptions options;
  options.num_inodes = fs.num_inodes;
  options.cache_bytes = fs.cache_bytes;
  options.compress_file_data = fs.compress_file_data;
  options.readahead_blocks = fs.readahead_blocks;
  options.ld_readahead = fs.ld_readahead;

  switch (kind) {
    case FsKind::kMinixLld:
    case FsKind::kMinixLldSingleList:
    case FsKind::kMinixLldSmallInodes: {
      options.block_size = fs.lld.block_size;
      ASSIGN_OR_RETURN(s.lld, LogStructuredDisk::Format(device, fs.lld));
      // Attached before the file system's format, so the seals that format
      // makes already defer their checkpoint frames to the scheduler.
      if (maintenance) {
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
      ASSIGN_OR_RETURN(s.fs, FormatFfs(device, options));
      break;
    }
  }
  return s;
}

StatusOr<FsUnderTest> MakeFsUnderTest(FsKind kind, const SetupParams& params) {
  FsUnderTest t;
  t.name = FsKindName(kind);
  t.clock = std::make_unique<SimClock>();
  t.disk = MakeDevice(params.device, t.clock.get());

  ASSIGN_OR_RETURN(FsStack stack, MakeFsStack(t.disk.get(), kind, params.fs, params.maintenance));
  t.lld = std::move(stack.lld);
  t.fs = std::move(stack.fs);
  t.maintenance = std::move(stack.maintenance);
  t.ResetMeasurement();
  return t;
}

}  // namespace ld
