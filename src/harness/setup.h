// Standard experiment setups shared by the benchmark binaries: the paper's
// measurement platform was a 400-MB partition of an HP C3010 disk; the three
// measured file systems were MINIX LLD, MINIX, and SunOS (FFS).

#ifndef SRC_HARNESS_SETUP_H_
#define SRC_HARNESS_SETUP_H_

#include <memory>
#include <string>

#include "src/disk/device_factory.h"
#include "src/ffs/ffs.h"
#include "src/lld/lld.h"
#include "src/lld/lld_maintenance.h"
#include "src/minixfs/minix_fs.h"

namespace ld {

enum class FsKind {
  kMinixLld,              // MINIX over LLD, one list per file.
  kMinixLldSingleList,    // MINIX over LLD, one global list (first integration).
  kMinixLldSmallInodes,   // MINIX over LLD, 64-byte i-node blocks.
  kMinix,                 // Classic MINIX on the raw disk.
  kSunOs,                 // FFS/SunOS-style baseline.
};

const char* FsKindName(FsKind kind);

// A complete file system under test with its simulated device and clock.
struct FsUnderTest {
  std::string name;
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<BlockDevice> disk;
  std::unique_ptr<LogStructuredDisk> lld;  // Null for non-LD systems.
  std::unique_ptr<MinixFs> fs;
  // Idle-driven background maintenance; null unless params.maintenance
  // asked for it. The workload driver pumps maintenance->Step().
  std::unique_ptr<MaintenanceScheduler> maintenance;

  // Resets clock, device, LLD, and file-system counters after setup so
  // measurements exclude formatting (and each phase starts from zero).
  void ResetMeasurement();

  // Runs the file system's consistency check; with `scrub` it is
  // "fsck --scrub": the LD's media scrub runs first and the report carries
  // what it repaired and whether the volume is degraded. Non-LD systems
  // reject scrub with UNIMPLEMENTED.
  StatusOr<MinixFsckReport> Fsck(bool scrub = false);
};

// The file-system knobs of one harness stack. MakeFsStack reads every field
// that applies to the stack's kind.
struct FsParams {
  uint32_t num_inodes = 16384;
  uint64_t cache_bytes = 6144 * 1024;
  // LD kinds: the LLD under the file system (segment size etc.). MINIX on
  // LLD takes its block size from lld.block_size.
  LldOptions lld;
  // LD kinds: mark file data lists compressible (requires lld.compressor).
  bool compress_file_data = false;
  // Read-path knobs (forwarded to MinixOptions). `readahead_blocks` is the
  // read-ahead window of classic MINIX and SunOS; `ld_readahead` turns
  // per-file read-ahead on for LD kinds too (off = the paper's §4.1
  // behaviour).
  uint32_t readahead_blocks = 8;
  bool ld_readahead = false;
};

struct SetupParams {
  // Built as given: the paper's 400-MB partition of the HP C3010 unless the
  // caller picks another backend, size, channel count or queue policy.
  DeviceOptions device = DeviceOptions::HpC3010(400ull << 20);
  FsParams fs;
  // Attach an idle-driven MaintenanceScheduler to LD-based stacks with the
  // scheduler's default pacing. Its duties and the LLD's cleaning bill to
  // kMaintenanceTenant, and cadence-driven checkpoint frames move off the
  // seal path onto its checkpoint duty; the caller must step it
  // (FsUnderTest::maintenance).
  bool maintenance = false;
};

// A file system (plus its LLD, for LD kinds) built on a caller-owned device:
// the building block shared by the single-FS setup below and the
// multi-tenant rig (src/harness/tenants.h), which formats one stack per
// partition of a shared device.
struct FsStack {
  std::unique_ptr<LogStructuredDisk> lld;  // Null for non-LD systems.
  std::unique_ptr<MinixFs> fs;
  std::unique_ptr<MaintenanceScheduler> maintenance;  // Null unless enabled.
};

// Formats `kind` onto `device`, a device the caller built, with `fs`'s
// knobs; `maintenance` is SetupParams::maintenance.
StatusOr<FsStack> MakeFsStack(BlockDevice* device, FsKind kind, const FsParams& fs,
                              bool maintenance);

StatusOr<FsUnderTest> MakeFsUnderTest(FsKind kind, const SetupParams& params);

}  // namespace ld

#endif  // SRC_HARNESS_SETUP_H_
