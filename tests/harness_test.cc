// Tests for the benchmark harness: the standard experiment setups build
// working stacks for every system kind, measurement reset works, and the
// report helpers format as the bench binaries expect.

#include <gtest/gtest.h>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/harness/tenants.h"

namespace ld {
namespace {

TEST(SetupTest, BuildsEverySystemKind) {
  SetupParams params;
  params.device = DeviceOptions::HpC3010(48ull << 20);
  params.fs.num_inodes = 512;
  for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinixLldSingleList,
                      FsKind::kMinixLldSmallInodes, FsKind::kMinix, FsKind::kSunOs}) {
    auto t = MakeFsUnderTest(kind, params);
    ASSERT_TRUE(t.ok()) << FsKindName(kind) << ": " << t.status().ToString();
    EXPECT_EQ(t->name, FsKindName(kind));
    // Measurement starts from zero.
    EXPECT_EQ(t->clock->Now(), 0.0);
    EXPECT_EQ(t->disk->stats().TotalOps(), 0u);
    // The stack is usable.
    auto ino = t->fs->CreateFile("/x");
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> data(1024, 0x21);
    ASSERT_TRUE(t->fs->WriteFile(*ino, 0, data).ok());
    ASSERT_TRUE(t->fs->SyncFs().ok());
    EXPECT_GT(t->clock->Now(), 0.0);
  }
}

TEST(SetupTest, LdKindsExposeTheLld) {
  auto lld = MakeFsUnderTest(FsKind::kMinixLld, SetupParams{});
  ASSERT_TRUE(lld.ok());
  EXPECT_NE(lld->lld, nullptr);
  auto classic = MakeFsUnderTest(FsKind::kMinix, SetupParams{});
  ASSERT_TRUE(classic.ok());
  EXPECT_EQ(classic->lld, nullptr);
}

TEST(SetupTest, ResetMeasurementClearsCounters) {
  auto t = MakeFsUnderTest(FsKind::kMinixLld, SetupParams{});
  ASSERT_TRUE(t.ok());
  auto ino = t->fs->CreateFile("/y");
  std::vector<uint8_t> data(4096, 1);
  ASSERT_TRUE(t->fs->WriteFile(*ino, 0, data).ok());
  ASSERT_TRUE(t->fs->SyncFs().ok());
  t->ResetMeasurement();
  EXPECT_EQ(t->clock->Now(), 0.0);
  EXPECT_EQ(t->disk->stats().TotalOps(), 0u);
  EXPECT_EQ(t->lld->counters().user_writes, 0u);
}

// readahead_blocks reaches the SunOS stack: a window of one block turns
// read-ahead off, eight turns it on.
TEST(SetupTest, SunOsReadAheadFollowsReadaheadBlocks) {
  for (uint32_t readahead_blocks : {1u, 8u}) {
    SCOPED_TRACE("readahead_blocks " + std::to_string(readahead_blocks));
    SetupParams params;
    params.device = DeviceOptions::HpC3010(32ull << 20);
    params.fs.num_inodes = 512;
    params.fs.readahead_blocks = readahead_blocks;
    auto t = MakeFsUnderTest(FsKind::kSunOs, params);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    MinixFs* fs = t->fs.get();
    auto ino = fs->CreateFile("/seq");
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> chunk(8192, 0x3c);
    const uint64_t kBlocks = 32;
    for (uint64_t b = 0; b < kBlocks; ++b) {
      ASSERT_TRUE(fs->WriteFile(*ino, b * chunk.size(), chunk).ok());
    }
    ASSERT_TRUE(fs->SyncFs().ok());
    ASSERT_TRUE(fs->DropCaches().ok());
    t->ResetMeasurement();
    for (uint64_t b = 0; b < kBlocks; ++b) {
      ASSERT_TRUE(fs->ReadFile(*ino, b * chunk.size(), chunk).ok());
    }
    if (readahead_blocks == 1) {
      EXPECT_EQ(fs->stats().readahead_requests, 0u);
    } else {
      EXPECT_GT(fs->stats().readahead_requests, 0u);
    }
  }
}

// The harness builds the device it is given: its size and channel count
// are not replaced by a second size field.
TEST(SetupTest, BuildsTheDeviceAsGiven) {
  SetupParams params;
  params.device = DeviceOptions::HpC3010(64ull << 20, /*channels=*/4);
  params.fs.num_inodes = 512;
  auto t = MakeFsUnderTest(FsKind::kMinixLld, params);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->disk->num_channels(), 4u);
  EXPECT_EQ(t->disk->capacity_bytes(), DiskGeometry::HpC3010Partition(64ull << 20).CapacityBytes());
}

// The rig's session count is its device's qos.num_tenants, and the sessions
// split the device's capacity_bytes equally.
TEST(RigTest, SessionsSplitTheDeviceCapacity) {
  const uint32_t kSessions = 3;
  const uint64_t kCapacity = kSessions * (24ull << 20);
  MultiTenantParams params;
  params.device = DeviceOptions::HpC3010(kCapacity);
  params.device.qos.policy = QosPolicy::kWeightedShare;
  params.device.qos.num_tenants = kSessions;
  params.fs.num_inodes = 512;
  params.fs.cache_bytes = 1024 * 1024;
  auto rig = MakeMultiTenantRig(params);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  EXPECT_EQ(rig->disk->qos().num_tenants, kSessions);
  ASSERT_EQ(rig->tenants.size(), kSessions);
  for (const TenantSession& session : rig->tenants) {
    EXPECT_EQ(session.part->capacity_bytes(), kCapacity / kSessions);
  }
}

TEST(ReportTest, CompareFormats) {
  EXPECT_EQ(Compare(2064, 2400, "KB/s"), "2064 KB/s (paper: 2400, x0.86)");
  EXPECT_EQ(Compare(12.5, 0, "s", 1), "12.5 s");
  EXPECT_EQ(Compare(788, 788, ""), "788 (paper: 788, x1.00)");
}

}  // namespace
}  // namespace ld
