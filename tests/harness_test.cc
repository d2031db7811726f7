// Tests for the benchmark harness: the standard experiment setups build
// working stacks for every system kind, measurement reset works, and the
// report helpers format as the bench binaries expect.

#include <gtest/gtest.h>

#include "src/harness/report.h"
#include "src/harness/setup.h"

namespace ld {
namespace {

TEST(SetupTest, BuildsEverySystemKind) {
  SetupParams params;
  params.partition_bytes = 48ull << 20;
  params.num_inodes = 512;
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

TEST(ReportTest, CompareFormats) {
  EXPECT_EQ(Compare(2064, 2400, "KB/s"), "2064 KB/s (paper: 2400, x0.86)");
  EXPECT_EQ(Compare(12.5, 0, "s", 1), "12.5 s");
  EXPECT_EQ(Compare(788, 788, ""), "788 (paper: 788, x1.00)");
}

}  // namespace
}  // namespace ld
