// Tests for the benchmark harness: the standard experiment setups build
// working stacks for every system kind, measurement reset works, and the
// report helpers format as the bench binaries expect.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "src/harness/env_knobs.h"
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

// Sets an environment variable for one scope, restoring its prior state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prev = std::getenv(name)) {
      prev_ = prev;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (prev_) {
      setenv(name_, prev_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> prev_;
};

TEST(EnvKnobsTest, EachKnobKeepsItsAcceptRule) {
  {
    ScopedEnv env("LD_CHANNELS", "0");
    EXPECT_EQ(EnvChannels(3), 3u);  // Zero channels fall back.
  }
  {
    ScopedEnv env("LD_CHANNELS", "4");
    EXPECT_EQ(EnvChannels(1), 4u);
  }
  {
    ScopedEnv env("LD_CKPT_INTERVAL", "0");
    EXPECT_EQ(EnvCheckpointInterval(8), 0u);  // Zero turns checkpoints off.
  }
  {
    ScopedEnv env("LD_CKPT_INTERVAL", "-2");
    EXPECT_EQ(EnvCheckpointInterval(8), 8u);
  }
  {
    ScopedEnv env("LD_FAIL_CHANNEL", "-1");
    EXPECT_EQ(EnvFailChannel(2), -1);  // Negative values are accepted.
  }
  {
    ScopedEnv env("LD_FAULT_SEED", "-5");
    EXPECT_EQ(EnvFaultSeed(7), 7u);
  }
  {
    ScopedEnv env("LD_TENANTS", "0");
    EXPECT_EQ(EnvTenants(1), 1u);
  }
  {
    ScopedEnv env("LD_SEGMENT_PARITY", "0");
    EXPECT_FALSE(EnvSegmentParity(true));
  }
  {
    ScopedEnv env("LD_MAINT", "0");
    EXPECT_FALSE(EnvMaintenance(true));
  }
  // Enum knobs: every spelling maps to its value; anything else falls back.
  for (const auto& [spelling, policy] : {std::pair{"fifo", QueuePolicy::kFifo},
                                         std::pair{"cscan", QueuePolicy::kCScan}}) {
    ScopedEnv env("LD_QUEUE_POLICY", spelling);
    EXPECT_EQ(EnvQueuePolicy(policy == QueuePolicy::kFifo ? QueuePolicy::kCScan
                                                          : QueuePolicy::kFifo),
              policy)
        << spelling;
  }
  {
    ScopedEnv env("LD_QUEUE_POLICY", "FIFO");
    EXPECT_EQ(EnvQueuePolicy(QueuePolicy::kFifo), QueuePolicy::kFifo);
  }
  for (const auto& [spelling, policy] :
       {std::pair{"greedy", CleaningPolicy::kGreedy},
        std::pair{"cost_benefit", CleaningPolicy::kCostBenefit}}) {
    ScopedEnv env("LD_CLEANER_POLICY", spelling);
    EXPECT_EQ(EnvCleaningPolicy(policy == CleaningPolicy::kGreedy ? CleaningPolicy::kCostBenefit
                                                                  : CleaningPolicy::kGreedy),
              policy)
        << spelling;
  }
  {
    ScopedEnv env("LD_CLEANER_POLICY", "cost-benefit");
    EXPECT_EQ(EnvCleaningPolicy(CleaningPolicy::kGreedy), CleaningPolicy::kGreedy);
  }
  for (const auto& [spelling, policy] : {std::pair{"none", QosPolicy::kNone},
                                         std::pair{"share", QosPolicy::kWeightedShare},
                                         std::pair{"deadline", QosPolicy::kDeadline}}) {
    ScopedEnv env("LD_QOS", spelling);
    EXPECT_EQ(EnvQosPolicy(policy == QosPolicy::kNone ? QosPolicy::kDeadline : QosPolicy::kNone),
              policy)
        << spelling;
  }
  {
    ScopedEnv env("LD_QOS", "edf");
    EXPECT_EQ(EnvQosPolicy(QosPolicy::kWeightedShare), QosPolicy::kWeightedShare);
  }
}

}  // namespace
}  // namespace ld
