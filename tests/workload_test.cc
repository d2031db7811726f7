// Smoke tests of the benchmark machinery at reduced scale: both
// microbenchmarks run to completion on every file system and produce sane
// rates; the hot/cold generator honours its skew. The cases that build
// harness stacks run under each WorkloadConfig that changes their code.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/disk/mem_disk.h"
#include "src/harness/setup.h"
#include "src/workload/hot_cold.h"
#include "src/workload/microbench.h"
#include "src/workload/trace.h"

namespace ld {
namespace {

// One configuration of the harness stacks: the device's channel count and
// the options that change which code a workload runs. The benchmarks' rates
// must stay sane, and the reads correct, under each.
struct WorkloadConfig {
  uint32_t channels = 1;
  bool readahead = true;
  bool maintenance = false;  // Attach a MaintenanceScheduler to LD stacks.
  CleaningPolicy cleaning_policy = CleaningPolicy::kGreedy;
  uint32_t checkpoint_interval = 0;
};

// Each case runs only the configurations that reach its stacks:
//  - the channel count reaches every stack, the checkpoint interval every
//    LD stack;
//  - read-ahead off reaches classic MINIX and SunOS: an LD backend
//    prefetches only with ld_readahead;
//  - maintenance and the cleaning policy change what cleaning does (and,
//    at a nonzero interval, which frames wait for a Step()). The 64-MB
//    setups never clean, so only CleanerChurnTest's smaller volume runs
//    them; the maintenance case attaches its scheduler itself.

// Channels 1, 2 and 4, each at checkpoint intervals 0, 2 and 8.
std::vector<WorkloadConfig> LdConfigs() {
  std::vector<WorkloadConfig> configs;
  for (uint32_t channels : {1u, 2u, 4u}) {
    for (uint32_t interval : {0u, 2u, 8u}) {
      configs.push_back({.channels = channels, .checkpoint_interval = interval});
    }
  }
  return configs;
}

// Read-ahead off at 1 and 4 channels.
std::vector<WorkloadConfig> ReadAheadOffConfigs() {
  return {{.channels = 1, .readahead = false}, {.channels = 4, .readahead = false}};
}

// Greedy cleaning without a scheduler, maintenance on, and the cost-benefit
// cleaner, each at 1 and 4 channels.
std::vector<WorkloadConfig> CleaningConfigs() {
  std::vector<WorkloadConfig> configs;
  for (uint32_t channels : {1u, 4u}) {
    configs.push_back({.channels = channels});
    configs.push_back({.channels = channels, .maintenance = true});
    configs.push_back({.channels = channels, .cleaning_policy = CleaningPolicy::kCostBenefit});
  }
  return configs;
}

std::string ConfigName(const WorkloadConfig& c) {
  std::string name;
  if (!c.readahead) {
    name += "ReadAheadOff_";
  }
  if (c.maintenance) {
    name += "MaintenanceOn_";
  }
  if (c.cleaning_policy == CleaningPolicy::kCostBenefit) {
    name += "CostBenefit_";
  }
  if (c.checkpoint_interval != 0) {
    name += "Checkpoint" + std::to_string(c.checkpoint_interval) + "_";
  }
  return name + "Channels" + std::to_string(c.channels);
}

std::string ConfigParamName(const ::testing::TestParamInfo<WorkloadConfig>& info) {
  return ConfigName(info.param);
}

SetupParams SmallSetup(const WorkloadConfig& config, uint64_t partition_bytes = 64ull << 20) {
  SetupParams params;
  params.device = DeviceOptions::HpC3010(partition_bytes, config.channels);
  params.fs.num_inodes = 2048;
  if (!config.readahead) {
    params.fs.readahead_blocks = 1;
  }
  params.maintenance = config.maintenance;
  params.fs.lld.cleaning_policy = config.cleaning_policy;
  params.fs.lld.checkpoint_interval_segments = config.checkpoint_interval;
  return params;
}

// What setup.h's maintenance contract asks of the code running a workload:
// let the simulated device go quiet so the idle gate can open, then step the
// scheduler, which still decides (and sometimes backs off) on its own. A
// stack without a scheduler has nothing to pump.
void PumpMaintenance(FsUnderTest& t) {
  if (t.maintenance == nullptr) {
    return;
  }
  t.clock->Advance(0.01);
  auto ran = t.maintenance->Step();
  EXPECT_TRUE(ran.ok()) << ran.status().ToString();
}

std::string FsKindLabel(FsKind kind) {
  switch (kind) {
    case FsKind::kMinixLld:
      return "MinixLld";
    case FsKind::kMinixLldSingleList:
      return "MinixLldSingleList";
    case FsKind::kMinixLldSmallInodes:
      return "MinixLldSmallInodes";
    case FsKind::kMinix:
      return "Minix";
    case FsKind::kSunOs:
      return "SunOs";
  }
  return "Unknown";
}

// Every file system under the configurations that reach it: the three LD
// variants under LdConfigs(), and classic MINIX and SunOS at 1, 2 and 4
// channels and with read-ahead off.
std::vector<std::tuple<FsKind, WorkloadConfig>> MicrobenchCases() {
  std::vector<std::tuple<FsKind, WorkloadConfig>> cases;
  for (FsKind kind :
       {FsKind::kMinixLld, FsKind::kMinixLldSingleList, FsKind::kMinixLldSmallInodes}) {
    for (const WorkloadConfig& config : LdConfigs()) {
      cases.emplace_back(kind, config);
    }
  }
  for (FsKind kind : {FsKind::kMinix, FsKind::kSunOs}) {
    for (uint32_t channels : {1u, 2u, 4u}) {
      cases.emplace_back(kind, WorkloadConfig{.channels = channels});
    }
    for (const WorkloadConfig& config : ReadAheadOffConfigs()) {
      cases.emplace_back(kind, config);
    }
  }
  return cases;
}

class MicrobenchSmokeTest
    : public ::testing::TestWithParam<std::tuple<FsKind, WorkloadConfig>> {
 protected:
  FsKind kind() const { return std::get<0>(GetParam()); }
  SetupParams Setup() const { return SmallSetup(std::get<1>(GetParam())); }
};

TEST_P(MicrobenchSmokeTest, SmallFileBenchmarkRuns) {
  auto t = MakeFsUnderTest(kind(), Setup());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  SmallFileParams params;
  params.num_files = 300;
  params.file_bytes = 1024;
  auto result = RunSmallFileBenchmark(t->fs.get(), t->clock.get(), params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->create_per_sec, 0.1);
  EXPECT_GT(result->read_per_sec, 0.1);
  EXPECT_GT(result->delete_per_sec, 0.1);
}

TEST_P(MicrobenchSmokeTest, LargeFileBenchmarkRuns) {
  auto t = MakeFsUnderTest(kind(), Setup());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  LargeFileParams params;
  params.file_bytes = 8ull << 20;
  auto result = RunLargeFileBenchmark(t->fs.get(), t->clock.get(), params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->write_seq_kbps, 10);
  EXPECT_GT(result->read_seq_kbps, 10);
  EXPECT_GT(result->write_rand_kbps, 10);
  EXPECT_GT(result->read_rand_kbps, 10);
  EXPECT_GT(result->reread_seq_kbps, 10);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, MicrobenchSmokeTest, ::testing::ValuesIn(MicrobenchCases()),
                         [](const auto& info) {
                           return ConfigName(std::get<1>(info.param)) + "_" +
                                  FsKindLabel(std::get<0>(info.param));
                         });

// Workloads on a MINIX LLD stack, under LdConfigs().
class LdWorkloadTest : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(LdWorkloadTest, SmallFileDataSurvivesVerification) {
  // The benchmark itself verifies read sizes; additionally check that the
  // benchmark leaves an empty file system after the delete phase.
  auto t = MakeFsUnderTest(FsKind::kMinixLld, SmallSetup(GetParam()));
  ASSERT_TRUE(t.ok());
  SmallFileParams params;
  params.num_files = 100;
  ASSERT_TRUE(RunSmallFileBenchmark(t->fs.get(), t->clock.get(), params).ok());
  EXPECT_EQ(t->fs->ReadDir("/")->size(), 2u);
}

// The harness attaches a MaintenanceScheduler to LD stacks when
// params.maintenance asks for it, and setup.h's contract is that the
// workload driver pumps maintenance->Step(). This test is that driver at
// small scale: a create/overwrite/delete workload pumps the scheduler
// between operations, then drains the backlog and proves the background
// work neither corrupted file contents nor left the volume dirty. It runs
// at every channel count and checkpoint interval; at a nonzero interval
// the seals' checkpoint frames wait for the scheduler's checkpoint duty.
TEST_P(LdWorkloadTest, MaintenancePumpsDuringFsWorkloadWithoutCorruption) {
  SetupParams params = SmallSetup(GetParam());
  params.maintenance = true;
  auto t = MakeFsUnderTest(FsKind::kMinixLld, params);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_NE(t->maintenance, nullptr);

  auto contents = [](int i) {
    std::vector<uint8_t> data(1024 + 512 * (i % 5));
    for (size_t j = 0; j < data.size(); ++j) {
      data[j] = static_cast<uint8_t>((i * 37 + j) & 0xff);
    }
    return data;
  };

  constexpr int kFiles = 80;
  std::vector<uint32_t> inos(kFiles, 0);
  for (int i = 0; i < kFiles; ++i) {
    auto ino = t->fs->CreateFile("/f" + std::to_string(i));
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    inos[i] = *ino;
    const auto data = contents(i);
    ASSERT_TRUE(t->fs->WriteFile(*ino, 0, data).ok());
    PumpMaintenance(*t);
  }
  // Overwrite one stride (dirties segments the scrub cursor may already
  // have verified) and delete another (creates cleanable garbage), with
  // the pump running throughout.
  for (int i = 0; i < kFiles; i += 7) {
    ASSERT_TRUE(t->fs->WriteFile(inos[i], 0, contents(i + 1000)).ok());
    PumpMaintenance(*t);
  }
  for (int i = 3; i < kFiles; i += 9) {
    ASSERT_TRUE(t->fs->Unlink("/f" + std::to_string(i)).ok());
    inos[i] = 0;
    PumpMaintenance(*t);
  }
  ASSERT_TRUE(t->fs->SyncFs().ok());

  auto drained = t->maintenance->Drain(10000);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_FALSE(t->maintenance->HasWork());
  const MaintenanceStats& stats = t->maintenance->stats();
  // The startup scrub pass completed over a healthy volume.
  EXPECT_GE(stats.scrub_cycles, 1u);
  EXPECT_GT(stats.scrub_slices, 0u);
  EXPECT_EQ(stats.last_scrub.outcome(), ScrubReport::Outcome::kClean);

  for (int i = 0; i < kFiles; ++i) {
    if (inos[i] == 0) {
      continue;
    }
    const auto want = (i % 7 == 0) ? contents(i + 1000) : contents(i);
    std::vector<uint8_t> got(want.size(), 0);
    auto n = t->fs->ReadFile(inos[i], 0, got);
    ASSERT_TRUE(n.ok()) << "file " << i << ": " << n.status().ToString();
    ASSERT_EQ(*n, want.size());
    EXPECT_EQ(got, want) << "file " << i;
  }
  auto fsck = t->Fsck();
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  EXPECT_EQ(fsck->outcome(), MinixFsckReport::Outcome::kClean);
}

INSTANTIATE_TEST_SUITE_P(Configs, LdWorkloadTest, ::testing::ValuesIn(LdConfigs()),
                         ConfigParamName);

// Overwrite churn on a 16-MB MINIX LLD volume: the live data stays near 40%
// of it, but three rounds of rewrites outrun the free segments, so the
// cleaner runs, with the configuration's policy, billed to the maintenance
// tenant when a scheduler is attached (and pumped between writes). Every
// file must read back its last contents, and the volume must check clean.
class CleanerChurnTest : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(CleanerChurnTest, CleaningKeepsLatestContentsAndVolumeClean) {
  auto t = MakeFsUnderTest(FsKind::kMinixLld, SmallSetup(GetParam(), 16ull << 20));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->maintenance != nullptr, GetParam().maintenance);

  constexpr int kFiles = 48;
  constexpr int kRounds = 3;
  auto contents = [](int file, int round) {
    std::vector<uint8_t> data(128 * 1024);
    for (size_t j = 0; j < data.size(); ++j) {
      data[j] = static_cast<uint8_t>(file * 37 + round * 11 + j);
    }
    return data;
  };
  std::vector<uint32_t> inos;
  for (int i = 0; i < kFiles; ++i) {
    auto ino = t->fs->CreateFile("/f" + std::to_string(i));
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    inos.push_back(*ino);
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kFiles; ++i) {
      const Status written = t->fs->WriteFile(inos[i], 0, contents(i, round));
      ASSERT_TRUE(written.ok()) << "round " << round << " file " << i << ": "
                                << written.ToString();
      PumpMaintenance(*t);
    }
    ASSERT_TRUE(t->fs->SyncFs().ok());
  }
  EXPECT_GT(t->lld->counters().segments_cleaned, 0u);
  if (t->maintenance != nullptr) {
    auto drained = t->maintenance->Drain(10000);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    EXPECT_FALSE(t->maintenance->HasWork());
  }

  for (int i = 0; i < kFiles; ++i) {
    const auto want = contents(i, kRounds - 1);
    std::vector<uint8_t> got(want.size(), 0);
    auto n = t->fs->ReadFile(inos[i], 0, got);
    ASSERT_TRUE(n.ok()) << "file " << i << ": " << n.status().ToString();
    ASSERT_EQ(*n, want.size());
    EXPECT_TRUE(got == want) << "file " << i;
  }
  auto fsck = t->Fsck();
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  EXPECT_EQ(fsck->outcome(), MinixFsckReport::Outcome::kClean);
}

INSTANTIATE_TEST_SUITE_P(Configs, CleanerChurnTest, ::testing::ValuesIn(CleaningConfigs()),
                         ConfigParamName);

TEST(WorkloadTest, HotColdSkewsWrites) {
  SimClock clock;
  MemDisk disk((32ull << 20) / 512, 512, &clock);
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  auto lld = *LogStructuredDisk::Format(&disk, options);
  HotColdParams params;
  params.num_blocks = 500;
  params.writes = 3000;
  auto result = RunHotCold(lld.get(), params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->writes_done, params.writes);
  EXPECT_EQ(result->blocks.size(), params.num_blocks);
}

TEST(WorkloadTest, TraceIsDeterministicAndWellFormed) {
  TraceParams params;
  params.operations = 2000;
  const auto a = GenerateTrace(params);
  const auto b = GenerateTrace(params);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind));
    ASSERT_EQ(a[i].file, b[i].file);
    ASSERT_EQ(a[i].offset, b[i].offset);
    ASSERT_EQ(a[i].length, b[i].length);
  }
  // Well-formedness: every non-create op references a file that was created
  // earlier and not yet deleted.
  std::set<uint32_t> live;
  for (const auto& op : a) {
    switch (op.kind) {
      case TraceOp::Kind::kCreate:
        EXPECT_EQ(live.count(op.file), 0u);
        live.insert(op.file);
        break;
      case TraceOp::Kind::kWrite:
      case TraceOp::Kind::kReadSeq:
      case TraceOp::Kind::kReadRand:
        EXPECT_EQ(live.count(op.file), 1u);
        break;
      case TraceOp::Kind::kDelete:
        EXPECT_EQ(live.count(op.file), 1u);
        live.erase(op.file);
        break;
      case TraceOp::Kind::kSync:
        break;
    }
  }
}

// One trace on a MINIX LLD, a classic MINIX and a SunOS stack, under
// LdConfigs() and, for classic MINIX and SunOS, read-ahead off.
class TraceReplayTest : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(TraceReplayTest, TraceReplaysOnEverySystem) {
  TraceParams params;
  params.operations = 600;
  const auto trace = GenerateTrace(params);
  for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinix, FsKind::kSunOs}) {
    auto t = MakeFsUnderTest(kind, SmallSetup(GetParam()));
    ASSERT_TRUE(t.ok());
    auto result = ReplayTrace(t->fs.get(), t->clock.get(), trace, 3);
    ASSERT_TRUE(result.ok()) << FsKindName(kind) << ": " << result.status().ToString();
    EXPECT_GT(result->ops_per_second, 0.1);
  }
}

std::vector<WorkloadConfig> TraceConfigs() {
  std::vector<WorkloadConfig> configs = LdConfigs();
  const std::vector<WorkloadConfig> readahead_off = ReadAheadOffConfigs();
  configs.insert(configs.end(), readahead_off.begin(), readahead_off.end());
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Configs, TraceReplayTest, ::testing::ValuesIn(TraceConfigs()),
                         ConfigParamName);

TEST(WorkloadTest, FsKindNamesAreDistinct) {
  EXPECT_STRNE(FsKindName(FsKind::kMinixLld), FsKindName(FsKind::kMinix));
  EXPECT_STRNE(FsKindName(FsKind::kMinix), FsKindName(FsKind::kSunOs));
}

}  // namespace
}  // namespace ld
