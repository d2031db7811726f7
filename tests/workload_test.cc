// Smoke tests of the benchmark machinery at reduced scale: both
// microbenchmarks run to completion on every file system and produce sane
// rates; the hot/cold generator honours its skew.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/disk/mem_disk.h"
#include "src/harness/setup.h"
#include "src/workload/hot_cold.h"
#include "src/workload/microbench.h"
#include "src/workload/trace.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

SetupParams SmallSetup() {
  SetupParams params;
  params.partition_bytes = 64ull << 20;
  params.num_inodes = 2048;
  // The CI read-ahead matrix re-runs these workloads across channel counts
  // with prefetching on and off; the benchmarks' rates must stay sane (and
  // the reads correct) in every leg.
  params.device = EnvHpC3010(params.partition_bytes);
  if (!EnvReadAhead(true)) {
    params.readahead_blocks = 1;
  }
  return params;
}

class MicrobenchSmokeTest : public ::testing::TestWithParam<FsKind> {};

TEST_P(MicrobenchSmokeTest, SmallFileBenchmarkRuns) {
  auto t = MakeFsUnderTest(GetParam(), SmallSetup());
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
  auto t = MakeFsUnderTest(GetParam(), SmallSetup());
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

INSTANTIATE_TEST_SUITE_P(AllSystems, MicrobenchSmokeTest,
                         ::testing::Values(FsKind::kMinixLld, FsKind::kMinixLldSingleList,
                                           FsKind::kMinixLldSmallInodes, FsKind::kMinix,
                                           FsKind::kSunOs),
                         [](const auto& info) {
                           switch (info.param) {
                             case FsKind::kMinixLld:
                               return std::string("MinixLld");
                             case FsKind::kMinixLldSingleList:
                               return std::string("MinixLldSingleList");
                             case FsKind::kMinixLldSmallInodes:
                               return std::string("MinixLldSmallInodes");
                             case FsKind::kMinix:
                               return std::string("Minix");
                             case FsKind::kSunOs:
                               return std::string("SunOs");
                           }
                           return std::string("Unknown");
                         });

TEST(WorkloadTest, SmallFileDataSurvivesVerification) {
  // The benchmark itself verifies read sizes; additionally check that the
  // benchmark leaves an empty file system after the delete phase.
  auto t = MakeFsUnderTest(FsKind::kMinixLld, SmallSetup());
  ASSERT_TRUE(t.ok());
  SmallFileParams params;
  params.num_files = 100;
  ASSERT_TRUE(RunSmallFileBenchmark(t->fs.get(), t->clock.get(), params).ok());
  EXPECT_EQ(t->fs->ReadDir("/")->size(), 2u);
}

// The harness attaches a MaintenanceScheduler to LD stacks when
// params.maintenance (or LD_MAINT) asks for it, and setup.h's contract is
// that the workload driver pumps maintenance->Step(). This test is that
// driver at small scale: a create/overwrite/delete workload pumps the
// scheduler between operations, then drains the backlog and proves the
// background work neither corrupted file contents nor left the volume
// dirty. The CI maintenance matrix re-runs it across LD_MAINT and
// LD_CHANNELS legs; with LD_MAINT=0 the scheduler is null, the pump is a
// no-op, and the leg acts as the maintenance-off control. LD_QOS is not a
// leg: with LD_TENANTS unset only one tenant is configured, so no QoS
// policy is active and share and deadline would run the same code.
TEST(WorkloadTest, MaintenancePumpsDuringFsWorkloadWithoutCorruption) {
  SetupParams params = SmallSetup();
  params.maintenance = true;  // LD_MAINT=0 still forces it off.
  auto t = MakeFsUnderTest(FsKind::kMinixLld, params);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  auto pump = [&] {
    if (t->maintenance == nullptr) {
      return;
    }
    // Let the simulated device go quiet so the idle gate can open; the
    // scheduler still decides (and sometimes backs off) on its own.
    t->clock->Advance(0.01);
    auto ran = t->maintenance->Step();
    EXPECT_TRUE(ran.ok()) << ran.status().ToString();
  };

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
    pump();
  }
  // Overwrite one stride (dirties segments the scrub cursor may already
  // have verified) and delete another (creates cleanable garbage), with
  // the pump running throughout.
  for (int i = 0; i < kFiles; i += 7) {
    ASSERT_TRUE(t->fs->WriteFile(inos[i], 0, contents(i + 1000)).ok());
    pump();
  }
  for (int i = 3; i < kFiles; i += 9) {
    ASSERT_TRUE(t->fs->Unlink("/f" + std::to_string(i)).ok());
    inos[i] = 0;
    pump();
  }
  ASSERT_TRUE(t->fs->SyncFs().ok());

  if (t->maintenance != nullptr) {
    auto drained = t->maintenance->Drain(10000);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    EXPECT_FALSE(t->maintenance->HasWork());
    const MaintenanceStats& stats = t->maintenance->stats();
    // The startup scrub pass completed over a healthy volume.
    EXPECT_GE(stats.scrub_cycles, 1u);
    EXPECT_GT(stats.scrub_slices, 0u);
    EXPECT_EQ(stats.last_scrub.outcome(), ScrubReport::Outcome::kClean);
  }

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

TEST(WorkloadTest, TraceReplaysOnEverySystem) {
  TraceParams params;
  params.operations = 600;
  const auto trace = GenerateTrace(params);
  for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinix, FsKind::kSunOs}) {
    auto t = MakeFsUnderTest(kind, SmallSetup());
    ASSERT_TRUE(t.ok());
    auto result = ReplayTrace(t->fs.get(), t->clock.get(), trace, 3);
    ASSERT_TRUE(result.ok()) << FsKindName(kind) << ": " << result.status().ToString();
    EXPECT_GT(result->ops_per_second, 0.1);
  }
}

TEST(WorkloadTest, FsKindNamesAreDistinct) {
  EXPECT_STRNE(FsKindName(FsKind::kMinixLld), FsKindName(FsKind::kMinix));
  EXPECT_STRNE(FsKindName(FsKind::kMinix), FsKindName(FsKind::kSunOs));
}

}  // namespace
}  // namespace ld
