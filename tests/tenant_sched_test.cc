// Multi-tenant dispatch tests: the QoS scheduler's isolation guarantees at
// the device layer (a write-flood aggressor cannot starve another tenant's
// demand reads under weighted share), the differential guarantee that a
// single tenant under an enabled QoS policy times identically to the legacy
// scheduler, PartitionDevice's translation/boundary semantics, the
// cooperative multi-tenant rig, and the per-run stats lifecycle. Every test
// pins its own device options.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/disk/device_factory.h"
#include "src/disk/partition_device.h"
#include "src/disk/qos.h"
#include "src/harness/tenants.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kPartitionBytes = 64ull << 20;

std::vector<uint8_t> Pattern(size_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(bytes);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

DeviceOptions OneArmFifo(QosPolicy policy, uint32_t num_tenants) {
  DeviceOptions options = DeviceOptions::HpC3010(kPartitionBytes, /*channels=*/1);
  options.queue_policy = QueuePolicy::kFifo;
  options.qos.policy = policy;
  options.qos.num_tenants = num_tenants;
  return options;
}

// Floods the queue with `writes` large writes from tenant 0, then issues one
// small read from tenant 1 and waits for it. Returns the victim read's
// latency (submit-to-completion) in seconds.
double VictimReadLatency(QosPolicy policy) {
  SimClock clock;
  auto disk = MakeDevice(OneArmFifo(policy, /*num_tenants=*/2), &clock);
  const std::vector<uint8_t> big = Pattern(1u << 20, 7);  // 1-MB writes.
  disk->set_request_tenant(0);
  const uint64_t big_sectors = big.size() / disk->sector_size();
  for (uint32_t w = 0; w < 8; ++w) {
    auto tag = disk->SubmitWrite(w * big_sectors, big);
    EXPECT_TRUE(tag.ok());
  }
  disk->set_request_tenant(1);
  std::vector<uint8_t> out(8192);
  const double submitted = clock.Now();
  auto rtag = disk->SubmitRead(16 * big_sectors, out);
  EXPECT_TRUE(rtag.ok());
  EXPECT_TRUE(disk->WaitFor(*rtag).ok());
  const double latency = clock.Now() - submitted;
  EXPECT_TRUE(disk->Drain().ok());
  return latency;
}

TEST(TenantQosTest, WeightedShareBoundsVictimLatencyUnderWriteFlood) {
  const double fifo = VictimReadLatency(QosPolicy::kNone);
  const double share = VictimReadLatency(QosPolicy::kWeightedShare);
  // Under FIFO the read waits out 8 MB of queued writes; under weighted
  // share it is interleaved after at most a chunk or two of aggressor
  // service. Require a decisive (not marginal) improvement.
  EXPECT_LT(share, fifo / 2.0);
}

TEST(TenantQosTest, DeadlineDispatchPrefersReadsOverBacklog) {
  const double fifo = VictimReadLatency(QosPolicy::kNone);
  const double deadline = VictimReadLatency(QosPolicy::kDeadline);
  EXPECT_LT(deadline, fifo);
}

TEST(TenantQosTest, VictimQueueWaitIsAttributedPerTenant) {
  SimClock clock;
  auto disk = MakeDevice(OneArmFifo(QosPolicy::kWeightedShare, 2), &clock);
  const std::vector<uint8_t> big = Pattern(1u << 20, 7);
  disk->set_request_tenant(0);
  const uint64_t big_sectors = big.size() / disk->sector_size();
  for (uint32_t w = 0; w < 4; ++w) {
    ASSERT_TRUE(disk->SubmitWrite(w * big_sectors, big).ok());
  }
  disk->set_request_tenant(1);
  std::vector<uint8_t> out(8192);
  auto rtag = disk->SubmitRead(8 * big_sectors, out);
  ASSERT_TRUE(rtag.ok());
  ASSERT_TRUE(disk->WaitFor(*rtag).ok());
  ASSERT_TRUE(disk->Drain().ok());

  const DiskStats& stats = disk->stats();
  ASSERT_GE(stats.tenant_count(), 2u);
  EXPECT_EQ(stats.tenant(0).write_ops, 4u);
  EXPECT_EQ(stats.tenant(0).read_ops, 0u);
  EXPECT_EQ(stats.tenant(1).read_ops, 1u);
  EXPECT_EQ(stats.tenant(1).write_ops, 0u);
  EXPECT_EQ(stats.tenant(1).sectors_read, out.size() / disk->sector_size());
  EXPECT_GT(stats.tenant(0).busy_ms, 0.0);
  EXPECT_EQ(stats.tenant(1).read_latency.count(), 1u);
  // The victim's recorded latency must cover its queue wait.
  EXPECT_GE(stats.tenant(1).read_latency.Quantile(0.5), 0.0);
}

// The differential guarantee that keeps single-tenant bench output
// unchanged: an enabled policy with a single configured tenant leaves
// QosConfig::Active() false, so the legacy scheduler runs verbatim and
// completion times are identical to a no-QoS device, request by request,
// under either policy and either queue order.
TEST(TenantQosTest, SingleTenantUnderQosTimesIdenticallyToLegacy) {
  for (QosPolicy policy : {QosPolicy::kWeightedShare, QosPolicy::kDeadline}) {
    for (QueuePolicy queue : {QueuePolicy::kFifo, QueuePolicy::kCScan}) {
      SCOPED_TRACE(std::string(policy == QosPolicy::kDeadline ? "deadline" : "share") + " / " +
                   (queue == QueuePolicy::kFifo ? "fifo" : "cscan"));
      SimClock clock_a;
      SimClock clock_b;
      DeviceOptions legacy = DeviceOptions::HpC3010(kPartitionBytes, /*channels=*/2);
      legacy.queue_policy = queue;
      DeviceOptions qos = legacy;
      qos.qos.policy = policy;
      qos.qos.num_tenants = 1;
      ASSERT_FALSE(qos.qos.Active());
      auto disk_a = MakeDevice(legacy, &clock_a);
      auto disk_b = MakeDevice(qos, &clock_b);

      Rng rng(1993);
      const std::vector<uint8_t> data = Pattern(64 * 1024, 3);
      std::vector<uint8_t> out(64 * 1024);
      const uint64_t sectors = data.size() / disk_a->sector_size();
      const uint64_t span = disk_a->num_sectors() - sectors;
      for (int i = 0; i < 200; ++i) {
        const uint64_t sector = rng.Below(span / sectors) * sectors;
        if (rng.Below(3) == 0) {
          auto ta = disk_a->SubmitRead(sector, out);
          auto tb = disk_b->SubmitRead(sector, out);
          ASSERT_TRUE(ta.ok() && tb.ok());
        } else {
          auto ta = disk_a->SubmitWrite(sector, data);
          auto tb = disk_b->SubmitWrite(sector, data);
          ASSERT_TRUE(ta.ok() && tb.ok());
        }
        if (i % 7 == 0) {
          ASSERT_TRUE(disk_a->Drain().ok());
          ASSERT_TRUE(disk_b->Drain().ok());
          ASSERT_DOUBLE_EQ(clock_a.Now(), clock_b.Now());
        }
      }
      ASSERT_TRUE(disk_a->Drain().ok());
      ASSERT_TRUE(disk_b->Drain().ok());
      EXPECT_DOUBLE_EQ(clock_a.Now(), clock_b.Now());
      EXPECT_EQ(disk_a->stats().queued_requests, disk_b->stats().queued_requests);
      EXPECT_EQ(disk_a->stats().merged_requests, disk_b->stats().merged_requests);
      EXPECT_DOUBLE_EQ(disk_a->stats().busy_ms, disk_b->stats().busy_ms);
    }
  }
}

// Weights tilt service toward the heavier tenant: with backlogs from both,
// the 3:1 tenant finishes its backlog sooner than under 1:1.
TEST(TenantQosTest, WeightsSkewServiceProportionally) {
  auto run = [](std::vector<uint32_t> weights) {
    SimClock clock;
    DeviceOptions options = OneArmFifo(QosPolicy::kWeightedShare, 2);
    options.qos.weights = std::move(weights);
    auto disk = MakeDevice(options, &clock);
    const std::vector<uint8_t> big = Pattern(512 * 1024, 11);
    const uint64_t big_sectors = big.size() / disk->sector_size();
    std::vector<IoTag> t0_tags;
    for (uint32_t i = 0; i < 6; ++i) {
      disk->set_request_tenant(0);
      auto a = disk->SubmitWrite(i * big_sectors, big);
      disk->set_request_tenant(1);
      auto b = disk->SubmitWrite((32 + i) * big_sectors, big);
      EXPECT_TRUE(a.ok() && b.ok());
      t0_tags.push_back(*a);
    }
    for (IoTag tag : t0_tags) {
      EXPECT_TRUE(disk->WaitFor(tag).ok());
    }
    const double t0_done = clock.Now();
    EXPECT_TRUE(disk->Drain().ok());
    return t0_done;
  };
  const double equal = run({1, 1});
  const double favored = run({3, 1});
  EXPECT_LT(favored, equal);
}

TEST(PartitionDeviceTest, TranslatesAndIsolatesSlices) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes, 1), &clock);
  const uint64_t half = disk->num_sectors() / 2;
  PartitionDevice p0(disk.get(), 0, half, /*tenant=*/0);
  PartitionDevice p1(disk.get(), half, half, /*tenant=*/1);
  ASSERT_EQ(p0.num_sectors(), half);
  ASSERT_EQ(p1.first_sector(), half);

  const std::vector<uint8_t> a = Pattern(4096, 1);
  const std::vector<uint8_t> b = Pattern(4096, 2);
  ASSERT_TRUE(p0.Write(100, a).ok());
  ASSERT_TRUE(p1.Write(100, b).ok());

  // Same partition-relative sector, different parent sectors.
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(disk->Read(100, out).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(disk->Read(half + 100, out).ok());
  EXPECT_EQ(out, b);

  // Out-of-slice requests are rejected before touching the parent.
  EXPECT_FALSE(p0.Read(half, out).ok());
  EXPECT_FALSE(p0.Write(half - 1, a).ok());  // 8 sectors would cross the end.
}

TEST(PartitionDeviceTest, DrainWaitsOwnRequestsOnly) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes, 1), &clock);
  const uint64_t half = disk->num_sectors() / 2;
  PartitionDevice p0(disk.get(), 0, half, /*tenant=*/0);
  PartitionDevice p1(disk.get(), half, half, /*tenant=*/1);

  const std::vector<uint8_t> data = Pattern(64 * 1024, 5);
  const uint64_t sectors = data.size() / disk->sector_size();
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(p0.SubmitWrite(i * sectors, data).ok());
    ASSERT_TRUE(p1.SubmitWrite(i * sectors, data).ok());
  }
  EXPECT_EQ(p0.outstanding_requests(), 4u);
  EXPECT_EQ(p1.outstanding_requests(), 4u);
  ASSERT_TRUE(p0.Drain().ok());
  EXPECT_EQ(p0.outstanding_requests(), 0u);
  // p1's submissions are untouched by p0's drain bookkeeping.
  EXPECT_EQ(p1.outstanding_requests(), 4u);
  ASSERT_TRUE(p1.Drain().ok());

  const DiskStats& stats = disk->stats();
  ASSERT_GE(stats.tenant_count(), 2u);
  EXPECT_EQ(stats.tenant(0).write_ops, 4u);
  EXPECT_EQ(stats.tenant(1).write_ops, 4u);
}

// The partition is the only layer that labels a session's requests: an LLD
// formatted with default options on a tenant-1 partition bills every
// request to tenant 1 and leaves the partition's label as it found it.
TEST(PartitionDeviceTest, LldKeepsThePartitionsTenant) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes, 1), &clock);
  const uint64_t half = disk->num_sectors() / 2;
  PartitionDevice p1(disk.get(), half, half, /*tenant=*/1);
  auto lld = LogStructuredDisk::Format(&p1, LldOptions{});
  ASSERT_TRUE(lld.ok()) << lld.status().ToString();
  auto list = (*lld)->NewList(kBeginOfListOfLists, ListHints{});
  ASSERT_TRUE(list.ok());
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 256; ++i) {
    auto bid = (*lld)->NewBlock(*list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE((*lld)->Write(*bid, Pattern(4096, i)).ok());
    pred = *bid;
  }
  ASSERT_TRUE((*lld)->Flush().ok());

  const DiskStats& stats = disk->stats();
  EXPECT_GT(stats.tenant(1).write_ops, 0u);
  EXPECT_EQ(stats.tenant(0).read_ops + stats.tenant(0).write_ops, 0u);
  EXPECT_EQ(p1.request_tenant(), 1u);
}

// Two weighted-share sessions of 24 MB each on one arm.
DeviceOptions TwoSessionDevice() {
  DeviceOptions device = DeviceOptions::HpC3010(2 * (24ull << 20), /*channels=*/1);
  device.qos.policy = QosPolicy::kWeightedShare;
  device.qos.num_tenants = 2;
  return device;
}

TEST(MultiTenantRigTest, RoundRobinTenantsStayConsistent) {
  MultiTenantParams params;
  params.device = TwoSessionDevice();
  params.fs.num_inodes = 512;
  params.fs.cache_bytes = 1024 * 1024;
  auto rig = MakeMultiTenantRig(params);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  ASSERT_EQ(rig->tenants.size(), 2u);

  // Each tenant writes its own distinct files, interleaved slice by slice.
  TenantScheduler sched;
  const uint32_t kFiles = 8;
  for (TenantSession& t : rig->tenants) {
    MinixFs* fs = t.fs.get();
    const uint8_t fill = static_cast<uint8_t>(0x10 + t.id);
    auto count = std::make_shared<uint32_t>(0);
    sched.Add("t" + std::to_string(t.id), [fs, fill, count]() -> StatusOr<bool> {
      ASSIGN_OR_RETURN(uint32_t ino, fs->CreateFile("/f" + std::to_string(*count)));
      std::vector<uint8_t> data(32 * 1024, fill);
      RETURN_IF_ERROR(fs->WriteFile(ino, 0, data));
      (*count)++;
      return *count < kFiles;
    });
  }
  ASSERT_TRUE(sched.RunAll().ok());
  EXPECT_EQ(sched.steps_run(0), kFiles);
  EXPECT_EQ(sched.steps_run(1), kFiles);

  // Every tenant's data reads back with its own fill byte — no cross-tenant
  // bleed through the shared device.
  for (TenantSession& t : rig->tenants) {
    ASSERT_TRUE(t.fs->SyncFs().ok());
    ASSERT_TRUE(t.fs->DropCaches().ok());
    const uint8_t fill = static_cast<uint8_t>(0x10 + t.id);
    for (uint32_t f = 0; f < kFiles; ++f) {
      auto ino = t.fs->OpenFile("/f" + std::to_string(f));
      ASSERT_TRUE(ino.ok());
      std::vector<uint8_t> buf(32 * 1024);
      ASSERT_TRUE(t.fs->ReadFile(*ino, 0, buf).ok());
      for (uint8_t byte : buf) {
        ASSERT_EQ(byte, fill);
      }
    }
    EXPECT_TRUE(t.fs->CheckConsistency().ok());
  }
  // Both tenants produced device traffic under their own ids.
  const DiskStats& stats = rig->disk->stats();
  ASSERT_GE(stats.tenant_count(), 2u);
  EXPECT_GT(stats.tenant(0).write_ops, 0u);
  EXPECT_GT(stats.tenant(1).write_ops, 0u);
}

TEST(MultiTenantRigTest, ResetMeasurementClearsPerRunCounters) {
  MultiTenantParams params;
  params.device = TwoSessionDevice();
  params.fs.num_inodes = 512;
  params.fs.cache_bytes = 1024 * 1024;
  auto rig = MakeMultiTenantRig(params);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();

  for (TenantSession& t : rig->tenants) {
    auto ino = t.fs->CreateFile("/x");
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> data(64 * 1024, 0xab);
    ASSERT_TRUE(t.fs->WriteFile(*ino, 0, data).ok());
    ASSERT_TRUE(t.fs->SyncFs().ok());
  }
  ASSERT_GT(rig->disk->stats().queued_requests, 0u);
  ASSERT_GT(rig->tenants[0].fs->stats().file_writes, 0u);

  rig->ResetMeasurement();
  EXPECT_DOUBLE_EQ(rig->clock->Now(), 0.0);
  const DiskStats& stats = rig->disk->stats();
  EXPECT_EQ(stats.queued_requests, 0u);
  EXPECT_EQ(stats.tenant_count(), 0u);
  EXPECT_EQ(stats.channel_count(), 0u);
  for (TenantSession& t : rig->tenants) {
    EXPECT_EQ(t.fs->stats().file_writes, 0u);
    EXPECT_EQ(t.fs->cache().hits(), 0u);
    EXPECT_EQ(t.fs->cache().misses(), 0u);
    EXPECT_EQ(t.lld->counters().segments_written, 0u);
  }
  // The stacks stay fully usable after a reset.
  for (TenantSession& t : rig->tenants) {
    std::vector<uint8_t> buf(64 * 1024);
    auto ino = t.fs->OpenFile("/x");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(t.fs->ReadFile(*ino, 0, buf).ok());
  }
}

// A rig session has no maintenance scheduler, so its cleaning bills to its
// own tenant and its checkpoint frames ride the seal. Session 0 overwrites
// one file until its LLD cleans; tenant 1, which issues nothing, must stay
// empty.
TEST(MultiTenantRigTest, SessionCleaningStaysOnItsOwnTenant) {
  MultiTenantParams params;
  params.device = TwoSessionDevice();
  params.fs.num_inodes = 512;
  params.fs.cache_bytes = 1024 * 1024;
  params.fs.lld.checkpoint_interval_segments = 2;
  auto rig = MakeMultiTenantRig(params);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  TenantSession& session = rig->tenants[0];

  auto ino = session.fs->CreateFile("/churn");
  ASSERT_TRUE(ino.ok());
  const std::vector<uint8_t> data(8u << 20, 0x5a);
  for (uint32_t pass = 0; session.lld->counters().segments_cleaned == 0; ++pass) {
    ASSERT_LT(pass, 32u) << "the session never cleaned";
    ASSERT_TRUE(session.fs->WriteFile(*ino, 0, data).ok());
    ASSERT_TRUE(session.fs->SyncFs().ok());
    if (pass == 0) {
      // Frames ride the seal: no scheduler is there to write them.
      EXPECT_GT(session.lld->counters().checkpoint_frames_written, 0u);
      EXPECT_FALSE(session.lld->CheckpointFrameDue());
    }
  }

  const DiskStats& stats = rig->disk->stats();
  EXPECT_GT(stats.tenant(0).read_ops, 0u);
  EXPECT_GT(stats.tenant(0).write_ops, 0u);
  const TenantStats& idle = stats.tenant(1);
  EXPECT_EQ(idle.read_ops + idle.write_ops, 0u);
  EXPECT_EQ(idle.sectors_read + idle.sectors_written, 0u);
}

// One rig shape for the matrix test below.
struct RigConfig {
  uint32_t tenants;
  QosPolicy policy;
  uint32_t channels;
};

// One tenant (no QoS policy is active with one session, so one policy
// stands for all), two tenants under weighted share, and four tenants under
// weighted share and under deadline, each at 1 and 4 channels except the
// two-tenant rig.
std::vector<RigConfig> RigMatrix() {
  std::vector<RigConfig> configs = {{2, QosPolicy::kWeightedShare, 1}};
  for (uint32_t channels : {1u, 4u}) {
    configs.push_back({1, QosPolicy::kWeightedShare, channels});
    configs.push_back({4, QosPolicy::kWeightedShare, channels});
    configs.push_back({4, QosPolicy::kDeadline, channels});
  }
  return configs;
}

std::string RigConfigName(const ::testing::TestParamInfo<RigConfig>& info) {
  const RigConfig& c = info.param;
  std::string name = "Tenants" + std::to_string(c.tenants) + "_";
  if (c.tenants > 1) {
    name += c.policy == QosPolicy::kDeadline ? "Deadline_" : "Share_";
  }
  return name + "Channels" + std::to_string(c.channels);
}

// Every tenant count, channel count and QoS policy in RigMatrix keeps the
// same assertions: each session reads back what it wrote, and each volume
// stays consistent.
class MultiTenantMatrixTest : public ::testing::TestWithParam<RigConfig> {};

TEST_P(MultiTenantMatrixTest, WorkloadStaysConsistent) {
  MultiTenantParams params;
  params.device = DeviceOptions::HpC3010(GetParam().tenants * (24ull << 20), GetParam().channels);
  params.device.qos.policy = GetParam().policy;
  params.device.qos.num_tenants = GetParam().tenants;
  params.fs.num_inodes = 512;
  params.fs.cache_bytes = 1024 * 1024;
  auto rig = MakeMultiTenantRig(params);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();

  TenantScheduler sched;
  for (TenantSession& t : rig->tenants) {
    MinixFs* fs = t.fs.get();
    const uint8_t fill = static_cast<uint8_t>(0x40 + t.id);
    auto count = std::make_shared<uint32_t>(0);
    sched.Add("t" + std::to_string(t.id), [fs, fill, count]() -> StatusOr<bool> {
      ASSIGN_OR_RETURN(uint32_t ino, fs->CreateFile("/m" + std::to_string(*count)));
      std::vector<uint8_t> data(16 * 1024, fill);
      RETURN_IF_ERROR(fs->WriteFile(ino, 0, data));
      (*count)++;
      return *count < 6;
    });
  }
  ASSERT_TRUE(sched.RunAll().ok());
  for (TenantSession& t : rig->tenants) {
    ASSERT_TRUE(t.fs->SyncFs().ok());
    ASSERT_TRUE(t.fs->DropCaches().ok());
    const uint8_t fill = static_cast<uint8_t>(0x40 + t.id);
    std::vector<uint8_t> buf(16 * 1024);
    for (uint32_t f = 0; f < 6; ++f) {
      auto ino = t.fs->OpenFile("/m" + std::to_string(f));
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(t.fs->ReadFile(*ino, 0, buf).ok());
      ASSERT_EQ(buf[0], fill);
      ASSERT_EQ(buf[buf.size() - 1], fill);
    }
    EXPECT_TRUE(t.fs->CheckConsistency().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(RigMatrix, MultiTenantMatrixTest, ::testing::ValuesIn(RigMatrix()),
                         RigConfigName);

TEST(LatencyHistogramTest, QuantilesBracketRecordedValues) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  for (int i = 0; i < 99; ++i) {
    h.Add(1.0);  // 1 ms.
  }
  h.Add(400.0);  // One slow outlier.
  EXPECT_EQ(h.count(), 100u);
  // Log-bucketed: quantiles land within a bucket (factor sqrt(2)) of truth.
  EXPECT_GT(h.Quantile(0.5), 0.5);
  EXPECT_LT(h.Quantile(0.5), 2.0);
  EXPECT_GT(h.Quantile(0.995), 200.0);
  EXPECT_LT(h.Quantile(0.995), 800.0);
  EXPECT_NEAR(h.MeanMs(), (99.0 * 1.0 + 400.0) / 100.0, 1e-9);
}

}  // namespace
}  // namespace ld
