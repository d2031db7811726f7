// Tests for the simulated-disk request queue: submit/complete semantics,
// FIFO vs. C-SCAN scheduling, adjacent-request merging, drain-on-shutdown,
// the queue counters in DiskStats, the contract that the synchronous
// Read/Write wrappers (submit + wait) time exactly like the pre-queue
// synchronous model for a single outstanding request, and fault injection on
// the async path. Ordering-sensitive tests pin channels = 1 (a single arm);
// the *AnyConfigTest cases run under FIFO and C-SCAN at 1 and 4 channels.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/disk/geometry.h"
#include "src/util/random.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

std::vector<uint8_t> Pattern(size_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(bytes);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

// A single-arm HP C3010 with the given queue policy (for tests whose
// assertions depend on one serialized service order).
DeviceOptions OneArm(uint64_t partition_bytes, QueuePolicy policy) {
  DeviceOptions options = DeviceOptions::HpC3010(partition_bytes, /*channels=*/1);
  options.queue_policy = policy;
  return options;
}

class DiskQueueAnyConfigTest : public ::testing::TestWithParam<DeviceConfig> {};
class FaultDiskAsyncAnyConfigTest : public ::testing::TestWithParam<DeviceConfig> {};

TEST_P(DiskQueueAnyConfigTest, SubmittedWritesAreVisibleToReadsBeforeDrain) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(16 << 20), &clock);
  disk->set_queue_depth(16);
  const std::vector<uint8_t> data = Pattern(4096, 1);
  auto tag = disk->SubmitWrite(500, data);
  ASSERT_TRUE(tag.ok());
  // The simulator applies data effects at submit: a read sees the write even
  // while the write's timing is still queued.
  std::vector<uint8_t> readback(4096);
  auto rtag = disk->SubmitRead(500, readback);
  ASSERT_TRUE(rtag.ok());
  EXPECT_EQ(data, readback);
  ASSERT_TRUE(disk->Drain().ok());
}

TEST(DiskQueueTest, FifoSchedulesInSubmissionOrder) {
  SimClock clock;
  auto disk = MakeDevice(OneArm(64 << 20, QueuePolicy::kFifo), &clock);
  disk->set_queue_depth(16);
  const std::vector<uint8_t> data = Pattern(4096, 2);
  const std::vector<uint64_t> sectors = {50000, 800, 90000, 20000};
  std::vector<IoTag> tags;
  for (uint64_t s : sectors) {
    auto tag = disk->SubmitWrite(s, data);
    ASSERT_TRUE(tag.ok());
    tags.push_back(*tag);
  }
  (void)disk->Poll();  // Forces scheduling; nothing has completed at t=0.
  double prev = 0.0;
  for (IoTag tag : tags) {
    const double c = disk->ScheduledCompletion(tag);
    ASSERT_GT(c, prev);  // Strictly later than the previously submitted one.
    prev = c;
  }
  ASSERT_TRUE(disk->Drain().ok());
}

TEST(DiskQueueTest, CScanServicesInAscendingSectorOrderAndBeatsFifo) {
  const std::vector<uint8_t> data = Pattern(4096, 3);
  const std::vector<uint64_t> sectors = {50000, 800, 90000, 20000};

  SimClock fifo_clock;
  auto fifo = MakeDevice(OneArm(64 << 20, QueuePolicy::kFifo), &fifo_clock);
  fifo->set_queue_depth(16);
  for (uint64_t s : sectors) {
    ASSERT_TRUE(fifo->SubmitWrite(s, data).ok());
  }
  ASSERT_TRUE(fifo->Drain().ok());

  SimClock cscan_clock;
  auto cscan = MakeDevice(OneArm(64 << 20, QueuePolicy::kCScan), &cscan_clock);
  cscan->set_queue_depth(16);
  std::vector<IoTag> tags;
  for (uint64_t s : sectors) {
    auto tag = cscan->SubmitWrite(s, data);
    ASSERT_TRUE(tag.ok());
    tags.push_back(*tag);
  }
  (void)cscan->Poll();
  // Elevator order: ascending sector starting from the arm (cylinder 0).
  EXPECT_LT(cscan->ScheduledCompletion(tags[1]), cscan->ScheduledCompletion(tags[3]));  // 800 < 20000
  EXPECT_LT(cscan->ScheduledCompletion(tags[3]), cscan->ScheduledCompletion(tags[0]));  // 20000 < 50000
  EXPECT_LT(cscan->ScheduledCompletion(tags[0]), cscan->ScheduledCompletion(tags[2]));  // 50000 < 90000
  ASSERT_TRUE(cscan->Drain().ok());

  // One monotone sweep seeks less than FIFO's zig-zag over the same batch.
  EXPECT_LT(cscan->stats().seek_ms, fifo->stats().seek_ms);
  EXPECT_LT(cscan_clock.Now(), fifo_clock.Now());
}

TEST(DiskQueueTest, AdjacentRequestsMergeIntoOneTransfer) {
  const DiskGeometry geometry = DiskGeometry::HpC3010Partition(64 << 20);
  const std::vector<uint8_t> data = Pattern(4096, 4);
  const uint64_t start_sector = 4000;
  const int kRequests = 8;
  const uint64_t sectors_per_request = 4096 / geometry.sector_size;

  SimClock merged_clock;
  auto merged = MakeDevice(OneArm(64 << 20, QueuePolicy::kCScan), &merged_clock);
  merged->set_queue_depth(16);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(merged->SubmitWrite(start_sector + i * sectors_per_request, data).ok());
  }
  ASSERT_TRUE(merged->Drain().ok());
  EXPECT_EQ(merged->stats().merged_requests, static_cast<uint64_t>(kRequests - 1));
  // Per-request accounting is preserved across the merge.
  EXPECT_EQ(merged->stats().write_ops, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(merged->stats().sectors_written, kRequests * sectors_per_request);

  // The same requests issued synchronously pay per-request overhead and a
  // missed rotation between back-to-back writes; the merged batch is one
  // sequential transfer.
  SimClock sync_clock;
  auto sync = MakeDevice(OneArm(64 << 20, QueuePolicy::kCScan), &sync_clock);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(sync->Write(start_sector + i * sectors_per_request, data).ok());
  }
  EXPECT_EQ(sync->stats().merged_requests, 0u);
  EXPECT_LT(merged_clock.Now(), sync_clock.Now());
}

TEST_P(DiskQueueAnyConfigTest, DrainRetiresEverythingAndAdvancesToLastCompletion) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(16 << 20), &clock);
  disk->set_queue_depth(16);
  const std::vector<uint8_t> data = Pattern(4096, 5);
  std::vector<IoTag> tags;
  for (uint64_t s : {3000u, 9000u, 6000u}) {
    auto tag = disk->SubmitWrite(s, data);
    ASSERT_TRUE(tag.ok());
    tags.push_back(*tag);
  }
  (void)disk->Poll();
  double last = 0.0;
  for (IoTag tag : tags) {
    last = std::max(last, disk->ScheduledCompletion(tag));
  }
  ASSERT_GT(last, 0.0);
  ASSERT_TRUE(disk->Drain().ok());
  EXPECT_DOUBLE_EQ(clock.Now(), last);
  EXPECT_TRUE(disk->Poll().empty());
  // Waiting on an already-retired tag is a no-op.
  for (IoTag tag : tags) {
    EXPECT_TRUE(disk->WaitFor(tag).ok());
  }
  EXPECT_DOUBLE_EQ(clock.Now(), last);
  // A second drain with an empty queue is a no-op too.
  ASSERT_TRUE(disk->Drain().ok());
  EXPECT_DOUBLE_EQ(clock.Now(), last);
}

TEST_P(DiskQueueAnyConfigTest, SyncWrappersTimeExactlyLikeSubmitPlusWait) {
  const std::vector<uint8_t> data = Pattern(8192, 6);

  SimClock sync_clock;
  auto sync = MakeDevice(GetParam().Options(64 << 20), &sync_clock);
  SimClock async_clock;
  auto async = MakeDevice(GetParam().Options(64 << 20), &async_clock);
  async->set_queue_depth(16);

  std::vector<uint8_t> out(8192);
  for (uint64_t s : {100u, 44000u, 100u, 9000u, 9016u}) {
    ASSERT_TRUE(sync->Write(s, data).ok());
    auto tag = async->SubmitWrite(s, data);
    ASSERT_TRUE(tag.ok());
    ASSERT_TRUE(async->WaitFor(*tag).ok());
    ASSERT_DOUBLE_EQ(sync_clock.Now(), async_clock.Now());

    ASSERT_TRUE(sync->Read(s, out).ok());
    auto rtag = async->SubmitRead(s, out);
    ASSERT_TRUE(rtag.ok());
    ASSERT_TRUE(async->WaitFor(*rtag).ok());
    ASSERT_DOUBLE_EQ(sync_clock.Now(), async_clock.Now());
  }
  // The whole mechanical breakdown matches, not just the total.
  EXPECT_DOUBLE_EQ(sync->stats().seek_ms, async->stats().seek_ms);
  EXPECT_DOUBLE_EQ(sync->stats().rotation_ms, async->stats().rotation_ms);
  EXPECT_DOUBLE_EQ(sync->stats().transfer_ms, async->stats().transfer_ms);
  EXPECT_DOUBLE_EQ(sync->stats().busy_ms, async->stats().busy_ms);
  EXPECT_EQ(sync->stats().seeks, async->stats().seeks);
}

TEST(DiskQueueTest, QueueCountersTrackDepthAndWait) {
  SimClock clock;
  auto disk = MakeDevice(OneArm(16 << 20, QueuePolicy::kFifo), &clock);
  disk->set_queue_depth(16);
  const std::vector<uint8_t> data = Pattern(4096, 7);
  for (uint64_t s : {2000u, 30000u, 15000u, 7000u}) {
    ASSERT_TRUE(disk->SubmitWrite(s, data).ok());
  }
  ASSERT_TRUE(disk->Drain().ok());
  EXPECT_EQ(disk->stats().queued_requests, 4u);
  EXPECT_EQ(disk->stats().max_queue_depth, 4u);
  // All four were submitted at t=0; later ones waited for the device.
  EXPECT_GT(disk->stats().queue_wait_ms, 0.0);
  // The per-channel breakdown covers the same requests.
  uint64_t channel_requests = 0;
  for (size_t c = 0; c < disk->stats().channel_count(); ++c) {
    channel_requests += disk->stats().channel(c).queued_requests;
  }
  EXPECT_EQ(channel_requests, 4u);
}

TEST(DiskQueueTest, QueueDepthReachedTriggersScheduling) {
  SimClock clock;
  auto disk = MakeDevice(OneArm(16 << 20, QueuePolicy::kFifo), &clock);
  disk->set_queue_depth(2);
  const std::vector<uint8_t> data = Pattern(4096, 8);
  auto first = disk->SubmitWrite(1000, data);
  ASSERT_TRUE(first.ok());
  EXPECT_LT(disk->ScheduledCompletion(*first), 0.0);  // Still pending.
  auto second = disk->SubmitWrite(5000, data);
  ASSERT_TRUE(second.ok());
  // Hitting the configured depth scheduled the batch.
  EXPECT_GT(disk->ScheduledCompletion(*first), 0.0);
  EXPECT_GT(disk->ScheduledCompletion(*second), disk->ScheduledCompletion(*first));
  ASSERT_TRUE(disk->Drain().ok());
}

// Every request is counted once per view: the global totals, the per-channel
// breakdown and the per-tenant breakdown (ops, sectors, latency samples)
// agree on every queueing device, scheduler and QoS policy. The workload
// mixes runs of adjacent requests (which the legacy scheduler merges),
// transfers larger than a QoS chunk, two tenants, and random waits/drains.
TEST(DiskQueueTest, AccountingAgreesAcrossGlobalChannelAndTenantViews) {
  std::vector<std::pair<std::string, DeviceOptions>> devices;
  for (uint32_t channels : {1u, 4u}) {
    for (QueuePolicy policy : {QueuePolicy::kFifo, QueuePolicy::kCScan}) {
      for (QosPolicy qos : {QosPolicy::kNone, QosPolicy::kWeightedShare, QosPolicy::kDeadline}) {
        DeviceOptions options = DeviceOptions::HpC3010(64 << 20, channels);
        options.queue_policy = policy;
        options.qos.policy = qos;
        options.qos.num_tenants = 2;
        devices.emplace_back("simdisk ch=" + std::to_string(channels) + " policy=" +
                                 std::to_string(static_cast<int>(policy)) +
                                 " qos=" + std::to_string(static_cast<int>(qos)),
                             options);
      }
    }
  }
  for (QosPolicy qos : {QosPolicy::kNone, QosPolicy::kWeightedShare}) {
    DeviceOptions options = DeviceOptions::Nvme(64 << 20);
    options.qos.policy = qos;
    options.qos.num_tenants = 2;
    options.qos.weights = {3, 1};
    devices.emplace_back("nvme qos=" + std::to_string(static_cast<int>(qos)), options);
  }
  devices.emplace_back("memdisk", DeviceOptions::Mem(64 << 20));

  constexpr int kRequests = 400;
  for (const auto& [label, options] : devices) {
    SCOPED_TRACE(label);
    SimClock clock;
    auto disk = MakeDevice(options, &clock);
    const uint32_t ss = disk->sector_size();
    Rng rng(2026);
    std::vector<uint8_t> buf(256 * ss);
    std::vector<IoTag> tags;
    uint64_t run_next = 0;
    bool run_read = false;
    int run_left = 0;
    for (int i = 0; i < kRequests; ++i) {
      // One request in eight is 256 sectors (four 64-KB QoS chunks).
      const uint64_t count = rng.Chance(0.125) ? 256 : rng.Range(1, 16);
      if (run_left == 0 || run_next + count > disk->num_sectors()) {
        run_next = rng.Below(disk->num_sectors() - 4096);
        run_read = rng.Chance(0.5);
        run_left = static_cast<int>(rng.Range(1, 6));
      }
      disk->set_request_tenant(static_cast<TenantId>(rng.Below(2)));
      const std::span<uint8_t> span(buf.data(), count * ss);
      auto tag = run_read ? disk->SubmitRead(run_next, span) : disk->SubmitWrite(run_next, span);
      ASSERT_TRUE(tag.ok());
      tags.push_back(*tag);
      run_next += count;
      run_left--;
      if (rng.Chance(0.1)) {
        ASSERT_TRUE(disk->WaitFor(tags[rng.Below(tags.size())]).ok());
      }
      if (rng.Chance(0.02)) {
        ASSERT_TRUE(disk->Drain().ok());
      }
      if (rng.Chance(0.1)) {
        clock.Advance(1e-3);  // Host CPU between requests.
      }
    }
    ASSERT_TRUE(disk->Drain().ok());

    const DiskStats& stats = disk->stats();
    EXPECT_EQ(stats.read_ops + stats.write_ops, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.queued_requests, stats.read_ops + stats.write_ops);
    if (options.backend == DeviceBackend::kHpC3010 && options.qos.policy == QosPolicy::kNone) {
      EXPECT_GT(stats.merged_requests, 0u);
    }
    ChannelStats channel_sum;
    for (size_t c = 0; c < stats.channel_count(); ++c) {
      const ChannelStats& ch = stats.channel(c);
      channel_sum.read_ops += ch.read_ops;
      channel_sum.write_ops += ch.write_ops;
      channel_sum.sectors_read += ch.sectors_read;
      channel_sum.sectors_written += ch.sectors_written;
      channel_sum.queued_requests += ch.queued_requests;
    }
    EXPECT_EQ(channel_sum.read_ops, stats.read_ops);
    EXPECT_EQ(channel_sum.write_ops, stats.write_ops);
    EXPECT_EQ(channel_sum.sectors_read, stats.sectors_read);
    EXPECT_EQ(channel_sum.sectors_written, stats.sectors_written);
    EXPECT_EQ(channel_sum.queued_requests, stats.queued_requests);
    TenantStats tenant_sum;
    for (size_t t = 0; t < stats.tenant_count(); ++t) {
      const TenantStats& ts = stats.tenant(t);
      EXPECT_EQ(ts.read_latency.count(), ts.read_ops) << "tenant " << t;
      EXPECT_EQ(ts.write_latency.count(), ts.write_ops) << "tenant " << t;
      tenant_sum.read_ops += ts.read_ops;
      tenant_sum.write_ops += ts.write_ops;
      tenant_sum.sectors_read += ts.sectors_read;
      tenant_sum.sectors_written += ts.sectors_written;
    }
    EXPECT_EQ(tenant_sum.read_ops, stats.read_ops);
    EXPECT_EQ(tenant_sum.write_ops, stats.write_ops);
    EXPECT_EQ(tenant_sum.sectors_read, stats.sectors_read);
    EXPECT_EQ(tenant_sum.sectors_written, stats.sectors_written);
  }
}

TEST(DiskQueueTest, MemDiskDefaultAsyncPathWorks) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::Mem(4096 * 512), &clock);
  const std::vector<uint8_t> data = Pattern(4096, 9);
  auto tag = disk->SubmitWrite(64, data);
  ASSERT_TRUE(tag.ok());
  std::vector<uint8_t> out(4096);
  auto rtag = disk->SubmitRead(64, out);
  ASSERT_TRUE(rtag.ok());
  EXPECT_EQ(data, out);
  EXPECT_TRUE(disk->WaitFor(*tag).ok());
  EXPECT_TRUE(disk->Drain().ok());
  EXPECT_TRUE(disk->Poll().empty());
}

// --- FaultDisk on the async path -------------------------------------------

TEST_P(FaultDiskAsyncAnyConfigTest, SubmitWriteCrashesAndTearsLikeSyncWrite) {
  SimClock clock;
  auto inner = MakeDevice(GetParam().Options(16 << 20), &clock);
  inner->set_queue_depth(16);
  FaultDisk disk(inner.get());
  const std::vector<uint8_t> data = Pattern(4 * 512, 10);

  disk.CrashAfterWrites(2, /*torn_sectors=*/1);
  ASSERT_TRUE(disk.SubmitWrite(100, data).ok());
  // Second submitted write crashes at submit (the crash strikes while the
  // request is in flight) and persists only its first sector.
  auto torn = disk.SubmitWrite(200, data);
  EXPECT_EQ(torn.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(disk.crashed());
  // While crashed, every async request fails without reaching the queue.
  std::vector<uint8_t> out(512);
  EXPECT_EQ(disk.SubmitRead(100, out).status().code(), ErrorCode::kIoError);
  EXPECT_EQ(disk.SubmitWrite(300, data).status().code(), ErrorCode::kIoError);

  disk.ClearFault();
  ASSERT_TRUE(disk.Drain().ok());
  // The pre-crash write persisted fully; the torn one only its prefix.
  std::vector<uint8_t> sector(512);
  ASSERT_TRUE(disk.Read(100, sector).ok());
  EXPECT_EQ(sector[0], data[0]);
  ASSERT_TRUE(disk.Read(200, sector).ok());
  EXPECT_EQ(sector[0], data[0]);
  ASSERT_TRUE(disk.Read(201, sector).ok());
  EXPECT_EQ(sector[0], 0x00);  // Beyond the torn prefix.
}

TEST(FaultDiskAsyncTest, ForwardsQueueKnobsChannelsAndCompletions) {
  SimClock clock;
  auto inner = MakeDevice(DeviceOptions::HpC3010(16 << 20, /*channels=*/4), &clock);
  FaultDisk disk(inner.get());

  EXPECT_EQ(disk.num_channels(), 4u);
  EXPECT_EQ(disk.ChannelOf(0), inner->ChannelOf(0));
  const uint64_t last = inner->num_sectors() - 1;
  EXPECT_EQ(disk.ChannelOf(last), inner->ChannelOf(last));
  EXPECT_GT(disk.ChannelOf(last), 0u);

  disk.set_queue_policy(QueuePolicy::kFifo);
  EXPECT_EQ(inner->queue_policy(), QueuePolicy::kFifo);
  disk.set_queue_depth(32);
  EXPECT_EQ(inner->queue_depth(), 32u);

  const std::vector<uint8_t> data = Pattern(4096, 11);
  auto tag = disk.SubmitWrite(64, data);
  ASSERT_TRUE(tag.ok());
  (void)disk.Poll();  // Forces scheduling through the wrapper.
  EXPECT_GT(disk.ScheduledCompletion(*tag), 0.0);
  EXPECT_DOUBLE_EQ(disk.ScheduledCompletion(*tag), inner->ScheduledCompletion(*tag));
  ASSERT_TRUE(disk.Drain().ok());
}

TEST_P(FaultDiskAsyncAnyConfigTest, WaitForAndPollPassThrough) {
  SimClock clock;
  auto inner = MakeDevice(GetParam().Options(16 << 20), &clock);
  inner->set_queue_depth(16);
  FaultDisk disk(inner.get());
  const std::vector<uint8_t> data = Pattern(4096, 12);
  auto tag = disk.SubmitWrite(500, data);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(disk.WaitFor(*tag).ok());
  EXPECT_GT(clock.Now(), 0.0);
  EXPECT_TRUE(disk.Poll().empty());
}

INSTANTIATE_TEST_SUITE_P(QueueMatrix, DiskQueueAnyConfigTest, ::testing::ValuesIn(QueueMatrix()),
                         DeviceConfigName);
INSTANTIATE_TEST_SUITE_P(QueueMatrix, FaultDiskAsyncAnyConfigTest,
                         ::testing::ValuesIn(QueueMatrix()), DeviceConfigName);

}  // namespace
}  // namespace ld
