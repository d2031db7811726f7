// NvmeDevice timing model: fixed per-request latency, then payload drains
// over a link whose bandwidth is shared equally by all in-flight transfers
// (processor-sharing fluid model). No seek, no rotation, deep tagged queue.

#include <gtest/gtest.h>

#include "src/disk/device_factory.h"
#include "src/disk/nvme_device.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kCapacity = 64ull << 20;

DeviceOptions SmallNvme() { return DeviceOptions::Nvme(kCapacity); }

TEST(NvmeDeviceTest, SingleReadCostsLatencyPlusTransfer) {
  SimClock clock;
  auto disk = MakeDevice(SmallNvme(), &clock);
  std::vector<uint8_t> buf(4096);
  const double start = clock.Now();
  ASSERT_TRUE(disk->Read(0, buf).ok());
  const double elapsed = clock.Now() - start;
  const double expected =
      kNvmeReadLatencyUs * 1e-6 + 4096.0 / (kNvmeBandwidthMbPerS * 1e6);
  EXPECT_NEAR(elapsed, expected, expected * 1e-6);
}

TEST(NvmeDeviceTest, SingleWriteCostsLatencyPlusTransfer) {
  SimClock clock;
  auto disk = MakeDevice(SmallNvme(), &clock);
  std::vector<uint8_t> buf(512 * 1024, 0x3c);
  const double start = clock.Now();
  ASSERT_TRUE(disk->Write(0, buf).ok());
  const double elapsed = clock.Now() - start;
  const double expected = kNvmeWriteLatencyUs * 1e-6 +
                          static_cast<double>(buf.size()) / (kNvmeBandwidthMbPerS * 1e6);
  EXPECT_NEAR(elapsed, expected, expected * 1e-6);
}

TEST(NvmeDeviceTest, ConcurrentTransfersShareBandwidth) {
  // k same-size transfers submitted together each finish after ~k times the
  // unloaded transfer time; aggregate bandwidth stays at B.
  const size_t kBytes = 1 << 20;
  const double unloaded = static_cast<double>(kBytes) / (kNvmeBandwidthMbPerS * 1e6);

  for (int k : {2, 4}) {
    SimClock clock;
    auto disk = MakeDevice(SmallNvme(), &clock);
    std::vector<uint8_t> buf(kBytes, 0x77);
    const double start = clock.Now();
    for (int i = 0; i < k; ++i) {
      ASSERT_TRUE(disk->SubmitWrite(i * (kBytes / 512), buf).ok());
    }
    ASSERT_TRUE(disk->Drain().ok());
    const double elapsed = clock.Now() - start;
    const double expected = kNvmeWriteLatencyUs * 1e-6 + k * unloaded;
    EXPECT_NEAR(elapsed, expected, expected * 0.01) << "k=" << k;
  }
}

TEST(NvmeDeviceTest, NoSeekPenaltyForRandomAccess) {
  // Random 4K writes cost the same as sequential ones: there is no arm.
  const int kOps = 64;
  std::vector<uint8_t> buf(4096, 0x11);

  SimClock seq_clock;
  auto seq = MakeDevice(SmallNvme(), &seq_clock);
  const double seq_start = seq_clock.Now();
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(seq->Write(static_cast<uint64_t>(i) * 8, buf).ok());
  }
  const double seq_elapsed = seq_clock.Now() - seq_start;

  SimClock rnd_clock;
  auto rnd = MakeDevice(SmallNvme(), &rnd_clock);
  Rng rng(5);
  const double rnd_start = rnd_clock.Now();
  for (int i = 0; i < kOps; ++i) {
    const uint64_t sector = rng.Below(rnd->num_sectors() - 8) & ~7ull;
    ASSERT_TRUE(rnd->Write(sector, buf).ok());
  }
  const double rnd_elapsed = rnd_clock.Now() - rnd_start;

  EXPECT_NEAR(rnd_elapsed, seq_elapsed, seq_elapsed * 1e-6);
}

TEST(NvmeDeviceTest, DeepQueueAbsorbsHundredsOfTags) {
  SimClock clock;
  auto disk = MakeDevice(SmallNvme(), &clock);
  ASSERT_GE(disk->queue_depth(), 256u);
  std::vector<uint8_t> buf(4096, 0x42);
  std::vector<IoTag> tags;
  for (int i = 0; i < 300; ++i) {
    auto tag = disk->SubmitWrite(static_cast<uint64_t>(i) * 8, buf);
    ASSERT_TRUE(tag.ok());
    tags.push_back(*tag);
  }
  ASSERT_TRUE(disk->Drain().ok());
  for (IoTag t : tags) {
    EXPECT_TRUE(disk->WaitFor(t).ok());  // Already retired: no-op OK.
  }
  EXPECT_EQ(disk->stats().write_ops, 300u);
  EXPECT_GE(disk->stats().max_queue_depth, 256u);
  EXPECT_GT(disk->stats().queue_wait_ms, 0.0);
}

TEST(NvmeDeviceTest, DataIntegrityThroughAsyncPath) {
  SimClock clock;
  auto disk = MakeDevice(SmallNvme(), &clock);
  Rng rng(17);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> written;
  for (int i = 0; i < 64; ++i) {
    const uint64_t sector = rng.Below(disk->num_sectors() - 16) & ~15ull;
    std::vector<uint8_t> data(8192);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    ASSERT_TRUE(disk->SubmitWrite(sector, data).ok());
    written.emplace_back(sector, std::move(data));
  }
  ASSERT_TRUE(disk->Drain().ok());
  for (const auto& [sector, data] : written) {
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(disk->Read(sector, out).ok());
    EXPECT_EQ(out, data) << "sector " << sector;
  }
}

TEST(NvmeDeviceTest, SyncEqualsSubmitPlusWait) {
  std::vector<uint8_t> buf(64 * 1024, 0x9d);

  SimClock sync_clock;
  auto sync_disk = MakeDevice(SmallNvme(), &sync_clock);
  ASSERT_TRUE(sync_disk->Write(100, buf).ok());

  SimClock async_clock;
  auto async_disk = MakeDevice(SmallNvme(), &async_clock);
  auto tag = async_disk->SubmitWrite(100, buf);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(async_disk->WaitFor(*tag).ok());

  EXPECT_DOUBLE_EQ(sync_clock.Now(), async_clock.Now());
}

TEST(NvmeDeviceTest, WeightedShareSplitsTheLinkByTenantWeight) {
  // Two tenants with weights {3, 1} each write 1 MB at t=0. Under weighted
  // share tenant 0 drains at 0.75 B until it finishes, then tenant 1 gets the
  // whole link; with QoS off both share it equally and finish together.
  const size_t kBytes = 1 << 20;
  const double bps = kNvmeBandwidthMbPerS * 1e6;
  const double latency = kNvmeWriteLatencyUs * 1e-6;
  const double heavy_done = latency + static_cast<double>(kBytes) / (0.75 * bps);
  const double light_done = latency + 2.0 * static_cast<double>(kBytes) / bps;
  EXPECT_NEAR(heavy_done * 1e6, 456.907, 1e-3);
  EXPECT_NEAR(light_done * 1e6, 675.360, 1e-3);

  for (bool weighted : {true, false}) {
    SCOPED_TRACE(weighted ? "weighted share" : "qos off");
    DeviceOptions options = SmallNvme();
    if (weighted) {
      options.qos.policy = QosPolicy::kWeightedShare;
      options.qos.num_tenants = 2;
      options.qos.weights = {3, 1};
    }
    SimClock clock;
    auto disk = MakeDevice(options, &clock);
    std::vector<uint8_t> buf(kBytes, 0x5a);
    std::vector<IoTag> tags;
    for (TenantId tenant : {0u, 1u}) {
      disk->set_request_tenant(tenant);
      auto tag = disk->SubmitWrite(tenant * (kBytes / 512), buf);
      ASSERT_TRUE(tag.ok());
      tags.push_back(*tag);
    }
    EXPECT_TRUE(disk->Poll().empty());  // Schedules both; none is done at t=0.
    EXPECT_NEAR(disk->ScheduledCompletion(tags[0]), weighted ? heavy_done : light_done, 1e-12);
    EXPECT_NEAR(disk->ScheduledCompletion(tags[1]), light_done, 1e-12);
    ASSERT_TRUE(disk->Drain().ok());
    EXPECT_NEAR(clock.Now(), light_done, 1e-12);
    for (TenantId tenant : {0u, 1u}) {
      EXPECT_EQ(disk->stats().tenant(tenant).write_ops, 1u);
      EXPECT_EQ(disk->stats().tenant(tenant).write_latency.count(), 1u);
    }
  }
}

TEST(NvmeDeviceTest, RejectsUnalignedAndOutOfRange) {
  SimClock clock;
  auto disk = MakeDevice(SmallNvme(), &clock);
  std::vector<uint8_t> odd(100);
  EXPECT_EQ(disk->Read(0, odd).code(), ErrorCode::kInvalidArgument);
  std::vector<uint8_t> aligned(512);
  EXPECT_EQ(disk->Write(disk->num_sectors(), aligned).code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(disk->SubmitRead(disk->num_sectors(), aligned).ok());
}

TEST(NvmeDeviceTest, KnobsAreAcceptedAndReported) {
  SimClock clock;
  auto disk = MakeDevice(SmallNvme(), &clock);
  EXPECT_EQ(disk->num_channels(), 1u);
  EXPECT_EQ(disk->ChannelOf(disk->num_sectors() - 1), 0u);
  disk->set_queue_policy(QueuePolicy::kFifo);
  EXPECT_EQ(disk->queue_policy(), QueuePolicy::kFifo);
  disk->set_queue_depth(32);
  EXPECT_EQ(disk->queue_depth(), 32u);
}

TEST(NvmeDeviceTest, StatsAccumulateAndReset) {
  SimClock clock;
  auto disk = MakeDevice(SmallNvme(), &clock);
  std::vector<uint8_t> buf(8192, 1);
  ASSERT_TRUE(disk->Write(0, buf).ok());
  ASSERT_TRUE(disk->Read(0, buf).ok());
  EXPECT_EQ(disk->stats().write_ops, 1u);
  EXPECT_EQ(disk->stats().read_ops, 1u);
  EXPECT_EQ(disk->stats().sectors_written, 16u);
  EXPECT_EQ(disk->stats().sectors_read, 16u);
  EXPECT_GT(disk->stats().busy_ms, 0.0);
  EXPECT_GT(disk->stats().transfer_ms, 0.0);
  EXPECT_EQ(disk->stats().seeks, 0u);  // No arm, ever.
  EXPECT_EQ(disk->stats().channel(0).write_ops, 1u);
  disk->ResetStats();
  EXPECT_EQ(disk->stats().TotalOps(), 0u);
  EXPECT_EQ(disk->stats().channel(0).write_ops, 0u);
}

}  // namespace
}  // namespace ld
