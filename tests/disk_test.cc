// Tests for the disk substrate: geometry arithmetic, simulated-disk data
// integrity, the calibration points the paper reports for the raw device,
// the memory backend, the sparse byte store under every device, and
// FaultDisk crash/torn-write injection. Devices are built through
// DeviceOptions/MakeDevice; the simulated-disk cases run under FIFO and
// C-SCAN at 1 and 4 channels, since their assertions hold for any queue
// policy and channel count.

#include <gtest/gtest.h>

#include "src/disk/chunked_storage.h"
#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/disk/geometry.h"
#include "src/util/random.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

TEST(GeometryTest, C3010CapacityIsAbout2GB) {
  const DiskGeometry g = DiskGeometry::HpC3010();
  EXPECT_GT(g.CapacityBytes(), 1900ull << 20);
  EXPECT_LT(g.CapacityBytes(), 2200ull << 20);
}

TEST(GeometryTest, AverageSeekNearPaperSpec) {
  const DiskGeometry g = DiskGeometry::HpC3010();
  // HP C3010: 11.5 ms average seek.
  EXPECT_NEAR(g.AverageSeekMs(), 11.5, 1.5);
}

TEST(GeometryTest, RotationAt5400Rpm) {
  const DiskGeometry g = DiskGeometry::HpC3010();
  EXPECT_NEAR(g.RotationPeriodMs(), 11.11, 0.01);
}

TEST(GeometryTest, SeekIsZeroForNoMove) {
  const DiskGeometry g = DiskGeometry::HpC3010();
  EXPECT_EQ(g.SeekTimeMs(0), 0.0);
  EXPECT_GT(g.SeekTimeMs(1), 0.0);
  EXPECT_LT(g.SeekTimeMs(1), g.SeekTimeMs(1000));
}

TEST(GeometryTest, PartitionCoversRequestedBytes) {
  const DiskGeometry g = DiskGeometry::HpC3010Partition(400ull << 20);
  EXPECT_GE(g.CapacityBytes(), 400ull << 20);
  EXPECT_LT(g.CapacityBytes(), 440ull << 20);
}

class SimDiskTest : public ::testing::TestWithParam<DeviceConfig> {};

TEST_P(SimDiskTest, ReadBackWhatWasWritten) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(16 << 20), &clock);
  Rng rng(7);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_TRUE(disk->Write(100, data).ok());
  std::vector<uint8_t> readback(4096);
  ASSERT_TRUE(disk->Read(100, readback).ok());
  EXPECT_EQ(data, readback);
}

TEST_P(SimDiskTest, UnwrittenAreasReadAsZeros) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(16 << 20), &clock);
  std::vector<uint8_t> buf(512, 0xff);
  ASSERT_TRUE(disk->Read(5000, buf).ok());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
}

TEST_P(SimDiskTest, RejectsUnalignedAndOutOfRange) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(16 << 20), &clock);
  std::vector<uint8_t> odd(100);
  EXPECT_EQ(disk->Read(0, odd).code(), ErrorCode::kInvalidArgument);
  std::vector<uint8_t> aligned(512);
  EXPECT_EQ(disk->Read(disk->num_sectors(), aligned).code(), ErrorCode::kInvalidArgument);
}

TEST_P(SimDiskTest, TimeAdvancesOnIo) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(16 << 20), &clock);
  std::vector<uint8_t> data(4096, 1);
  ASSERT_TRUE(disk->Write(0, data).ok());
  EXPECT_GT(clock.Now(), 0.0);
}

// Paper §4.2 calibration point 1: "A user-level process writing 0.5 Mbyte
// segments to the disk partition in a tight loop achieves a throughput of
// 2400 Kbyte/s on this configuration." (A sequential run stays inside one
// channel's cylinder band, so the bound holds at any channel count.)
TEST_P(SimDiskTest, SequentialHalfMegabyteWritesReach2400KBps) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(400ull << 20), &clock);
  std::vector<uint8_t> segment(512 * 1024, 0xaa);
  const int kSegments = 100;
  const double start = clock.Now();
  uint64_t sector = 0;
  for (int i = 0; i < kSegments; ++i) {
    ASSERT_TRUE(disk->Write(sector, segment).ok());
    sector += segment.size() / disk->sector_size();
  }
  const double kbps = kSegments * 512.0 / (clock.Now() - start);
  EXPECT_GT(kbps, 2100);
  EXPECT_LT(kbps, 2700);
}

// Paper §4.2 calibration point 2: "a program that writes back-to-back
// 4-Kbyte blocks to the disk achieves a throughput of only 300 Kbyte per
// second" — each write misses a rotation.
TEST_P(SimDiskTest, BackToBack4KWritesNear300KBps) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(400ull << 20), &clock);
  std::vector<uint8_t> block(4096, 0xbb);
  const int kBlocks = 500;
  const double start = clock.Now();
  uint64_t sector = 0;
  for (int i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE(disk->Write(sector, block).ok());
    sector += block.size() / disk->sector_size();
  }
  const double kbps = kBlocks * 4.0 / (clock.Now() - start);
  EXPECT_GT(kbps, 250);
  EXPECT_LT(kbps, 400);
}

TEST_P(SimDiskTest, RandomAccessPaysSeeks) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(400ull << 20), &clock);
  std::vector<uint8_t> block(4096, 0xcc);
  Rng rng(11);
  const int kBlocks = 200;
  const double start = clock.Now();
  for (int i = 0; i < kBlocks; ++i) {
    const uint64_t sector = rng.Below(disk->num_sectors() - 8) & ~7ull;
    ASSERT_TRUE(disk->Write(sector, block).ok());
  }
  const double ms_per_op = (clock.Now() - start) * 1000.0 / kBlocks;
  // Seek + rotation + transfer: should be well above a rotation period and
  // below a worst-case full stroke.
  EXPECT_GT(ms_per_op, 8.0);
  EXPECT_LT(ms_per_op, 40.0);
  EXPECT_GT(disk->stats().seeks, static_cast<uint64_t>(kBlocks / 2));
}

TEST_P(SimDiskTest, StatsAccumulate) {
  SimClock clock;
  auto disk = MakeDevice(GetParam().Options(16 << 20), &clock);
  std::vector<uint8_t> data(8192, 1);
  ASSERT_TRUE(disk->Write(0, data).ok());
  ASSERT_TRUE(disk->Read(0, data).ok());
  EXPECT_EQ(disk->stats().write_ops, 1u);
  EXPECT_EQ(disk->stats().read_ops, 1u);
  EXPECT_EQ(disk->stats().sectors_written, 16u);
  EXPECT_EQ(disk->stats().sectors_read, 16u);
  // The per-channel breakdown accounts for the same traffic.
  uint64_t channel_writes = 0;
  for (size_t c = 0; c < disk->stats().channel_count(); ++c) {
    channel_writes += disk->stats().channel(c).write_ops;
  }
  EXPECT_EQ(channel_writes, 1u);
  disk->ResetStats();
  EXPECT_EQ(disk->stats().TotalOps(), 0u);
}

INSTANTIATE_TEST_SUITE_P(QueueMatrix, SimDiskTest, ::testing::ValuesIn(QueueMatrix()),
                         DeviceConfigName);

TEST(MemDiskTest, BasicIoAndBounds) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::Mem(1000 * 512), &clock);
  std::vector<uint8_t> data(512, 0x42);
  ASSERT_TRUE(disk->Write(999, data).ok());
  std::vector<uint8_t> readback(512);
  ASSERT_TRUE(disk->Read(999, readback).ok());
  EXPECT_EQ(data, readback);
  EXPECT_FALSE(disk->Write(1000, data).ok());
  EXPECT_EQ(clock.Now(), 0.0);  // MemDisk charges no time.
}

// ChunkedStorage allocates a 1-MB chunk at its first write of a non-zero
// byte; a chunk never written reads as zeros.
constexpr uint64_t kChunk = 1 << 20;

std::vector<uint8_t> ReadStorage(const ChunkedStorage& storage, uint64_t offset, size_t n) {
  std::vector<uint8_t> out(n, 0xa5);
  storage.CopyOut(offset, out);
  return out;
}

TEST(ChunkedStorageTest, ZerosIntoFreshStorageAllocateNothing) {
  ChunkedStorage storage(4 * kChunk);
  const std::vector<uint8_t> zeros(kChunk + 4096, 0);
  storage.CopyIn(kChunk - 4096, zeros);
  EXPECT_EQ(storage.allocated_chunks(), 0u);
  EXPECT_EQ(ReadStorage(storage, kChunk - 4096, zeros.size()), zeros);
}

TEST(ChunkedStorageTest, ZerosOverWrittenBytesOverwriteThem) {
  ChunkedStorage storage(2 * kChunk);
  storage.CopyIn(512, std::vector<uint8_t>(1024, 0x42));
  ASSERT_EQ(storage.allocated_chunks(), 1u);
  storage.CopyIn(1024, std::vector<uint8_t>(256, 0));
  std::vector<uint8_t> want(1024, 0x42);
  std::fill(want.begin() + 512, want.begin() + 768, 0);
  EXPECT_EQ(ReadStorage(storage, 512, 1024), want);
  EXPECT_EQ(storage.allocated_chunks(), 1u);
}

TEST(ChunkedStorageTest, FirstWriteLeavesTheRestOfItsChunkZero) {
  ChunkedStorage storage(2 * kChunk);
  const std::vector<uint8_t> data(3000, 0x5c);
  storage.CopyIn(kChunk / 2 + 7, data);
  EXPECT_EQ(storage.allocated_chunks(), 1u);
  const std::vector<uint8_t> chunk = ReadStorage(storage, 0, kChunk);
  for (size_t i = 0; i < chunk.size(); ++i) {
    const bool written = i >= kChunk / 2 + 7 && i < kChunk / 2 + 7 + data.size();
    ASSERT_EQ(chunk[i], written ? 0x5c : 0) << i;
  }
}

TEST(ChunkedStorageTest, WriteStraddlingTwoChunks) {
  ChunkedStorage storage(3 * kChunk);
  std::vector<uint8_t> data(8192);
  Rng rng(9);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next() | 1);
  }
  storage.CopyIn(2 * kChunk - 4096, data);
  EXPECT_EQ(storage.allocated_chunks(), 2u);
  EXPECT_EQ(ReadStorage(storage, 2 * kChunk - 4096, data.size()), data);
  EXPECT_EQ(ReadStorage(storage, 2 * kChunk - 8192, 4096), std::vector<uint8_t>(4096, 0));
  EXPECT_EQ(ReadStorage(storage, 2 * kChunk + 4096, 4096), std::vector<uint8_t>(4096, 0));
}

TEST(FaultDiskTest, CrashAfterNWrites) {
  SimClock clock;
  auto inner = MakeDevice(DeviceOptions::Mem(1000 * 512), &clock);
  FaultDisk disk(inner.get());
  std::vector<uint8_t> data(512, 1);
  disk.CrashAfterWrites(3);
  EXPECT_TRUE(disk.Write(0, data).ok());
  EXPECT_TRUE(disk.Write(1, data).ok());
  EXPECT_FALSE(disk.Write(2, data).ok());  // Third write crashes.
  EXPECT_TRUE(disk.crashed());
  EXPECT_FALSE(disk.Read(0, data).ok());
  disk.ClearFault();
  EXPECT_TRUE(disk.Read(0, data).ok());
}

TEST(FaultDiskTest, TornWritePersistsPrefixOnly) {
  SimClock clock;
  auto inner = MakeDevice(DeviceOptions::Mem(1000 * 512), &clock);
  FaultDisk disk(inner.get());
  std::vector<uint8_t> data(4 * 512, 0x77);
  disk.CrashAfterWrites(1, /*torn_sectors=*/2);
  EXPECT_FALSE(disk.Write(10, data).ok());
  disk.ClearFault();
  std::vector<uint8_t> sector(512);
  ASSERT_TRUE(disk.Read(10, sector).ok());
  EXPECT_EQ(sector[0], 0x77);
  ASSERT_TRUE(disk.Read(11, sector).ok());
  EXPECT_EQ(sector[0], 0x77);
  ASSERT_TRUE(disk.Read(12, sector).ok());
  EXPECT_EQ(sector[0], 0x00);  // Beyond the torn prefix: never written.
}

TEST(FaultDiskTest, CrashNowBlocksEverything) {
  SimClock clock;
  auto inner = MakeDevice(DeviceOptions::Mem(100 * 512), &clock);
  FaultDisk disk(inner.get());
  disk.CrashNow();
  std::vector<uint8_t> data(512);
  EXPECT_EQ(disk.Write(0, data).code(), ErrorCode::kIoError);
  EXPECT_EQ(disk.Read(0, data).code(), ErrorCode::kIoError);
}

}  // namespace
}  // namespace ld
