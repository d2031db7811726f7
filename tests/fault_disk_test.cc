// FaultDisk behavior: deterministic seeded schedules, bounded transient
// bursts, latent sector errors that survive reboot (ClearFault), persistent
// silent corruption, torn-write crash scheduling, and health counters.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

constexpr uint32_t kSectorSize = 512;
constexpr uint64_t kNumSectors = 4096;

struct Rig {
  SimClock clock;
  MemDisk mem{kNumSectors, kSectorSize, &clock};
  FaultDisk disk{&mem};

  std::vector<uint8_t> sector_buf = std::vector<uint8_t>(kSectorSize);

  Status ReadSector(uint64_t s) { return disk.Read(s, sector_buf); }
  Status WriteSector(uint64_t s, uint8_t fill) {
    std::vector<uint8_t> data(kSectorSize, fill);
    return disk.Write(s, data);
  }
};

TEST(FaultDiskTest, SameSeedSameSchedule) {
  const uint64_t seed = EnvFaultSeed(7);
  FaultPlan plan;
  plan.seed = seed;
  plan.transient_read_error_rate = 0.2;
  plan.max_transient_burst = 3;

  const auto run = [&] {
    Rig rig;
    rig.disk.SetFaultPlan(plan);
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes.push_back(rig.ReadSector(i % kNumSectors).ok());
    }
    return outcomes;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);

  FaultPlan other = plan;
  other.seed = seed + 1;
  Rig rig;
  rig.disk.SetFaultPlan(other);
  std::vector<bool> different;
  for (int i = 0; i < 200; ++i) {
    different.push_back(rig.ReadSector(i % kNumSectors).ok());
  }
  EXPECT_NE(first, different);
}

TEST(FaultDiskTest, TransientBurstsAreBounded) {
  Rig rig;
  FaultPlan plan;
  plan.seed = EnvFaultSeed(1);
  plan.transient_read_error_rate = 0.1;
  plan.max_transient_burst = 4;
  rig.disk.SetFaultPlan(plan);

  uint32_t run = 0;
  uint32_t longest = 0;
  uint32_t failures = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rig.ReadSector(i % kNumSectors).ok()) {
      run = 0;
    } else {
      failures++;
      run++;
      longest = std::max(longest, run);
    }
  }
  EXPECT_GT(failures, 0u);
  EXPECT_LE(longest, plan.max_transient_burst);
}

TEST(FaultDiskTest, TransientErrorsAreTypedIoError) {
  Rig rig;
  FaultPlan plan;
  plan.transient_read_error_rate = 1.0;
  plan.transient_write_error_rate = 1.0;
  rig.disk.SetFaultPlan(plan);
  EXPECT_EQ(rig.ReadSector(0).code(), ErrorCode::kIoError);
  EXPECT_EQ(rig.WriteSector(0, 0xaa).code(), ErrorCode::kIoError);
}

TEST(FaultDiskTest, LatentErrorSurvivesClearFaultAndHealsOnWrite) {
  Rig rig;
  ASSERT_TRUE(rig.WriteSector(5, 0x11).ok());
  rig.disk.InjectLatentError(5);
  EXPECT_TRUE(rig.disk.HasLatentError(5));
  EXPECT_EQ(rig.disk.latent_error_count(), 1u);

  EXPECT_EQ(rig.ReadSector(5).code(), ErrorCode::kIoError);
  // Satellite (a) regression: a reboot must not wipe media damage.
  rig.disk.ClearFault();
  EXPECT_TRUE(rig.disk.HasLatentError(5));
  EXPECT_EQ(rig.ReadSector(5).code(), ErrorCode::kIoError);
  // Neighboring sectors are unaffected.
  EXPECT_TRUE(rig.ReadSector(4).ok());
  EXPECT_TRUE(rig.ReadSector(6).ok());
  // Rewriting the sector remaps it.
  ASSERT_TRUE(rig.WriteSector(5, 0x22).ok());
  EXPECT_FALSE(rig.disk.HasLatentError(5));
  ASSERT_TRUE(rig.ReadSector(5).ok());
  EXPECT_EQ(rig.sector_buf[0], 0x22);
}

TEST(FaultDiskTest, LatentErrorFailsMultiSectorReadsCoveringIt) {
  Rig rig;
  rig.disk.InjectLatentError(10);
  std::vector<uint8_t> two(kSectorSize * 2);
  EXPECT_EQ(rig.disk.Read(9, two).code(), ErrorCode::kIoError);
  EXPECT_EQ(rig.disk.Read(10, two).code(), ErrorCode::kIoError);
  EXPECT_TRUE(rig.disk.Read(11, two).ok());
}

TEST(FaultDiskTest, CorruptSectorPersistsAcrossClearFault) {
  Rig rig;
  ASSERT_TRUE(rig.WriteSector(3, 0x55).ok());
  ASSERT_TRUE(rig.disk.CorruptSector(3, /*byte_offset=*/17, /*xor_mask=*/0x80).ok());
  EXPECT_EQ(rig.disk.corruptions_injected(), 1u);

  rig.disk.ClearFault();
  ASSERT_TRUE(rig.ReadSector(3).ok());
  for (uint32_t i = 0; i < kSectorSize; ++i) {
    EXPECT_EQ(rig.sector_buf[i], i == 17 ? (0x55 ^ 0x80) : 0x55) << "byte " << i;
  }
  EXPECT_EQ(rig.disk.CorruptSector(kNumSectors, 0, 1).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(rig.disk.CorruptSector(0, kSectorSize, 1).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(rig.disk.CorruptSector(0, 0, 0).code(), ErrorCode::kInvalidArgument);
}

TEST(FaultDiskTest, BitFlipsCorruptWritesSilently) {
  Rig rig;
  FaultPlan plan;
  plan.seed = EnvFaultSeed(3);
  plan.bit_flip_rate = 1.0;
  rig.disk.SetFaultPlan(plan);
  ASSERT_TRUE(rig.WriteSector(8, 0x00).ok());  // Write "succeeds"...
  EXPECT_GT(rig.disk.corruptions_injected(), 0u);

  rig.disk.SetFaultPlan(FaultPlan{});  // Stop injecting; read back clean.
  ASSERT_TRUE(rig.ReadSector(8).ok());
  uint32_t flipped_bits = 0;
  for (uint8_t byte : rig.sector_buf) {
    flipped_bits += static_cast<uint32_t>(__builtin_popcount(byte));
  }
  EXPECT_EQ(flipped_bits, 1u);  // Exactly one bit flipped in the sector.
}

TEST(FaultDiskTest, CrashAfterWritesWithTornPrefix) {
  Rig rig;
  ASSERT_TRUE(rig.WriteSector(0, 0x01).ok());
  // Crash on the 2nd write from now, persisting only 1 sector of it.
  rig.disk.CrashAfterWrites(2, /*torn_sectors=*/1);
  ASSERT_TRUE(rig.WriteSector(1, 0x02).ok());

  std::vector<uint8_t> three(kSectorSize * 3, 0xcc);
  EXPECT_EQ(rig.disk.Write(2, three).code(), ErrorCode::kIoError);
  EXPECT_TRUE(rig.disk.crashed());
  EXPECT_EQ(rig.ReadSector(0).code(), ErrorCode::kIoError);

  rig.disk.ClearFault();
  EXPECT_FALSE(rig.disk.crashed());
  ASSERT_TRUE(rig.ReadSector(2).ok());
  EXPECT_EQ(rig.sector_buf[0], 0xcc);  // Torn prefix landed...
  ASSERT_TRUE(rig.ReadSector(3).ok());
  EXPECT_EQ(rig.sector_buf[0], 0x00);  // ...but the tail did not.
  ASSERT_TRUE(rig.ReadSector(1).ok());
  EXPECT_EQ(rig.sector_buf[0], 0x02);  // Pre-crash writes intact.
}

TEST(FaultDiskTest, CrashNowFailsAllIo) {
  Rig rig;
  rig.disk.CrashNow();
  EXPECT_EQ(rig.ReadSector(0).code(), ErrorCode::kIoError);
  EXPECT_EQ(rig.WriteSector(0, 1).code(), ErrorCode::kIoError);
  EXPECT_FALSE(rig.disk.SubmitRead(0, rig.sector_buf).ok());
}

TEST(FaultDiskTest, HealthCountersTrackInjectedErrors) {
  Rig rig;
  rig.disk.ResetStats();
  rig.disk.InjectLatentError(2);
  EXPECT_FALSE(rig.ReadSector(2).ok());
  EXPECT_FALSE(rig.ReadSector(2).ok());
  FaultPlan plan;
  plan.transient_write_error_rate = 1.0;
  rig.disk.SetFaultPlan(plan);
  EXPECT_FALSE(rig.WriteSector(0, 1).ok());

  const DiskStats& stats = rig.disk.stats();
  EXPECT_EQ(stats.read_errors, 2u);
  EXPECT_EQ(stats.write_errors, 1u);
}

// ---- Whole-channel failure ---------------------------------------------------

struct ChannelRig {
  SimClock clock;
  std::unique_ptr<BlockDevice> inner;
  std::unique_ptr<FaultDisk> disk;

  explicit ChannelRig(uint32_t channels = 4) {
    inner = MakeDevice(DeviceOptions::HpC3010(16ull << 20, channels), &clock);
    disk = std::make_unique<FaultDisk>(inner.get());
  }

  // First sector owned by channel `ch`.
  uint64_t SectorOn(uint32_t ch) const {
    for (uint64_t s = 0; s < inner->num_sectors(); ++s) {
      if (inner->ChannelOf(s) == ch) {
        return s;
      }
    }
    ADD_FAILURE() << "no sector on channel " << ch;
    return 0;
  }
};

TEST(FaultDiskTest, FailedChannelRefusesIoTypedAndSurvivesClearFault) {
  ChannelRig rig;
  const uint32_t sector_size = rig.disk->sector_size();
  std::vector<uint8_t> buf(sector_size, 0x5a);
  const uint64_t dead_sector = rig.SectorOn(2);
  const uint64_t live_sector = rig.SectorOn(1);
  ASSERT_TRUE(rig.disk->Write(dead_sector, buf).ok());

  rig.disk->FailChannel(2);
  EXPECT_TRUE(rig.disk->channel_failed(2));
  EXPECT_EQ(rig.disk->failed_channel_count(), 1u);
  EXPECT_EQ(rig.disk->Read(dead_sector, buf).code(), ErrorCode::kIoError);
  EXPECT_EQ(rig.disk->Write(dead_sector, buf).code(), ErrorCode::kIoError);
  EXPECT_TRUE(rig.disk->Read(live_sector, buf).ok());
  EXPECT_TRUE(rig.disk->Write(live_sector, buf).ok());

  // A reboot clears crash scheduling, not hardware: the channel stays dead.
  rig.disk->ClearFault();
  EXPECT_TRUE(rig.disk->channel_failed(2));
  EXPECT_EQ(rig.disk->Read(dead_sector, buf).code(), ErrorCode::kIoError);

  // Dead-channel failures land in that channel's health column.
  const DiskStats& stats = rig.disk->stats();
  EXPECT_GT(stats.channel(2).read_errors, 0u);
  EXPECT_GT(stats.channel(2).write_errors, 0u);
  EXPECT_EQ(stats.channel(1).read_errors, 0u);
}

TEST(FaultDiskTest, MultiSectorRequestTouchingDeadChannelFails) {
  ChannelRig rig;
  // A request straddling the channel-2/3 boundary must fail if either side
  // is dead.
  uint64_t boundary = rig.SectorOn(3);
  ASSERT_GT(boundary, 0u);
  std::vector<uint8_t> two(rig.disk->sector_size() * 2);
  rig.disk->FailChannel(3);
  EXPECT_EQ(rig.disk->Read(boundary - 1, two).code(), ErrorCode::kIoError);
  EXPECT_TRUE(rig.disk->Read(boundary - 2, std::span<uint8_t>(two.data(), rig.disk->sector_size())).ok());
}

TEST(FaultDiskTest, HealChannelSwapsInBlankSpare) {
  ChannelRig rig;
  const uint32_t sector_size = rig.disk->sector_size();
  std::vector<uint8_t> buf(sector_size, 0x77);
  const uint64_t victim = rig.SectorOn(1);
  const uint64_t bystander = rig.SectorOn(0);
  ASSERT_TRUE(rig.disk->Write(victim, buf).ok());
  ASSERT_TRUE(rig.disk->Write(bystander, buf).ok());

  rig.disk->FailChannel(1);
  ASSERT_TRUE(rig.disk->HealChannel(1).ok());
  EXPECT_FALSE(rig.disk->channel_failed(1));
  EXPECT_EQ(rig.disk->failed_channel_count(), 0u);

  // The spare accepts I/O but the old contents are gone (all zeros)...
  ASSERT_TRUE(rig.disk->Read(victim, buf).ok());
  for (uint32_t i = 0; i < sector_size; ++i) {
    ASSERT_EQ(buf[i], 0u) << "byte " << i;
  }
  ASSERT_TRUE(rig.disk->Write(victim, std::vector<uint8_t>(sector_size, 0x33)).ok());
  ASSERT_TRUE(rig.disk->Read(victim, buf).ok());
  EXPECT_EQ(buf[0], 0x33);
  // ...while other channels' media is untouched.
  ASSERT_TRUE(rig.disk->Read(bystander, buf).ok());
  EXPECT_EQ(buf[0], 0x77);

  // Healing a live channel is a no-op, not an error.
  EXPECT_TRUE(rig.disk->HealChannel(0).ok());
  ASSERT_TRUE(rig.disk->Read(bystander, buf).ok());
  EXPECT_EQ(buf[0], 0x77);
}

// Sets LD_FAULT_SEED (nullptr: unsets it) for one scope, then restores
// the value the process had, so a CI seed loop still reaches the cases
// that run after this one.
class ScopedFaultSeed {
 public:
  explicit ScopedFaultSeed(const char* value) {
    if (const char* prev = std::getenv("LD_FAULT_SEED")) {
      prev_ = prev;
    }
    if (value != nullptr) {
      setenv("LD_FAULT_SEED", value, 1);
    } else {
      unsetenv("LD_FAULT_SEED");
    }
  }
  ~ScopedFaultSeed() {
    if (prev_) {
      setenv("LD_FAULT_SEED", prev_->c_str(), 1);
    } else {
      unsetenv("LD_FAULT_SEED");
    }
  }

 private:
  std::optional<std::string> prev_;
};

TEST(EnvFaultSeedTest, KeepsFallbackUnlessSetNonNegative) {
  {
    ScopedFaultSeed seed(nullptr);
    EXPECT_EQ(EnvFaultSeed(42), 42u);
  }
  {
    ScopedFaultSeed seed("-5");
    EXPECT_EQ(EnvFaultSeed(42), 42u);
  }
  {
    ScopedFaultSeed seed("7");
    EXPECT_EQ(EnvFaultSeed(42), 7u);
  }
}

}  // namespace
}  // namespace ld
