// The paper's §2.1 claim, made executable: "A file system can use atomic
// recovery units ... This eliminates the need for consistency checks such
// as those performed by fsck."
//
// With MinixOptions::sync_with_arus, every sync interval is one ARU, so a
// crash at ANY write recovers the file system to an exact sync boundary —
// and the fsck-style checker always comes back clean, across dozens of
// random crash points.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/minixfs/minix_fs.h"
#include "src/util/random.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 64ull << 20;

LldOptions TestLldOptions(bool segment_parity) {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  options.segment_parity = segment_parity;
  return options;
}

// The checker and crash-sweep cases hold with segment parity off and on:
// each runs once per setting (the parameter). Scrub tests pin their own.
class MinixFsckTest : public ::testing::TestWithParam<bool> {};

MinixOptions ArusOptions() {
  MinixOptions options;
  options.num_inodes = 1024;
  options.sync_with_arus = true;
  return options;
}

TEST_P(MinixFsckTest, CleanFileSystemPasses) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  auto lld = *LogStructuredDisk::Format(&disk, TestLldOptions(GetParam()));
  auto fs = *MinixFs::FormatOnLd(lld.get(), ArusOptions(), /*list_per_file=*/true);
  ASSERT_TRUE(fs->CheckConsistency().ok());

  ASSERT_TRUE(fs->Mkdir("/d").ok());
  auto ino = fs->CreateFile("/d/f");
  std::vector<uint8_t> data(20 * 1024, 0x31);
  ASSERT_TRUE(fs->WriteFile(*ino, 0, data).ok());
  ASSERT_TRUE(fs->Link("/d/f", "/alias").ok());
  ASSERT_TRUE(fs->SyncFs().ok());
  const Status check = fs->CheckConsistency();
  EXPECT_TRUE(check.ok()) << check.ToString();
}

TEST_P(MinixFsckTest, DetectsPlantedCorruption) {
  // The checker must actually catch problems: plant a dangling directory
  // entry by writing a bogus entry into the root directory block.
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  auto lld = *LogStructuredDisk::Format(&disk, TestLldOptions(GetParam()));
  auto fs = *MinixFs::FormatOnLd(lld.get(), ArusOptions(), /*list_per_file=*/true);
  ASSERT_TRUE(fs->CreateFile("/real").ok());
  ASSERT_TRUE(fs->SyncFs().ok());
  ASSERT_TRUE(fs->CheckConsistency().ok());
  // Empty the cache so the checker will re-read the corrupted block.
  ASSERT_TRUE(fs->DropCaches().ok());

  // Corrupt: point "/real" at an unallocated i-node by freeing it behind
  // the file system's back (simulated by a second create+unlink dance that
  // leaves a stale entry... simplest: rewrite the directory entry's i-node
  // number directly through the LD).
  std::vector<uint8_t> root_dir(4096);
  // Root directory data block: find it via ReadDir machinery — instead,
  // scan LD blocks for the entry (the root dir block holds "real").
  bool corrupted = false;
  for (Bid bid = 1; bid <= lld->block_map().max_bid() && !corrupted; ++bid) {
    if (!lld->block_map().IsAllocated(bid) ||
        lld->block_map().entry(bid).size_class() != 4096) {
      continue;
    }
    if (!lld->Read(bid, root_dir).ok()) {
      continue;
    }
    for (size_t off = 0; off + 64 <= root_dir.size(); off += 64) {
      if (std::memcmp(root_dir.data() + off + 4, "real", 5) == 0) {
        root_dir[off] = 99;  // Nonexistent i-node.
        ASSERT_TRUE(lld->Write(bid, root_dir).ok());
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(fs->CheckConsistency().ok());
}

// ---- fsck --scrub: media repair through the file-system tool ----

LldOptions ParityLldOptions() { return TestLldOptions(true); }
LldOptions NoParityLldOptions() { return TestLldOptions(false); }

// A sealed (kFull-segment) 4K block whose durable contents are all `fill`
// bytes — i.e. one of our file data blocks, never fs metadata.
Bid FindSealedDataBlock(LogStructuredDisk* lld, uint8_t fill) {
  std::vector<uint8_t> buf(4096);
  for (Bid bid = 1; bid <= lld->block_map().max_bid(); ++bid) {
    if (!lld->block_map().IsAllocated(bid)) {
      continue;
    }
    const BlockMapEntry& e = lld->block_map().entry(bid);
    if (e.size_class() != 4096 || !e.phys().IsOnDisk() ||
        lld->usage_table().segment(e.phys().segment).state != SegmentState::kFull) {
      continue;
    }
    if (!lld->Read(bid, buf).ok()) {
      continue;
    }
    bool uniform = true;
    for (uint8_t b : buf) {
      if (b != fill) {
        uniform = false;
        break;
      }
    }
    if (uniform) {
      return bid;
    }
  }
  return kNilBid;
}

// Writes four 160K files of `fill` bytes and syncs, so plenty of file data
// lands in sealed segments. Returns a victim block and its first sector.
struct ScrubVictim {
  Bid bid = kNilBid;
  uint64_t sector = 0;
};
ScrubVictim WriteFilesAndPickVictim(MinixFs* fs, LogStructuredDisk* lld, uint8_t fill) {
  std::vector<uint8_t> data(40 * 4096, fill);
  for (int i = 0; i < 4; ++i) {
    auto ino = fs->CreateFile("/f" + std::to_string(i));
    EXPECT_TRUE(ino.ok());
    EXPECT_TRUE(fs->WriteFile(*ino, 0, data).ok());
  }
  EXPECT_TRUE(fs->SyncFs().ok());

  ScrubVictim victim;
  victim.bid = FindSealedDataBlock(lld, fill);
  if (victim.bid == kNilBid) {
    ADD_FAILURE() << "no sealed file data block to damage";
    return victim;
  }
  const BlockMapEntry& e = lld->block_map().entry(victim.bid);
  victim.sector = (lld->SegmentStartByte(e.phys().segment) + e.phys().offset) / 512;
  return victim;
}

TEST(MinixFsckTest, FsckScrubReconstructsRottedDataBlockWithParity) {
  SimClock clock;
  MemDisk mem(kDiskBytes / 512, 512, &clock);
  FaultDisk disk(&mem);
  auto lld = *LogStructuredDisk::Format(&disk, ParityLldOptions());
  auto fs = *MinixFs::FormatOnLd(lld.get(), ArusOptions(), /*list_per_file=*/true);

  const ScrubVictim victim = WriteFilesAndPickVictim(fs.get(), lld.get(), 0xa5);
  ASSERT_NE(victim.bid, kNilBid);
  ASSERT_TRUE(disk.CorruptSector(victim.sector, 7, 0x10).ok());
  ASSERT_TRUE(fs->DropCaches().ok());

  MinixFsckOptions options;
  options.scrub = true;
  auto report = fs->Fsck(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->scrubbed);
  EXPECT_FALSE(report->degraded);
  EXPECT_GE(report->scrub.blocks_reconstructed, 1u);
  EXPECT_GE(report->scrub.blocks_relocated, 1u);
  EXPECT_EQ(report->LostBlocks(), 0u);

  // The damaged block came back byte-exact, and every file reads clean.
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(lld->Read(victim.bid, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(4096, 0xa5));
  const std::vector<uint8_t> expect(40 * 4096, 0xa5);
  for (int i = 0; i < 4; ++i) {
    auto ino = fs->OpenFile("/f" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> file(expect.size());
    ASSERT_EQ(*fs->ReadFile(*ino, 0, file), file.size());
    EXPECT_EQ(file, expect);
  }

  // Without --scrub, fsck is just the consistency walk.
  auto plain = fs->Fsck(MinixFsckOptions{});
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->scrubbed);
}

TEST(MinixFsckTest, FsckScrubReportsLostDataBlockWithoutParity) {
  SimClock clock;
  MemDisk mem(kDiskBytes / 512, 512, &clock);
  FaultDisk disk(&mem);
  auto lld = *LogStructuredDisk::Format(&disk, NoParityLldOptions());
  auto fs = *MinixFs::FormatOnLd(lld.get(), ArusOptions(), /*list_per_file=*/true);

  const ScrubVictim victim = WriteFilesAndPickVictim(fs.get(), lld.get(), 0x5c);
  ASSERT_NE(victim.bid, kNilBid);
  ASSERT_TRUE(disk.CorruptSector(victim.sector, 7, 0x10).ok());
  ASSERT_TRUE(fs->DropCaches().ok());

  // No redundancy: fsck still completes (the namespace is intact) but the
  // report owns up to the loss instead of laundering it.
  MinixFsckOptions options;
  options.scrub = true;
  auto report = fs->Fsck(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->scrubbed);
  EXPECT_EQ(report->scrub.blocks_reconstructed, 0u);
  EXPECT_GE(report->LostBlocks(), 1u);

  // The damage stays typed on the read path.
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(lld->Read(victim.bid, out).code(), ErrorCode::kCorruption);
  EXPECT_TRUE(fs->CheckConsistency().ok());
}

TEST(MinixFsckTest, FsckScrubNeedsLogicalDiskBackend) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  MinixOptions options;
  options.num_inodes = 1024;
  auto fs = *MinixFs::FormatClassic(&disk, options);
  ASSERT_TRUE(fs->CreateFile("/f").ok());
  ASSERT_TRUE(fs->SyncFs().ok());

  MinixFsckOptions scrub;
  scrub.scrub = true;
  EXPECT_EQ(fs->Fsck(scrub).status().code(), ErrorCode::kUnimplemented);
  // Plain fsck still works on the classic layout.
  auto plain = fs->Fsck(MinixFsckOptions{});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_FALSE(plain->scrubbed);
  EXPECT_FALSE(plain->degraded);
}

// A crash-sweep seed and the segment-parity setting.
class CrashSeedTest : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  int seed() const { return std::get<0>(GetParam()); }
  LldOptions Options() const { return TestLldOptions(std::get<1>(GetParam())); }
};

std::string SeedName(const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
  return "Seed" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) ? "_ParityOn" : "_ParityOff");
}

// The headline property: crash anywhere, recover, fsck is always clean.
class NoFsckNeededTest : public CrashSeedTest {};

TEST_P(NoFsckNeededTest, CrashAnywhereRecoversConsistent) {
  Rng rng(seed() * 7907 + 5);
  SimClock clock;
  MemDisk mem(kDiskBytes / 512, 512, &clock);
  FaultDisk disk(&mem);
  auto lld = *LogStructuredDisk::Format(&disk, Options());
  auto fs = *MinixFs::FormatOnLd(lld.get(), ArusOptions(), /*list_per_file=*/true);

  // Baseline activity + a sync.
  std::vector<std::string> files;
  std::vector<uint8_t> data(8 * 1024);
  for (int i = 0; i < 30; ++i) {
    const std::string path = "/base" + std::to_string(i);
    auto ino = fs->CreateFile(path);
    ASSERT_TRUE(ino.ok());
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    ASSERT_TRUE(fs->WriteFile(*ino, 0, data).ok());
    files.push_back(path);
  }
  ASSERT_TRUE(fs->SyncFs().ok());

  // Arm a crash at a random upcoming device write, then keep mutating the
  // namespace (creates, writes, deletes, links, renames) across several
  // sync intervals until the crash lands.
  disk.CrashAfterWrites(1 + rng.Below(40));
  for (int i = 0; i < 400; ++i) {
    Status status;
    switch (rng.Below(5)) {
      case 0: {
        const std::string path = "/new" + std::to_string(i);
        auto created = fs->CreateFile(path);
        status = created.status();
        if (status.ok()) {
          files.push_back(path);
        }
        break;
      }
      case 1: {
        auto ino = fs->OpenFile(files[rng.Below(files.size())]);
        if (!ino.ok()) {
          continue;
        }
        for (auto& b : data) {
          b = static_cast<uint8_t>(rng.Next());
        }
        status = fs->WriteFile(*ino, rng.Below(16) * 1024, data);
        break;
      }
      case 2:
        if (files.size() > 5) {
          const size_t pick = rng.Below(files.size());
          status = fs->Unlink(files[pick]);
          if (status.ok()) {
            files.erase(files.begin() + pick);
          }
        }
        break;
      case 3:
        status = fs->Link(files[rng.Below(files.size())], "/ln" + std::to_string(i));
        if (status.ok()) {
          files.push_back("/ln" + std::to_string(i));
        }
        break;
      default:
        status = fs->SyncFs();
        break;
    }
    if (!status.ok() && status.code() == ErrorCode::kIoError) {
      break;  // The crash hit.
    }
  }

  // Reboot the whole stack.
  disk.ClearFault();
  fs.reset();
  lld = *LogStructuredDisk::Open(&disk, Options());
  auto remounted = MinixFs::MountOnLd(lld.get(), ArusOptions());
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();

  // No fsck needed: the checker is clean without any repair pass.
  const Status check = (*remounted)->CheckConsistency();
  EXPECT_TRUE(check.ok()) << "seed " << seed() << ": " << check.ToString();

  // And the volume is fully usable.
  ASSERT_TRUE((*remounted)->CreateFile("/after-recovery").ok());
  ASSERT_TRUE((*remounted)->SyncFs().ok());
  EXPECT_TRUE((*remounted)->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoFsckNeededTest,
                         ::testing::Combine(::testing::Range(0, 24), ::testing::Bool()), SeedName);

// Data-level version of the same property: with ARU-protected syncs, every
// file's *contents* after a crash are exactly what some sync boundary saw —
// never a torn mixture of sync intervals.
class SyncBoundaryDataTest : public CrashSeedTest {};

TEST_P(SyncBoundaryDataTest, ContentsMatchExactlyOneSyncBoundary) {
  Rng rng(seed() * 4241 + 9);
  SimClock clock;
  MemDisk mem(kDiskBytes / 512, 512, &clock);
  FaultDisk disk(&mem);
  auto lld = *LogStructuredDisk::Format(&disk, Options());
  auto fs = *MinixFs::FormatOnLd(lld.get(), ArusOptions(), /*list_per_file=*/true);

  // One file, rewritten whole in numbered generations; each sync interval
  // writes exactly one generation. After a crash, the file must hold a
  // complete single generation (<= the last one started).
  auto ino = fs->CreateFile("/gen");
  ASSERT_TRUE(ino.ok());
  auto generation_data = [](uint32_t gen) {
    std::vector<uint8_t> data(48 * 1024);
    data[0] = static_cast<uint8_t>(gen);
    data[1] = static_cast<uint8_t>(gen >> 8);
    for (size_t i = 2; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(gen * 131 + i);
    }
    return data;
  };

  ASSERT_TRUE(fs->WriteFile(*ino, 0, generation_data(0)).ok());
  ASSERT_TRUE(fs->SyncFs().ok());

  disk.CrashAfterWrites(1 + rng.Below(50));
  uint32_t last_synced = 0;
  uint32_t last_started = 0;
  for (uint32_t gen = 1; gen <= 60; ++gen) {
    last_started = gen;
    // The rewrite happens in several chunks — a crash mid-generation must
    // not leave a mixture visible.
    const auto data = generation_data(gen);
    bool ok = true;
    for (uint64_t off = 0; off < data.size() && ok; off += 8 * 1024) {
      ok = fs->WriteFile(*ino, off,
                         std::span<const uint8_t>(data).subspan(
                             off, std::min<size_t>(8 * 1024, data.size() - off)))
               .ok();
    }
    if (!ok || !fs->SyncFs().ok()) {
      break;
    }
    last_synced = gen;
  }

  disk.ClearFault();
  fs.reset();
  lld = *LogStructuredDisk::Open(&disk, Options());
  fs = *MinixFs::MountOnLd(lld.get(), ArusOptions());
  ASSERT_TRUE(fs->CheckConsistency().ok());

  std::vector<uint8_t> out(48 * 1024);
  ASSERT_EQ(*fs->ReadFile(*ino, 0, out), out.size());
  const uint32_t recovered =
      static_cast<uint32_t>(out[0]) | (static_cast<uint32_t>(out[1]) << 8);
  EXPECT_GE(recovered, last_synced) << "a synced generation was lost";
  EXPECT_LE(recovered, last_started);
  // The recovered generation is COMPLETE, byte for byte.
  EXPECT_EQ(out, generation_data(recovered)) << "torn mixture of generations";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyncBoundaryDataTest,
                         ::testing::Combine(::testing::Range(0, 16), ::testing::Bool()), SeedName);

INSTANTIATE_TEST_SUITE_P(SegmentParity, MinixFsckTest, ::testing::Bool(), ParityName);

}  // namespace
}  // namespace ld
