// Integration tests: the MINIX file system over LLD — the paper's MINIX LLD
// (§4.1). Covers all three LD configurations (single list, list per file,
// small i-node blocks), crash recovery through the whole stack, clean
// shutdown/remount, and the structural claims (no zone bitmap, lists mirror
// files).

#include <gtest/gtest.h>

#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/minixfs/minix_fs.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 64ull << 20;

LldOptions TestLldOptions() {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  return options;
}

MinixOptions TestFsOptions() {
  MinixOptions options;
  options.num_inodes = 2048;
  return options;
}

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  std::unique_ptr<MinixFs> fs;

  explicit Rig(bool list_per_file = true, bool small_inodes = false) {
    mem = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
    lld = *LogStructuredDisk::Format(disk.get(), TestLldOptions());
    auto fs_or = MinixFs::FormatOnLd(lld.get(), TestFsOptions(), list_per_file, small_inodes);
    EXPECT_TRUE(fs_or.ok()) << fs_or.status().ToString();
    fs = std::move(fs_or).value();
  }

  // Simulates a crash and remounts the whole stack.
  void CrashAndRemount() {
    disk->CrashNow();
    disk->ClearFault();
    lld = *LogStructuredDisk::Open(disk.get(), TestLldOptions());
    auto fs_or = MinixFs::MountOnLd(lld.get(), TestFsOptions());
    ASSERT_TRUE(fs_or.ok()) << fs_or.status().ToString();
    fs = std::move(fs_or).value();
  }
};

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

class MinixLldModeTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MinixLldModeTest, BasicFileOperations) {
  auto [list_per_file, small_inodes] = GetParam();
  Rig rig(list_per_file, small_inodes);
  auto ino = rig.fs->CreateFile("/x");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("logical disk")).ok());
  ASSERT_TRUE(rig.fs->SyncFs().ok());
  ASSERT_TRUE(rig.fs->DropCaches().ok());
  std::vector<uint8_t> out(12);
  ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), 12u);
  EXPECT_EQ(out, Bytes("logical disk"));
  ASSERT_TRUE(rig.fs->Unlink("/x").ok());
  EXPECT_FALSE(rig.fs->OpenFile("/x").ok());
}

TEST_P(MinixLldModeTest, SurvivesCleanShutdownAndRemount) {
  auto [list_per_file, small_inodes] = GetParam();
  Rig rig(list_per_file, small_inodes);
  auto ino = rig.fs->CreateFile("/keep");
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("persisted")).ok());
  ASSERT_TRUE(rig.fs->Shutdown().ok());

  rig.lld = *LogStructuredDisk::Open(rig.disk.get(), TestLldOptions());
  auto fs = *MinixFs::MountOnLd(rig.lld.get(), TestFsOptions());
  std::vector<uint8_t> out(9);
  auto reopened = fs->OpenFile("/keep");
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(*fs->ReadFile(*reopened, 0, out), 9u);
  EXPECT_EQ(out, Bytes("persisted"));
}

TEST_P(MinixLldModeTest, SurvivesCrashAfterSync) {
  auto [list_per_file, small_inodes] = GetParam();
  Rig rig(list_per_file, small_inodes);
  std::vector<uint32_t> inos;
  for (int i = 0; i < 50; ++i) {
    auto ino = rig.fs->CreateFile("/f" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("content " + std::to_string(i))).ok());
    inos.push_back(*ino);
  }
  ASSERT_TRUE(rig.fs->SyncFs().ok());
  rig.CrashAndRemount();

  for (int i = 0; i < 50; ++i) {
    auto ino = rig.fs->OpenFile("/f" + std::to_string(i));
    ASSERT_TRUE(ino.ok()) << i;
    const std::string expect = "content " + std::to_string(i);
    std::vector<uint8_t> out(expect.size());
    ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), expect.size());
    EXPECT_EQ(out, Bytes(expect));
  }
  // The file system remains fully usable after recovery.
  ASSERT_TRUE(rig.fs->CreateFile("/after").ok());
  ASSERT_TRUE(rig.fs->Unlink("/f0").ok());
}

INSTANTIATE_TEST_SUITE_P(Modes, MinixLldModeTest,
                         ::testing::Values(std::make_tuple(false, false),
                                           std::make_tuple(true, false),
                                           std::make_tuple(true, true)));

TEST(MinixLldTest, ListPerFileMirrorsFileBlocks) {
  Rig rig(/*list_per_file=*/true);
  auto ino = rig.fs->CreateFile("/f");
  std::vector<uint8_t> data(10 * 4096, 'q');
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, data).ok());
  // The i-node records the list id; the file's list holds its 10 data
  // blocks plus the single-indirect block (blocks 8..10 are indirect-mapped).
  const uint32_t lid = [&] {
    for (Lid l = 1; l <= rig.lld->list_table().max_lid(); ++l) {
      if (!rig.lld->list_table().IsAllocated(l)) {
        continue;
      }
      auto blocks = rig.lld->ListBlocks(l);
      if (blocks.ok() && blocks->size() == 11) {
        return l;
      }
    }
    return kNilLid;
  }();
  EXPECT_NE(lid, kNilLid);
}

TEST(MinixLldTest, UnlinkDeletesFileList) {
  Rig rig(/*list_per_file=*/true);
  const uint64_t lists_before = rig.lld->list_table().allocated_count();
  auto ino = rig.fs->CreateFile("/f");
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("abc")).ok());
  EXPECT_EQ(rig.lld->list_table().allocated_count(), lists_before + 1);
  ASSERT_TRUE(rig.fs->Unlink("/f").ok());
  EXPECT_EQ(rig.lld->list_table().allocated_count(), lists_before);
}

TEST(MinixLldTest, SmallInodesAllocate64ByteBlocks) {
  Rig rig(/*list_per_file=*/true, /*small_inodes=*/true);
  const MinixSuperblock& sb = rig.fs->superblock();
  EXPECT_EQ(sb.mode, MinixMode::kLdSmallInodes);
  EXPECT_NE(sb.inode_bid_base, 0u);
  EXPECT_EQ(*rig.lld->BlockSize(sb.inode_bid_base), 64u);
  EXPECT_EQ(*rig.lld->BlockSize(sb.inode_bid_base + 100), 64u);
}

TEST(MinixLldTest, CrashBeforeSyncLosesOnlyRecentWork) {
  Rig rig;
  auto a = rig.fs->CreateFile("/durable");
  ASSERT_TRUE(rig.fs->WriteFile(*a, 0, Bytes("safe")).ok());
  ASSERT_TRUE(rig.fs->SyncFs().ok());

  auto b = rig.fs->CreateFile("/volatile");
  ASSERT_TRUE(rig.fs->WriteFile(*b, 0, Bytes("gone")).ok());
  // No sync: the create may be lost.
  rig.CrashAndRemount();

  auto durable = rig.fs->OpenFile("/durable");
  ASSERT_TRUE(durable.ok());
  std::vector<uint8_t> out(4);
  ASSERT_EQ(*rig.fs->ReadFile(*durable, 0, out), 4u);
  EXPECT_EQ(out, Bytes("safe"));
  // The file system is consistent regardless of whether /volatile survived.
  auto entries = rig.fs->ReadDir("/");
  ASSERT_TRUE(entries.ok());
  ASSERT_TRUE(rig.fs->CreateFile("/new-after-crash").ok());
}

TEST(MinixLldTest, HeavyChurnWithCleaningThenCrash) {
  Rig rig;
  Rng rng(21);
  // Fill a good chunk of the 64-MB volume and churn it so the cleaner runs.
  std::vector<uint8_t> data(16 * 1024);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 40; ++i) {
      const std::string path = "/churn" + std::to_string(i);
      if (round > 0) {
        ASSERT_TRUE(rig.fs->Unlink(path).ok());
      }
      auto ino = rig.fs->CreateFile(path);
      ASSERT_TRUE(ino.ok());
      for (auto& byte : data) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, data).ok());
    }
    ASSERT_TRUE(rig.fs->SyncFs().ok());
  }
  // Remember final contents.
  std::vector<std::vector<uint8_t>> finals;
  for (int i = 0; i < 40; ++i) {
    auto ino = rig.fs->OpenFile("/churn" + std::to_string(i));
    std::vector<uint8_t> buf(16 * 1024);
    ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, buf), buf.size());
    finals.push_back(buf);
  }
  rig.CrashAndRemount();
  for (int i = 0; i < 40; ++i) {
    auto ino = rig.fs->OpenFile("/churn" + std::to_string(i));
    ASSERT_TRUE(ino.ok()) << i;
    std::vector<uint8_t> buf(16 * 1024);
    ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, buf), buf.size());
    EXPECT_EQ(buf, finals[i]) << i;
  }
}

TEST(MinixLldTest, LargeFileOverLld) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/big");
  const uint64_t kSize = 12ull << 20;
  std::vector<uint8_t> chunk(128 * 1024);
  Rng rng(8);
  std::vector<uint32_t> tags;
  for (uint64_t off = 0; off < kSize; off += chunk.size()) {
    const uint32_t tag = static_cast<uint32_t>(rng.Next());
    tags.push_back(tag);
    for (size_t i = 0; i < chunk.size(); i += 512) {
      chunk[i] = static_cast<uint8_t>(tag + i / 512);
    }
    ASSERT_TRUE(rig.fs->WriteFile(*ino, off, chunk).ok());
  }
  ASSERT_TRUE(rig.fs->DropCaches().ok());
  std::vector<uint8_t> out(chunk.size());
  size_t t = 0;
  for (uint64_t off = 0; off < kSize; off += out.size(), ++t) {
    ASSERT_EQ(*rig.fs->ReadFile(*ino, off, out), out.size());
    for (size_t i = 0; i < out.size(); i += 512) {
      ASSERT_EQ(out[i], static_cast<uint8_t>(tags[t] + i / 512));
    }
  }
}

// Freed i-node numbers come back lowest first, before any never-used one,
// and after a remount the next create again gets the lowest free number.
TEST(MinixLldTest, InodeNumbersReuseLowestFreeFirst) {
  Rig rig;
  std::vector<uint32_t> inos;
  for (int i = 0; i < 8; ++i) {
    auto ino = rig.fs->CreateFile("/f" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    inos.push_back(*ino);
  }
  ASSERT_EQ(inos.front(), kRootIno + 1);
  ASSERT_EQ(inos.back(), kRootIno + 8);
  // Free the higher number first: the lower one must still come back first.
  ASSERT_TRUE(rig.fs->Unlink("/f4").ok());
  ASSERT_TRUE(rig.fs->Unlink("/f1").ok());
  EXPECT_EQ(*rig.fs->CreateFile("/g0"), inos[1]);
  EXPECT_EQ(*rig.fs->CreateFile("/g1"), inos[4]);
  EXPECT_EQ(*rig.fs->CreateFile("/g2"), inos.back() + 1);

  ASSERT_TRUE(rig.fs->Unlink("/f2").ok());
  ASSERT_TRUE(rig.fs->Shutdown().ok());
  rig.lld = *LogStructuredDisk::Open(rig.disk.get(), TestLldOptions());
  auto mounted = MinixFs::MountOnLd(rig.lld.get(), TestFsOptions());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  rig.fs = std::move(mounted).value();
  EXPECT_EQ(*rig.fs->CreateFile("/h0"), inos[2]);
  EXPECT_EQ(*rig.fs->CreateFile("/h1"), inos.back() + 2);
}

TEST(MinixLldTest, NoZoneBitmapInLdMode) {
  Rig rig;
  EXPECT_EQ(rig.fs->superblock().zone_bitmap_blocks, 0u);
  EXPECT_EQ(rig.fs->superblock().zone_bitmap_start, 0u);
}

}  // namespace
}  // namespace ld
