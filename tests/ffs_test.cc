// Tests for the FFS/SunOS-style baseline: cylinder-group allocation,
// synchronous metadata behaviour, 8-KB blocks, write clustering, and
// persistence.

#include <gtest/gtest.h>

#include "src/disk/device_factory.h"
#include "src/disk/mem_disk.h"
#include "src/ffs/ffs.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 128ull << 20;

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<MinixFs> fs;

  Rig() {
    disk = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    auto fs_or = FormatFfs(disk.get(), MinixOptions{});
    EXPECT_TRUE(fs_or.ok()) << fs_or.status().ToString();
    fs = std::move(fs_or).value();
  }
};

TEST(FfsTest, BasicFileIo) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("ffs data")).ok());
  std::vector<uint8_t> out(8);
  ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), 8u);
  EXPECT_EQ(out, Bytes("ffs data"));
}

TEST(FfsTest, Uses8KBlocks) {
  Rig rig;
  EXPECT_EQ(rig.fs->superblock().block_size, 8192u);
}

TEST(FfsTest, FilesSpreadAcrossCylinderGroups) {
  Rig rig;
  auto* backend = static_cast<FfsBackend*>(rig.fs->backend());
  ASSERT_GT(backend->num_groups(), 1u);
  // Allocate first blocks for many files: they should land in different
  // groups (round-robin), unlike the classic next-fit allocator.
  std::vector<uint32_t> first_blocks;
  for (int i = 0; i < 4; ++i) {
    auto bno = backend->AllocBlock(0, 0);
    ASSERT_TRUE(bno.ok());
    first_blocks.push_back(*bno);
  }
  // Distinct groups → far apart.
  for (size_t i = 1; i < first_blocks.size(); ++i) {
    EXPECT_GT(std::max(first_blocks[i], first_blocks[i - 1]) -
                  std::min(first_blocks[i], first_blocks[i - 1]),
              1000u);
  }
}

TEST(FfsTest, SequentialBlocksOfAFileStayInGroup) {
  Rig rig;
  auto* backend = static_cast<FfsBackend*>(rig.fs->backend());
  auto first = backend->AllocBlock(0, 0);
  ASSERT_TRUE(first.ok());
  auto second = backend->AllocBlock(0, *first);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first + 1);
}

TEST(FfsTest, SynchronousMetadataWritesOnCreate) {
  // On a SimDisk, a create must cost real disk writes (the i-node table
  // block and directory block go out synchronously).
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::HpC3010(kDiskBytes), &clock);
  auto fs = *FormatFfs(disk.get(), MinixOptions{});
  disk->ResetStats();
  ASSERT_TRUE(fs->CreateFile("/sync-me").ok());
  EXPECT_GE(disk->stats().write_ops, 2u);
}

TEST(FfsTest, PersistsAcrossRemount) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  {
    auto fs = *FormatFfs(&disk, MinixOptions{});
    auto ino = fs->CreateFile("/p");
    ASSERT_TRUE(fs->WriteFile(*ino, 0, Bytes("persists")).ok());
    ASSERT_TRUE(fs->Shutdown().ok());
  }
  auto fs = *MountFfs(&disk, MinixOptions{});
  auto ino = fs->OpenFile("/p");
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> out(8);
  ASSERT_EQ(*fs->ReadFile(*ino, 0, out), 8u);
  EXPECT_EQ(out, Bytes("persists"));
}

TEST(FfsTest, LargeFileAcrossGroups) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/big");
  const uint64_t kSize = 48ull << 20;  // Larger than one 16-MB group.
  std::vector<uint8_t> chunk(256 * 1024, 'g');
  for (uint64_t off = 0; off < kSize; off += chunk.size()) {
    ASSERT_TRUE(rig.fs->WriteFile(*ino, off, chunk).ok());
  }
  ASSERT_TRUE(rig.fs->DropCaches().ok());
  std::vector<uint8_t> out(chunk.size());
  ASSERT_EQ(*rig.fs->ReadFile(*ino, kSize - chunk.size(), out), chunk.size());
  EXPECT_EQ(out[0], 'g');
}

}  // namespace
}  // namespace ld
