// Tests for the MINIX file-system core over the classic backend: files,
// directories, indirect blocks, truncation, rename, persistence across
// remount, the buffer cache, and error paths.

#include <gtest/gtest.h>

#include <map>

#include "src/disk/mem_disk.h"
#include "src/minixfs/minix_fs.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 64ull << 20;

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<MinixFs> fs;

  explicit Rig(MinixOptions options = {}) {
    disk = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    auto fs_or = MinixFs::FormatClassic(disk.get(), options);
    EXPECT_TRUE(fs_or.ok()) << fs_or.status().ToString();
    fs = std::move(fs_or).value();
  }
};

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

TEST(MinixFsTest, CreateWriteReadFile) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/hello.txt");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("hello world")).ok());
  std::vector<uint8_t> out(11);
  ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), 11u);
  EXPECT_EQ(out, Bytes("hello world"));
}

TEST(MinixFsTest, CreateDuplicateFails) {
  Rig rig;
  ASSERT_TRUE(rig.fs->CreateFile("/a").ok());
  EXPECT_EQ(rig.fs->CreateFile("/a").status().code(), ErrorCode::kAlreadyExists);
}

TEST(MinixFsTest, OpenMissingFileFails) {
  Rig rig;
  EXPECT_EQ(rig.fs->OpenFile("/missing").status().code(), ErrorCode::kNotFound);
}

TEST(MinixFsTest, ReadBeyondEofReturnsZeroBytes) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/f");
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("abc")).ok());
  std::vector<uint8_t> out(10);
  EXPECT_EQ(*rig.fs->ReadFile(*ino, 3, out), 0u);
  EXPECT_EQ(*rig.fs->ReadFile(*ino, 100, out), 0u);
}

TEST(MinixFsTest, PartialAndCrossBlockWrites) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/f");
  // Write 10000 bytes at offset 3000: crosses a 4096 boundary.
  Rng rng(1);
  std::vector<uint8_t> data(10000);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 3000, data).ok());
  EXPECT_EQ(rig.fs->StatIno(*ino)->size, 13000u);
  std::vector<uint8_t> out(10000);
  ASSERT_EQ(*rig.fs->ReadFile(*ino, 3000, out), 10000u);
  EXPECT_EQ(out, data);
  // The hole at [0, 3000) reads as zeros.
  std::vector<uint8_t> hole(3000, 0xff);
  ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, hole), 3000u);
  EXPECT_TRUE(std::all_of(hole.begin(), hole.end(), [](uint8_t b) { return b == 0; }));
}

TEST(MinixFsTest, OverwriteInMiddle) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/f");
  std::vector<uint8_t> base(8192, 'a');
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, base).ok());
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 4000, Bytes("XYZ")).ok());
  std::vector<uint8_t> out(8192);
  ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), 8192u);
  EXPECT_EQ(out[3999], 'a');
  EXPECT_EQ(out[4000], 'X');
  EXPECT_EQ(out[4002], 'Z');
  EXPECT_EQ(out[4003], 'a');
  EXPECT_EQ(rig.fs->StatIno(*ino)->size, 8192u);
}

TEST(MinixFsTest, LargeFileUsesIndirectBlocks) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/big");
  // 4 KB blocks: direct covers 28 KB, single indirect 4 MB. Write 8 MB to
  // exercise the double-indirect path.
  const uint64_t kSize = 8ull << 20;
  Rng rng(2);
  std::vector<uint8_t> chunk(64 * 1024);
  std::vector<uint32_t> tags;
  for (uint64_t off = 0; off < kSize; off += chunk.size()) {
    const uint32_t tag = static_cast<uint32_t>(rng.Next());
    tags.push_back(tag);
    for (size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = static_cast<uint8_t>(tag + i);
    }
    ASSERT_TRUE(rig.fs->WriteFile(*ino, off, chunk).ok());
  }
  EXPECT_EQ(rig.fs->StatIno(*ino)->size, kSize);
  ASSERT_TRUE(rig.fs->DropCaches().ok());
  std::vector<uint8_t> out(chunk.size());
  size_t t = 0;
  for (uint64_t off = 0; off < kSize; off += chunk.size(), ++t) {
    ASSERT_EQ(*rig.fs->ReadFile(*ino, off, out), out.size());
    for (size_t i = 0; i < out.size(); i += 997) {
      ASSERT_EQ(out[i], static_cast<uint8_t>(tags[t] + i)) << off << "+" << i;
    }
  }
}

TEST(MinixFsTest, TruncateFreesBlocks) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/f");
  std::vector<uint8_t> data(1 << 20, 'x');
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, data).ok());
  ASSERT_TRUE(rig.fs->Truncate(*ino, 4096).ok());
  EXPECT_EQ(rig.fs->StatIno(*ino)->size, 4096u);
  std::vector<uint8_t> out(4096);
  ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), 4096u);
  EXPECT_EQ(out[0], 'x');
  ASSERT_TRUE(rig.fs->Truncate(*ino, 0).ok());
  EXPECT_EQ(rig.fs->StatIno(*ino)->size, 0u);
}

TEST(MinixFsTest, UnlinkRemovesFileAndFreesInode) {
  Rig rig;
  const uint64_t free_before = rig.fs->FreeInodes();
  auto ino = rig.fs->CreateFile("/f");
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("data")).ok());
  EXPECT_EQ(rig.fs->FreeInodes(), free_before - 1);
  ASSERT_TRUE(rig.fs->Unlink("/f").ok());
  EXPECT_EQ(rig.fs->FreeInodes(), free_before);
  EXPECT_FALSE(rig.fs->OpenFile("/f").ok());
}

TEST(MinixFsTest, MkdirRmdirAndNesting) {
  Rig rig;
  ASSERT_TRUE(rig.fs->Mkdir("/a").ok());
  ASSERT_TRUE(rig.fs->Mkdir("/a/b").ok());
  ASSERT_TRUE(rig.fs->CreateFile("/a/b/f").ok());
  EXPECT_EQ(rig.fs->Stat("/a/b")->type, FileType::kDirectory);
  EXPECT_EQ(rig.fs->Stat("/a/b/f")->type, FileType::kRegular);
  // Non-empty directory cannot be removed.
  EXPECT_EQ(rig.fs->Rmdir("/a/b").code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(rig.fs->Unlink("/a/b/f").ok());
  ASSERT_TRUE(rig.fs->Rmdir("/a/b").ok());
  ASSERT_TRUE(rig.fs->Rmdir("/a").ok());
  EXPECT_FALSE(rig.fs->Stat("/a").ok());
}

TEST(MinixFsTest, ReadDirListsEntries) {
  Rig rig;
  ASSERT_TRUE(rig.fs->Mkdir("/d").ok());
  ASSERT_TRUE(rig.fs->CreateFile("/d/one").ok());
  ASSERT_TRUE(rig.fs->CreateFile("/d/two").ok());
  auto entries = rig.fs->ReadDir("/d");
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& e : *entries) {
    names.push_back(e.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{".", "..", "one", "two"}));
}

TEST(MinixFsTest, LookupMatchesExactNamesOnly) {
  Rig rig;
  ASSERT_TRUE(rig.fs->CreateFile("/abc").ok());
  EXPECT_FALSE(rig.fs->OpenFile("/ab").ok());
  EXPECT_FALSE(rig.fs->OpenFile("/abcd").ok());
  EXPECT_TRUE(rig.fs->OpenFile("/abc").ok());
}

TEST(MinixFsTest, ManyFilesInOneDirectory) {
  Rig rig;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(rig.fs->CreateFile("/file" + std::to_string(i)).ok()) << i;
  }
  auto entries = rig.fs->ReadDir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 502u);  // "." + ".." + 500 files.
  EXPECT_TRUE(rig.fs->OpenFile("/file499").ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(rig.fs->Unlink("/file" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ(rig.fs->ReadDir("/")->size(), 2u);
}

TEST(MinixFsTest, Rename) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/old");
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("keep")).ok());
  ASSERT_TRUE(rig.fs->Mkdir("/dir").ok());
  ASSERT_TRUE(rig.fs->Rename("/old", "/dir/new").ok());
  EXPECT_FALSE(rig.fs->OpenFile("/old").ok());
  auto moved = rig.fs->OpenFile("/dir/new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, *ino);
}

// Three renames that once broke the namespace: renaming a name onto itself
// (or onto another link of the same file) deleted the file; moving a
// directory left its ".." and both parents' link counts behind; and moving a
// directory into its own subtree cut that subtree loose from the root.
TEST(MinixFsTest, RenameKeepsNamespaceConsistent) {
  {
    SCOPED_TRACE("onto the same i-node");
    Rig rig;
    auto ino = rig.fs->CreateFile("/a");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, Bytes("same")).ok());
    ASSERT_TRUE(rig.fs->Link("/a", "/b").ok());
    EXPECT_TRUE(rig.fs->Rename("/a", "/a").ok());
    EXPECT_TRUE(rig.fs->Rename("/a", "/b").ok());
    for (const char* name : {"/a", "/b"}) {
      auto st = rig.fs->Stat(name);
      EXPECT_TRUE(st.ok() && st->ino == *ino && st->nlinks == 2)
          << name << ": " << st.status().ToString();
    }
    std::vector<uint8_t> out(4);
    auto got = rig.fs->ReadFile(*ino, 0, out);
    EXPECT_TRUE(got.ok() && *got == 4u && out == Bytes("same")) << got.status().ToString();
    EXPECT_TRUE(rig.fs->CheckConsistency().ok());
  }
  {
    SCOPED_TRACE("directory to another parent");
    Rig rig;
    ASSERT_TRUE(rig.fs->Mkdir("/d1").ok());
    ASSERT_TRUE(rig.fs->Mkdir("/d2").ok());
    ASSERT_TRUE(rig.fs->Mkdir("/d1/x").ok());
    ASSERT_TRUE(rig.fs->Rename("/d1/x", "/d2/x").ok());
    auto dotdot = rig.fs->Stat("/d2/x/..");
    ASSERT_TRUE(dotdot.ok()) << dotdot.status().ToString();
    EXPECT_EQ(dotdot->ino, rig.fs->Stat("/d2")->ino);
    EXPECT_EQ(rig.fs->Stat("/d1")->nlinks, 2u);
    EXPECT_EQ(rig.fs->Stat("/d2")->nlinks, 3u);
    EXPECT_TRUE(rig.fs->Rmdir("/d1").ok());
    const Status fsck = rig.fs->CheckConsistency();
    EXPECT_TRUE(fsck.ok()) << fsck.ToString();
  }
  {
    SCOPED_TRACE("directory into its own subtree");
    Rig rig;
    ASSERT_TRUE(rig.fs->Mkdir("/m").ok());
    ASSERT_TRUE(rig.fs->Mkdir("/m/sub").ok());
    EXPECT_EQ(rig.fs->Rename("/m", "/m/sub/m2").code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Rename("/m", "/m/m2").code(), ErrorCode::kInvalidArgument);
    EXPECT_TRUE(rig.fs->Stat("/m/sub").ok());
    EXPECT_FALSE(rig.fs->Stat("/m/sub/m2").ok());
    const Status fsck = rig.fs->CheckConsistency();
    EXPECT_TRUE(fsck.ok()) << fsck.ToString();
  }
  {
    SCOPED_TRACE("'.' or '..' as the last component");
    Rig rig;
    ASSERT_TRUE(rig.fs->Mkdir("/d").ok());
    ASSERT_TRUE(rig.fs->Mkdir("/e").ok());
    const uint32_t root_links = rig.fs->Stat("/")->nlinks;
    EXPECT_EQ(rig.fs->Rename("/d/..", "/e/x").code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Rename("/.", "/e/x").code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Rename("/d/.", "/e/x").code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Rename("/d", "/e/.").code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Rmdir("/d/.").code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Rmdir("/d/..").code(), ErrorCode::kInvalidArgument);
    EXPECT_FALSE(rig.fs->Stat("/e/x").ok());
    EXPECT_EQ(rig.fs->Stat("/")->nlinks, root_links);
    EXPECT_EQ(rig.fs->Stat("/d/..")->ino, rig.fs->Stat("/")->ino);
    EXPECT_EQ(rig.fs->Stat("/e")->nlinks, 2u);
    const Status fsck = rig.fs->CheckConsistency();
    EXPECT_TRUE(fsck.ok()) << fsck.ToString();
    EXPECT_TRUE(rig.fs->Rmdir("/d").ok());
  }
}

TEST(MinixFsTest, PersistsAcrossRemount) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  MinixOptions options;
  {
    auto fs = *MinixFs::FormatClassic(&disk, options);
    auto ino = fs->CreateFile("/persistent");
    ASSERT_TRUE(fs->WriteFile(*ino, 0, Bytes("still here")).ok());
    ASSERT_TRUE(fs->Mkdir("/dir").ok());
    ASSERT_TRUE(fs->CreateFile("/dir/nested").ok());
    ASSERT_TRUE(fs->Shutdown().ok());
  }
  auto fs = *MinixFs::MountClassic(&disk, options);
  auto ino = fs->OpenFile("/persistent");
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> out(10);
  ASSERT_EQ(*fs->ReadFile(*ino, 0, out), 10u);
  EXPECT_EQ(out, Bytes("still here"));
  EXPECT_TRUE(fs->OpenFile("/dir/nested").ok());
  // And the allocation state is consistent: creating new files still works.
  ASSERT_TRUE(fs->CreateFile("/after-remount").ok());
}

TEST(MinixFsTest, CacheHitsOnRepeatedReads) {
  Rig rig;
  auto ino = rig.fs->CreateFile("/f");
  std::vector<uint8_t> data(4096, 'z');
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, data).ok());
  ASSERT_TRUE(rig.fs->DropCaches().ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(rig.fs->ReadFile(*ino, 0, out).ok());
  const uint64_t misses = rig.fs->cache().misses();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.fs->ReadFile(*ino, 0, out).ok());
  }
  EXPECT_EQ(rig.fs->cache().misses(), misses);  // All hits.
}

TEST(MinixFsTest, CorrectUnderHeavyCachePressure) {
  // A cache of only 8 blocks forces constant eviction and re-reads; data
  // integrity must be unaffected.
  MinixOptions options;
  options.cache_bytes = 8 * 4096;
  Rig rig(options);
  Rng rng(44);
  std::vector<std::vector<uint8_t>> contents;
  for (int f = 0; f < 20; ++f) {
    auto ino = rig.fs->CreateFile("/p" + std::to_string(f));
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> data(24 * 1024);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, data).ok());
    contents.push_back(std::move(data));
  }
  for (int f = 0; f < 20; ++f) {
    auto ino = rig.fs->OpenFile("/p" + std::to_string(f));
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> out(24 * 1024);
    ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), out.size());
    EXPECT_EQ(out, contents[f]) << f;
  }
}

TEST(MinixFsTest, DeepPaths) {
  Rig rig;
  std::string path;
  for (int i = 0; i < 12; ++i) {
    path += "/d" + std::to_string(i);
    ASSERT_TRUE(rig.fs->Mkdir(path).ok());
  }
  ASSERT_TRUE(rig.fs->CreateFile(path + "/leaf").ok());
  EXPECT_TRUE(rig.fs->OpenFile(path + "/leaf").ok());
}

TEST(MinixFsTest, NameTooLongRejected) {
  Rig rig;
  const std::string long_name(100, 'x');
  EXPECT_EQ(rig.fs->CreateFile("/" + long_name).status().code(),
            ErrorCode::kInvalidArgument);
}

// A directory slot ends a name at its first NUL, so a path with a NUL byte
// is refused: stored whole, "/.\0x" would read back as a second "." and
// break the directory, and "/ab\0x" would list "ab" twice.
TEST(MinixFsTest, PathWithNulByteRejected) {
  Rig rig;
  ASSERT_TRUE(rig.fs->CreateFile("/ab").ok());
  for (const std::string& name : {std::string("/.\0x", 4), std::string("/ab\0x", 5)}) {
    EXPECT_EQ(rig.fs->CreateFile(name).status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Mkdir(name).code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Rename("/ab", name).code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.fs->Stat(name).status().code(), ErrorCode::kInvalidArgument);
  }
  const Status fsck = rig.fs->CheckConsistency();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();
  auto listed = rig.fs->ReadDir("/");
  ASSERT_TRUE(listed.ok());
  std::vector<std::string> names;
  for (const MinixDirEntry& e : *listed) {
    names.push_back(e.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{".", "..", "ab"}));
}

// Names of 1, 7, 8, 9, 58 and 59 bytes, several sharing their first 8 bytes,
// some stored past the seventh directory block (the indirect path of BMap).
// Each is found; a strict prefix or an extension of one that is not itself
// stored is not; each unlinks cleanly.
TEST(MinixFsTest, DirectoryNamesAtSlotPrefixBoundary) {
  Rig rig;
  const std::string p8 = "abcdefgh";
  const std::vector<std::string> names = {
      "a",       "abcdefg",  p8,        p8 + "i",  p8 + "j",       "abcdefx",
      "q",       "qrstuvw",  "qrstuvwx", p8 + std::string(50, 'm'),
      p8 + std::string(51, 'm'), p8 + std::string(51, 'n'), std::string(58, 'z'),
      std::string(kMinixNameMax, 'z')};
  for (const std::string& name : names) {
    ASSERT_LE(name.size(), kMinixNameMax);
  }
  // Half the names land in the direct blocks, the rest after 480 fillers,
  // beyond the 7 x 64 = 448 slots the direct zones hold.
  std::map<std::string, uint32_t> inos;
  for (size_t i = 0; i < names.size(); i += 2) {
    auto ino = rig.fs->CreateFile("/" + names[i]);
    ASSERT_TRUE(ino.ok()) << names[i];
    inos[names[i]] = *ino;
  }
  for (int i = 0; i < 480; ++i) {
    ASSERT_TRUE(rig.fs->CreateFile("/fill" + std::to_string(i)).ok());
  }
  for (size_t i = 1; i < names.size(); i += 2) {
    auto ino = rig.fs->CreateFile("/" + names[i]);
    ASSERT_TRUE(ino.ok()) << names[i];
    inos[names[i]] = *ino;
  }
  ASSERT_GT(rig.fs->StatIno(kRootIno)->size, 7u * 4096);

  auto expect_absent = [&](const std::string& probe) {
    if (probe.empty() || inos.count(probe) != 0) {
      return;
    }
    EXPECT_FALSE(rig.fs->OpenFile("/" + probe).ok()) << probe;
  };
  for (const auto& [name, ino] : inos) {
    auto found = rig.fs->OpenFile("/" + name);
    ASSERT_TRUE(found.ok()) << name;
    EXPECT_EQ(*found, ino) << name;
    EXPECT_EQ(rig.fs->CreateFile("/" + name).status().code(), ErrorCode::kAlreadyExists);
    expect_absent(name.substr(0, name.size() - 1));
    expect_absent(name + "m");
    expect_absent(name + "\x01");
  }
  for (const auto& [name, ino] : inos) {
    ASSERT_TRUE(rig.fs->Unlink("/" + name).ok()) << name;
    EXPECT_FALSE(rig.fs->OpenFile("/" + name).ok()) << name;
  }
  for (int i = 0; i < 480; ++i) {
    ASSERT_TRUE(rig.fs->Unlink("/fill" + std::to_string(i)).ok());
  }
  EXPECT_EQ(rig.fs->ReadDir("/")->size(), 2u);  // "." and "..".
  EXPECT_TRUE(rig.fs->CheckConsistency().ok());
}

TEST(MinixFsTest, UnlinkDirectoryRejected) {
  Rig rig;
  ASSERT_TRUE(rig.fs->Mkdir("/d").ok());
  EXPECT_EQ(rig.fs->Unlink("/d").code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace ld
