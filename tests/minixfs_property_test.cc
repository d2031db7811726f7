// Property-based tests at the file-system level: a random sequence of file
// operations is mirrored into an in-memory reference model, and the two
// must agree — across all three storage configurations (classic, LD with
// one list per file, LD with small i-nodes), across cache drops, and across
// remounts. A second family checks hard-link semantics. A third mirrors
// random namespace operations into a model of every directory's names and
// checks the directory scans after each one, through a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

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

struct ModelFile {
  std::vector<uint8_t> data;
};

enum class Config { kClassic, kLd, kLdSmallInodes };

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  std::unique_ptr<MinixFs> fs;
  Config config;

  explicit Rig(Config c) : config(c) {
    disk = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    MinixOptions options;
    options.num_inodes = 1024;
    if (c == Config::kClassic) {
      fs = *MinixFs::FormatClassic(disk.get(), options);
    } else {
      lld = *LogStructuredDisk::Format(disk.get(), TestLldOptions());
      fs = *MinixFs::FormatOnLd(lld.get(), options, /*list_per_file=*/true,
                                /*small_inodes=*/c == Config::kLdSmallInodes);
    }
  }

  void Remount() {
    MinixOptions options;
    options.num_inodes = 1024;
    ASSERT_TRUE(fs->Shutdown().ok());
    fs.reset();
    if (config == Config::kClassic) {
      fs = *MinixFs::MountClassic(disk.get(), options);
    } else {
      lld.reset();
      lld = *LogStructuredDisk::Open(disk.get(), TestLldOptions());
      fs = *MinixFs::MountOnLd(lld.get(), options);
    }
  }
};

class MinixFsPropertyTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinixFsPropertyTest, RandomOpsMatchReferenceModel) {
  const auto [seed, config_index] = GetParam();
  Rig rig(static_cast<Config>(config_index));
  Rng rng(seed * 2357 + 11);

  std::map<std::string, ModelFile> model;
  auto pick_existing = [&]() -> std::string {
    auto it = model.begin();
    std::advance(it, rng.Below(model.size()));
    return it->first;
  };
  auto fresh_name = [&]() { return "/p" + std::to_string(rng.Next() % 100000); };

  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.Below(100));
    if (op < 25 || model.empty()) {
      // Create a file.
      const std::string path = fresh_name();
      auto ino = rig.fs->CreateFile(path);
      if (model.count(path) != 0) {
        EXPECT_EQ(ino.status().code(), ErrorCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(ino.ok()) << ino.status().ToString();
        model[path] = ModelFile{};
      }
    } else if (op < 55) {
      // Write a random extent of a random file.
      const std::string path = pick_existing();
      auto ino = rig.fs->OpenFile(path);
      ASSERT_TRUE(ino.ok());
      const uint64_t offset = rng.Below(96 * 1024);
      const size_t len = 1 + rng.Below(24 * 1024);
      std::vector<uint8_t> data(len);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(rig.fs->WriteFile(*ino, offset, data).ok());
      auto& file = model[path].data;
      if (file.size() < offset + len) {
        file.resize(offset + len, 0);
      }
      std::copy(data.begin(), data.end(), file.begin() + offset);
    } else if (op < 75) {
      // Read a random extent and compare.
      const std::string path = pick_existing();
      auto ino = rig.fs->OpenFile(path);
      ASSERT_TRUE(ino.ok());
      const auto& file = model[path].data;
      const uint64_t offset = rng.Below(file.size() + 1024);
      std::vector<uint8_t> out(1 + rng.Below(16 * 1024));
      auto n = rig.fs->ReadFile(*ino, offset, out);
      ASSERT_TRUE(n.ok());
      const size_t expect =
          offset >= file.size() ? 0 : std::min<size_t>(out.size(), file.size() - offset);
      ASSERT_EQ(*n, expect);
      for (size_t i = 0; i < expect; ++i) {
        ASSERT_EQ(out[i], file[offset + i]) << path << " @" << offset + i;
      }
    } else if (op < 85) {
      // Truncate.
      const std::string path = pick_existing();
      auto ino = rig.fs->OpenFile(path);
      auto& file = model[path].data;
      const uint64_t new_size = file.empty() ? 0 : rng.Below(file.size() + 1);
      ASSERT_TRUE(rig.fs->Truncate(*ino, new_size).ok());
      file.resize(new_size);
    } else if (op < 93) {
      // Unlink.
      const std::string path = pick_existing();
      ASSERT_TRUE(rig.fs->Unlink(path).ok());
      model.erase(path);
    } else if (op < 97) {
      // Sync or drop caches.
      if (rng.Chance(0.5)) {
        ASSERT_TRUE(rig.fs->SyncFs().ok());
      } else {
        ASSERT_TRUE(rig.fs->DropCaches().ok());
      }
    } else {
      // Stat consistency.
      const std::string path = pick_existing();
      auto info = rig.fs->Stat(path);
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info->size, model[path].data.size());
    }
  }

  // Remount and verify everything byte-for-byte.
  rig.Remount();
  auto entries = rig.fs->ReadDir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), model.size() + 2);  // "." and "..".
  for (const auto& [path, file] : model) {
    auto ino = rig.fs->OpenFile(path);
    ASSERT_TRUE(ino.ok()) << path;
    EXPECT_EQ(rig.fs->StatIno(*ino)->size, file.data.size());
    std::vector<uint8_t> out(file.data.size());
    if (!file.data.empty()) {
      ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), file.data.size());
      EXPECT_EQ(out, file.data) << path;
    }
  }
}

std::string ConfigSeedName(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  const char* name = "Classic";
  if (std::get<1>(info.param) == 1) {
    name = "Ld";
  } else if (std::get<1>(info.param) == 2) {
    name = "LdSmallInodes";
  }
  return std::string(name) + "Seed" + std::to_string(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(SeedsAndConfigs, MinixFsPropertyTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(0, 1, 2)),
                         ConfigSeedName);

TEST(MinixFsLinkTest, HardLinksShareData) {
  Rig rig(Config::kLd);
  auto ino = rig.fs->CreateFile("/orig");
  std::vector<uint8_t> data = {'d', 'a', 't', 'a'};
  ASSERT_TRUE(rig.fs->WriteFile(*ino, 0, data).ok());
  ASSERT_TRUE(rig.fs->Link("/orig", "/alias").ok());
  auto alias = rig.fs->OpenFile("/alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(*alias, *ino);
  EXPECT_EQ(rig.fs->StatIno(*ino)->nlinks, 2);

  // Writes through one name are visible through the other.
  ASSERT_TRUE(rig.fs->WriteFile(*alias, 0, std::vector<uint8_t>{'D'}).ok());
  std::vector<uint8_t> out(4);
  ASSERT_EQ(*rig.fs->ReadFile(*ino, 0, out), 4u);
  EXPECT_EQ(out[0], 'D');

  // Unlinking one name keeps the file; the last unlink frees it.
  ASSERT_TRUE(rig.fs->Unlink("/orig").ok());
  EXPECT_TRUE(rig.fs->OpenFile("/alias").ok());
  EXPECT_EQ(rig.fs->StatIno(*ino)->nlinks, 1);
  ASSERT_TRUE(rig.fs->Unlink("/alias").ok());
  EXPECT_FALSE(rig.fs->StatIno(*ino).ok());
}

TEST(MinixFsLinkTest, Validation) {
  Rig rig(Config::kLd);
  ASSERT_TRUE(rig.fs->Mkdir("/dir").ok());
  EXPECT_EQ(rig.fs->Link("/dir", "/dirlink").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(rig.fs->Link("/missing", "/x").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(rig.fs->CreateFile("/a").ok());
  ASSERT_TRUE(rig.fs->CreateFile("/b").ok());
  EXPECT_EQ(rig.fs->Link("/a", "/b").code(), ErrorCode::kAlreadyExists);
}

// ---- Directory differential ---------------------------------------------------
//
// Random creates, unlinks, renames, mkdirs and rmdirs across a few
// directories, mirrored into a model of each directory's slots. The names
// run 1-59 bytes and include groups that share their first 16 bytes (so
// their directory-slot tags collide) and names with stray bytes after a NUL,
// which every path call refuses with INVALID_ARGUMENT. Blocks of 512 B, 1 KB
// and 4 KB hold 8, 16 and 64 slots, and the cache holds only its floor of 8
// blocks, so directory blocks are evicted and reloaded between scans. The
// model places each new name in the first free slot and grows a directory by
// a block only when none is free, so slot reuse and order are checked too:
// after every op, ReadDir lists exactly the model's slots in order, and
// every entry resolves by its name.

enum class DirBackend { kClassic, kLd };

struct DirEntryModel {
  uint32_t ino = 0;
  bool is_dir = false;
};

// One directory: its entries by name and the names in its slots, "" for a
// free slot.
struct DirModel {
  std::map<std::string, DirEntryModel> entries;
  std::vector<std::string> slots;
};

// Directory path ("" for the root, "/a/b" below it) -> directory.
using DirTree = std::map<std::string, DirModel>;
// Directory path -> (name, i-node) of each used slot in slot order: what a
// walk of the volume can see.
using DirListing = std::map<std::string, std::vector<std::pair<std::string, uint32_t>>>;

std::string NameOf(const std::string& raw) { return raw.substr(0, raw.find('\0')); }

bool HasNul(const std::string& name) { return name.find('\0') != std::string::npos; }

std::string ParentOf(const std::string& dir) { return dir.substr(0, dir.rfind('/')); }

// AddDirEntry's rule: the first free slot, else a new block's first slot.
void AddSlot(DirModel* dir, const std::string& name, uint32_t slots_per_block) {
  auto free_slot = std::find(dir->slots.begin(), dir->slots.end(), "");
  if (free_slot == dir->slots.end()) {
    free_slot = dir->slots.insert(dir->slots.end(), slots_per_block, "");
  }
  *free_slot = name;
}

void RemoveSlot(DirModel* dir, const std::string& name) {
  *std::find(dir->slots.begin(), dir->slots.end(), name) = "";
}

// The i-node a lookup of `name` in `dir` finds, or 0.
uint32_t ExpectedLookup(const DirTree& tree, const std::string& dir, const std::string& name) {
  const auto& entries = tree.at(dir).entries;
  auto it = entries.find(name);
  return it != entries.end() ? it->second.ino : 0;
}

uint32_t DirIno(const DirTree& tree, const std::string& dir) {
  if (dir.empty()) {
    return kRootIno;
  }
  return tree.at(ParentOf(dir)).entries.at(dir.substr(dir.rfind('/') + 1)).ino;
}

DirListing ListingOf(const DirTree& tree) {
  DirListing listing;
  for (const auto& [dir, model] : tree) {
    auto& names = listing[dir];
    for (const std::string& name : model.slots) {
      if (name == ".") {
        names.emplace_back(name, DirIno(tree, dir));
      } else if (name == "..") {
        names.emplace_back(name, dir.empty() ? kRootIno : DirIno(tree, ParentOf(dir)));
      } else if (!name.empty()) {
        names.emplace_back(name, model.entries.at(name).ino);
      }
    }
  }
  return listing;
}

std::vector<std::string> DirNamePool(Rng* rng) {
  const std::string chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";
  auto word = [&](size_t n) {
    std::string w;
    for (size_t i = 0; i < n; ++i) {
      w.push_back(chars[rng->Below(chars.size())]);
    }
    return w;
  };
  std::set<std::string> seen;
  std::vector<std::string> pool;
  auto add = [&](std::string raw) {
    const std::string name = NameOf(raw);
    if (name != "." && name != ".." && seen.insert(raw).second) {
      pool.push_back(std::move(raw));
    }
  };
  for (int i = 0; i < 60; ++i) {
    add(word(1 + rng->Below(15)));
  }
  for (int i = 0; i < 16; ++i) {
    add(word(17 + rng->Below(kMinixNameMax - 16)));
  }
  add(word(kMinixNameMax));
  // Two groups sharing their first 16 bytes: one tag per group.
  for (int g = 0; g < 2; ++g) {
    const std::string prefix = word(16);
    add(prefix);
    for (int i = 0; i < 14; ++i) {
      add(prefix + word(1 + rng->Below(kMinixNameMax - 16)));
    }
  }
  // Stray bytes after a NUL (any byte but '/', NULs included), some after a
  // name the pool already holds.
  for (int i = 0; i < 20; ++i) {
    std::string raw = (i % 2 == 0 ? NameOf(pool[rng->Below(pool.size())]).substr(0, 20)
                                  : word(1 + rng->Below(20))) +
                      '\0';
    const size_t stray = 1 + rng->Below(kMinixNameMax - raw.size());
    for (size_t j = 0; j < stray; ++j) {
      char c = '/';
      while (c == '/') {
        c = static_cast<char>(rng->Next());
      }
      raw.push_back(c);
    }
    add(raw);
  }
  return pool;
}

// `got` must have failed with `want`; any other outcome goes back to the
// caller to judge.
Status ExpectCode(const Status& got, ErrorCode want) {
  if (got.code() == want) {
    return OkStatus();
  }
  return got.ok() ? FailedPreconditionError("an op the model refuses succeeded") : got;
}

// Random namespace ops on `fs`, mirrored into `tree`.
class DirOps {
 public:
  DirOps(MinixFs* fs, DirTree* tree, const std::vector<std::string>* pool, Rng* rng,
         uint32_t slots_per_block)
      : fs_(fs), tree_(tree), pool_(pool), rng_(rng), spb_(slots_per_block) {}

  void set_fs(MinixFs* fs) { fs_ = fs; }

  // One op. Returns what the caller must judge: OK when the op did what the
  // model predicts, else the failure (a crash's I/O error leaves the model
  // as it was).
  Status Step() {
    const std::string& raw = (*pool_)[rng_->Below(pool_->size())];
    const uint64_t op = rng_->Below(100);
    if (op < 45) {
      return Create(rng_->Chance(0.7) ? "" : PickDir(), raw);  // Most in the root.
    }
    if (op < 57) {
      return Unlink(raw);
    }
    if (op < 73) {
      return Rename(raw);
    }
    if (op < 81) {
      return Mkdir(raw);
    }
    if (op < 89) {
      return Rmdir();
    }
    return Lookup(raw);
  }

 private:
  std::string PickDir() {
    auto it = tree_->begin();
    std::advance(it, rng_->Below(tree_->size()));
    return it->first;
  }

  // The name of an entry of `dir`.
  std::string PickEntry(const std::string& dir) {
    const auto& entries = tree_->at(dir).entries;
    return std::next(entries.begin(), rng_->Below(entries.size()))->first;
  }

  Status Create(const std::string& dir, const std::string& raw) {
    auto ino = fs_->CreateFile(dir + "/" + raw);
    if (HasNul(raw)) {
      return ExpectCode(ino.status(), ErrorCode::kInvalidArgument);
    }
    if (ExpectedLookup(*tree_, dir, raw) != 0) {
      return ExpectCode(ino.status(), ErrorCode::kAlreadyExists);
    }
    RETURN_IF_ERROR(ino.status());
    DirModel& model = (*tree_)[dir];
    model.entries[raw] = DirEntryModel{*ino, false};
    AddSlot(&model, raw, spb_);
    return OkStatus();
  }

  // Unlinks an entry, or a pool name that may be absent.
  Status Unlink(const std::string& raw) {
    const std::string dir = PickDir();
    DirModel& model = (*tree_)[dir];
    const std::string name =
        !model.entries.empty() && rng_->Chance(0.7) ? PickEntry(dir) : raw;
    const Status s = fs_->Unlink(dir + "/" + name);
    if (HasNul(name)) {
      return ExpectCode(s, ErrorCode::kInvalidArgument);
    }
    if (ExpectedLookup(*tree_, dir, name) == 0) {
      return ExpectCode(s, ErrorCode::kNotFound);
    }
    if (model.entries.at(name).is_dir) {
      return ExpectCode(s, ErrorCode::kInvalidArgument);
    }
    RETURN_IF_ERROR(s);
    model.entries.erase(name);
    RemoveSlot(&model, name);
    return OkStatus();
  }

  // Renames an entry to a pool name, within its directory or across.
  Status Rename(const std::string& raw) {
    const std::string from_dir = PickDir();
    if (tree_->at(from_dir).entries.empty()) {
      return OkStatus();
    }
    const std::string from_name = PickEntry(from_dir);
    const std::string to_dir = PickDir();
    const std::string& to_name = raw;
    const DirEntryModel src = tree_->at(from_dir).entries.at(from_name);
    const std::string src_path = from_dir + "/" + from_name;
    const Status s = fs_->Rename(src_path, to_dir + "/" + to_name);
    if (HasNul(to_name)) {
      return ExpectCode(s, ErrorCode::kInvalidArgument);
    }
    const uint32_t target = ExpectedLookup(*tree_, to_dir, to_name);
    if (target == src.ino) {
      return s;  // Both names are the same link: nothing changes.
    }
    const bool into_itself =
        src.is_dir && (to_dir == src_path || to_dir.rfind(src_path + "/", 0) == 0);
    if (into_itself || (target != 0 && tree_->at(to_dir).entries.at(to_name).is_dir)) {
      return ExpectCode(s, ErrorCode::kInvalidArgument);
    }
    RETURN_IF_ERROR(s);
    // Rename's own order: unlink the target, add the new name, remove the
    // old one, then move a directory's "..".
    DirModel& to = (*tree_)[to_dir];
    if (target != 0) {
      to.entries.erase(to_name);
      RemoveSlot(&to, to_name);
    }
    to.entries[to_name] = src;
    AddSlot(&to, to_name, spb_);
    DirModel& from = (*tree_)[from_dir];
    from.entries.erase(from_name);
    RemoveSlot(&from, from_name);
    if (!src.is_dir) {
      return OkStatus();
    }
    if (from_dir != to_dir) {
      DirModel& self = (*tree_)[src_path];
      RemoveSlot(&self, "..");
      AddSlot(&self, "..", spb_);
    }
    // The directory and everything under it now live under the new path.
    const std::string new_path = to_dir + "/" + to_name;
    DirTree renamed;
    for (auto it = tree_->begin(); it != tree_->end();) {
      if (it->first == src_path || it->first.rfind(src_path + "/", 0) == 0) {
        renamed[new_path + it->first.substr(src_path.size())] = std::move(it->second);
        it = tree_->erase(it);
      } else {
        ++it;
      }
    }
    tree_->merge(renamed);
    return OkStatus();
  }

  // Makes a directory, two levels deep at most.
  Status Mkdir(const std::string& raw) {
    const std::string dir = PickDir();
    if (std::count(dir.begin(), dir.end(), '/') >= 2 || tree_->size() >= 8) {
      return OkStatus();
    }
    const Status s = fs_->Mkdir(dir + "/" + raw);
    if (HasNul(raw)) {
      return ExpectCode(s, ErrorCode::kInvalidArgument);
    }
    if (ExpectedLookup(*tree_, dir, raw) != 0) {
      return ExpectCode(s, ErrorCode::kAlreadyExists);
    }
    RETURN_IF_ERROR(s);
    ASSIGN_OR_RETURN(MinixStatInfo info, fs_->Stat(dir + "/" + raw));
    DirModel& parent = (*tree_)[dir];
    parent.entries[raw] = DirEntryModel{info.ino, true};
    AddSlot(&parent, raw, spb_);
    DirModel& self = (*tree_)[dir + "/" + raw];
    AddSlot(&self, ".", spb_);
    AddSlot(&self, "..", spb_);
    return OkStatus();
  }

  // Removes a subdirectory, empty or not.
  Status Rmdir() {
    if (tree_->size() == 1) {
      return OkStatus();
    }
    const std::string path = std::next(tree_->begin(), 1 + rng_->Below(tree_->size() - 1))->first;
    const std::string parent = ParentOf(path);
    const std::string name = path.substr(path.rfind('/') + 1);
    const Status s = fs_->Rmdir(path);
    if (!tree_->at(path).entries.empty()) {
      return ExpectCode(s, ErrorCode::kFailedPrecondition);
    }
    RETURN_IF_ERROR(s);
    DirModel& model = (*tree_)[parent];
    model.entries.erase(name);
    RemoveSlot(&model, name);
    tree_->erase(path);
    return OkStatus();
  }

  // Looks up a pool name, or its name with stray bytes after a NUL, that
  // may be absent.
  Status Lookup(const std::string& raw) {
    const std::string dir = PickDir();
    const std::string query = rng_->Chance(0.5) ? raw : NameOf(raw) + '\0' + "~";
    auto info = fs_->Stat(dir + "/" + query);
    if (HasNul(query)) {
      return ExpectCode(info.status(), ErrorCode::kInvalidArgument);
    }
    const uint32_t ino = ExpectedLookup(*tree_, dir, query);
    if (ino == 0) {
      return ExpectCode(info.status(), ErrorCode::kNotFound);
    }
    RETURN_IF_ERROR(info.status());
    return info->ino == ino ? OkStatus() : FailedPreconditionError("lookup found another i-node");
  }

  MinixFs* fs_;
  DirTree* tree_;
  const std::vector<std::string>* pool_;
  Rng* rng_;
  uint32_t spb_;
};

// Walks the volume's namespace from the root.
DirListing ReadListing(MinixFs* fs) {
  DirListing listing;
  std::vector<std::string> dirs = {""};
  while (!dirs.empty()) {
    const std::string dir = dirs.back();
    dirs.pop_back();
    auto& names = listing[dir];
    auto listed = fs->ReadDir(dir.empty() ? "/" : dir);
    EXPECT_TRUE(listed.ok()) << listed.status().ToString();
    if (!listed.ok()) {
      return listing;
    }
    for (const MinixDirEntry& e : *listed) {
      names.emplace_back(e.name, e.ino);
      auto info = fs->StatIno(e.ino);
      if (e.name != "." && e.name != ".." && info.ok() && info->type == FileType::kDirectory) {
        dirs.push_back(dir + "/" + e.name);
      }
    }
  }
  return listing;
}

// Every directory of `tree` lists exactly its slots in order, and every
// entry resolves by its name.
void ExpectTreeMatches(MinixFs* fs, const DirTree& tree) {
  ASSERT_EQ(ReadListing(fs), ListingOf(tree));
  for (const auto& [dir, model] : tree) {
    for (const auto& [name, entry] : model.entries) {
      auto info = fs->Stat(dir + "/" + name);
      ASSERT_TRUE(info.ok()) << dir << "/" << name << ": " << info.status().ToString();
      ASSERT_EQ(info->ino, entry.ino) << dir << "/" << name;
    }
  }
}

struct DirRig {
  DirBackend backend;
  uint32_t block_size;
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  std::unique_ptr<MinixFs> fs;

  DirRig(DirBackend b, uint32_t bs) : backend(b), block_size(bs) {
    mem = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
    if (backend == DirBackend::kClassic) {
      fs = *MinixFs::FormatClassic(disk.get(), Options());
    } else {
      lld = *LogStructuredDisk::Format(disk.get(), TestLldOptions());
      fs = *MinixFs::FormatOnLd(lld.get(), Options(), /*list_per_file=*/true);
    }
  }

  MinixOptions Options() const {
    MinixOptions options;
    options.block_size = block_size;
    options.num_inodes = 2048;
    options.cache_bytes = 8ull * block_size;  // The cache's floor.
    // LD volumes recover to a sync boundary after a crash.
    options.sync_with_arus = backend == DirBackend::kLd;
    return options;
  }

  // Drops the mount without a shutdown, as a crash does, and mounts again.
  void Reboot() {
    disk->ClearFault();
    fs.reset();
    if (backend == DirBackend::kClassic) {
      fs = *MinixFs::MountClassic(disk.get(), Options());
    } else {
      lld = *LogStructuredDisk::Open(disk.get(), TestLldOptions());
      fs = *MinixFs::MountOnLd(lld.get(), Options());
    }
  }
};

class DirectoryDifferentialTest
    : public ::testing::TestWithParam<std::tuple<DirBackend, uint32_t>> {};

TEST_P(DirectoryDifferentialTest, ScansMatchModelThroughCrash) {
  const auto [backend, block_size] = GetParam();
  DirRig rig(backend, block_size);
  Rng rng(block_size);
  const std::vector<std::string> pool = DirNamePool(&rng);
  const uint32_t slots_per_block = block_size / kMinixDirEntrySize;
  DirTree tree;
  AddSlot(&tree[""], ".", slots_per_block);
  AddSlot(&tree[""], "..", slots_per_block);
  DirTree synced = tree;
  DirOps ops(rig.fs.get(), &tree, &pool, &rng, slots_per_block);

  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (rng.Below(100) < 6) {
      const bool drop = rng.Chance(0.5);
      ASSERT_TRUE((drop ? rig.fs->DropCaches() : rig.fs->SyncFs()).ok());
      synced = tree;
    } else {
      const Status s = ops.Step();
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    ExpectTreeMatches(rig.fs.get(), tree);
    if (HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(rig.fs->cache().misses(), 0u);

  // The crash. A classic volume is consistent only at a sync, so it crashes
  // right after one. An LD volume crashes at a random device write while
  // the ops go on, and comes back at the last sync it committed, or at the
  // one the crash interrupted.
  std::vector<DirTree> outcomes;
  if (backend == DirBackend::kClassic) {
    ASSERT_TRUE(rig.fs->SyncFs().ok());
    outcomes.push_back(tree);
  } else {
    rig.disk->CrashAfterWrites(1 + rng.Below(12));
    outcomes.push_back(synced);
    for (int step = 0; step < 5000 && !rig.disk->crashed(); ++step) {
      const bool sync = rng.Below(100) < 10;
      const Status s = sync ? rig.fs->SyncFs() : ops.Step();
      if (s.ok()) {
        if (sync) {
          outcomes = {tree};
        }
        continue;
      }
      ASSERT_TRUE(rig.disk->crashed()) << s.ToString();
      if (sync) {
        outcomes.push_back(tree);
      }
    }
    ASSERT_TRUE(rig.disk->crashed());
  }
  rig.Reboot();
  const Status check = rig.fs->CheckConsistency();
  ASSERT_TRUE(check.ok()) << check.ToString();
  const DirListing recovered = ReadListing(rig.fs.get());
  auto match = std::find_if(outcomes.begin(), outcomes.end(),
                            [&](const DirTree& t) { return ListingOf(t) == recovered; });
  ASSERT_NE(match, outcomes.end()) << "the volume came back at no sync boundary";
  ExpectTreeMatches(rig.fs.get(), *match);
  auto report = rig.fs->Fsck(MinixFsckOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome(), MinixFsckReport::Outcome::kClean);
}

std::string DirParamName(const ::testing::TestParamInfo<std::tuple<DirBackend, uint32_t>>& info) {
  return std::string(std::get<0>(info.param) == DirBackend::kClassic ? "Classic" : "Ld") +
         std::to_string(std::get<1>(info.param)) + "B";
}

INSTANTIATE_TEST_SUITE_P(BackendsAndBlockSizes, DirectoryDifferentialTest,
                         ::testing::Combine(::testing::Values(DirBackend::kClassic,
                                                              DirBackend::kLd),
                                            ::testing::Values(512u, 1024u, 4096u)),
                         DirParamName);

}  // namespace
}  // namespace ld
