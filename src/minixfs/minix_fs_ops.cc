// Path resolution, directories, and file I/O of the MINIX core.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "src/minixfs/minix_fs.h"
#include "src/util/serialize.h"

namespace ld {

// ---- Paths ------------------------------------------------------------------

namespace {

// A directory slot ends its name at the first NUL, so a name with a NUL
// would be stored whole but listed and matched only up to it. Every path
// call goes through Resolve or SplitPath, and both refuse such a path.
Status CheckNoNul(const std::string& path) {
  if (path.find('\0') != std::string::npos) {
    return InvalidArgumentError("path contains a NUL byte");
  }
  return OkStatus();
}

std::vector<std::string> SplitComponents(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      if (!cur.empty()) {
        parts.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    parts.push_back(cur);
  }
  return parts;
}

// "." and ".." are a directory's own links: no call may move or remove them.
bool IsDotName(const std::string& name) { return name == "." || name == ".."; }

}  // namespace

StatusOr<uint32_t> MinixFs::Resolve(const std::string& path) {
  RETURN_IF_ERROR(CheckNoNul(path));
  uint32_t ino = kRootIno;
  for (const std::string& part : SplitComponents(path)) {
    ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
    if (inode.type != FileType::kDirectory) {
      return NotFoundError("not a directory on path: " + path);
    }
    ASSIGN_OR_RETURN(ino, LookupDir(ino, part));
  }
  return ino;
}

Status MinixFs::SplitPath(const std::string& path, uint32_t* parent_ino, std::string* leaf) {
  RETURN_IF_ERROR(CheckNoNul(path));
  std::vector<std::string> parts = SplitComponents(path);
  if (parts.empty()) {
    return InvalidArgumentError("path has no leaf: " + path);
  }
  *leaf = parts.back();
  if (leaf->size() > kMinixNameMax) {
    return InvalidArgumentError("name too long: " + *leaf);
  }
  uint32_t ino = kRootIno;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    ASSIGN_OR_RETURN(ino, LookupDir(ino, parts[i]));
  }
  ASSIGN_OR_RETURN(DiskInode dir, GetInode(ino));
  if (dir.type != FileType::kDirectory) {
    return NotFoundError("parent is not a directory: " + path);
  }
  *parent_ino = ino;
  return OkStatus();
}

// ---- Directories ---------------------------------------------------------------

namespace {

// Decodes only the i-node number of a raw directory slot.
uint32_t SlotIno(const uint8_t* slot) {
  uint32_t ino;
  std::memcpy(&ino, slot, 4);  // Stored little-endian; see MinixDirEntry.
  return ino;
}

// Allocation-free name comparison against a raw directory slot.
bool SlotNameEquals(const uint8_t* slot, const std::string& name) {
  const char* stored = reinterpret_cast<const char*>(slot) + 4;
  if (name.size() > kMinixNameMax) {
    return false;
  }
  if (std::memcmp(stored, name.data(), name.size()) != 0) {
    return false;
  }
  return name.size() == kMinixNameMax || stored[name.size()] == '\0';
}

// ---- Directory slot tags ----
//
// A cached directory block carries one tag byte per slot: 0 for a free slot
// (i-node 0), otherwise a nonzero hash of the slot's name as SlotNameEquals
// reads it, the bytes before the first NUL, of which the first 16 decide the
// tag. So a slot SlotNameEquals accepts always carries the query's tag, and
// a scan compares the query's tag against eight slots per word and checks
// only the candidates against the real bytes. Tags are computed at the first
// scan after the block's bytes change; BufferCache::MarkDirty, which every
// writer calls after it changes a block, drops them.

constexpr size_t kTagNameBytes = 16;
constexpr uint64_t kLaneLow = 0x0101010101010101ull;
constexpr uint64_t kLaneLow7 = 0x7f7f7f7f7f7f7f7full;

// The top bit of each byte lane of `x` that is zero, and no other bit.
uint64_t ZeroLanes(uint64_t x) { return ~(((x & kLaneLow7) + kLaneLow7) | x | kLaneLow7); }

// The low `lanes` byte lanes of a word kept, the rest cleared (lanes < 8).
uint64_t KeepLanes(uint64_t word, int lanes) { return word & ((uint64_t{1} << (8 * lanes)) - 1); }

// The tag of the name whose first 16 bytes are `name16`: the bytes from the
// first NUL on are cleared, the rest hashed, and 0 is never returned.
uint8_t NameTag(const uint8_t* name16) {
  uint64_t lo = LoadLe64(name16);
  uint64_t hi = LoadLe64(name16 + 8);
  if (const uint64_t nul = ZeroLanes(lo); nul != 0) {
    lo = KeepLanes(lo, std::countr_zero(nul) / 8);
    hi = 0;
  } else if (const uint64_t nul_hi = ZeroLanes(hi); nul_hi != 0) {
    hi = KeepLanes(hi, std::countr_zero(nul_hi) / 8);
  }
  const uint64_t h = (((lo ^ 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull) ^ hi) *
                     0x94d049bb133111ebull;
  const auto tag = static_cast<uint8_t>(h >> 56);
  return tag == 0 ? 1 : tag;
}

// The tag a slot holding `name` carries.
uint8_t QueryTag(const std::string& name) {
  uint8_t name16[kTagNameBytes] = {};
  std::memcpy(name16, name.data(), std::min(name.size(), kTagNameBytes));
  return NameTag(name16);
}

// The tags of a block's `slots` slots, derived from its bytes. Lanes past
// the last slot hold 0.
void DeriveSlotTags(const uint8_t* base, uint32_t slots, std::vector<uint64_t>* tags) {
  tags->assign((slots + 7) / 8, 0);
  for (uint32_t e = 0; e < slots; ++e) {
    const uint8_t* slot = base + static_cast<size_t>(e) * kMinixDirEntrySize;
    const uint64_t tag = SlotIno(slot) == 0 ? 0 : NameTag(slot + 4);
    (*tags)[e / 8] |= tag << (8 * (e % 8));
  }
}

// The block's tags: kept ones, or derived now and kept until MarkDirty.
// Builds without NDEBUG re-derive kept tags and check them against the
// bytes, which catches a writer that skipped MarkDirty.
const uint64_t* SlotTags(CacheBlock& block, uint32_t slots) {
  if (block.slot_tags.empty()) {
    DeriveSlotTags(block.data.data(), slots, &block.slot_tags);
  } else {
#ifndef NDEBUG
    std::vector<uint64_t> fresh;
    DeriveSlotTags(block.data.data(), slots, &fresh);
    assert(fresh == block.slot_tags && "directory block changed without MarkDirty");
#endif
  }
  return block.slot_tags.data();
}

// A block number just allocated misses the cache, so Get(load=false) hands
// it out zeroed (see BufferCache::Get); builds without NDEBUG check that.
void AssertFreshZeroed(const CacheBlock& block) {
  assert(std::all_of(block.data.begin(), block.data.end(), [](uint8_t b) { return b == 0; }) &&
         "freshly allocated block not zeroed");
  (void)block;
}

// The first slot, in slot order, whose tag is `tag` and that `accept`
// takes, or `slots` when there is none.
template <typename Accept>
uint32_t FindSlot(const uint64_t* tags, uint32_t slots, uint8_t tag, Accept&& accept) {
  const uint64_t pattern = kLaneLow * tag;
  const uint32_t words = (slots + 7) / 8;
  for (uint32_t w = 0; w < words; ++w) {
    for (uint64_t match = ZeroLanes(tags[w] ^ pattern); match != 0; match &= match - 1) {
      const uint32_t e = w * 8 + static_cast<uint32_t>(std::countr_zero(match)) / 8;
      if (e >= slots) {
        return slots;  // A padding lane: no slot is left.
      }
      if (accept(e)) {
        return e;
      }
    }
  }
  return slots;
}

// The slot of `block` holding `name`, or `slots`.
uint32_t FindName(CacheBlock& block, uint32_t slots, const std::string& name, uint8_t tag) {
  const uint8_t* base = block.data.data();
  return FindSlot(SlotTags(block, slots), slots, tag, [&](uint32_t e) {
    return SlotNameEquals(base + static_cast<size_t>(e) * kMinixDirEntrySize, name);
  });
}

}  // namespace

StatusOr<uint32_t> MinixFs::LookupDir(uint32_t dir_ino, const std::string& name) {
  ASSIGN_OR_RETURN(DiskInode dir, GetInode(dir_ino));
  if (dir.type != FileType::kDirectory) {
    return InvalidArgumentError("not a directory");
  }
  const uint32_t epb = sb_.DirEntriesPerBlock();
  const uint32_t nblocks = (dir.size + sb_.block_size - 1) / sb_.block_size;
  const uint8_t tag = QueryTag(name);
  for (uint32_t b = 0; b < nblocks; ++b) {
    ASSIGN_OR_RETURN(uint32_t bno, BMap(&dir, b, /*alloc=*/false));
    if (bno == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
    if (const uint32_t e = FindName(*block, epb, name, tag); e < epb) {
      return SlotIno(block->data.data() + static_cast<size_t>(e) * kMinixDirEntrySize);
    }
  }
  return NotFoundError("no such entry: " + name);
}

Status MinixFs::AddDirEntry(uint32_t dir_ino, const std::string& name, uint32_t ino) {
  ASSIGN_OR_RETURN(DiskInode dir, GetInode(dir_ino));
  const uint32_t epb = sb_.DirEntriesPerBlock();
  const uint32_t nblocks = (dir.size + sb_.block_size - 1) / sb_.block_size;

  MinixDirEntry entry;
  entry.ino = ino;
  entry.name = name;

  // Reuse a free slot in an existing block if possible.
  for (uint32_t b = 0; b < nblocks; ++b) {
    ASSIGN_OR_RETURN(uint32_t bno, BMap(&dir, b, /*alloc=*/false));
    if (bno == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
    const uint32_t e =
        FindSlot(SlotTags(*block, epb), epb, /*tag=*/0, [](uint32_t) { return true; });
    if (e < epb) {
      const size_t off = static_cast<size_t>(e) * kMinixDirEntrySize;
      entry.EncodeTo(std::span<uint8_t>(block->data).subspan(off, kMinixDirEntrySize));
      cache_->MarkDirty(block);
      return MaybeSyncBlock(block);
    }
  }

  // Extend the directory by one block.
  ASSIGN_OR_RETURN(uint32_t bno, BMap(&dir, nblocks, /*alloc=*/true));
  ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/false));
  AssertFreshZeroed(*block);
  entry.EncodeTo(std::span<uint8_t>(block->data).subspan(0, kMinixDirEntrySize));
  cache_->MarkDirty(block);
  dir.size = (nblocks + 1) * sb_.block_size;
  dir.mtime = NowTime();
  RETURN_IF_ERROR(PutInode(dir_ino, dir));
  return MaybeSyncBlock(block);
}

Status MinixFs::RemoveDirEntry(uint32_t dir_ino, const std::string& name) {
  ASSIGN_OR_RETURN(DiskInode dir, GetInode(dir_ino));
  const uint32_t epb = sb_.DirEntriesPerBlock();
  const uint32_t nblocks = (dir.size + sb_.block_size - 1) / sb_.block_size;
  const uint8_t tag = QueryTag(name);
  for (uint32_t b = 0; b < nblocks; ++b) {
    ASSIGN_OR_RETURN(uint32_t bno, BMap(&dir, b, /*alloc=*/false));
    if (bno == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
    if (const uint32_t e = FindName(*block, epb, name, tag); e < epb) {
      std::memset(block->data.data() + static_cast<size_t>(e) * kMinixDirEntrySize, 0,
                  kMinixDirEntrySize);
      cache_->MarkDirty(block);
      return MaybeSyncBlock(block);
    }
  }
  return NotFoundError("no such entry: " + name);
}

StatusOr<bool> MinixFs::DirIsEmpty(uint32_t dir_ino) {
  ASSIGN_OR_RETURN(DiskInode dir, GetInode(dir_ino));
  const uint32_t epb = sb_.DirEntriesPerBlock();
  const uint32_t nblocks = (dir.size + sb_.block_size - 1) / sb_.block_size;
  for (uint32_t b = 0; b < nblocks; ++b) {
    ASSIGN_OR_RETURN(uint32_t bno, BMap(&dir, b, /*alloc=*/false));
    if (bno == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
    for (uint32_t e = 0; e < epb; ++e) {
      const auto entry = MinixDirEntry::DecodeFrom(
          std::span<const uint8_t>(block->data).subspan(e * kMinixDirEntrySize,
                                                        kMinixDirEntrySize));
      if (entry.ino != 0 && entry.name != "." && entry.name != "..") {
        return false;
      }
    }
  }
  return true;
}

StatusOr<std::vector<MinixDirEntry>> MinixFs::ReadDir(const std::string& path) {
  ASSIGN_OR_RETURN(uint32_t ino, Resolve(path));
  ASSIGN_OR_RETURN(DiskInode dir, GetInode(ino));
  if (dir.type != FileType::kDirectory) {
    return InvalidArgumentError("not a directory: " + path);
  }
  std::vector<MinixDirEntry> entries;
  const uint32_t epb = sb_.DirEntriesPerBlock();
  const uint32_t nblocks = (dir.size + sb_.block_size - 1) / sb_.block_size;
  for (uint32_t b = 0; b < nblocks; ++b) {
    ASSIGN_OR_RETURN(uint32_t bno, BMap(&dir, b, /*alloc=*/false));
    if (bno == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
    for (uint32_t e = 0; e < epb; ++e) {
      auto entry = MinixDirEntry::DecodeFrom(std::span<const uint8_t>(block->data)
                                                 .subspan(e * kMinixDirEntrySize,
                                                          kMinixDirEntrySize));
      if (entry.ino != 0) {
        entries.push_back(std::move(entry));
      }
    }
  }
  return entries;
}

// ---- Files -----------------------------------------------------------------------

StatusOr<uint32_t> MinixFs::CreateFile(const std::string& path) {
  RETURN_IF_ERROR(EnsureSyncUnit());
  uint32_t parent;
  std::string name;
  RETURN_IF_ERROR(SplitPath(path, &parent, &name));
  if (LookupDir(parent, name).ok()) {
    return AlreadyExistsError("file exists: " + path);
  }
  ASSIGN_OR_RETURN(uint32_t ino, AllocInode());
  DiskInode inode;
  inode.type = FileType::kRegular;
  inode.nlinks = 1;
  inode.mtime = NowTime();
  // One block list per file, created near the parent directory's list for
  // inter-list clustering (paper §2.2, §4.1).
  ASSIGN_OR_RETURN(DiskInode parent_inode, GetInode(parent));
  ASSIGN_OR_RETURN(uint32_t lid, backend_->CreateFileList(parent_inode.lid));
  inode.lid = lid;
  RETURN_IF_ERROR(PutInode(ino, inode));
  RETURN_IF_ERROR(AddDirEntry(parent, name, ino));
  stats_.creates++;
  return ino;
}

StatusOr<uint32_t> MinixFs::OpenFile(const std::string& path) { return Resolve(path); }

Status MinixFs::WriteFile(uint32_t ino, uint64_t offset, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(EnsureSyncUnit());
  ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
  if (inode.type == FileType::kFree) {
    return NotFoundError("no such file");
  }
  const uint32_t bs = sb_.block_size;
  uint64_t pos = offset;
  size_t done = 0;
  while (done < data.size()) {
    const uint32_t idx = static_cast<uint32_t>(pos / bs);
    const uint32_t within = static_cast<uint32_t>(pos % bs);
    const size_t chunk = std::min<size_t>(bs - within, data.size() - done);
    ASSIGN_OR_RETURN(uint32_t existing, BMap(&inode, idx, /*alloc=*/false));
    const bool fresh = existing == 0;
    uint32_t bno = existing;
    if (fresh) {
      ASSIGN_OR_RETURN(bno, BMap(&inode, idx, /*alloc=*/true));
    }
    // A freshly allocated block is never read (a reused physical block may
    // hold another file's old bytes) and comes out of the cache zeroed. An
    // existing block is read unless this write covers everything still
    // meaningful in it; a short write of that kind zeroes the stale rest,
    // which a cached copy may still hold.
    const bool full_overwrite =
        !fresh && within == 0 && (chunk == bs || pos + chunk >= inode.size);
    ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block,
                     cache_->Get(bno, /*load=*/!fresh && !full_overwrite));
    if (fresh) {
      AssertFreshZeroed(*block);
    } else if (full_overwrite && chunk < bs) {
      std::fill(block->data.begin(), block->data.end(), 0);
    }
    std::memcpy(block->data.data() + within, data.data() + done, chunk);
    cache_->MarkDirty(block);
    pos += chunk;
    done += chunk;
  }
  if (pos > inode.size) {
    inode.size = static_cast<uint32_t>(pos);
  }
  inode.mtime = NowTime();
  RETURN_IF_ERROR(PutInode(ino, inode, /*structural=*/false));
  stats_.file_writes++;
  stats_.bytes_written += data.size();
  return OkStatus();
}

bool MinixFs::ReadAheadEnabled() const {
  if (options_.readahead_blocks <= 1) {
    return false;
  }
  return backend_->readahead() || options_.ld_readahead;
}

Status MinixFs::ReadFileBlockCached(uint32_t ino, DiskInode* inode, uint32_t idx, uint32_t bno) {
  if (!ReadAheadEnabled()) {
    if (cache_->Contains(bno)) {
      return OkStatus();
    }
    return cache_->Get(bno, /*load=*/true).status();
  }

  // Per-file read-ahead: each file tracks its own sequential stream and
  // window, so interleaved sequential readers of different files keep their
  // prefetches in flight concurrently instead of serializing behind one
  // global run. A sequential hit doubles the window up to readahead_blocks;
  // any jump collapses it — prefetching a random reader is as likely wrong
  // as right (the seed's contiguity check prefetched there wastefully).
  if (readahead_state_.size() > 4096 && readahead_state_.count(ino) == 0) {
    readahead_state_.clear();  // Bound the table; windows just re-ramp.
  }
  FileReadAhead& st = readahead_state_[ino];
  const uint32_t ra = options_.readahead_blocks;
  if (st.started && idx == st.next_idx) {
    st.window = std::min(std::max(st.window * 2, 2u), ra);
  } else {
    st.window = (!st.started && idx == 0) ? std::min(2u, ra) : 0;
    st.prefetched_to = idx + 1;
  }
  st.started = true;
  st.next_idx = idx + 1;

  // The demand block first: adopt its in-flight prefetch or read it now.
  // Only then extend the window, so freshly queued read-ahead never delays
  // the block the caller is waiting for.
  RETURN_IF_ERROR(cache_->Get(bno, /*load=*/true).status());

  if (st.window == 0) {
    return OkStatus();
  }
  // Never prefetch past EOF; holes have nothing on the media to fetch.
  const uint32_t file_blocks = (inode->size + sb_.block_size - 1) / sb_.block_size;
  const uint32_t from = std::max(idx + 1, st.prefetched_to);
  const uint32_t to = std::min(idx + 1 + st.window, file_blocks);
  bool issued = false;
  for (uint32_t j = from; j < to; ++j) {
    auto next = BMap(inode, j, /*alloc=*/false);
    if (!next.ok()) {
      break;
    }
    if (next.value() == 0 || cache_->Contains(next.value()) || cache_->Pending(next.value())) {
      continue;
    }
    if (!cache_->GetAsync(next.value(), /*prefetch=*/true).ok()) {
      break;  // Best-effort: a failed prefetch submit is not the caller's error.
    }
    issued = true;
  }
  if (to > st.prefetched_to) {
    st.prefetched_to = to;
  }
  if (issued) {
    stats_.readahead_requests++;
  }
  return OkStatus();
}

StatusOr<size_t> MinixFs::ReadFile(uint32_t ino, uint64_t offset, std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
  if (inode.type == FileType::kFree) {
    return NotFoundError("no such file");
  }
  if (offset >= inode.size) {
    return size_t{0};
  }
  const uint32_t bs = sb_.block_size;
  const size_t to_read = std::min<size_t>(out.size(), inode.size - offset);
  uint64_t pos = offset;
  size_t done = 0;
  while (done < to_read) {
    const uint32_t idx = static_cast<uint32_t>(pos / bs);
    const uint32_t within = static_cast<uint32_t>(pos % bs);
    const size_t chunk = std::min<size_t>(bs - within, to_read - done);
    ASSIGN_OR_RETURN(uint32_t bno, BMap(&inode, idx, /*alloc=*/false));
    if (bno == 0) {
      std::memset(out.data() + done, 0, chunk);  // Hole.
    } else {
      RETURN_IF_ERROR(ReadFileBlockCached(ino, &inode, idx, bno));
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
      std::memcpy(out.data() + done, block->data.data() + within, chunk);
    }
    pos += chunk;
    done += chunk;
  }
  stats_.file_reads++;
  stats_.bytes_read += done;
  return done;
}

Status MinixFs::Truncate(uint32_t ino, uint64_t new_size) {
  RETURN_IF_ERROR(EnsureSyncUnit());
  ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
  if (inode.type == FileType::kFree) {
    return NotFoundError("no such file");
  }
  if (new_size > inode.size) {
    return UnimplementedError("extending truncate is not supported");
  }
  const uint32_t keep = static_cast<uint32_t>((new_size + sb_.block_size - 1) / sb_.block_size);
  // The freed blocks' in-flight prefetches are cancelled by FreeFileBlocks'
  // Discards; the window itself must go too, or a later sequential read
  // would trust a prefetched_to mark pointing into the truncated tail.
  DropReadAheadState(ino);
  RETURN_IF_ERROR(FreeFileBlocks(&inode, keep));
  // Zero the tail of the last surviving block so a later extension reads
  // the hole as zeros instead of stale bytes.
  if (new_size % sb_.block_size != 0) {
    ASSIGN_OR_RETURN(uint32_t bno,
                     BMap(&inode, static_cast<uint32_t>(new_size / sb_.block_size),
                          /*alloc=*/false));
    if (bno != 0) {
      ASSIGN_OR_RETURN(std::shared_ptr<CacheBlock> block, cache_->Get(bno, /*load=*/true));
      std::fill(block->data.begin() + new_size % sb_.block_size, block->data.end(), 0);
      cache_->MarkDirty(block);
    }
  }
  inode.size = static_cast<uint32_t>(new_size);
  inode.mtime = NowTime();
  return PutInode(ino, inode);
}

Status MinixFs::Unlink(const std::string& path) {
  RETURN_IF_ERROR(EnsureSyncUnit());
  uint32_t parent;
  std::string name;
  RETURN_IF_ERROR(SplitPath(path, &parent, &name));
  ASSIGN_OR_RETURN(uint32_t ino, LookupDir(parent, name));
  ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
  if (inode.type == FileType::kDirectory) {
    return InvalidArgumentError("is a directory: " + path);
  }
  RETURN_IF_ERROR(RemoveDirEntry(parent, name));
  if (inode.nlinks <= 1) {
    DropReadAheadState(ino);
    RETURN_IF_ERROR(FreeFileBlocks(&inode, 0));
    if (inode.lid != 0) {
      RETURN_IF_ERROR(backend_->DeleteFileList(inode.lid));
    }
    inode = DiskInode{};
    RETURN_IF_ERROR(PutInode(ino, inode));
    RETURN_IF_ERROR(FreeInode(ino));
  } else {
    inode.nlinks--;
    RETURN_IF_ERROR(PutInode(ino, inode));
  }
  stats_.unlinks++;
  return OkStatus();
}

Status MinixFs::Link(const std::string& from, const std::string& to) {
  RETURN_IF_ERROR(EnsureSyncUnit());
  ASSIGN_OR_RETURN(uint32_t ino, Resolve(from));
  ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
  if (inode.type == FileType::kDirectory) {
    return InvalidArgumentError("cannot hard-link a directory");
  }
  uint32_t parent;
  std::string name;
  RETURN_IF_ERROR(SplitPath(to, &parent, &name));
  if (LookupDir(parent, name).ok()) {
    return AlreadyExistsError("exists: " + to);
  }
  RETURN_IF_ERROR(AddDirEntry(parent, name, ino));
  inode.nlinks++;
  return PutInode(ino, inode);
}

Status MinixFs::Rename(const std::string& from, const std::string& to) {
  RETURN_IF_ERROR(EnsureSyncUnit());
  uint32_t from_parent;
  std::string from_name;
  RETURN_IF_ERROR(SplitPath(from, &from_parent, &from_name));
  uint32_t to_parent;
  std::string to_name;
  RETURN_IF_ERROR(SplitPath(to, &to_parent, &to_name));
  if (IsDotName(from_name) || IsDotName(to_name)) {
    return InvalidArgumentError("cannot rename '.' or '..': " + from + " -> " + to);
  }
  ASSIGN_OR_RETURN(uint32_t ino, LookupDir(from_parent, from_name));
  const StatusOr<uint32_t> target = LookupDir(to_parent, to_name);
  if (target.ok() && *target == ino) {
    return OkStatus();  // Both names already link this i-node (POSIX).
  }
  ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
  const bool moves_dir = inode.type == FileType::kDirectory && from_parent != to_parent;
  if (moves_dir) {
    // Walk up from the new parent: meeting the directory itself (the root
    // included) means the move would cut its own subtree loose from the root.
    uint32_t dir = to_parent;
    while (dir != ino && dir != kRootIno) {
      ASSIGN_OR_RETURN(dir, LookupDir(dir, ".."));
    }
    if (dir == ino) {
      return InvalidArgumentError("cannot move a directory into itself: " + to);
    }
  }
  if (target.ok()) {
    RETURN_IF_ERROR(Unlink(to));
  }
  RETURN_IF_ERROR(AddDirEntry(to_parent, to_name, ino));
  RETURN_IF_ERROR(RemoveDirEntry(from_parent, from_name));
  if (!moves_dir) {
    return OkStatus();
  }
  // The directory's ".." and the link it holds on its parent move with it.
  RETURN_IF_ERROR(RemoveDirEntry(ino, ".."));
  RETURN_IF_ERROR(AddDirEntry(ino, "..", to_parent));
  ASSIGN_OR_RETURN(DiskInode old_parent, GetInode(from_parent));
  old_parent.nlinks--;
  RETURN_IF_ERROR(PutInode(from_parent, old_parent));
  ASSIGN_OR_RETURN(DiskInode new_parent, GetInode(to_parent));
  new_parent.nlinks++;
  return PutInode(to_parent, new_parent);
}

Status MinixFs::Mkdir(const std::string& path) {
  RETURN_IF_ERROR(EnsureSyncUnit());
  uint32_t parent;
  std::string name;
  RETURN_IF_ERROR(SplitPath(path, &parent, &name));
  if (LookupDir(parent, name).ok()) {
    return AlreadyExistsError("exists: " + path);
  }
  ASSIGN_OR_RETURN(uint32_t ino, AllocInode());
  DiskInode inode;
  inode.type = FileType::kDirectory;
  inode.nlinks = 2;
  inode.mtime = NowTime();
  ASSIGN_OR_RETURN(DiskInode parent_inode, GetInode(parent));
  ASSIGN_OR_RETURN(uint32_t lid, backend_->CreateFileList(parent_inode.lid));
  inode.lid = lid;
  RETURN_IF_ERROR(PutInode(ino, inode));
  RETURN_IF_ERROR(AddDirEntry(ino, ".", ino));
  RETURN_IF_ERROR(AddDirEntry(ino, "..", parent));
  RETURN_IF_ERROR(AddDirEntry(parent, name, ino));
  // AddDirEntry may have grown the parent by a block: take its i-node as it
  // is now, or the stale copy would drop that block.
  ASSIGN_OR_RETURN(parent_inode, GetInode(parent));
  parent_inode.nlinks++;
  parent_inode.mtime = NowTime();
  return PutInode(parent, parent_inode);
}

Status MinixFs::Rmdir(const std::string& path) {
  RETURN_IF_ERROR(EnsureSyncUnit());
  uint32_t parent;
  std::string name;
  RETURN_IF_ERROR(SplitPath(path, &parent, &name));
  if (IsDotName(name)) {
    return InvalidArgumentError("cannot remove '.' or '..': " + path);
  }
  ASSIGN_OR_RETURN(uint32_t ino, LookupDir(parent, name));
  ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
  if (inode.type != FileType::kDirectory) {
    return InvalidArgumentError("not a directory: " + path);
  }
  ASSIGN_OR_RETURN(bool empty, DirIsEmpty(ino));
  if (!empty) {
    return FailedPreconditionError("directory not empty: " + path);
  }
  RETURN_IF_ERROR(RemoveDirEntry(parent, name));
  DropReadAheadState(ino);
  RETURN_IF_ERROR(FreeFileBlocks(&inode, 0));
  if (inode.lid != 0) {
    RETURN_IF_ERROR(backend_->DeleteFileList(inode.lid));
  }
  inode = DiskInode{};
  RETURN_IF_ERROR(PutInode(ino, inode));
  RETURN_IF_ERROR(FreeInode(ino));
  ASSIGN_OR_RETURN(DiskInode parent_inode, GetInode(parent));
  parent_inode.nlinks--;
  return PutInode(parent, parent_inode);
}

StatusOr<MinixStatInfo> MinixFs::Stat(const std::string& path) {
  ASSIGN_OR_RETURN(uint32_t ino, Resolve(path));
  return StatIno(ino);
}

StatusOr<MinixStatInfo> MinixFs::StatIno(uint32_t ino) {
  ASSIGN_OR_RETURN(DiskInode inode, GetInode(ino));
  if (inode.type == FileType::kFree) {
    return NotFoundError("no such i-node");
  }
  MinixStatInfo info;
  info.ino = ino;
  info.type = inode.type;
  info.size = inode.size;
  info.nlinks = inode.nlinks;
  info.mtime = inode.mtime;
  return info;
}

}  // namespace ld
