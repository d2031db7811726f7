// Differential conformance suite for the MINIX read path: per-file
// read-ahead must change no bytes. The same randomized multi-file
// interleaved workload runs with read-ahead on and off on both backends
// (classic and LD), and every read is checked against the generator — so
// either configuration drifting from the other, or from ground truth, fails.
// Targeted cases pin down the prefetch edge rules: never past EOF, never into
// freed/reused blocks. Every case runs on a 1- and a 4-channel device.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/harness/setup.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint32_t kFiles = 5;
constexpr uint32_t kChunk = 8192;

// Ground truth: the byte every file holds at every offset, computable
// without reading anything back.
uint8_t ExpectedByte(uint32_t f, uint64_t off) {
  return static_cast<uint8_t>(131u * (f + 1) + 7u * static_cast<uint32_t>(off) +
                              static_cast<uint32_t>(off >> 13));
}

void FillExpected(uint32_t f, uint64_t off, std::span<uint8_t> out) {
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = ExpectedByte(f, off + i);
  }
}

struct ReadPathConfig {
  const char* name;
  uint32_t readahead_blocks;
  bool ld_readahead;
};

// The configurations the differential runs compare: read-ahead on both
// backends, and no read-ahead at all, where every demand read is waited out
// before the next one is submitted. Both are pinned, so the comparison never
// degenerates into one configuration against itself.
std::vector<ReadPathConfig> Configs() {
  return {
      {"async+RA", 8, true},
      {"no RA", 1, false},
  };
}

StatusOr<FsUnderTest> MakeFs(FsKind kind, const ReadPathConfig& config, uint32_t channels) {
  SetupParams params;
  params.device = DeviceOptions::HpC3010(32ull << 20, channels);
  params.fs.num_inodes = 512;
  params.fs.cache_bytes = 256 * 1024;  // Small: keep eviction pressure on.
  params.fs.readahead_blocks = config.readahead_blocks;
  params.fs.ld_readahead = config.ld_readahead;
  return MakeFsUnderTest(kind, params);
}

// Runs the randomized interleaved workload and appends every byte read to
// `digest`. All reads are also verified against the generator in place, so
// a failure names the file and offset instead of a digest mismatch.
void RunWorkload(FsKind kind, const ReadPathConfig& config, uint32_t channels,
                 std::vector<uint8_t>* digest) {
  SCOPED_TRACE(std::string(FsKindName(kind)) + " / " + config.name);
  auto fut = MakeFs(kind, config, channels);
  ASSERT_TRUE(fut.ok()) << fut.status().ToString();
  MinixFs* fs = fut->fs.get();

  Rng rng(20260806);
  uint64_t sizes[kFiles];
  uint32_t inos[kFiles];
  for (uint32_t f = 0; f < kFiles; ++f) {
    sizes[f] = rng.Range(50'000, 250'000);  // Not block-aligned on purpose.
    auto ino = fs->CreateFile("/f" + std::to_string(f));
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    inos[f] = *ino;
    std::vector<uint8_t> chunk;
    for (uint64_t off = 0; off < sizes[f]; off += kChunk) {
      chunk.resize(std::min<uint64_t>(kChunk, sizes[f] - off));
      FillExpected(f, off, chunk);
      ASSERT_TRUE(fs->WriteFile(inos[f], off, chunk).ok());
    }
  }
  ASSERT_TRUE(fs->DropCaches().ok());

  std::vector<uint8_t> buf(kChunk);
  std::vector<uint8_t> want(kChunk);
  auto read_and_check = [&](uint32_t f, uint64_t off, size_t len) {
    buf.resize(len);
    auto got = fs->ReadFile(inos[f], off, buf);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const size_t expect_len =
        off >= sizes[f] ? 0 : std::min<uint64_t>(len, sizes[f] - off);
    ASSERT_EQ(*got, expect_len) << "file " << f << " off " << off;
    want.resize(expect_len);
    FillExpected(f, off, want);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.begin()))
        << "bytes differ: file " << f << " off " << off << " len " << expect_len;
    digest->insert(digest->end(), buf.begin(), buf.begin() + expect_len);
  };

  // Phase 1: interleaved sequential streams — each file advances its own
  // cursor, so per-file read-ahead windows ramp and overlap across files.
  uint64_t cursors[kFiles] = {};
  for (int op = 0; op < 400; ++op) {
    const uint32_t f = static_cast<uint32_t>(rng.Below(kFiles));
    if (cursors[f] >= sizes[f]) {
      cursors[f] = 0;  // Re-stream from the top.
    }
    read_and_check(f, cursors[f], kChunk);
    if (::testing::Test::HasFatalFailure()) return;
    cursors[f] += kChunk;
  }

  // Phase 2: random jumps — windows must collapse, bytes must not change.
  for (int op = 0; op < 80; ++op) {
    const uint32_t f = static_cast<uint32_t>(rng.Below(kFiles));
    read_and_check(f, rng.Below(sizes[f]), 1 + rng.Below(3 * kChunk));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Phase 3: full sequential re-read of every file, and reads exactly at
  // EOF return zero bytes.
  for (uint32_t f = 0; f < kFiles; ++f) {
    for (uint64_t off = 0; off < sizes[f]; off += kChunk) {
      read_and_check(f, off, kChunk);
      if (::testing::Test::HasFatalFailure()) return;
    }
    read_and_check(f, sizes[f], kChunk);
    if (::testing::Test::HasFatalFailure()) return;
  }

  ASSERT_TRUE(fs->CheckConsistency().ok());
}

// The backend and the device's channel count.
class BackendTest : public ::testing::TestWithParam<std::tuple<FsKind, uint32_t>> {
 protected:
  FsKind kind() const { return std::get<0>(GetParam()); }
  uint32_t channels() const { return std::get<1>(GetParam()); }
};

const auto kBackends = ::testing::Combine(::testing::Values(FsKind::kMinix, FsKind::kMinixLld),
                                          ::testing::Values(1u, 4u));

std::string BackendName(const ::testing::TestParamInfo<std::tuple<FsKind, uint32_t>>& info) {
  return std::string(std::get<0>(info.param) == FsKind::kMinix ? "Classic" : "Ld") +
         "_Channels" + std::to_string(std::get<1>(info.param));
}

class ReadPathDifferentialTest : public BackendTest {};

// Read-ahead on and off return byte-identical results on the same backend:
// prefetching changes timing, never bytes.
TEST_P(ReadPathDifferentialTest, AllConfigsByteIdentical) {
  std::vector<std::vector<uint8_t>> digests;
  for (const ReadPathConfig& config : Configs()) {
    digests.emplace_back();
    RunWorkload(kind(), config, channels(), &digests.back());
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0].size(), digests[i].size());
    EXPECT_TRUE(digests[0] == digests[i])
        << Configs()[i].name << " diverges from " << Configs()[0].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ReadPathDifferentialTest, kBackends, BackendName);

// The two backends also agree with each other (not just with the generator).
class ReadPathBackendsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ReadPathBackendsTest, ClassicAndLdBackendsByteIdentical) {
  std::vector<uint8_t> classic, ld;
  RunWorkload(FsKind::kMinix, Configs()[0], GetParam(), &classic);
  if (::testing::Test::HasFatalFailure()) return;
  RunWorkload(FsKind::kMinixLld, Configs()[0], GetParam(), &ld);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_TRUE(classic == ld);
}

INSTANTIATE_TEST_SUITE_P(Channels, ReadPathBackendsTest, ::testing::Values(1u, 4u),
                         [](const auto& info) { return "Channels" + std::to_string(info.param); });

// --- Prefetch edge rules ---------------------------------------------------

class PrefetchEdgeTest : public BackendTest {
 protected:
  // Prefetch pinned on: these assertions are about read-ahead behaviour.
  ReadPathConfig config_{"async+RA(pinned)", 8, true};
};

// Sequentially reading a file whose tail is a partial block ramps the
// window to its maximum near EOF; the prefetcher must clamp at the last
// file block instead of touching whatever lies beyond the mapping.
TEST_P(PrefetchEdgeTest, SequentialReadToEofNeverPrefetchesPast) {
  auto fut = MakeFs(kind(), config_, channels());
  ASSERT_TRUE(fut.ok()) << fut.status().ToString();
  MinixFs* fs = fut->fs.get();
  const uint64_t size = 40 * 4096 + 777;  // Partial tail block.
  auto ino = fs->CreateFile("/tail");
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> chunk(kChunk);
  for (uint64_t off = 0; off < size; off += kChunk) {
    chunk.resize(std::min<uint64_t>(kChunk, size - off));
    FillExpected(0, off, chunk);
    ASSERT_TRUE(fs->WriteFile(*ino, off, chunk).ok());
  }
  ASSERT_TRUE(fs->DropCaches().ok());
  std::vector<uint8_t> buf(kChunk), want(kChunk);
  for (uint64_t off = 0; off < size; off += kChunk) {
    auto got = fs->ReadFile(*ino, off, buf);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, std::min<uint64_t>(kChunk, size - off));
    want.assign(*got, 0);
    FillExpected(0, off, want);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.begin())) << "off " << off;
  }
  auto at_eof = fs->ReadFile(*ino, size, buf);
  ASSERT_TRUE(at_eof.ok());
  EXPECT_EQ(*at_eof, 0u);
  EXPECT_TRUE(fs->CheckConsistency().ok());
}

// Blocks freed by an unlink and immediately reused by a new file must read
// back as the new file's bytes: any prefetched copy of the dead file that
// survived the free (cached or still in flight) would surface here.
TEST_P(PrefetchEdgeTest, UnlinkedBlocksReusedByNewFileReadBack) {
  auto fut = MakeFs(kind(), config_, channels());
  ASSERT_TRUE(fut.ok()) << fut.status().ToString();
  MinixFs* fs = fut->fs.get();
  const uint64_t size = 30 * 4096;
  std::vector<uint8_t> chunk(kChunk);
  uint32_t inos[2];
  for (uint32_t f = 0; f < 2; ++f) {
    auto ino = fs->CreateFile(f == 0 ? "/keep" : "/dead");
    ASSERT_TRUE(ino.ok());
    inos[f] = *ino;
    for (uint64_t off = 0; off < size; off += kChunk) {
      FillExpected(f, off, chunk);
      ASSERT_TRUE(fs->WriteFile(inos[f], off, chunk).ok());
    }
  }
  ASSERT_TRUE(fs->DropCaches().ok());
  // Stream a few chunks of /dead so read-ahead has fetched well beyond the
  // cursor, then unlink it while those prefetched blocks are still warm.
  std::vector<uint8_t> buf(kChunk), want(kChunk);
  for (uint64_t off = 0; off < 4 * kChunk; off += kChunk) {
    ASSERT_TRUE(fs->ReadFile(inos[1], off, buf).ok());
  }
  ASSERT_TRUE(fs->Unlink("/dead").ok());
  // The new file reuses the freed blocks.
  auto fresh = fs->CreateFile("/fresh");
  ASSERT_TRUE(fresh.ok());
  for (uint64_t off = 0; off < size; off += kChunk) {
    FillExpected(7, off, chunk);
    ASSERT_TRUE(fs->WriteFile(*fresh, off, chunk).ok());
  }
  ASSERT_TRUE(fs->SyncFs().ok());
  for (uint64_t off = 0; off < size; off += kChunk) {
    auto got = fs->ReadFile(*fresh, off, buf);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, kChunk);
    FillExpected(7, off, want);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.begin()))
        << "stale bytes from the unlinked file at off " << off;
  }
  // /keep is untouched by the reuse.
  for (uint64_t off = 0; off < size; off += kChunk) {
    ASSERT_TRUE(fs->ReadFile(inos[0], off, buf).ok());
    FillExpected(0, off, want);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.begin())) << "off " << off;
  }
  EXPECT_TRUE(fs->CheckConsistency().ok());
}

// Truncating a file that was being streamed drops its read-ahead state and
// any prefetched tail; rewriting past the new EOF must read back the new
// bytes, and the shrunk region keeps its old ones.
TEST_P(PrefetchEdgeTest, TruncateDropsPrefetchedTail) {
  auto fut = MakeFs(kind(), config_, channels());
  ASSERT_TRUE(fut.ok()) << fut.status().ToString();
  MinixFs* fs = fut->fs.get();
  const uint64_t size = 40 * 4096;
  auto ino = fs->CreateFile("/trunc");
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> chunk(kChunk);
  for (uint64_t off = 0; off < size; off += kChunk) {
    FillExpected(3, off, chunk);
    ASSERT_TRUE(fs->WriteFile(*ino, off, chunk).ok());
  }
  ASSERT_TRUE(fs->DropCaches().ok());
  // Ramp the window mid-file so the tail is prefetched, then cut it off.
  std::vector<uint8_t> buf(kChunk), want(kChunk);
  for (uint64_t off = 0; off < 6 * kChunk; off += kChunk) {
    ASSERT_TRUE(fs->ReadFile(*ino, off, buf).ok());
  }
  const uint64_t new_size = 10 * 4096;
  ASSERT_TRUE(fs->Truncate(*ino, new_size).ok());
  // Regrow with different bytes over the freed range.
  for (uint64_t off = new_size; off < size; off += kChunk) {
    FillExpected(9, off, chunk);
    ASSERT_TRUE(fs->WriteFile(*ino, off, chunk).ok());
  }
  for (uint64_t off = 0; off < size; off += kChunk) {
    auto got = fs->ReadFile(*ino, off, buf);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, kChunk);
    FillExpected(off < new_size ? 3 : 9, off, want);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.begin())) << "off " << off;
  }
  EXPECT_TRUE(fs->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, PrefetchEdgeTest, kBackends, BackendName);

}  // namespace
}  // namespace ld
