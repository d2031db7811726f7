// CPU microbenchmarks of the LD interface primitives (google-benchmark).
//
// The paper's performance results are disk-bound; this binary measures the
// *CPU* cost of LLD's in-memory work (block-map updates, list maintenance,
// summary logging, segment assembly) on a zero-latency MemDisk, which is
// what a host would pay per operation on top of the I/O, the CRC-32 that
// every write and verified read takes, and the LZRW1 coder that compressed
// lists run on every block. Two MINIX rows time the directory scans of a
// Table 4-sized directory on LLD.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/compress/lzrw.h"
#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/minixfs/minix_fs.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/workload/data_gen.h"

namespace ld {
namespace {

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  Lid list;

  // With a compressor, the list carries the compress hint.
  explicit Rig(Compressor* compressor = nullptr) {
    disk = std::make_unique<MemDisk>((256ull << 20) / 512, 512, &clock);
    LldOptions options;
    options.compressor = compressor;
    lld = *LogStructuredDisk::Format(disk.get(), options);
    ListHints hints;
    hints.compress = compressor != nullptr;
    list = *lld->NewList(kBeginOfListOfLists, hints);
  }
};

// 4-KB blocks of the paper's ~60 % compressible data, generated at run time.
std::vector<std::vector<uint8_t>> CompressibleBlocks() {
  DataGenerator gen(42, 0.6);
  std::vector<std::vector<uint8_t>> blocks;
  for (int i = 0; i < 64; ++i) {
    blocks.push_back(gen.Make(4096));
  }
  return blocks;
}

void BM_NewDeleteBlock(benchmark::State& state) {
  Rig rig;
  for (auto _ : state) {
    Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
    benchmark::DoNotOptimize(bid);
    (void)rig.lld->DeleteBlock(bid, rig.list, kNilBid);
  }
}
BENCHMARK(BM_NewDeleteBlock);

void BM_Write4K(benchmark::State& state) {
  Rig rig;
  Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
  std::vector<uint8_t> data(4096, 0x7e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lld->Write(bid, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Write4K);

void BM_Read4KFromOpenSegment(benchmark::State& state) {
  Rig rig;
  Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
  std::vector<uint8_t> data(4096, 0x7e);
  (void)rig.lld->Write(bid, data);
  std::vector<uint8_t> out(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lld->Read(bid, out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Read4KFromOpenSegment);

void BM_Read4KFromDisk(benchmark::State& state) {
  Rig rig;
  // Fill past several segments so reads hit "disk" (MemDisk) paths.
  std::vector<uint8_t> data(4096, 0x7e);
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (int i = 0; i < 512; ++i) {
    Bid bid = *rig.lld->NewBlock(rig.list, pred);
    (void)rig.lld->Write(bid, data);
    bids.push_back(bid);
    pred = bid;
  }
  (void)rig.lld->Flush();
  std::vector<uint8_t> out(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lld->Read(bids[i++ % 256], out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Read4KFromDisk);

void BM_FlushPartial(benchmark::State& state) {
  Rig rig;
  Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
  std::vector<uint8_t> data(4096, 0x11);
  for (auto _ : state) {
    (void)rig.lld->Write(bid, data);
    benchmark::DoNotOptimize(rig.lld->Flush());
  }
}
BENCHMARK(BM_FlushPartial);

void BM_DeleteBlockWithHint(benchmark::State& state) {
  Rig rig;
  for (auto _ : state) {
    state.PauseTiming();
    Bid a = *rig.lld->NewBlock(rig.list, kBeginOfList);
    Bid b = *rig.lld->NewBlock(rig.list, a);
    state.ResumeTiming();
    (void)rig.lld->DeleteBlock(b, rig.list, a);  // Correct hint: O(1).
    state.PauseTiming();
    (void)rig.lld->DeleteBlock(a, rig.list, kNilBid);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DeleteBlockWithHint);

// One CRC-32 over a span of random bytes, labelled with the kernel
// Crc32Update chose on this CPU.
void Crc32Bench(benchmark::State& state, size_t size) {
  std::vector<uint8_t> data(size);
  Rng rng(7);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
  state.SetLabel(crc32_internal::HasFolded() ? "folded" : "slice-by-16");
}

// A block payload and a segment summary.
void BM_Crc32_4K(benchmark::State& state) { Crc32Bench(state, 4096); }
BENCHMARK(BM_Crc32_4K);

void BM_Crc32_16K(benchmark::State& state) { Crc32Bench(state, 16384); }
BENCHMARK(BM_Crc32_16K);

void BM_Lzrw1Compress4K(benchmark::State& state) {
  const std::vector<std::vector<uint8_t>> blocks = CompressibleBlocks();
  Lzrw1Compressor lzrw;
  std::vector<uint8_t> packed;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lzrw.Compress(blocks[i++ % blocks.size()], &packed));
    benchmark::DoNotOptimize(packed.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Lzrw1Compress4K);

void BM_Lzrw1Decompress4K(benchmark::State& state) {
  Lzrw1Compressor lzrw;
  std::vector<std::vector<uint8_t>> streams;
  for (const std::vector<uint8_t>& block : CompressibleBlocks()) {
    std::vector<uint8_t> packed;
    lzrw.Compress(block, &packed);
    streams.push_back(std::move(packed));
  }
  std::vector<uint8_t> out(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lzrw.Decompress(streams[i++ % streams.size()], out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Lzrw1Decompress4K);

// A write to a compressed list: compress, CRC and append the stored form.
void BM_WriteCompressed4K(benchmark::State& state) {
  const std::vector<std::vector<uint8_t>> blocks = CompressibleBlocks();
  Lzrw1Compressor lzrw;
  Rig rig(&lzrw);
  Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lld->Write(bid, blocks[i++ % blocks.size()]));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_WriteCompressed4K);

// Ends the run when a MINIX call fails, so that a directory row never times
// an error path on a smaller directory and a smoke run exits non-zero.
void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_ld_ops: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

// MINIX on LLD over a MemDisk with Table 4's 10,000 files in the root
// directory (157 blocks of 64 slots), named as the smallfile benchmark names
// them. The whole directory and i-node table fit in the default cache.
struct DirRig {
  static constexpr int kFiles = 10000;
  SimClock clock;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  std::unique_ptr<MinixFs> fs;
  std::vector<std::string> names;

  DirRig() {
    disk = std::make_unique<MemDisk>((256ull << 20) / 512, 512, &clock);
    lld = *LogStructuredDisk::Format(disk.get(), LldOptions{});
    fs = *MinixFs::FormatOnLd(lld.get(), MinixOptions{}, /*list_per_file=*/true);
    Rng rng(10000);
    for (int i = 0; i < kFiles; ++i) {
      char name[24];
      std::snprintf(name, sizeof(name), "/f%012llx",
                    static_cast<unsigned long long>(rng.Next() & 0xffffffffffffull));
      names.push_back(name);
      Check(fs->CreateFile(name).status());
    }
  }
};

// A lookup that finds its name: on average a scan of half the directory.
void BM_LookupDirHit(benchmark::State& state) {
  DirRig rig;
  Rng rng(1);
  for (auto _ : state) {
    auto ino = rig.fs->OpenFile(rig.names[rng.Below(rig.names.size())]);
    Check(ino.status());
    benchmark::DoNotOptimize(*ino);
  }
}
BENCHMARK(BM_LookupDirHit);

// A create (a miss, then the first free slot) and its unlink (a scan to the
// name): three scans of the directory.
void BM_CreateUnlink(benchmark::State& state) {
  DirRig rig;
  for (auto _ : state) {
    Check(rig.fs->CreateFile("/new-file").status());
    Check(rig.fs->Unlink("/new-file"));
  }
}
BENCHMARK(BM_CreateUnlink);

}  // namespace
}  // namespace ld

BENCHMARK_MAIN();
