#include "src/workload/microbench.h"

#include <string>
#include <vector>

#include "src/workload/data_gen.h"

namespace ld {

namespace {

std::string FileName(uint32_t i) { return "/f" + std::to_string(i); }

}  // namespace

StatusOr<SmallFileResult> RunSmallFileBenchmark(MinixFs* fs, SimClock* clock,
                                                const SmallFileParams& params) {
  SmallFileResult result;
  DataGenerator gen(kMicrobenchSeed, kMicrobenchCompressRatio);
  std::vector<uint8_t> data = gen.Make(params.file_bytes);
  std::vector<uint32_t> inos(params.num_files);

  // ---- Create phase: create + write + one sync at the end (MINIX makes
  // directory changes stable at syncs, §4.2).
  double start = clock->Now();
  for (uint32_t i = 0; i < params.num_files; ++i) {
    ASSIGN_OR_RETURN(uint32_t ino, fs->CreateFile(FileName(i)));
    inos[i] = ino;
    RETURN_IF_ERROR(fs->WriteFile(ino, 0, data));
  }
  RETURN_IF_ERROR(fs->SyncFs());
  result.create_per_sec = params.num_files / (clock->Now() - start);

  // Flush the cache between phases, as the paper does.
  RETURN_IF_ERROR(fs->DropCaches());

  // ---- Read phase.
  std::vector<uint8_t> buf(params.file_bytes);
  start = clock->Now();
  for (uint32_t i = 0; i < params.num_files; ++i) {
    ASSIGN_OR_RETURN(size_t n, fs->ReadFile(inos[i], 0, buf));
    if (n != params.file_bytes) {
      return CorruptionError("short read in small-file benchmark");
    }
  }
  result.read_per_sec = params.num_files / (clock->Now() - start);

  RETURN_IF_ERROR(fs->DropCaches());

  // ---- Delete phase.
  start = clock->Now();
  for (uint32_t i = 0; i < params.num_files; ++i) {
    RETURN_IF_ERROR(fs->Unlink(FileName(i)));
  }
  RETURN_IF_ERROR(fs->SyncFs());
  result.delete_per_sec = params.num_files / (clock->Now() - start);
  return result;
}

StatusOr<LargeFileResult> RunLargeFileBenchmark(MinixFs* fs, SimClock* clock,
                                                const LargeFileParams& params) {
  LargeFileResult result;
  DataGenerator gen(kMicrobenchSeed, kMicrobenchCompressRatio);
  const uint64_t chunks = params.file_bytes / kLargeFileChunkBytes;
  const double kb = static_cast<double>(params.file_bytes) / 1024.0;
  std::vector<uint8_t> chunk = gen.Make(kLargeFileChunkBytes);
  std::vector<uint8_t> buf(kLargeFileChunkBytes);

  ASSIGN_OR_RETURN(uint32_t ino, fs->CreateFile("/big"));

  // ---- Sequential write.
  double start = clock->Now();
  for (uint64_t c = 0; c < chunks; ++c) {
    RETURN_IF_ERROR(fs->WriteFile(ino, c * kLargeFileChunkBytes, chunk));
  }
  RETURN_IF_ERROR(fs->SyncFs());
  result.write_seq_kbps = kb / (clock->Now() - start);
  RETURN_IF_ERROR(fs->DropCaches());

  // ---- Sequential read.
  start = clock->Now();
  for (uint64_t c = 0; c < chunks; ++c) {
    RETURN_IF_ERROR(fs->ReadFile(ino, c * kLargeFileChunkBytes, buf).status());
  }
  result.read_seq_kbps = kb / (clock->Now() - start);
  RETURN_IF_ERROR(fs->DropCaches());

  // ---- Random write: every chunk written once, in random order.
  Rng rng(kMicrobenchSeed + 1);
  std::vector<uint64_t> order(chunks);
  for (uint64_t c = 0; c < chunks; ++c) {
    order[c] = c;
  }
  for (uint64_t c = chunks; c > 1; --c) {
    std::swap(order[c - 1], order[rng.Below(c)]);
  }
  start = clock->Now();
  for (uint64_t c = 0; c < chunks; ++c) {
    RETURN_IF_ERROR(fs->WriteFile(ino, order[c] * kLargeFileChunkBytes, chunk));
  }
  RETURN_IF_ERROR(fs->SyncFs());
  result.write_rand_kbps = kb / (clock->Now() - start);
  RETURN_IF_ERROR(fs->DropCaches());

  // ---- Random read (fresh shuffle).
  for (uint64_t c = chunks; c > 1; --c) {
    std::swap(order[c - 1], order[rng.Below(c)]);
  }
  start = clock->Now();
  for (uint64_t c = 0; c < chunks; ++c) {
    RETURN_IF_ERROR(fs->ReadFile(ino, order[c] * kLargeFileChunkBytes, buf).status());
  }
  result.read_rand_kbps = kb / (clock->Now() - start);
  RETURN_IF_ERROR(fs->DropCaches());

  // ---- Sequential re-read (after the random writes scrambled the layout).
  start = clock->Now();
  for (uint64_t c = 0; c < chunks; ++c) {
    RETURN_IF_ERROR(fs->ReadFile(ino, c * kLargeFileChunkBytes, buf).status());
  }
  result.reread_seq_kbps = kb / (clock->Now() - start);
  return result;
}

}  // namespace ld
