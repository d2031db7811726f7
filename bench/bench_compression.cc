// Compression experiment (paper §3.3, §4.2): "we measured the throughput of
// MINIX LLD with compression; the write throughput was 1600 Kbyte per
// second, and the read throughput was 800 Kbyte per second. The write
// throughput is within 21% of the throughput without compression; this is
// because one segment can be compressed while the previous segment is being
// written to disk. The read throughput is low because we cannot overlap
// reading and decompression."
//
// Data is synthesized at the paper's assumed ~60% compression ratio.

#include <cstdio>

#include "src/compress/lzrw.h"
#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/data_gen.h"

namespace ld {
namespace {

struct Throughput {
  double write_kbps = 0;
  double read_kbps = 0;
  double achieved_ratio = 1.0;
};

StatusOr<Throughput> RunOne(bool compressed) {
  Lzrw1Compressor compressor;
  SetupParams params;
  if (compressed) {
    params.fs.lld.compressor = &compressor;
    params.fs.compress_file_data = true;
  }
  ASSIGN_OR_RETURN(FsUnderTest fut, MakeFsUnderTest(FsKind::kMinixLld, params));

  const uint64_t kFileBytes = 64ull << 20;
  const uint32_t kChunk = 8192;
  DataGenerator gen(11, 0.6);
  ASSIGN_OR_RETURN(uint32_t ino, fut.fs->CreateFile("/big"));
  Throughput result;

  std::vector<uint8_t> chunk(kChunk);
  double start = fut.clock->Now();
  for (uint64_t off = 0; off < kFileBytes; off += kChunk) {
    gen.Fill(chunk);
    RETURN_IF_ERROR(fut.fs->WriteFile(ino, off, chunk));
  }
  RETURN_IF_ERROR(fut.fs->SyncFs());
  result.write_kbps = kFileBytes / 1024.0 / (fut.clock->Now() - start);
  RETURN_IF_ERROR(fut.fs->DropCaches());

  start = fut.clock->Now();
  for (uint64_t off = 0; off < kFileBytes; off += kChunk) {
    RETURN_IF_ERROR(fut.fs->ReadFile(ino, off, chunk).status());
  }
  result.read_kbps = kFileBytes / 1024.0 / (fut.clock->Now() - start);

  const auto& c = fut.lld->counters();
  if (c.user_bytes_written > 0) {
    result.achieved_ratio =
        1.0 - static_cast<double>(c.compression_saved_bytes) / c.user_bytes_written;
  }
  return result;
}

int Run() {
  auto plain = RunOne(false);
  auto packed = RunOne(true);
  if (!plain.ok() || !packed.ok()) {
    std::fprintf(stderr, "bench failed\n");
    return 1;
  }

  TextTable t({"Configuration", "Write seq (KB/s)", "Read seq (KB/s)", "Compression ratio"});
  t.AddRow({"No compression", TextTable::Num(plain->write_kbps),
            TextTable::Num(plain->read_kbps), "-"});
  t.AddRow({"Compression (paper: 1600 / 800)", TextTable::Num(packed->write_kbps),
            TextTable::Num(packed->read_kbps), TextTable::Percent(packed->achieved_ratio)});
  t.Print();

  const double write_loss = 1.0 - packed->write_kbps / plain->write_kbps;
  std::printf("\nWrite loss vs no compression: %s (paper: within 21%%)\n",
              TextTable::Percent(write_loss, 1).c_str());
  std::printf("Effective storage gained: x%s\n",
              TextTable::Num(1.0 / packed->achieved_ratio, 2).c_str());

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("compressed write throughput near the paper's 1600 KB/s (1300..1900)",
             packed->write_kbps > 1300 && packed->write_kbps < 1900);
  CheckClaim("write loss bounded by pipelining (<= 30%, paper 21%)", write_loss <= 0.30);
  CheckClaim("compressed read throughput near the paper's 800 KB/s (600..1000)",
             packed->read_kbps > 600 && packed->read_kbps < 1000);
  CheckClaim("reads slower than writes (decompression cannot overlap)",
             packed->read_kbps < packed->write_kbps);
  CheckClaim("achieved ratio near the assumed 60% (45%..75%)",
             packed->achieved_ratio > 0.45 && packed->achieved_ratio < 0.75);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Compression (paper §3.3, §4.2)",
                  "MINIX LLD with transparent list compression: writes pipeline with\n"
                  "segment I/O, reads pay decompression serially.");
  return ld::Run();
}
