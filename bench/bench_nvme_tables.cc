// Tables 3–6 re-run on two device geometries: the paper's mechanical HP
// C3010 and an NVMe-style flash device (no seek/rotation, deep queue, fixed
// latency + shared bandwidth). The paper's argument for LLD is built on
// mechanical-disk economics — writes dominate, seeks are expensive, and a
// log turns random writes into sequential ones. On flash there is no arm to
// amortize, so this bench reports where LLD's win over update-in-place
// MINIX shrinks or inverts.
//
// A final section exercises the multi-channel mechanical device: with the
// cleaner active, 4 independent actuators must beat 1 on aggregate
// throughput, with the per-channel busy breakdown proving overlap.
//
//   --smoke   tiny workloads (CI bit-rot guard; numbers not meaningful)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "src/disk/device_factory.h"
#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/harness/tenants.h"
#include "src/lld/lld.h"
#include "src/lld/memory_model.h"
#include "src/util/random.h"
#include "src/util/table.h"
#include "src/workload/microbench.h"

namespace ld {
namespace {

bool g_smoke = false;

struct Backend {
  const char* name;
  DeviceOptions options;
};

std::vector<Backend> Backends() {
  return {
      {"HP C3010", DeviceOptions::HpC3010(400ull << 20)},
      // Capacity 0 = match the partition the harness derives, so both
      // backends run the identical workload at identical capacity.
      {"NVMe", DeviceOptions::Nvme(0)},
  };
}

// Tables 3-6 are single-tenant: the device keeps its default QosConfig
// (no policy, one tenant), so the legacy dispatch path runs.
SetupParams ParamsFor(const DeviceOptions& device) {
  SetupParams params;
  if (g_smoke) {
    params.partition_bytes = 64ull << 20;
    params.num_inodes = 2048;
  }
  params.device = device;
  return params;
}

// --- Table 3: memory cost --------------------------------------------------

void Table3() {
  std::printf("\n== Table 3: memory added per GB of disk ==\n");
  std::printf("Device-independent: LLD's block map / list map sizes depend on\n");
  std::printf("block count, not on what services the I/O (see bench_table3_cost\n");
  std::printf("for the full cost table). Anchors for 1 GB:\n");
  MemoryModelParams p;
  p.disk_bytes = 1ull << 30;
  const MemoryModelResult m = ComputeMemoryModel(p);
  std::printf("  %.1f MB of RAM per GB of disk (paper best case: 1.5 MB)\n",
              m.total_bytes / 1024.0 / 1024.0);
}

// --- Table 4: small files --------------------------------------------------

struct SmallRow {
  double create = 0, read = 0, del = 0;
};

bool Table4(std::vector<std::vector<SmallRow>>* out) {
  std::printf("\n== Table 4: small-file performance (files/sec) ==\n");
  TextTable t({"Device", "File System", "Create", "Read", "Delete"});
  for (const Backend& backend : Backends()) {
    std::vector<SmallRow> rows;
    for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinix}) {
      auto fut = MakeFsUnderTest(kind, ParamsFor(backend.options));
      if (!fut.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", fut.status().ToString().c_str());
        return false;
      }
      SmallFileParams params;
      params.num_files = g_smoke ? 300 : 10000;
      params.file_bytes = 1024;
      auto result = RunSmallFileBenchmark(fut->fs.get(), fut->clock.get(), params);
      if (!result.ok()) {
        std::fprintf(stderr, "bench failed: %s\n", result.status().ToString().c_str());
        return false;
      }
      rows.push_back({result->create_per_sec, result->read_per_sec, result->delete_per_sec});
      t.AddRow({backend.name, FsKindName(kind), TextTable::Num(result->create_per_sec, 1),
                TextTable::Num(result->read_per_sec, 1),
                TextTable::Num(result->delete_per_sec, 1)});
    }
    out->push_back(rows);
  }
  t.Print();
  return true;
}

// --- Table 5: large file ---------------------------------------------------

bool Table5(std::vector<std::vector<LargeFileResult>>* out) {
  std::printf("\n== Table 5: large-file performance (KB/s) ==\n");
  TextTable t({"Device", "File System", "Write Seq.", "Read Seq.", "Write Rand.", "Read Rand."});
  for (const Backend& backend : Backends()) {
    std::vector<LargeFileResult> rows;
    for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinix}) {
      auto fut = MakeFsUnderTest(kind, ParamsFor(backend.options));
      if (!fut.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", fut.status().ToString().c_str());
        return false;
      }
      LargeFileParams params;
      params.file_bytes = g_smoke ? (8ull << 20) : (80ull << 20);
      auto result = RunLargeFileBenchmark(fut->fs.get(), fut->clock.get(), params);
      if (!result.ok()) {
        std::fprintf(stderr, "bench failed: %s\n", result.status().ToString().c_str());
        return false;
      }
      rows.push_back(*result);
      t.AddRow({backend.name, FsKindName(kind), TextTable::Num(result->write_seq_kbps),
                TextTable::Num(result->read_seq_kbps), TextTable::Num(result->write_rand_kbps),
                TextTable::Num(result->read_rand_kbps)});
    }
    out->push_back(rows);
  }
  t.Print();
  return true;
}

// --- Table 6: per-operation durable write cost -----------------------------

struct DurableCosts {
  double create_ms = 0, overwrite_ms = 0, append_ms = 0;
};

bool Table6(std::vector<std::vector<DurableCosts>>* out) {
  std::printf("\n== Table 6: durable cost per operation (ms, each op Sync'd) ==\n");
  const int kOps = g_smoke ? 20 : 200;
  TextTable t({"Device", "File System", "Create", "Overwrite", "Append"});
  for (const Backend& backend : Backends()) {
    std::vector<DurableCosts> rows;
    for (FsKind kind : {FsKind::kMinixLldSmallInodes, FsKind::kMinix}) {
      SetupParams params = ParamsFor(backend.options);
      params.partition_bytes = g_smoke ? (64ull << 20) : (128ull << 20);
      auto fut = MakeFsUnderTest(kind, params);
      if (!fut.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", fut.status().ToString().c_str());
        return false;
      }
      MinixFs* fs = fut->fs.get();
      SimClock* clock = fut->clock.get();
      DurableCosts cost;

      (void)fs->SyncFs();
      double mark = clock->Now();
      for (int i = 0; i < kOps; ++i) {
        (void)fs->CreateFile("/c" + std::to_string(i));
        (void)fs->SyncFs();
      }
      cost.create_ms = (clock->Now() - mark) * 1000.0 / kOps;

      auto big = fs->CreateFile("/big");
      std::vector<uint8_t> chunk(256 * 1024, 0x42);
      const uint64_t big_bytes = g_smoke ? (2ull << 20) : (24ull << 20);
      for (uint64_t off = 0; off < big_bytes; off += chunk.size()) {
        (void)fs->WriteFile(*big, off, chunk);
      }
      (void)fs->SyncFs();
      std::vector<uint8_t> block(4096, 0x17);
      mark = clock->Now();
      for (int i = 0; i < kOps; ++i) {
        (void)fs->WriteFile(*big, static_cast<uint64_t>(i) * 4096, block);
        (void)fs->SyncFs();
      }
      cost.overwrite_ms = (clock->Now() - mark) * 1000.0 / kOps;

      uint64_t end = fs->StatIno(*big)->size;
      mark = clock->Now();
      for (int i = 0; i < kOps; ++i) {
        (void)fs->WriteFile(*big, end, block);
        end += block.size();
        (void)fs->SyncFs();
      }
      cost.append_ms = (clock->Now() - mark) * 1000.0 / kOps;

      rows.push_back(cost);
      t.AddRow({backend.name, FsKindName(kind), TextTable::Num(cost.create_ms, 2),
                TextTable::Num(cost.overwrite_ms, 2), TextTable::Num(cost.append_ms, 2)});
    }
    out->push_back(rows);
  }
  t.Print();
  return true;
}

// --- Read phase: async demand reads + cross-file read-ahead ----------------
//
// The Table 4/5 read workloads, re-run on the multi-channel mechanical
// device: one large file read sequentially (Table 5's read phase) and many
// files read round-robin (Table 4's read phase, interleaved so per-file
// read-ahead windows overlap across files). Each run sets its own knobs.

struct ReadPhaseRun {
  double seq_elapsed = 0;          // One large file, sequential.
  double interleaved_elapsed = 0;  // Many files, round-robin sequential.
  // Buffer-cache read-path counters after both read phases.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
};

StatusOr<ReadPhaseRun> RunReadPhase(FsKind kind, uint32_t channels, bool readahead) {
  SetupParams params;
  params.partition_bytes = 64ull << 20;
  params.num_inodes = 2048;
  params.device = DeviceOptions::HpC3010(64ull << 20, channels);
  params.readahead_blocks = readahead ? 8 : 1;
  params.ld_readahead = readahead;
  ASSIGN_OR_RETURN(FsUnderTest fut, MakeFsUnderTest(kind, params));

  std::vector<uint8_t> chunk(8192, 0x5a);
  const uint64_t big_bytes = g_smoke ? (4ull << 20) : (16ull << 20);
  ASSIGN_OR_RETURN(uint32_t big, fut.fs->CreateFile("/big"));
  for (uint64_t off = 0; off < big_bytes; off += chunk.size()) {
    RETURN_IF_ERROR(fut.fs->WriteFile(big, off, chunk));
  }
  const uint32_t kFiles = 8;
  const uint64_t small_bytes = big_bytes / kFiles;
  std::vector<uint32_t> inos;
  for (uint32_t f = 0; f < kFiles; ++f) {
    ASSIGN_OR_RETURN(uint32_t ino, fut.fs->CreateFile("/f" + std::to_string(f)));
    for (uint64_t off = 0; off < small_bytes; off += chunk.size()) {
      RETURN_IF_ERROR(fut.fs->WriteFile(ino, off, chunk));
    }
    inos.push_back(ino);
  }
  RETURN_IF_ERROR(fut.fs->DropCaches());
  fut.ResetMeasurement();

  ReadPhaseRun r;
  std::vector<uint8_t> buf(chunk.size());
  double mark = fut.clock->Now();
  for (uint64_t off = 0; off < big_bytes; off += buf.size()) {
    RETURN_IF_ERROR(fut.fs->ReadFile(big, off, buf).status());
  }
  r.seq_elapsed = fut.clock->Now() - mark;

  RETURN_IF_ERROR(fut.fs->DropCaches());
  mark = fut.clock->Now();
  for (uint64_t off = 0; off < small_bytes; off += buf.size()) {
    for (uint32_t ino : inos) {
      RETURN_IF_ERROR(fut.fs->ReadFile(ino, off, buf).status());
    }
  }
  r.interleaved_elapsed = fut.clock->Now() - mark;
  const BufferCache& cache = fut.fs->cache();
  r.cache_hits = cache.hits();
  r.cache_misses = cache.misses();
  r.prefetch_hits = cache.prefetch_hits();
  r.prefetch_wasted = cache.prefetch_wasted();
  return r;
}

bool ReadPhase() {
  std::printf("\n== Read phase: Table 4/5 read workloads vs channel count ==\n");
  // Every demand read is a submit and a wait; the "sync" rows only turn
  // read-ahead off, so each demand read is waited out before the next.
  std::printf("HP C3010; sync = synchronous demand reads, no read-ahead;\n");
  std::printf("async = demand reads through the queue + per-file read-ahead.\n");
  TextTable t({"File System", "Channels", "Mode", "Seq. read (s)", "Interleaved (s)"});
  // Indexed results we assert on below.
  StatusOr<ReadPhaseRun> lld_sync4 = FailedPreconditionError("not run");
  StatusOr<ReadPhaseRun> lld_async1 = FailedPreconditionError("not run");
  StatusOr<ReadPhaseRun> lld_async4 = FailedPreconditionError("not run");
  StatusOr<ReadPhaseRun> minix_sync4 = FailedPreconditionError("not run");
  StatusOr<ReadPhaseRun> minix_async4 = FailedPreconditionError("not run");
  for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinix}) {
    for (uint32_t channels : {1u, 4u}) {
      for (bool readahead : {false, true}) {
        auto run = RunReadPhase(kind, channels, readahead);
        if (!run.ok()) {
          std::fprintf(stderr, "read phase failed: %s\n", run.status().ToString().c_str());
          return false;
        }
        t.AddRow({FsKindName(kind), std::to_string(channels), readahead ? "async+RA" : "sync",
                  TextTable::Num(run->seq_elapsed, 3),
                  TextTable::Num(run->interleaved_elapsed, 3)});
        if (kind == FsKind::kMinixLld && channels == 4 && !readahead) lld_sync4 = run;
        if (kind == FsKind::kMinixLld && channels == 1 && readahead) lld_async1 = run;
        if (kind == FsKind::kMinixLld && channels == 4 && readahead) lld_async4 = run;
        if (kind == FsKind::kMinix && channels == 4 && !readahead) minix_sync4 = run;
        if (kind == FsKind::kMinix && channels == 4 && readahead) minix_async4 = run;
      }
    }
  }
  t.Print();
  auto print_read_path = [](const char* label, const ReadPhaseRun& run) {
    PrintReadPathStats(label, run.cache_hits, run.cache_misses, run.prefetch_hits,
                       run.prefetch_wasted);
  };
  print_read_path("MINIX LLD 4ch async+RA", *lld_async4);
  print_read_path("MINIX 4ch async+RA", *minix_async4);
  CheckClaim("LLD 4ch: async read-ahead beats sync on sequential read",
             lld_async4->seq_elapsed < lld_sync4->seq_elapsed);
  CheckClaim("LLD 4ch: async read-ahead beats sync on interleaved reads",
             lld_async4->interleaved_elapsed < lld_sync4->interleaved_elapsed);
  CheckClaim("LLD async interleaved reads scale with channels (4 < 1)",
             lld_async4->interleaved_elapsed < lld_async1->interleaved_elapsed);
  CheckClaim("MINIX 4ch: async read-ahead beats sync on interleaved reads",
             minix_async4->interleaved_elapsed < minix_sync4->interleaved_elapsed);
  return true;
}

// --- Channel scaling (mechanical device, cleaner active) -------------------

struct ScalingRun {
  double elapsed = 0;
  double busy_sum_ms = 0;
  uint64_t segments_cleaned = 0;
  std::vector<double> channel_busy_ms;
};

StatusOr<ScalingRun> RunScaling(uint32_t channels) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::HpC3010(64ull << 20, channels), &clock);
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  ASSIGN_OR_RETURN(auto lld, LogStructuredDisk::Format(disk.get(), options));

  ASSIGN_OR_RETURN(Lid list, lld->NewList(kBeginOfListOfLists, ListHints{}));
  const uint64_t num_blocks = lld->TotalDataCapacity() * 7 / 10 / 4096;
  std::vector<Bid> bids;
  std::vector<uint8_t> data(4096, 0x6b);
  Bid pred = kBeginOfList;
  for (uint64_t i = 0; i < num_blocks; ++i) {
    ASSIGN_OR_RETURN(Bid bid, lld->NewBlock(list, pred));
    pred = bid;
    RETURN_IF_ERROR(lld->Write(bid, data));
    bids.push_back(bid);
  }
  RETURN_IF_ERROR(lld->Flush());
  disk->ResetStats();

  Rng rng(97);
  const int kWrites = g_smoke ? 6000 : 12000;
  const double start = clock.Now();
  for (int w = 0; w < kWrites; ++w) {
    RETURN_IF_ERROR(lld->Write(bids[rng.Below(bids.size())], data));
  }
  RETURN_IF_ERROR(lld->Flush());

  ScalingRun r;
  r.elapsed = clock.Now() - start;
  for (size_t c = 0; c < disk->stats().channel_count(); ++c) {
    r.channel_busy_ms.push_back(disk->stats().channel(c).busy_ms);
    r.busy_sum_ms += disk->stats().channel(c).busy_ms;
  }
  r.segments_cleaned = lld->counters().segments_cleaned;
  return r;
}

bool ChannelScaling() {
  std::printf("\n== Channel scaling: cleaner-active overwrites, 1 vs 4 actuators ==\n");
  auto one = RunScaling(1);
  auto four = RunScaling(4);
  if (!one.ok() || !four.ok()) {
    std::fprintf(stderr, "scaling run failed: %s %s\n", one.status().ToString().c_str(),
                 four.status().ToString().c_str());
    return false;
  }
  std::printf("  1 channel:  %.2f s elapsed, %llu segments cleaned\n", one->elapsed,
              static_cast<unsigned long long>(one->segments_cleaned));
  std::printf("  4 channels: %.2f s elapsed, %llu segments cleaned\n", four->elapsed,
              static_cast<unsigned long long>(four->segments_cleaned));
  for (size_t c = 0; c < four->channel_busy_ms.size(); ++c) {
    std::printf("    channel %zu busy: %.0f ms\n", c, four->channel_busy_ms[c]);
  }
  CheckClaim("4 channels give higher aggregate throughput than 1",
             four->elapsed < one->elapsed);
  CheckClaim("channel busy times sum past wall time (true overlap)",
             four->busy_sum_ms > four->elapsed * 1000.0);
  return true;
}

// --- Multi-tenant: scaling and QoS isolation -------------------------------
//
// N tenant sessions — each a full MINIX-on-LLD stack on its own partition —
// share the mechanical device's channel set, interleaved by the cooperative
// tenant scheduler. Each run sets its own tenant count, channel count and
// QoS policy.

struct TenantScalingRun {
  double elapsed = 0;
  uint64_t total_ops = 0;
};

StatusOr<TenantScalingRun> RunTenantScaling(uint32_t tenants, uint32_t channels) {
  MultiTenantParams params;
  params.num_tenants = tenants;
  params.bytes_per_tenant = 32ull << 20;
  params.device = DeviceOptions::HpC3010(0, channels);
  params.qos.policy = QosPolicy::kWeightedShare;
  params.kind = FsKind::kMinixLld;
  params.fs.num_inodes = 1024;
  params.fs.cache_bytes = 1024 * 1024;
  ASSIGN_OR_RETURN(MultiTenantRig rig, MakeMultiTenantRig(params));

  // Fixed per-tenant work: write F files of 64 KB, then read them all back.
  const uint32_t kFiles = g_smoke ? 16 : 64;
  const uint64_t kFileBytes = 64 * 1024;
  TenantScheduler sched;
  struct State {
    uint32_t written = 0;
    uint32_t read = 0;
    std::vector<uint32_t> inos;
  };
  std::vector<std::shared_ptr<State>> states;
  for (TenantSession& t : rig.tenants) {
    auto state = std::make_shared<State>();
    states.push_back(state);
    MinixFs* fs = t.fs.get();
    sched.Add("tenant" + std::to_string(t.id),
              [fs, state, kFiles, kFileBytes]() -> StatusOr<bool> {
      if (state->written < kFiles) {
        ASSIGN_OR_RETURN(uint32_t ino,
                         fs->CreateFile("/w" + std::to_string(state->written)));
        std::vector<uint8_t> data(kFileBytes, static_cast<uint8_t>(state->written));
        RETURN_IF_ERROR(fs->WriteFile(ino, 0, data));
        state->inos.push_back(ino);
        state->written++;
        if (state->written == kFiles) {
          RETURN_IF_ERROR(fs->SyncFs());
          RETURN_IF_ERROR(fs->DropCaches());
        }
        return true;
      }
      std::vector<uint8_t> buf(kFileBytes);
      RETURN_IF_ERROR(fs->ReadFile(state->inos[state->read], 0, buf).status());
      state->read++;
      return state->read < kFiles;
    });
  }
  const double start = rig.clock->Now();
  RETURN_IF_ERROR(sched.RunAll());
  TenantScalingRun r;
  r.elapsed = rig.clock->Now() - start;
  r.total_ops = static_cast<uint64_t>(tenants) * kFiles * 2;
  return r;
}

bool TenantScaling() {
  std::printf("\n== Multi-tenant scaling: tenants x channels (weighted share) ==\n");
  std::printf("Each tenant: its own MINIX-on-LLD stack on a partition of the\n");
  std::printf("shared HP C3010; 64-KB file writes then read-back, tenants\n");
  std::printf("interleaved by the cooperative scheduler.\n");
  TextTable t({"Tenants", "Channels", "Elapsed (s)", "Ops/s"});
  double elapsed[5][5] = {};
  for (uint32_t tenants : {1u, 2u, 4u}) {
    for (uint32_t channels : {1u, 4u}) {
      auto run = RunTenantScaling(tenants, channels);
      if (!run.ok()) {
        std::fprintf(stderr, "tenant scaling failed: %s\n", run.status().ToString().c_str());
        return false;
      }
      elapsed[tenants][channels] = run->elapsed;
      t.AddRow({std::to_string(tenants), std::to_string(channels),
                TextTable::Num(run->elapsed, 3),
                TextTable::Num(static_cast<double>(run->total_ops) / run->elapsed, 1)});
    }
  }
  t.Print();
  CheckClaim("4 tenants on 4 channels beat 4 tenants on 1 channel",
             elapsed[4][4] < elapsed[4][1]);
  CheckClaim("adding tenants on 1 channel costs elapsed time (real contention)",
             elapsed[4][1] > elapsed[1][1]);
  return true;
}

// One aggressor floods the single shared channel with sequential overwrites
// (segment flushes + cleaner traffic) while three victims do demand reads.
// The victim p99 read latency under each dispatch policy is the PR's
// headline number: weighted share must beat FIFO-no-QoS.

struct AggressorRun {
  double victim_p50_ms = 0;   // Worst victim.
  double victim_p99_ms = 0;   // Worst victim.
  double victim_mean_wait_ms = 0;
  uint64_t victim_starved = 0;
  double aggressor_mb = 0;
  DiskStats stats;  // Full per-tenant breakdown for reporting.
  uint32_t sector_size = 512;
};

StatusOr<AggressorRun> RunAggressor(QosPolicy policy) {
  MultiTenantParams params;
  params.num_tenants = 4;
  params.bytes_per_tenant = 32ull << 20;
  params.device = DeviceOptions::HpC3010(0, /*channels=*/1);
  // FIFO ordering isolates the QoS layer: with kNone the victim read waits
  // out every aggressor write queued ahead of it.
  params.device.queue_policy = QueuePolicy::kFifo;
  params.qos.policy = policy;
  params.kind = FsKind::kMinixLld;
  params.fs.num_inodes = 1024;
  params.fs.cache_bytes = 1024 * 1024;
  ASSIGN_OR_RETURN(MultiTenantRig rig, MakeMultiTenantRig(params));

  // Setup (unmeasured): tenant 0 is the aggressor with one large file it
  // will overwrite forever; tenants 1-3 each get files to demand-read.
  const uint64_t kFloodBytes = 8ull << 20;
  const uint32_t kVictimFiles = 4;
  const uint64_t kVictimFileBytes = 256 * 1024;
  std::vector<uint8_t> chunk(256 * 1024, 0x42);
  MinixFs* aggressor = rig.tenants[0].fs.get();
  ASSIGN_OR_RETURN(uint32_t flood, aggressor->CreateFile("/flood"));
  for (uint64_t off = 0; off < kFloodBytes; off += chunk.size()) {
    RETURN_IF_ERROR(aggressor->WriteFile(flood, off, chunk));
  }
  RETURN_IF_ERROR(aggressor->SyncFs());
  std::vector<std::vector<uint32_t>> victim_inos(rig.tenants.size());
  for (size_t v = 1; v < rig.tenants.size(); ++v) {
    MinixFs* fs = rig.tenants[v].fs.get();
    for (uint32_t f = 0; f < kVictimFiles; ++f) {
      ASSIGN_OR_RETURN(uint32_t ino, fs->CreateFile("/r" + std::to_string(f)));
      for (uint64_t off = 0; off < kVictimFileBytes; off += chunk.size()) {
        RETURN_IF_ERROR(fs->WriteFile(ino, off, chunk));
      }
      victim_inos[v].push_back(ino);
    }
    RETURN_IF_ERROR(fs->SyncFs());
    RETURN_IF_ERROR(fs->DropCaches());
  }
  rig.ResetMeasurement();

  // Measured phase: round-robin slices. The aggressor overwrites one 256-KB
  // chunk per slice (wrapping over the flood file, so the cleaner stays
  // busy); each victim reads one 8-KB chunk per slice.
  const uint32_t kAggressorChunks = g_smoke ? 48 : 160;
  const uint32_t kVictimReads = g_smoke ? 24 : 96;
  TenantScheduler sched;
  auto wrote = std::make_shared<uint32_t>(0);
  sched.Add("aggressor", [&, wrote]() -> StatusOr<bool> {
    const uint64_t off = (*wrote * chunk.size()) % kFloodBytes;
    RETURN_IF_ERROR(aggressor->WriteFile(flood, off, chunk));
    (*wrote)++;
    return *wrote < kAggressorChunks;
  });
  for (size_t v = 1; v < rig.tenants.size(); ++v) {
    MinixFs* fs = rig.tenants[v].fs.get();
    const std::vector<uint32_t>* inos = &victim_inos[v];
    auto done = std::make_shared<uint32_t>(0);
    sched.Add("victim" + std::to_string(v),
              [fs, inos, done, kVictimFileBytes, kVictimReads]() -> StatusOr<bool> {
      const uint64_t kReadBytes = 8192;
      const uint32_t reads_per_file =
          static_cast<uint32_t>(kVictimFileBytes / kReadBytes);
      const uint32_t ino = (*inos)[(*done / reads_per_file) % inos->size()];
      const uint64_t off = (*done % reads_per_file) * kReadBytes;
      std::vector<uint8_t> buf(kReadBytes);
      RETURN_IF_ERROR(fs->ReadFile(ino, off, buf).status());
      (*done)++;
      return *done < kVictimReads;
    });
  }
  RETURN_IF_ERROR(sched.RunAll());

  AggressorRun r;
  const DiskStats& stats = rig.disk->stats();
  uint64_t victim_ops = 0;
  double victim_wait = 0;
  for (size_t v = 1; v < rig.tenants.size() && v < stats.tenant_count(); ++v) {
    const TenantStats& t = stats.tenant(v);
    r.victim_p50_ms = std::max(r.victim_p50_ms, t.read_latency.Quantile(0.5));
    r.victim_p99_ms = std::max(r.victim_p99_ms, t.read_latency.Quantile(0.99));
    r.victim_starved += t.starved_requests;
    victim_ops += t.read_ops + t.write_ops;
    victim_wait += t.queue_wait_ms;
  }
  r.victim_mean_wait_ms = victim_ops == 0 ? 0.0 : victim_wait / static_cast<double>(victim_ops);
  if (stats.tenant_count() > 0) {
    r.aggressor_mb = static_cast<double>(stats.tenant(0).sectors_written) *
                     rig.disk->sector_size() / (1024.0 * 1024.0);
  }
  r.stats = stats;
  r.sector_size = rig.disk->sector_size();
  return r;
}

bool QosIsolation() {
  std::printf("\n== QoS isolation: 1 write-flood aggressor vs 3 readers, 1 channel ==\n");
  std::printf("Victim latency is the worst per-tenant read latency among the\n");
  std::printf("three readers; 'none' = legacy FIFO dispatch, no QoS.\n");
  TextTable t({"Policy", "Victim p50 (ms)", "Victim p99 (ms)", "Mean wait (ms)", "Starved",
               "Aggressor MB"});
  struct Row {
    const char* name;
    QosPolicy policy;
  };
  AggressorRun by_policy[3];
  const Row rows[3] = {{"none", QosPolicy::kNone},
                       {"share", QosPolicy::kWeightedShare},
                       {"deadline", QosPolicy::kDeadline}};
  for (int i = 0; i < 3; ++i) {
    auto run = RunAggressor(rows[i].policy);
    if (!run.ok()) {
      std::fprintf(stderr, "qos isolation failed: %s\n", run.status().ToString().c_str());
      return false;
    }
    by_policy[i] = *run;
    t.AddRow({rows[i].name, TextTable::Num(run->victim_p50_ms, 3),
              TextTable::Num(run->victim_p99_ms, 3), TextTable::Num(run->victim_mean_wait_ms, 3),
              std::to_string(run->victim_starved), TextTable::Num(run->aggressor_mb, 1)});
  }
  t.Print();
  PrintTenantStats("weighted share", by_policy[1].stats, by_policy[1].sector_size);
  CheckClaim("weighted share cuts victim p99 vs FIFO-no-QoS",
             by_policy[1].victim_p99_ms < by_policy[0].victim_p99_ms);
  CheckClaim("deadline dispatch also cuts victim p99 vs FIFO-no-QoS",
             by_policy[2].victim_p99_ms < by_policy[0].victim_p99_ms);
  return true;
}

// --- Verdict ---------------------------------------------------------------

void Verdict(const std::vector<std::vector<SmallRow>>& t4,
             const std::vector<std::vector<LargeFileResult>>& t5,
             const std::vector<std::vector<DurableCosts>>& t6) {
  std::printf("\n== Where LLD's win over update-in-place moves on NVMe ==\n");
  auto ratio_line = [](const char* what, double hp, double nv) {
    const char* tag = nv < 1.0 ? "INVERTS" : (nv < hp * 0.67 ? "SHRINKS" : "HOLDS");
    std::printf("  %-38s HP C3010 %5.1fx -> NVMe %5.1fx  [%s]\n", what, hp, nv, tag);
  };
  ratio_line("small-file create (LLD/MINIX)", t4[0][0].create / t4[0][1].create,
             t4[1][0].create / t4[1][1].create);
  ratio_line("large-file random write (LLD/MINIX)",
             t5[0][0].write_rand_kbps / t5[0][1].write_rand_kbps,
             t5[1][0].write_rand_kbps / t5[1][1].write_rand_kbps);
  ratio_line("large-file random read (LLD/MINIX)",
             t5[0][0].read_rand_kbps / t5[0][1].read_rand_kbps,
             t5[1][0].read_rand_kbps / t5[1][1].read_rand_kbps);
  // Durable costs are "lower is better": invert so >1 still favours LLD.
  ratio_line("durable overwrite cost (MINIX/LLD)", t6[0][1].overwrite_ms / t6[0][0].overwrite_ms,
             t6[1][1].overwrite_ms / t6[1][0].overwrite_ms);
  std::printf(
      "\nReading: LLD's mechanical-disk advantage comes from batching seeks\n"
      "away; with no arm the batching still helps (fewer, larger requests)\n"
      "but the multiplier drops toward the cleaner's write amplification.\n");
}

int Run() {
  Table3();
  std::vector<std::vector<SmallRow>> t4;
  std::vector<std::vector<LargeFileResult>> t5;
  std::vector<std::vector<DurableCosts>> t6;
  if (!Table4(&t4) || !Table5(&t5) || !Table6(&t6)) {
    return 1;
  }
  Verdict(t4, t5, t6);
  if (!ReadPhase()) {
    return 1;
  }
  if (!ChannelScaling()) {
    return 1;
  }
  if (!TenantScaling()) {
    return 1;
  }
  if (!QosIsolation()) {
    return 1;
  }
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      ld::g_smoke = true;
    }
  }
  ld::PrintBanner("Tables 3-6 on two geometries — HP C3010 vs NVMe",
                  "The paper's evaluation re-run on a mechanical disk and an\n"
                  "NVMe-style device, plus multi-actuator channel scaling with\n"
                  "the cleaner active.");
  return ld::Run();
}
