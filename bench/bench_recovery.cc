// Recovery experiment (paper §4.2 and §5.2): after a failure LLD reads all
// segment summaries in a single sweep and rebuilds its data structures; the
// paper measured 12 seconds for MINIX LLD on the 400-MB partition (788
// summary blocks). A Loge-style controller instead tags every sector and
// must read the whole disk, which the paper argues is at least an order of
// magnitude slower. A clean shutdown's checkpoint makes restart nearly free.
//
// Beyond the paper: incremental checkpoints (delta frames every 8 sealed
// segments) bound crash recovery by the log written since the last frame
// instead of the whole partition. The second table sweeps the log size and
// shows the recovery-time curve flat with checkpoints on and growing with
// checkpoints off.

#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/data_gen.h"

namespace ld {
namespace {

// Writes `files` 64-KB files through the MINIX layer and syncs, so the LLD
// log holds a population proportional to `files`.
Status Populate(FsUnderTest* fut, int files) {
  DataGenerator gen(3, 0.6);
  const std::vector<uint8_t> data = gen.Make(64 * 1024);
  for (int i = 0; i < files; ++i) {
    ASSIGN_OR_RETURN(const uint32_t ino, fut->fs->CreateFile("/f" + std::to_string(i)));
    RETURN_IF_ERROR(fut->fs->WriteFile(ino, 0, data));
  }
  return fut->fs->SyncFs();
}

// Reopens the LLD over the populated disk as if the machine had crashed (the
// live instance is simply abandoned; only durable state is read) and returns
// the recovery report, whose `seconds` is the simulated recovery time.
StatusOr<RecoveryReport> MeasureCrashRecovery(FsUnderTest* fut, const LldOptions& options) {
  ASSIGN_OR_RETURN(auto reopened, LogStructuredDisk::Open(fut->disk.get(), options));
  return reopened->last_recovery();
}

int Run() {
  SetupParams params;  // 400-MB partition, 0.5-MB segments: the paper's rig.
  // The headline experiment reproduces the paper: no checkpoints during
  // normal operation, one sweep over every summary after the crash.
  params.fs.lld.checkpoint_interval_segments = 0;
  auto fut = MakeFsUnderTest(FsKind::kMinixLld, params);
  if (!fut.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", fut.status().ToString().c_str());
    return 1;
  }

  // Populate with a realistic file population (~120 MB), then sync.
  if (!Populate(&*fut, 2000).ok()) {
    std::fprintf(stderr, "population failed\n");
    return 1;
  }

  // ---- Crash: reopen without a checkpoint (one-sweep recovery). ----
  RecoveryReport crash_report;
  {
    auto reopened = LogStructuredDisk::Open(fut->disk.get(), params.fs.lld);
    if (!reopened.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n", reopened.status().ToString().c_str());
      return 1;
    }
    crash_report = (*reopened)->last_recovery();
  }

  // ---- Clean shutdown: reopen from the checkpoint. ----
  RecoveryReport checkpoint_report;
  {
    auto lld = LogStructuredDisk::Open(fut->disk.get(), params.fs.lld);
    if (!lld.ok()) {
      return 1;
    }
    if (!(*lld)->Shutdown().ok()) {
      return 1;
    }
    auto reopened = LogStructuredDisk::Open(fut->disk.get(), params.fs.lld);
    if (!reopened.ok()) {
      return 1;
    }
    checkpoint_report = (*reopened)->last_recovery();
  }

  // ---- Loge-style model: recovery must read the entire disk. ----
  // Sequential read of every sector at media rate (generous to Loge).
  const DiskGeometry geo = DiskGeometry::HpC3010Partition(params.device.capacity_bytes);
  const double media_kbps = geo.sectors_per_track * geo.sector_size / 1024.0 /
                            (geo.RotationPeriodMs() / 1000.0);
  const double loge_seconds = geo.CapacityBytes() / 1024.0 / media_kbps;
  const double loge_full_disk_seconds =
      DiskGeometry::HpC3010().CapacityBytes() / 1024.0 / media_kbps;

  TextTable t({"Strategy", "What is read", "Simulated time"});
  t.AddRow({"LLD one-sweep recovery",
            TextTable::Num(static_cast<double>(crash_report.summaries_scanned)) +
                " segment summaries (paper: 788)",
            TextTable::Num(crash_report.seconds, 1) + " s (paper: 12 s incl. MINIX init)"});
  t.AddRow({"LLD checkpoint restart", "checkpoint region",
            TextTable::Num(checkpoint_report.seconds, 2) + " s"});
  t.AddRow({"Loge-style (modeled)", "every sector of the 400-MB partition",
            TextTable::Num(loge_seconds, 1) + " s"});
  t.AddRow({"Loge-style, full 2-GB disk (modeled)", "every sector",
            TextTable::Num(loge_full_disk_seconds, 1) + " s"});
  t.Print();

  std::printf("\nRecovery reports:\n");
  PrintRecoveryReport("crash (one sweep)", crash_report);
  PrintRecoveryReport("clean shutdown", checkpoint_report);

  // ---- Recovery time vs. log written since the last checkpoint. ----
  // Checkpoint-off recovery reads every summary on the partition, so its
  // cost is the paper's fixed sweep — proportional to partition size, not to
  // how much of it is populated. Each curve point therefore sizes the
  // partition with the data it holds (3x headroom, as a deployment would)
  // and crash-reopens a fresh rig: the full sweep grows linearly with the
  // log while the incremental chain replays only the window since the
  // newest frame and stays bounded far below it.
  constexpr uint32_t kIntervalOn = 8;
  struct CurvePoint {
    int files;
    RecoveryReport off;
    RecoveryReport on;
  };
  std::vector<CurvePoint> curve;
  for (const int files : {250, 500, 1000, 2000}) {
    CurvePoint point;
    point.files = files;
    for (const bool checkpoints_on : {false, true}) {
      SetupParams p = params;
      p.device = DeviceOptions::HpC3010(static_cast<uint64_t>(files) * 64 * 1024 * 3);
      p.fs.lld.checkpoint_interval_segments = checkpoints_on ? kIntervalOn : 0;
      auto rig = MakeFsUnderTest(FsKind::kMinixLld, p);
      if (!rig.ok() || !Populate(&*rig, files).ok()) {
        std::fprintf(stderr, "curve setup failed (files=%d)\n", files);
        return 1;
      }
      auto report = MeasureCrashRecovery(&*rig, p.fs.lld);
      if (!report.ok()) {
        std::fprintf(stderr, "curve recovery failed (files=%d): %s\n", files,
                     report.status().ToString().c_str());
        return 1;
      }
      (checkpoints_on ? point.on : point.off) = *report;
    }
    curve.push_back(point);
  }

  std::printf("\nRecovery time vs. log size (crash reopen; ckpt interval %u segments):\n",
              kIntervalOn);
  TextTable c({"Log written (MB)", "Partition (MB)", "Ckpt off (s)", "off: summaries scanned",
               "Ckpt on (s)", "on: mode"});
  for (const CurvePoint& p : curve) {
    c.AddRow({TextTable::Num(p.files * 64.0 / 1024.0, 0),
              TextTable::Num(p.files * 64.0 * 3 / 1024.0, 0),
              TextTable::Num(p.off.seconds, 2),
              TextTable::Num(static_cast<double>(p.off.summaries_scanned)),
              TextTable::Num(p.on.seconds, 2),
              std::string(ToString(p.on.mode)) + " (" +
                  TextTable::Num(static_cast<double>(p.on.summaries_scanned)) + " scanned)"});
  }
  c.Print();

  const CurvePoint& first = curve.front();
  const CurvePoint& last = curve.back();

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("one-sweep recovery within 2x of the paper's 12 s (6..24 s)",
             crash_report.seconds > 6 && crash_report.seconds < 24);
  CheckClaim("summary count within 20% of the paper's 788 (400-MB partition, 0.5-MB segments)",
             crash_report.summaries_scanned > 630 && crash_report.summaries_scanned < 950);
  CheckClaim("LLD recovery at least 10x faster than a Loge-style whole-disk scan (full disk)",
             loge_full_disk_seconds > 10 * crash_report.seconds);
  CheckClaim("checkpoint restart at least 10x faster than log recovery",
             checkpoint_report.seconds * 10 < crash_report.seconds);
  CheckClaim("checkpoint restart really used the checkpoint", checkpoint_report.used_checkpoint);
  CheckClaim("checkpoint-off full sweep grows linearly with the log (8x log -> >4x time)",
             last.off.seconds > 4.0 * first.off.seconds);
  CheckClaim("incremental checkpoints bound recovery (on-curve slope < 30% of off-curve slope)",
             last.on.seconds - first.on.seconds <
                 0.3 * (last.off.seconds - first.off.seconds));
  CheckClaim("incremental chain actually used at the largest point",
             last.on.used_checkpoint && last.on.mode == RecoveryMode::kCheckpointChain);
  bool on_always_faster = true;
  for (const CurvePoint& p : curve) {
    on_always_faster = on_always_faster && p.on.seconds < p.off.seconds;
  }
  CheckClaim("bounded recovery beats the full sweep at every point", on_always_faster);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Recovery — one sweep over the segment summaries (paper §4.2, §5.2)",
                  "No checkpoints during normal operation; after a crash LLD reads\n"
                  "every summary once. Loge must read the whole disk; a clean\n"
                  "shutdown's checkpoint makes restart nearly free. Incremental\n"
                  "checkpoints (beyond the paper) bound recovery by the log written\n"
                  "since the last frame: flat curve vs. the full sweep's growth.");
  return ld::Run();
}
