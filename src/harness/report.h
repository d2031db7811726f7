// Reporting helpers shared by the benchmark binaries: every bench prints a
// banner explaining which paper table/figure it regenerates, and rows that
// put the paper's number (when the text gives one) next to the measured one.

#ifndef SRC_HARNESS_REPORT_H_
#define SRC_HARNESS_REPORT_H_

#include <string>

#include "src/disk/block_device.h"
#include "src/lld/lld_maintenance.h"
#include "src/lld/reports.h"

namespace ld {

// Prints the standard bench banner.
void PrintBanner(const std::string& experiment_id, const std::string& description);

// Prints one claim check, "  [PASS] <claim>" or "  [FAIL] <claim>", and
// remembers a failure for ClaimsExitCode.
void CheckClaim(const char* claim, bool ok);

// A bench's exit status: 1 once any CheckClaim in this process has failed,
// otherwise 0.
int ClaimsExitCode();

// Formats "measured (paper: X, ratio R)" comparison text; paper <= 0 means
// the paper's table did not survive into the available text, so only the
// measured value is shown.
std::string Compare(double measured, double paper, const std::string& unit, int precision = 0);

// Prints one line of request-queue counters for a device: requests queued,
// adjacent-request merges, queue-depth high-water mark, and mean wait before
// service. `label` names the configuration the stats belong to.
void PrintDiskQueueStats(const std::string& label, const DiskStats& stats);

// Write amplification factor: media bytes the device absorbed per user
// payload byte the LD accepted; 0 while there are no user bytes. It can dip
// below 1 legitimately: compression shrinks the stored form, NVRAM absorbs
// partial flushes, and user bytes sit in the open segment until a seal.
double WriteAmplification(uint64_t media_bytes, uint64_t user_bytes);

// Prints one line of device-health counters: requests that failed at the
// device, extra attempts issued by the ReliableIo retry shim, and requests
// that succeeded only after retrying. All zeros on a fault-free run. When
// the device wrote anything, a second line sets its media bytes against
// the user bytes and segment wear `lld` counted over the same window.
void PrintDiskHealthStats(const std::string& label, const DiskStats& stats, uint32_t sector_size,
                          const LldCounters& lld);

// Prints one line of buffer-cache read-path counters: lookups served from
// cache vs. from the device, demand lookups absorbed by a read-ahead fill,
// and read-ahead fills that were dropped without ever being referenced.
void PrintReadPathStats(const std::string& label, uint64_t hits, uint64_t misses,
                        uint64_t prefetch_hits, uint64_t prefetch_wasted);

// Prints one line per tenant from the shared device's per-tenant
// accounting: ops, bytes moved, mean queue wait, read-latency p50/p99, and
// requests that waited past the starvation threshold. No-op when the device
// recorded no tenant activity.
void PrintTenantStats(const std::string& label, const DiskStats& stats, uint32_t sector_size);

// Prints one line summarizing how an Open() rebuilt its state: recovery
// mode, typed fallback reason, scan shape, and the headline counters.
void PrintRecoveryReport(const std::string& label, const RecoveryReport& report);

// Prints a two-line summary of a background maintenance scheduler: slices
// run per duty, idle-gate skips, and the accumulated scrub/rebuild reports.
void PrintMaintenanceStats(const std::string& label, const MaintenanceStats& stats);

}  // namespace ld

#endif  // SRC_HARNESS_REPORT_H_
