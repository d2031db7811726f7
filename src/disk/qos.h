// Multi-tenant request context and QoS dispatch configuration.
//
// The paper presents the logical disk as a *service* interface between file
// management and disk management (§2). Once several file systems share one
// device, the queue layer needs to know which session each request belongs
// to — otherwise a tenant's segment flush or cleaner batch monopolizes the
// arm and every other tenant's demand reads starve behind it. Each request
// carries a TenantId as sticky per-device request context: a session's
// PartitionDevice labels everything its file system and LLD send through
// it, and a MaintenanceScheduler labels the background I/O of the LLD it is
// attached to. The queueing devices consult a QosConfig to decide dispatch
// order between tenants.
//
// QoS is strictly a *between-tenants* policy: with one tenant (or policy
// kNone) the devices run their original C-SCAN/FIFO batch scheduling code
// unchanged, so single-tenant runs are byte-identical whether or not a QoS
// policy is configured.

#ifndef SRC_DISK_QOS_H_
#define SRC_DISK_QOS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ld {

// Identifies the session a request belongs to. Dense small integers: tenant
// t indexes QosConfig::weights and DiskStats::tenant(t).
using TenantId = uint32_t;
inline constexpr TenantId kDefaultTenant = 0;
// Sentinel for "no maintenance tenant registered" in DiskStats: tenant ids
// are dense small integers, so the all-ones value can never collide with a
// real session.
inline constexpr TenantId kNoMaintenanceTenant = 0xffffffffu;

// How a queueing device orders requests *between* tenants. Within a tenant
// the device's QueuePolicy (FIFO/C-SCAN) still applies.
enum class QosPolicy {
  kNone,           // Single-client behaviour: one global batch schedule.
  kWeightedShare,  // Weighted fair queueing over per-tenant virtual time.
  kDeadline,       // Earliest deadline first (reads get tight deadlines).
};

// Target service deadlines for kDeadline, measured from submit time. Reads
// are latency-sensitive; writes (segment flushes) are not.
inline constexpr double kQosReadDeadlineMs = 20.0;
inline constexpr double kQosWriteDeadlineMs = 200.0;
// Dispatch horizon: under QoS a channel only commits work up to this far
// ahead of the current clock, creating preemption points between large
// transfers.
inline constexpr double kQosSliceMs = 4.0;
// Under QoS large transfers are serviced in chunks of at most this size, so
// one tenant's 512 KB segment write cannot occupy the arm in one piece.
inline constexpr uint32_t kQosChunkKb = 64;
// A request that waits longer than this before service counts as starved in
// its tenant's stats.
inline constexpr double kStarvationThresholdMs = 100.0;

struct QosConfig {
  QosPolicy policy = QosPolicy::kNone;
  // Number of tenant sessions sharing the device. Dispatch only deviates
  // from the legacy path when more than one tenant is configured.
  uint32_t num_tenants = 1;
  // Per-tenant weights for kWeightedShare; missing entries default to 1.
  std::vector<uint32_t> weights;

  // True when dispatch should use the QoS path at all.
  bool Active() const { return policy != QosPolicy::kNone && num_tenants > 1; }

  uint32_t WeightOf(TenantId t) const {
    if (t < weights.size() && weights[t] > 0) {
      return weights[t];
    }
    return 1;
  }
};

// Fixed-size log-bucket latency histogram (√2-wide buckets over microseconds,
// covering ~1 µs .. ~4000 s). Cheap enough to keep per tenant per device and
// good to ~±19% on any quantile, which is plenty for p50/p99 reporting.
class LatencyHistogram {
 public:
  void Add(double ms);
  // Returns the representative latency (ms) of the bucket holding the q-th
  // quantile sample (q in [0,1]); 0 when empty.
  double Quantile(double q) const;
  uint64_t count() const { return count_; }
  double total_ms() const { return total_ms_; }
  double MeanMs() const { return count_ == 0 ? 0.0 : total_ms_ / static_cast<double>(count_); }

 private:
  static constexpr size_t kBuckets = 64;
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double total_ms_ = 0.0;
};

// Per-tenant activity breakdown a queueing device keeps alongside its global
// DiskStats. Latencies are end-to-end (queue wait + service).
struct TenantStats {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t sectors_read = 0;
  uint64_t sectors_written = 0;
  double queue_wait_ms = 0.0;     // Time this tenant's requests waited.
  double busy_ms = 0.0;           // Service time consumed by this tenant.
  uint64_t starved_requests = 0;  // Waited past kStarvationThresholdMs.
  LatencyHistogram read_latency;
  LatencyHistogram write_latency;
};

}  // namespace ld

#endif  // SRC_DISK_QOS_H_
