// Multi-tenant harness: N tenant sessions — each a full MINIX-on-LLD (or
// classic/FFS) stack on its own PartitionDevice slice — sharing one
// simulated device, its channel set, and its clock. A cooperative
// round-robin scheduler interleaves per-tenant workload steps on the shared
// clock, so tenants contend for channel time exactly the way concurrent LD
// clients would on real hardware; the device's QoS dispatch layer
// (src/disk/qos.h) arbitrates between them.

#ifndef SRC_HARNESS_TENANTS_H_
#define SRC_HARNESS_TENANTS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/disk/partition_device.h"
#include "src/harness/setup.h"

namespace ld {

// One tenant's full stack. Declaration order matters for destruction: the
// file system (and its LLD) must die before the partition they run on.
struct TenantSession {
  TenantId id = kDefaultTenant;
  // Slice of the shared device, and the only layer that knows `id`: it
  // labels every request the session's LLD and file system send through it.
  std::unique_ptr<PartitionDevice> part;
  std::unique_ptr<LogStructuredDisk> lld;  // Null for non-LD kinds.
  std::unique_ptr<MinixFs> fs;
};

struct MultiTenantParams {
  uint32_t num_tenants = 4;
  // Per-tenant slice; the shared device's capacity is num_tenants * this.
  uint64_t bytes_per_tenant = 64ull << 20;
  // Backend/channel/queue knobs for the shared device. Geometry (and an
  // unset NVMe capacity) is derived from the total rig size; the qos field
  // here is overwritten from `qos` below.
  DeviceOptions device = DeviceOptions::HpC3010(0);
  // Dispatch policy between tenants. num_tenants is overwritten with the
  // rig's tenant count so Active() reflects the actual session count.
  QosConfig qos;
  FsKind kind = FsKind::kMinixLld;
  // File-system knobs for every tenant stack (partition_bytes/device fields
  // are ignored — the rig provides those). Sessions get no background
  // maintenance: a scheduler that `maintenance` or LD_MAINT asks for is
  // dropped, which detaches it, so each session's cleaning bills to its own
  // partition's tenant and its checkpoint frames ride the seal.
  SetupParams fs;
};

// N sessions over one device. Movable; destruction tears down sessions
// before the shared device.
struct MultiTenantRig {
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<BlockDevice> disk;  // Shared by all sessions.
  std::vector<TenantSession> tenants;

  // Resets the clock and every per-run counter (device global/channel/tenant
  // stats, LLD counters, fs + cache stats) so a measurement phase starts
  // from zero.
  void ResetMeasurement();
};

StatusOr<MultiTenantRig> MakeMultiTenantRig(const MultiTenantParams& params);

// Cooperative round-robin multiplexer for tenant workloads on the shared
// sim clock. Each tenant registers a step function doing one bounded slice
// of its workload; RunAll cycles through live tenants until every step
// reports completion. Because the simulation is single-threaded, this
// interleaving *is* the concurrency: each slice queues device work that
// contends with the other tenants' in-flight requests.
class TenantScheduler {
 public:
  // Returns true while the tenant has more work, false when done.
  using Step = std::function<StatusOr<bool>()>;

  void Add(std::string name, Step step);

  // Round-robins until all tenants finish. Fails fast on the first step
  // error, naming the tenant.
  Status RunAll();

  size_t size() const { return entries_.size(); }
  const std::string& name(size_t i) const { return entries_[i].name; }
  // Number of slices the tenant ran before finishing.
  uint64_t steps_run(size_t i) const { return entries_[i].steps; }

 private:
  struct Entry {
    std::string name;
    Step step;
    bool done = false;
    uint64_t steps = 0;
  };
  std::vector<Entry> entries_;
};

}  // namespace ld

#endif  // SRC_HARNESS_TENANTS_H_
