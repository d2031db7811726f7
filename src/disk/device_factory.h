// Backend-agnostic device construction. Everything outside src/disk/ builds
// devices through DeviceOptions + MakeDevice and talks to them as
// BlockDevice — benches and the harness select a backend (mechanical HP
// C3010, NVMe-style flash, zero-latency memory) by option, never by
// concrete type.

#ifndef SRC_DISK_DEVICE_FACTORY_H_
#define SRC_DISK_DEVICE_FACTORY_H_

#include <memory>

#include "src/disk/block_device.h"
#include "src/disk/geometry.h"

namespace ld {

enum class DeviceBackend {
  kHpC3010,  // Mechanical SimDisk with the paper's HP C3010 geometry.
  kNvme,     // NvmeDevice: fixed latency + shared bandwidth, no mechanics.
  kMem,      // MemDisk: zero-latency, for structural tests.
};

struct DeviceOptions {
  DeviceBackend backend = DeviceBackend::kHpC3010;

  // Size of every backend. The HP C3010 rounds it up to whole cylinders of
  // its geometry (DiskGeometry::HpC3010Partition); the NVMe and memory
  // devices hold exactly this many bytes in 512-byte sectors.
  uint64_t capacity_bytes = DiskGeometry::HpC3010().CapacityBytes();
  // Independent actuators/channels (kHpC3010 only; NVMe models its
  // parallelism through bandwidth sharing instead).
  uint32_t channels = 1;

  // Queue policy applied to any backend that has a queue; each backend keeps
  // its own queue depth.
  QueuePolicy queue_policy = QueuePolicy::kCScan;

  // Between-tenants dispatch policy (see src/disk/qos.h). The default
  // (kNone / one tenant) leaves the legacy schedule untouched.
  QosConfig qos;

  // --- Convenience constructors -------------------------------------------

  // The paper's 400-MB partition of the HP C3010 (or any size), with
  // `channels` independent actuators.
  static DeviceOptions HpC3010(uint64_t partition_bytes, uint32_t channels = 1);

  // An NVMe device of `capacity_bytes`.
  static DeviceOptions Nvme(uint64_t capacity_bytes);

  // A zero-latency memory disk of `capacity_bytes`.
  static DeviceOptions Mem(uint64_t capacity_bytes);
};

// Builds the device described by `options`. The clock must outlive the
// device.
std::unique_ptr<BlockDevice> MakeDevice(const DeviceOptions& options, SimClock* clock);

}  // namespace ld

#endif  // SRC_DISK_DEVICE_FACTORY_H_
