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
#include "src/disk/nvme_device.h"

namespace ld {

enum class DeviceBackend {
  kHpC3010,  // Mechanical SimDisk with the paper's HP C3010 geometry.
  kNvme,     // NvmeDevice: fixed latency + shared bandwidth, no mechanics.
  kMem,      // MemDisk: zero-latency, for structural tests.
};

struct DeviceOptions {
  DeviceBackend backend = DeviceBackend::kHpC3010;

  // Mechanical geometry (kHpC3010 only).
  DiskGeometry geometry = DiskGeometry::HpC3010();
  // Independent actuators/channels (kHpC3010 only; NVMe models its
  // parallelism through bandwidth sharing instead).
  uint32_t channels = 1;

  // NVMe timing parameters (kNvme only). nvme.capacity_bytes == 0 means
  // "match geometry.CapacityBytes()" so a bench can re-run the same
  // workload on both backends at equal capacity.
  NvmeConfig nvme;

  // Memory-disk shape (kMem only).
  uint64_t mem_num_sectors = 0;
  uint32_t mem_sector_size = 512;

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

  // A zero-latency memory disk of `num_sectors` x `sector_size`.
  static DeviceOptions Mem(uint64_t num_sectors, uint32_t sector_size = 512);
};

// Builds the device described by `options`. The clock must outlive the
// device.
std::unique_ptr<BlockDevice> MakeDevice(const DeviceOptions& options, SimClock* clock);

}  // namespace ld

#endif  // SRC_DISK_DEVICE_FACTORY_H_
