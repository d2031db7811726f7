#include "src/disk/device_factory.h"

#include "src/disk/mem_disk.h"
#include "src/disk/nvme_device.h"
#include "src/disk/sim_disk.h"

namespace ld {

DeviceOptions DeviceOptions::HpC3010(uint64_t partition_bytes, uint32_t channels) {
  DeviceOptions options;
  options.capacity_bytes = partition_bytes;
  options.channels = channels;
  return options;
}

DeviceOptions DeviceOptions::Nvme(uint64_t capacity_bytes) {
  DeviceOptions options;
  options.backend = DeviceBackend::kNvme;
  options.capacity_bytes = capacity_bytes;
  return options;
}

DeviceOptions DeviceOptions::Mem(uint64_t capacity_bytes) {
  DeviceOptions options;
  options.backend = DeviceBackend::kMem;
  options.capacity_bytes = capacity_bytes;
  return options;
}

std::unique_ptr<BlockDevice> MakeDevice(const DeviceOptions& options, SimClock* clock) {
  std::unique_ptr<BlockDevice> device;
  switch (options.backend) {
    case DeviceBackend::kHpC3010:
      device = std::make_unique<SimDisk>(DiskGeometry::HpC3010Partition(options.capacity_bytes),
                                         clock, options.channels);
      break;
    case DeviceBackend::kNvme:
      device = std::make_unique<NvmeDevice>(options.capacity_bytes, clock);
      break;
    case DeviceBackend::kMem:
      device = std::make_unique<MemDisk>(options.capacity_bytes / 512, 512, clock);
      break;
  }
  device->set_queue_policy(options.queue_policy);
  device->set_qos(options.qos);
  return device;
}

}  // namespace ld
