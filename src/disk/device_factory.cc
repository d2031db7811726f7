#include "src/disk/device_factory.h"

#include "src/disk/mem_disk.h"
#include "src/disk/sim_disk.h"

namespace ld {

DeviceOptions DeviceOptions::HpC3010(uint64_t partition_bytes, uint32_t channels) {
  DeviceOptions options;
  options.backend = DeviceBackend::kHpC3010;
  options.geometry = DiskGeometry::HpC3010Partition(partition_bytes);
  options.channels = channels;
  return options;
}

DeviceOptions DeviceOptions::Nvme(uint64_t capacity_bytes) {
  DeviceOptions options;
  options.backend = DeviceBackend::kNvme;
  options.nvme.capacity_bytes = capacity_bytes;
  return options;
}

DeviceOptions DeviceOptions::Mem(uint64_t num_sectors, uint32_t sector_size) {
  DeviceOptions options;
  options.backend = DeviceBackend::kMem;
  options.mem_num_sectors = num_sectors;
  options.mem_sector_size = sector_size;
  return options;
}

std::unique_ptr<BlockDevice> MakeDevice(const DeviceOptions& options, SimClock* clock) {
  std::unique_ptr<BlockDevice> device;
  switch (options.backend) {
    case DeviceBackend::kHpC3010:
      device = std::make_unique<SimDisk>(options.geometry, clock, options.channels);
      break;
    case DeviceBackend::kNvme: {
      NvmeConfig config = options.nvme;
      if (config.capacity_bytes == 0) {
        config.capacity_bytes = options.geometry.CapacityBytes();
      }
      device = std::make_unique<NvmeDevice>(config, clock);
      break;
    }
    case DeviceBackend::kMem:
      device = std::make_unique<MemDisk>(options.mem_num_sectors, options.mem_sector_size,
                                         clock);
      break;
  }
  device->set_queue_policy(options.queue_policy);
  device->set_qos(options.qos);
  return device;
}

}  // namespace ld
