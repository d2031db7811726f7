#include "src/disk/mem_disk.h"

namespace ld {

MemDisk::MemDisk(uint64_t num_sectors, uint32_t sector_size, SimClock* clock)
    : QueuedDevice(clock, sector_size, num_sectors, /*num_channels=*/1, QueuePolicy::kFifo,
                   /*queue_depth=*/1) {}

void MemDisk::ScheduleChannel(uint32_t ch) {
  std::deque<PendingIo>& pending = channels_[ch].pending;
  for (PendingIo& req : pending) {
    ChargeQueueWait(req, ch, 0.0);
    Retire(req, ch, req.submit_seconds);
  }
  pending.clear();
}

}  // namespace ld
