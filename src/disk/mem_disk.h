// Zero-latency in-memory block device for unit tests: the request queue of
// the simulated devices (QueuedDevice: range checks, tags, eager data copy
// into ChunkedStorage, stats) with a timing model that retires every request
// at its submit time, so structural tests run fast and deterministically. A
// storage chunk is allocated on its first write, so a large MemDisk costs
// only what is written.

#ifndef SRC_DISK_MEM_DISK_H_
#define SRC_DISK_MEM_DISK_H_

#include "src/disk/queued_device.h"

namespace ld {

class MemDisk : public QueuedDevice {
 public:
  MemDisk(uint64_t num_sectors, uint32_t sector_size, SimClock* clock);

 private:
  // Retires each pending request at its submit time.
  void ScheduleChannel(uint32_t ch) override;
};

}  // namespace ld

#endif  // SRC_DISK_MEM_DISK_H_
