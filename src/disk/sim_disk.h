// Event-driven simulated disk with the mechanical timing model described in
// src/disk/geometry.h: seeks, head switches, rotational position, track skew,
// and per-request controller overhead. Storage is allocated lazily in 1-MB
// chunks so multi-gigabyte devices can be simulated cheaply.
//
// Requests go through the per-channel queues of QueuedDevice, which copies
// their data at submit; the mechanical service time is computed when a
// request is *scheduled*. The scheduler runs whenever a channel's queue
// reaches the configured depth or the caller waits (WaitFor/Drain) or polls;
// it orders each batch FIFO or C-SCAN and merges physically adjacent
// same-direction requests into one media transfer.
//
// Multi-channel operation models a multi-actuator drive: cylinders are
// statically partitioned into `num_channels` contiguous bands, each with its
// own arm, C-SCAN state, read-ahead window, and busy-until timeline.
// Requests on different channels are serviced concurrently; a request is
// owned entirely by the channel of its *first* sector (transfers straddling a
// band boundary are rare and are serviced by that one arm). With one channel
// the timing model is identical to the single-arm device.
//
// Service start time is max(channel busy-until, submit time), so a single
// outstanding request is timed exactly as the pre-queue synchronous model:
// the sync Read/Write wrappers (submit + wait) are timing-identical to it.

#ifndef SRC_DISK_SIM_DISK_H_
#define SRC_DISK_SIM_DISK_H_

#include <vector>

#include "src/disk/geometry.h"
#include "src/disk/queued_device.h"

namespace ld {

class SimDisk : public QueuedDevice {
 public:
  // The clock must outlive the disk. It is shared so that file-system CPU
  // costs and disk service time accumulate on one timeline.
  SimDisk(const DiskGeometry& geometry, SimClock* clock, uint32_t num_channels = 1);

  // Also levels every tenant's virtual time.
  void ResetStats() override;

  const DiskGeometry& geometry() const { return geometry_; }

  uint32_t ChannelOf(uint64_t sector) const override;

  // Current arm position (cylinder index) of `channel`; exposed for tests.
  uint32_t arm_cylinder(uint32_t channel = 0) const { return arms_[channel].arm_cylinder; }

 private:
  // One independent actuator: its arm and read-ahead window over a
  // contiguous band of cylinders (its queue and busy-until timeline are the
  // QueuedDevice channel of the same index).
  struct Arm {
    uint32_t arm_cylinder = 0;
    // Controller read-buffer window [start, end): sectors recently streamed
    // past the head that a sequential reader can fetch without mechanical
    // delay. Invalidated by writes.
    uint64_t read_window_start = UINT64_MAX;
    uint64_t read_window_end = UINT64_MAX;
    // Weighted-fair-queueing virtual time per tenant (QoS dispatch only).
    std::vector<double> vtime;
  };

  // Computes the mechanical service of one (possibly merged) transfer on
  // channel `ch` that begins no earlier than `start_seconds`, updating the
  // channel's arm position and read-ahead window plus timing stats. Returns
  // the completion time in seconds. Never touches the clock.
  double ServiceAt(uint32_t ch, double start_seconds, uint64_t sector, uint64_t count,
                   bool is_read);

  // Orders, merges, and services every pending request on channel `ch`,
  // assigning completion times. QoS dispatch (chunked service,
  // weighted-share or deadline ordering between tenants) engages only when
  // qos().Active(); otherwise this legacy batch scheduler runs and tenants
  // are tracked for accounting only.
  void ScheduleChannel(uint32_t ch) override;
  // QoS dispatch: services requests chunk by chunk in weighted-share or
  // deadline order, committing the channel no further than kQosSliceMs past
  // the current clock so another tenant can preempt between chunks. Requests
  // the slice does not reach stay pending.
  void ScheduleChannelQos(uint32_t ch);
  // WFQ arrival rule for weighted-share QoS.
  void BeforeEnqueue(uint32_t ch) override;

  // Angular slot (0..sectors_per_track-1) of an absolute sector, with skew.
  uint32_t AngularSlot(uint64_t sector) const;

  DiskGeometry geometry_;
  std::vector<Arm> arms_;
  uint32_t cylinders_per_channel_ = 0;
};

}  // namespace ld

#endif  // SRC_DISK_SIM_DISK_H_
