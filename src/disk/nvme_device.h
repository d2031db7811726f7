// Simulated NVMe-style flash device: no seek or rotation model, a deep
// tagged queue (hundreds of outstanding requests), and a timing model of
// fixed per-request latency plus bandwidth shared across in-flight
// transfers.
//
// Timing model. Each request becomes *active* a fixed latency after it is
// submitted (reads pay flash-read latency, writes the program-buffer
// latency) and then drains its payload over a link of bandwidth B shared
// equally by the n currently active transfers (processor-sharing fluid
// model). A batch of pending requests is simulated event-by-event —
// arrivals join the active set, the earliest-finishing transfer leaves it —
// so k concurrent same-size transfers each take ~k times the unloaded
// transfer time while aggregate bandwidth stays at B. Transfers scheduled
// in different batches (separated by a WaitFor/Poll/Drain) do not share
// bandwidth with each other; this window-based approximation keeps
// scheduling lazy, exactly like SimDisk's.
//
// The timing values are the constants below, and the capacity is the one
// thing a caller chooses. There is no arm to schedule around: the queue
// policy is accepted (so benches can A/B uniformly) but does not change
// timing. Under kWeightedShare with several tenants the fluid model shares
// the link by tenant weight instead of equally per transfer (each tenant's
// share then splits equally among its own transfers). The fluid model is
// inherently preemptive, so kDeadline adds nothing here and behaves like the
// equal-share schedule (tenant accounting still applies).
//
// The request queue is QueuedDevice's: like every simulated device here,
// data effects apply eagerly at submit and only timing is deferred. Sync
// Read/Write are submit + wait.

#ifndef SRC_DISK_NVME_DEVICE_H_
#define SRC_DISK_NVME_DEVICE_H_

#include "src/disk/queued_device.h"

namespace ld {

inline constexpr uint32_t kNvmeSectorSize = 512;
// Fixed per-request latency before the transfer starts draining.
inline constexpr double kNvmeReadLatencyUs = 80.0;   // Flash read + FTL lookup.
inline constexpr double kNvmeWriteLatencyUs = 20.0;  // DRAM program buffer ack.
// Link/media bandwidth shared by all in-flight transfers.
inline constexpr double kNvmeBandwidthMbPerS = 3200.0;
// Requests pend until this many are outstanding (or the caller waits).
inline constexpr uint32_t kNvmeQueueDepth = 256;

class NvmeDevice : public QueuedDevice {
 public:
  NvmeDevice(uint64_t capacity_bytes, SimClock* clock);

 private:
  // Runs the processor-sharing fluid simulation over every pending request
  // (the device is one channel), assigning completion times. Never touches
  // the clock.
  void ScheduleChannel(uint32_t ch) override;

  static double LatencySeconds(bool is_read) {
    return (is_read ? kNvmeReadLatencyUs : kNvmeWriteLatencyUs) * 1e-6;
  }
  static double BytesPerSecond() { return kNvmeBandwidthMbPerS * 1e6; }
};

}  // namespace ld

#endif  // SRC_DISK_NVME_DEVICE_H_
