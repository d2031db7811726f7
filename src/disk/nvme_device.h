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
// Knobs. There is no arm to schedule around: the queue policy knob is
// accepted (so benches can A/B uniformly) but does not change timing. Under
// kWeightedShare with several tenants the fluid model shares the link by
// tenant weight instead of equally per transfer (each tenant's share then
// splits equally among its own transfers). The fluid model is inherently
// preemptive, so kDeadline adds nothing here and behaves like the
// equal-share schedule (tenant accounting still applies).
//
// The request queue is QueuedDevice's: like every simulated device here,
// data effects apply eagerly at submit and only timing is deferred. Sync
// Read/Write are submit + wait.

#ifndef SRC_DISK_NVME_DEVICE_H_
#define SRC_DISK_NVME_DEVICE_H_

#include "src/disk/queued_device.h"

namespace ld {

struct NvmeConfig {
  uint64_t capacity_bytes = 0;
  uint32_t sector_size = 512;
  // Fixed per-request latency before the transfer starts draining.
  double read_latency_us = 80.0;   // Flash read + FTL lookup.
  double write_latency_us = 20.0;  // DRAM program buffer ack.
  // Link/media bandwidth shared by all in-flight transfers.
  double bandwidth_mb_per_s = 3200.0;
  // Requests pend until this many are outstanding (or the caller waits).
  uint32_t queue_depth = 256;
};

class NvmeDevice : public QueuedDevice {
 public:
  NvmeDevice(const NvmeConfig& config, SimClock* clock);

  const NvmeConfig& config() const { return config_; }

 private:
  // Runs the processor-sharing fluid simulation over every pending request
  // (the device is one channel), assigning completion times. Never touches
  // the clock.
  void ScheduleChannel(uint32_t ch) override;

  double LatencySeconds(bool is_read) const {
    return (is_read ? config_.read_latency_us : config_.write_latency_us) * 1e-6;
  }
  double BytesPerSecond() const { return config_.bandwidth_mb_per_s * 1e6; }

  NvmeConfig config_;
};

}  // namespace ld

#endif  // SRC_DISK_NVME_DEVICE_H_
