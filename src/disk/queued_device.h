// The request queue shared by every simulated device (SimDisk, NvmeDevice,
// MemDisk).
//
// A QueuedDevice owns everything about a request except how long it takes:
// tag allocation and validation, the eager data copy into its ChunkedStorage,
// one pending queue per channel, the completion map, the Submit*/WaitFor/
// Poll/Drain/ScheduledCompletion calls, the queue, tenant and QoS knobs, the
// per-request stamps in DiskStats, and the retire accounting. A device
// derived from it supplies only its timing model through ScheduleChannel().
//
// Requests pend on the channel owning their first sector until that
// channel's queue reaches queue_depth() or the caller waits, polls or
// drains; then ScheduleChannel() assigns completion times. A timing model
// may leave requests pending across calls (SimDisk's QoS dispatcher commits
// one slice at a time); WaitFor and Drain then advance the clock to the
// earliest instant a backlogged channel frees up and schedule again.
//
// Only WaitFor and Drain move the clock, and only forward: scheduling
// never touches it. Sync Read/Write are BlockDevice's submit + wait.

#ifndef SRC_DISK_QUEUED_DEVICE_H_
#define SRC_DISK_QUEUED_DEVICE_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "src/disk/block_device.h"
#include "src/disk/chunked_storage.h"

namespace ld {

class QueuedDevice : public BlockDevice {
 public:
  uint32_t sector_size() const override { return sector_size_; }
  uint64_t num_sectors() const override { return num_sectors_; }

  StatusOr<IoTag> SubmitRead(uint64_t sector, std::span<uint8_t> out) override;
  StatusOr<IoTag> SubmitWrite(uint64_t sector, std::span<const uint8_t> data) override;
  Status WaitFor(IoTag tag) override;
  std::vector<IoCompletion> Poll() override;
  Status Drain() override;
  double ScheduledCompletion(IoTag tag) const override;

  // Depth 1 degenerates to the synchronous model (every request is
  // scheduled as soon as it is submitted).
  void set_queue_policy(QueuePolicy policy) override { queue_policy_ = policy; }
  QueuePolicy queue_policy() const override { return queue_policy_; }
  void set_queue_depth(uint32_t depth) override { queue_depth_ = depth == 0 ? 1 : depth; }
  uint32_t queue_depth() const override { return queue_depth_; }

  // Tenant context, stamped into each queued request. How the QoS policy
  // changes the schedule is up to the timing model.
  void set_request_tenant(TenantId tenant) override { request_tenant_ = tenant; }
  TenantId request_tenant() const override { return request_tenant_; }
  void set_qos(const QosConfig& config) override { qos_ = config; }
  QosConfig qos() const override { return qos_; }

  uint32_t num_channels() const override { return static_cast<uint32_t>(channels_.size()); }

  SimClock* clock() override { return clock_; }
  const DiskStats& stats() const override { return stats_; }
  DiskStats* mutable_stats() override { return &stats_; }
  // Also marks every channel idle: measurement resets (harness
  // ResetMeasurement) rewind the shared clock, which would otherwise leave a
  // stale busy-until time delaying every post-reset request.
  void ResetStats() override;

 protected:
  // The clock must outlive the device.
  QueuedDevice(SimClock* clock, uint32_t sector_size, uint64_t num_sectors,
               uint32_t num_channels, QueuePolicy policy, uint32_t queue_depth);

  struct PendingIo {
    IoTag tag;
    uint64_t sector;  // Next unserviced sector (advances under QoS chunking).
    uint64_t count;   // Sectors still to service.
    bool is_read;
    double submit_seconds;
    TenantId tenant = kDefaultTenant;
    uint64_t total_count = 0;    // Original request size in sectors.
    double first_wait_ms = -1.0; // Queue wait, set when service first starts.
  };
  struct Channel {
    std::deque<PendingIo> pending;  // Submission order.
    double busy_until_seconds = 0.0;
  };

  // The timing model: assigns completion times to some or all of channel
  // `ch`'s pending requests, calling Retire() for each one it finishes and
  // removing it from the queue. Never touches the clock.
  virtual void ScheduleChannel(uint32_t ch) = 0;

  // Called just before a request of request_tenant() joins channel `ch`'s
  // queue.
  virtual void BeforeEnqueue(uint32_t /*ch*/) {}

  // Records `wait_ms` as `req`'s queue wait and adds it to the global and
  // channel totals. The tenant total gets it at Retire().
  void ChargeQueueWait(PendingIo& req, uint32_t ch, double wait_ms);

  // Finishes `req` at `completion`: enters it in the completion map and
  // counts its ops, sectors and latency globally, on channel `ch` and for
  // its tenant, plus the tenant's queue wait and starvation count.
  void Retire(const PendingIo& req, uint32_t ch, double completion);

  SimClock* const clock_;
  DiskStats stats_;
  QosConfig qos_;
  std::vector<Channel> channels_;

 private:
  struct DoneIo {
    bool is_read;
    double completion_seconds;
  };

  Status ValidateRequest(uint64_t sector, size_t bytes) const;
  StatusOr<IoTag> Enqueue(uint64_t sector, uint64_t count, bool is_read);
  void ScheduleAll();
  uint64_t TotalPending() const;
  // True while `tag` is still in some channel's pending queue.
  bool IsPendingTag(IoTag tag) const;
  // Advances the clock to the earliest busy-until of a channel with pending
  // work: the next instant a backlogged timing model can dispatch again.
  void AdvanceToNextDispatch();

  const uint32_t sector_size_;
  const uint64_t num_sectors_;
  QueuePolicy queue_policy_;
  uint32_t queue_depth_;
  TenantId request_tenant_ = kDefaultTenant;
  IoTag next_tag_ = 1;
  std::unordered_map<IoTag, DoneIo> completed_;
  ChunkedStorage storage_;
};

}  // namespace ld

#endif  // SRC_DISK_QUEUED_DEVICE_H_
