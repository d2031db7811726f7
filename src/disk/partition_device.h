// A contiguous slice of a shared BlockDevice, presented as a device of its
// own — the glue that lets N tenant sessions (each with its own Lld instance
// and file system) share one simulated device and its channel set.
//
// A PartitionDevice owns sectors [first_sector, first_sector + num_sectors)
// of the parent and translates every request by first_sector. It is also the
// tenant boundary: it re-asserts its TenantId as the parent's sticky request
// context before every forwarded call, so requests from different sessions
// are correctly attributed no matter how their submissions interleave.
//
// Queue semantics: requests from all partitions share the parent's
// per-channel queues — that contention is the point. WaitFor and Drain
// operate on this partition's requests only (Drain waits out the tags this
// wrapper submitted, not the whole parent), so one tenant syncing does not
// advance the clock to another tenant's in-flight completions. Poll forwards
// to the parent and reports only this partition's completions; foreign
// completions the parent retires in the same call are dropped, which is safe
// because completions are advisory here (every in-tree caller either
// discards them or tracks tags through WaitFor).
//
// Stats are the parent's: global/channel/tenant counters all live in the
// shared device so cross-tenant reports come from one place.

#ifndef SRC_DISK_PARTITION_DEVICE_H_
#define SRC_DISK_PARTITION_DEVICE_H_

#include <unordered_set>

#include "src/disk/block_device.h"

namespace ld {

class PartitionDevice : public BlockDevice {
 public:
  // The parent must outlive the partition. `first_sector` + `num_sectors`
  // must fit inside the parent.
  PartitionDevice(BlockDevice* parent, uint64_t first_sector, uint64_t num_sectors,
                  TenantId tenant);

  uint32_t sector_size() const override { return parent_->sector_size(); }
  uint64_t num_sectors() const override { return num_sectors_; }

  StatusOr<IoTag> SubmitRead(uint64_t sector, std::span<uint8_t> out) override;
  StatusOr<IoTag> SubmitWrite(uint64_t sector, std::span<const uint8_t> data) override;
  Status WaitFor(IoTag tag) override;
  std::vector<IoCompletion> Poll() override;
  // Waits out this partition's outstanding requests only.
  Status Drain() override;

  // Queue knobs configure the shared parent queue (last writer wins; the
  // harness sets them once on the parent instead).
  void set_queue_policy(QueuePolicy policy) override { parent_->set_queue_policy(policy); }
  QueuePolicy queue_policy() const override { return parent_->queue_policy(); }
  void set_queue_depth(uint32_t depth) override { parent_->set_queue_depth(depth); }
  uint32_t queue_depth() const override { return parent_->queue_depth(); }

  // This wrapper *is* the tenant boundary: setting the request tenant
  // re-labels the partition itself.
  void set_request_tenant(TenantId tenant) override { tenant_ = tenant; }
  TenantId request_tenant() const override { return tenant_; }
  void set_qos(const QosConfig& config) override { parent_->set_qos(config); }
  QosConfig qos() const override { return parent_->qos(); }

  uint32_t num_channels() const override { return parent_->num_channels(); }
  uint32_t ChannelOf(uint64_t sector) const override {
    return parent_->ChannelOf(first_sector_ + sector);
  }
  double ScheduledCompletion(IoTag tag) const override {
    return parent_->ScheduledCompletion(tag);
  }

  SimClock* clock() override { return parent_->clock(); }
  const DiskStats& stats() const override { return parent_->stats(); }
  DiskStats* mutable_stats() override { return parent_->mutable_stats(); }
  void ResetStats() override { parent_->ResetStats(); }

  uint64_t first_sector() const { return first_sector_; }
  size_t outstanding_requests() const { return outstanding_.size(); }

 private:
  Status ValidateRange(uint64_t sector, size_t bytes) const;

  BlockDevice* parent_;
  uint64_t first_sector_;
  uint64_t num_sectors_;
  TenantId tenant_;
  // Tags this partition submitted and has not yet seen retire. Tags are
  // unique per parent device, so membership identifies ownership.
  std::unordered_set<IoTag> outstanding_;
};

}  // namespace ld

#endif  // SRC_DISK_PARTITION_DEVICE_H_
