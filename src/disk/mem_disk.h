// Zero-latency in-memory block device for unit tests: same semantics as
// SimDisk (sector-aligned transfers, zeros for never-written areas) but no
// timing model, so structural tests run fast and deterministically. Every
// request completes at submit; WaitFor/Poll/Drain only retire its tag. Its
// bytes live in ChunkedStorage, as the queued devices' do: a chunk is
// allocated on its first write, so a large MemDisk costs only what is written.

#ifndef SRC_DISK_MEM_DISK_H_
#define SRC_DISK_MEM_DISK_H_

#include <vector>

#include "src/disk/block_device.h"
#include "src/disk/chunked_storage.h"

namespace ld {

class MemDisk : public BlockDevice {
 public:
  MemDisk(uint64_t num_sectors, uint32_t sector_size, SimClock* clock);

  uint32_t sector_size() const override { return sector_size_; }
  uint64_t num_sectors() const override { return num_sectors_; }

  StatusOr<IoTag> SubmitRead(uint64_t sector, std::span<uint8_t> out) override;
  StatusOr<IoTag> SubmitWrite(uint64_t sector, std::span<const uint8_t> data) override;
  Status WaitFor(IoTag tag) override;
  std::vector<IoCompletion> Poll() override;
  Status Drain() override;

  // Sticky request context, kept so maintenance I/O is attributed correctly
  // in the idle-signal counters even on the zero-latency device.
  void set_request_tenant(TenantId tenant) override { tenant_ = tenant; }
  TenantId request_tenant() const override { return tenant_; }

  SimClock* clock() override { return clock_; }
  const DiskStats& stats() const override { return stats_; }
  DiskStats* mutable_stats() override { return &stats_; }
  void ResetStats() override { stats_ = DiskStats{}; }

 private:
  // Range check shared by both directions; `what` names the direction.
  Status CheckRange(uint64_t sector, size_t bytes, const char* what) const;
  // Counts a finished request and hands out its tag.
  IoTag Complete(bool is_read, uint64_t count);

  uint64_t num_sectors_;
  uint32_t sector_size_;
  SimClock* clock_;
  TenantId tenant_ = kDefaultTenant;
  DiskStats stats_;
  ChunkedStorage storage_;
  IoTag next_tag_ = 1;
  // Completions not yet retired by WaitFor, Poll or Drain, in submit order.
  std::vector<IoCompletion> done_;
};

}  // namespace ld

#endif  // SRC_DISK_MEM_DISK_H_
