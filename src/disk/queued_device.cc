#include "src/disk/queued_device.h"

#include <algorithm>

namespace ld {

QueuedDevice::QueuedDevice(SimClock* clock, uint32_t sector_size, uint64_t num_sectors,
                           uint32_t num_channels, QueuePolicy policy, uint32_t queue_depth)
    : clock_(clock),
      channels_(num_channels),
      sector_size_(sector_size),
      num_sectors_(num_sectors),
      queue_policy_(policy),
      queue_depth_(queue_depth == 0 ? 1 : queue_depth),
      storage_(num_sectors * sector_size) {}

void QueuedDevice::ResetStats() {
  stats_ = DiskStats{};
  for (Channel& ch : channels_) {
    ch.busy_until_seconds = 0.0;
  }
}

Status QueuedDevice::ValidateRequest(uint64_t sector, size_t bytes) const {
  if (bytes == 0 || bytes % sector_size_ != 0) {
    return InvalidArgumentError("request size not sector-aligned");
  }
  const uint64_t count = bytes / sector_size_;
  if (sector + count > num_sectors_) {
    return InvalidArgumentError("disk request beyond device end");
  }
  return OkStatus();
}

StatusOr<IoTag> QueuedDevice::SubmitRead(uint64_t sector, std::span<uint8_t> out) {
  RETURN_IF_ERROR(ValidateRequest(sector, out.size()));
  // Data effects are applied at submit time; only timing is deferred. Reads
  // therefore observe every previously submitted write.
  storage_.CopyOut(sector * sector_size_, out);
  return Enqueue(sector, out.size() / sector_size_, /*is_read=*/true);
}

StatusOr<IoTag> QueuedDevice::SubmitWrite(uint64_t sector, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(ValidateRequest(sector, data.size()));
  storage_.CopyIn(sector * sector_size_, data);
  return Enqueue(sector, data.size() / sector_size_, /*is_read=*/false);
}

StatusOr<IoTag> QueuedDevice::Enqueue(uint64_t sector, uint64_t count, bool is_read) {
  const IoTag tag = next_tag_++;
  // A transfer straddling a band boundary is owned entirely by the channel
  // of its first sector.
  const uint32_t ch = ChannelOf(sector);
  BeforeEnqueue(ch);
  channels_[ch].pending.push_back({tag, sector, count, is_read, clock_->Now(), request_tenant_,
                                   count, /*first_wait_ms=*/-1.0});
  stats_.NoteRequest(request_tenant_, clock_->Now());
  stats_.queued_requests++;
  stats_.MutableChannel(ch).queued_requests++;
  stats_.max_queue_depth = std::max<uint64_t>(stats_.max_queue_depth, TotalPending());
  if (channels_[ch].pending.size() >= queue_depth_) {
    ScheduleChannel(ch);
  }
  return tag;
}

void QueuedDevice::ChargeQueueWait(PendingIo& req, uint32_t ch, double wait_ms) {
  req.first_wait_ms = wait_ms;
  stats_.queue_wait_ms += wait_ms;
  stats_.MutableChannel(ch).queue_wait_ms += wait_ms;
}

void QueuedDevice::Retire(const PendingIo& req, uint32_t ch, double completion) {
  completed_[req.tag] = {req.is_read, completion};
  ChannelStats& cstats = stats_.MutableChannel(ch);
  TenantStats& tstats = stats_.MutableTenant(req.tenant);
  tstats.queue_wait_ms += req.first_wait_ms;
  if (req.first_wait_ms > kStarvationThresholdMs) {
    tstats.starved_requests++;
  }
  const double latency_ms = (completion - req.submit_seconds) * 1000.0;
  if (req.is_read) {
    stats_.read_ops++;
    stats_.sectors_read += req.total_count;
    cstats.read_ops++;
    cstats.sectors_read += req.total_count;
    tstats.read_ops++;
    tstats.sectors_read += req.total_count;
    tstats.read_latency.Add(latency_ms);
  } else {
    stats_.write_ops++;
    stats_.sectors_written += req.total_count;
    cstats.write_ops++;
    cstats.sectors_written += req.total_count;
    tstats.write_ops++;
    tstats.sectors_written += req.total_count;
    tstats.write_latency.Add(latency_ms);
  }
}

void QueuedDevice::ScheduleAll() {
  for (uint32_t ch = 0; ch < channels_.size(); ++ch) {
    ScheduleChannel(ch);
  }
}

uint64_t QueuedDevice::TotalPending() const {
  uint64_t total = 0;
  for (const Channel& ch : channels_) {
    total += ch.pending.size();
  }
  return total;
}

bool QueuedDevice::IsPendingTag(IoTag tag) const {
  for (const Channel& ch : channels_) {
    for (const PendingIo& req : ch.pending) {
      if (req.tag == tag) {
        return true;
      }
    }
  }
  return false;
}

void QueuedDevice::AdvanceToNextDispatch() {
  double next = 0.0;
  bool any = false;
  for (const Channel& ch : channels_) {
    if (!ch.pending.empty() && (!any || ch.busy_until_seconds < next)) {
      any = true;
      next = ch.busy_until_seconds;
    }
  }
  // A timing model leaves work pending only on a channel it committed past
  // now (SimDisk's QoS slice), so this strictly advances.
  clock_->AdvanceTo(next);
}

Status QueuedDevice::WaitFor(IoTag tag) {
  ScheduleAll();
  auto it = completed_.find(tag);
  while (it == completed_.end()) {
    if (!IsPendingTag(tag)) {
      return OkStatus();  // Already retired (e.g. by Drain).
    }
    AdvanceToNextDispatch();
    ScheduleAll();
    it = completed_.find(tag);
  }
  clock_->AdvanceTo(it->second.completion_seconds);
  completed_.erase(it);
  return OkStatus();
}

std::vector<IoCompletion> QueuedDevice::Poll() {
  ScheduleAll();
  std::vector<IoCompletion> done;
  const double now = clock_->Now();
  for (auto it = completed_.begin(); it != completed_.end();) {
    if (it->second.completion_seconds <= now) {
      done.push_back({it->first, it->second.is_read, it->second.completion_seconds});
      it = completed_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(done.begin(), done.end(), [](const IoCompletion& a, const IoCompletion& b) {
    return a.completion_seconds < b.completion_seconds;
  });
  return done;
}

Status QueuedDevice::Drain() {
  ScheduleAll();
  while (TotalPending() > 0) {
    AdvanceToNextDispatch();
    ScheduleAll();
  }
  double last = clock_->Now();
  for (const auto& [tag, done] : completed_) {
    last = std::max(last, done.completion_seconds);
  }
  clock_->AdvanceTo(last);
  completed_.clear();
  return OkStatus();
}

double QueuedDevice::ScheduledCompletion(IoTag tag) const {
  auto it = completed_.find(tag);
  return it == completed_.end() ? -1.0 : it->second.completion_seconds;
}

}  // namespace ld
