#include "src/disk/nvme_device.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace ld {

NvmeDevice::NvmeDevice(const NvmeConfig& config, SimClock* clock)
    : config_(config),
      clock_(clock),
      num_sectors_(config.capacity_bytes / config.sector_size),
      queue_depth_(config.queue_depth == 0 ? 1 : config.queue_depth),
      storage_(config.capacity_bytes) {}

Status NvmeDevice::ValidateRequest(uint64_t sector, size_t bytes) const {
  if (bytes == 0 || bytes % config_.sector_size != 0) {
    return InvalidArgumentError("request size not sector-aligned");
  }
  const uint64_t count = bytes / config_.sector_size;
  if (sector + count > num_sectors_) {
    return InvalidArgumentError("disk request beyond device end");
  }
  return OkStatus();
}

void NvmeDevice::ScheduleAll() {
  if (pending_.empty()) {
    return;
  }

  // One in-flight transfer in the fluid simulation.
  struct Xfer {
    IoTag tag;
    uint64_t count;
    bool is_read;
    double submit_seconds;
    double arrival_seconds;  // submit + fixed latency
    double remaining_bytes;
    TenantId tenant;
  };
  std::vector<Xfer> arrivals;
  arrivals.reserve(pending_.size());
  for (const PendingIo& p : pending_) {
    const double bytes = static_cast<double>(p.count) * config_.sector_size;
    arrivals.push_back({p.tag, p.count, p.is_read, p.submit_seconds,
                        p.submit_seconds + LatencySeconds(p.is_read), bytes, p.tenant});
  }
  pending_.clear();
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Xfer& a, const Xfer& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });

  const double bps = BytesPerSecond();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kEpsBytes = 1e-6;

  // Weighted sharing only deviates from the equal split when a QoS policy
  // is active with several tenants; otherwise the arithmetic below is kept
  // bit-identical to the original equal-share model.
  const bool weighted = qos_.Active() && qos_.policy == QosPolicy::kWeightedShare;

  // Event loop: advance `t` from arrival to arrival / completion to
  // completion, draining every active transfer at its share of the link
  // bandwidth in between (equal by transfer, or by tenant weight).
  std::vector<Xfer> active;
  std::vector<double> rates;
  size_t next = 0;
  double t = arrivals.front().arrival_seconds;
  while (next < arrivals.size() || !active.empty()) {
    if (active.empty()) {
      t = std::max(t, arrivals[next].arrival_seconds);
      active.push_back(arrivals[next++]);
      continue;
    }
    rates.assign(active.size(), 0.0);
    double next_completion = kInf;
    if (!weighted) {
      const double rate = bps / static_cast<double>(active.size());
      double min_remaining = kInf;
      for (const Xfer& x : active) {
        min_remaining = std::min(min_remaining, x.remaining_bytes);
      }
      next_completion = t + min_remaining / rate;
      for (double& r : rates) {
        r = rate;
      }
    } else {
      // Tenant t's share is bps * w_t / W (W = sum of weights of tenants
      // with active transfers), split equally among its own transfers.
      std::vector<uint64_t> per_tenant(qos_.num_tenants, 0);
      for (const Xfer& x : active) {
        if (x.tenant >= per_tenant.size()) {
          per_tenant.resize(x.tenant + 1, 0);
        }
        per_tenant[x.tenant]++;
      }
      double weight_sum = 0.0;
      for (TenantId tid = 0; tid < per_tenant.size(); ++tid) {
        if (per_tenant[tid] > 0) {
          weight_sum += static_cast<double>(qos_.WeightOf(tid));
        }
      }
      for (size_t i = 0; i < active.size(); ++i) {
        const TenantId tid = active[i].tenant;
        rates[i] = bps * static_cast<double>(qos_.WeightOf(tid)) / weight_sum /
                   static_cast<double>(per_tenant[tid]);
        next_completion = std::min(next_completion, t + active[i].remaining_bytes / rates[i]);
      }
    }
    const double next_arrival =
        next < arrivals.size() ? std::max(arrivals[next].arrival_seconds, t) : kInf;

    const double t2 = std::min(next_completion, next_arrival);
    stats_.busy_ms += (t2 - t) * 1000.0;  // Link active: n >= 1.
    stats_.MutableChannel(0).busy_ms += (t2 - t) * 1000.0;
    for (size_t i = 0; i < active.size(); ++i) {
      active[i].remaining_bytes -= rates[i] * (t2 - t);
    }
    t = t2;

    if (next_completion <= next_arrival) {
      // Retire every transfer that just finished.
      for (auto it = active.begin(); it != active.end();) {
        if (it->remaining_bytes <= kEpsBytes) {
          completed_[it->tag] = {it->is_read, t};
          const double bytes = static_cast<double>(it->count) * config_.sector_size;
          const double unloaded =
              LatencySeconds(it->is_read) + bytes / bps;  // Service time at n == 1.
          const double wait_ms =
              std::max(0.0, (t - it->submit_seconds - unloaded)) * 1000.0;
          stats_.queue_wait_ms += wait_ms;
          stats_.transfer_ms += bytes / bps * 1000.0;
          ChannelStats& cstats = stats_.MutableChannel(0);
          cstats.queue_wait_ms += wait_ms;
          TenantStats& tstats = stats_.MutableTenant(it->tenant);
          tstats.queue_wait_ms += wait_ms;
          tstats.busy_ms += unloaded * 1000.0;
          if (wait_ms > qos_.starvation_threshold_ms) {
            tstats.starved_requests++;
          }
          const double latency_ms = (t - it->submit_seconds) * 1000.0;
          if (it->is_read) {
            stats_.read_ops++;
            stats_.sectors_read += it->count;
            cstats.read_ops++;
            cstats.sectors_read += it->count;
            tstats.read_ops++;
            tstats.sectors_read += it->count;
            tstats.read_latency.Add(latency_ms);
          } else {
            stats_.write_ops++;
            stats_.sectors_written += it->count;
            cstats.write_ops++;
            cstats.sectors_written += it->count;
            tstats.write_ops++;
            tstats.sectors_written += it->count;
            tstats.write_latency.Add(latency_ms);
          }
          it = active.erase(it);
        } else {
          ++it;
        }
      }
    } else {
      active.push_back(arrivals[next++]);
    }
  }
  link_free_seconds_ = std::max(link_free_seconds_, t);
}

StatusOr<IoTag> NvmeDevice::SubmitRead(uint64_t sector, std::span<uint8_t> out) {
  RETURN_IF_ERROR(ValidateRequest(sector, out.size()));
  storage_.CopyOut(sector * static_cast<uint64_t>(config_.sector_size), out);
  const IoTag tag = NextTag();
  pending_.push_back(
      {tag, out.size() / config_.sector_size, /*is_read=*/true, clock_->Now(), request_tenant_});
  stats_.NoteRequest(request_tenant_, clock_->Now());
  stats_.queued_requests++;
  stats_.MutableChannel(0).queued_requests++;
  stats_.max_queue_depth = std::max<uint64_t>(stats_.max_queue_depth, pending_.size());
  if (pending_.size() >= queue_depth_) {
    ScheduleAll();
  }
  return tag;
}

StatusOr<IoTag> NvmeDevice::SubmitWrite(uint64_t sector, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(ValidateRequest(sector, data.size()));
  storage_.CopyIn(sector * static_cast<uint64_t>(config_.sector_size), data);
  const IoTag tag = NextTag();
  pending_.push_back(
      {tag, data.size() / config_.sector_size, /*is_read=*/false, clock_->Now(), request_tenant_});
  stats_.NoteRequest(request_tenant_, clock_->Now());
  stats_.queued_requests++;
  stats_.MutableChannel(0).queued_requests++;
  stats_.max_queue_depth = std::max<uint64_t>(stats_.max_queue_depth, pending_.size());
  if (pending_.size() >= queue_depth_) {
    ScheduleAll();
  }
  return tag;
}

Status NvmeDevice::WaitFor(IoTag tag) {
  ScheduleAll();
  auto it = completed_.find(tag);
  if (it == completed_.end()) {
    return OkStatus();  // Already retired (e.g. by Drain).
  }
  clock_->AdvanceTo(it->second.completion_seconds);
  completed_.erase(it);
  return OkStatus();
}

std::vector<IoCompletion> NvmeDevice::Poll() {
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

Status NvmeDevice::Drain() {
  ScheduleAll();
  double last = clock_->Now();
  for (const auto& [tag, done] : completed_) {
    last = std::max(last, done.completion_seconds);
  }
  clock_->AdvanceTo(last);
  completed_.clear();
  return OkStatus();
}

double NvmeDevice::ScheduledCompletion(IoTag tag) const {
  auto it = completed_.find(tag);
  return it == completed_.end() ? -1.0 : it->second.completion_seconds;
}

Status NvmeDevice::Read(uint64_t sector, std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(IoTag tag, SubmitRead(sector, out));
  return WaitFor(tag);
}

Status NvmeDevice::Write(uint64_t sector, std::span<const uint8_t> data) {
  ASSIGN_OR_RETURN(IoTag tag, SubmitWrite(sector, data));
  return WaitFor(tag);
}

}  // namespace ld
