#include "src/disk/nvme_device.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

namespace ld {

NvmeDevice::NvmeDevice(uint64_t capacity_bytes, SimClock* clock)
    : QueuedDevice(clock, kNvmeSectorSize, capacity_bytes / kNvmeSectorSize,
                   /*num_channels=*/1, QueuePolicy::kFifo, kNvmeQueueDepth) {}

void NvmeDevice::ScheduleChannel(uint32_t /*ch*/) {
  std::deque<PendingIo>& pending = channels_[0].pending;
  if (pending.empty()) {
    return;
  }

  // One in-flight transfer in the fluid simulation.
  struct Xfer {
    PendingIo io;
    double arrival_seconds;  // submit + fixed latency
    double remaining_bytes;
  };
  std::vector<Xfer> arrivals;
  arrivals.reserve(pending.size());
  for (const PendingIo& p : pending) {
    const double bytes = static_cast<double>(p.count) * kNvmeSectorSize;
    arrivals.push_back({p, p.submit_seconds + LatencySeconds(p.is_read), bytes});
  }
  pending.clear();
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
        if (x.io.tenant >= per_tenant.size()) {
          per_tenant.resize(x.io.tenant + 1, 0);
        }
        per_tenant[x.io.tenant]++;
      }
      double weight_sum = 0.0;
      for (TenantId tid = 0; tid < per_tenant.size(); ++tid) {
        if (per_tenant[tid] > 0) {
          weight_sum += static_cast<double>(qos_.WeightOf(tid));
        }
      }
      for (size_t i = 0; i < active.size(); ++i) {
        const TenantId tid = active[i].io.tenant;
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
          const double bytes = static_cast<double>(it->io.count) * kNvmeSectorSize;
          const double unloaded =
              LatencySeconds(it->io.is_read) + bytes / bps;  // Service time at n == 1.
          ChargeQueueWait(it->io, 0,
                          std::max(0.0, (t - it->io.submit_seconds - unloaded)) * 1000.0);
          stats_.transfer_ms += bytes / bps * 1000.0;
          stats_.MutableTenant(it->io.tenant).busy_ms += unloaded * 1000.0;
          Retire(it->io, 0, t);
          it = active.erase(it);
        } else {
          ++it;
        }
      }
    } else {
      active.push_back(arrivals[next++]);
    }
  }
}

}  // namespace ld
