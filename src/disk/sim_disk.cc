#include "src/disk/sim_disk.h"

#include <algorithm>
#include <cmath>

namespace ld {

SimDisk::SimDisk(const DiskGeometry& geometry, SimClock* clock, uint32_t num_channels)
    : geometry_(geometry), clock_(clock), storage_(geometry.CapacityBytes()) {
  const uint32_t nch = std::clamp<uint32_t>(num_channels, 1, geometry_.cylinders);
  cylinders_per_channel_ = geometry_.cylinders / nch;
  channels_.resize(nch);
  for (uint32_t ch = 0; ch < nch; ++ch) {
    // Each arm parks at the first cylinder of its band.
    channels_[ch].arm_cylinder = ch * cylinders_per_channel_;
  }
}

void SimDisk::ResetStats() {
  stats_ = DiskStats{};
  for (Channel& ch : channels_) {
    ch.busy_until_seconds = 0.0;
    // Virtual times are only meaningful relative to each other within a
    // measurement run; a fresh run starts every tenant level.
    ch.vtime.clear();
  }
}

uint32_t SimDisk::ChannelOf(uint64_t sector) const {
  const uint32_t sectors_per_cyl = geometry_.sectors_per_track * geometry_.heads;
  const uint32_t cyl = static_cast<uint32_t>(sector / sectors_per_cyl);
  const uint32_t ch = cyl / cylinders_per_channel_;
  return std::min<uint32_t>(ch, static_cast<uint32_t>(channels_.size()) - 1);
}

uint32_t SimDisk::AngularSlot(uint64_t sector) const {
  const uint64_t track = sector / geometry_.sectors_per_track;
  const uint64_t within = sector % geometry_.sectors_per_track;
  const uint64_t cylinder = track / geometry_.heads;
  return static_cast<uint32_t>(
      (within + track * geometry_.track_skew + cylinder * geometry_.cylinder_skew) %
      geometry_.sectors_per_track);
}

Status SimDisk::ValidateRequest(uint64_t sector, size_t bytes) const {
  if (bytes == 0 || bytes % geometry_.sector_size != 0) {
    return InvalidArgumentError("request size not sector-aligned");
  }
  const uint64_t count = bytes / geometry_.sector_size;
  if (sector + count > num_sectors()) {
    return InvalidArgumentError("disk request beyond device end");
  }
  return OkStatus();
}

double SimDisk::ServiceAt(uint32_t ch_index, double start_seconds, uint64_t sector,
                          uint64_t count, bool is_read) {
  Channel& ch = channels_[ch_index];
  ChannelStats& cstats = stats_.MutableChannel(ch_index);

  // Controller read-ahead buffer: a read that starts inside (or exactly at
  // the end of) the recently streamed window is served from the buffer;
  // only sectors beyond the window's end cost media-transfer time. This is
  // how real controllers make sequential reads cheap even when requests
  // overlap at sector granularity (sub-sector-aligned blocks re-read their
  // boundary sector).
  if (is_read && geometry_.read_ahead_buffer && sector >= ch.read_window_start &&
      sector <= ch.read_window_end) {
    const uint64_t end = sector + count;
    const uint64_t new_sectors = end > ch.read_window_end ? end - ch.read_window_end : 0;
    const double xfer_ms = static_cast<double>(new_sectors) * geometry_.SectorTimeMs();
    const double service_ms = geometry_.controller_overhead_ms + xfer_ms;
    stats_.transfer_ms += xfer_ms;
    stats_.busy_ms += service_ms;
    cstats.busy_ms += service_ms;
    if (end > ch.read_window_end) {
      ch.read_window_end = end;
    }
    // Bound the modeled buffer to 256 KB of trailing data.
    const uint64_t kWindowSectors = 512;
    if (ch.read_window_end - ch.read_window_start > kWindowSectors) {
      ch.read_window_start = ch.read_window_end - kWindowSectors;
    }
    const uint32_t sectors_per_cyl = geometry_.sectors_per_track * geometry_.heads;
    ch.arm_cylinder = static_cast<uint32_t>((ch.read_window_end - 1) / sectors_per_cyl);
    return start_seconds + service_ms / 1000.0;
  }
  if (is_read) {
    ch.read_window_start = sector;
    ch.read_window_end = sector + count;
  } else {
    ch.read_window_start = UINT64_MAX;  // Writes invalidate the read buffer.
    ch.read_window_end = UINT64_MAX;
  }

  const double period_ms = geometry_.RotationPeriodMs();
  const double sector_ms = geometry_.SectorTimeMs();
  const uint32_t spt = geometry_.sectors_per_track;

  // Times below are in milliseconds relative to an arbitrary epoch; the
  // rotational position is time modulo the rotation period.
  double time_ms = start_seconds * 1000.0;
  const double start_ms = time_ms;

  time_ms += geometry_.controller_overhead_ms;

  // Initial seek to the first cylinder of the transfer.
  const uint32_t sectors_per_cyl = spt * geometry_.heads;
  uint32_t target_cyl = static_cast<uint32_t>(sector / sectors_per_cyl);
  const uint32_t distance = target_cyl > ch.arm_cylinder ? target_cyl - ch.arm_cylinder
                                                         : ch.arm_cylinder - target_cyl;
  if (distance > 0) {
    const double seek_ms = geometry_.SeekTimeMs(distance);
    time_ms += seek_ms;
    stats_.seeks++;
    stats_.seek_ms += seek_ms;
    ch.arm_cylinder = target_cyl;
  }

  // Transfer track by track, waiting for the head to reach each chunk's
  // first sector. Track skew makes sequential multi-track transfers cheap.
  uint64_t pos = sector;
  const uint64_t end = sector + count;
  uint64_t prev_track = UINT64_MAX;
  while (pos < end) {
    const uint64_t track = pos / spt;
    const uint64_t track_end = (track + 1) * spt;
    const uint64_t chunk = (end < track_end ? end : track_end) - pos;

    if (prev_track != UINT64_MAX && track != prev_track) {
      const uint32_t cyl = static_cast<uint32_t>(track / geometry_.heads);
      if (cyl != ch.arm_cylinder) {
        const uint32_t d = cyl > ch.arm_cylinder ? cyl - ch.arm_cylinder : ch.arm_cylinder - cyl;
        const double seek_ms = geometry_.SeekTimeMs(d);
        time_ms += seek_ms;
        stats_.seek_ms += seek_ms;
        ch.arm_cylinder = cyl;
      } else {
        time_ms += geometry_.head_switch_ms;
      }
    }
    prev_track = track;

    // Rotational latency until the chunk's first sector comes under the head.
    const double angle_now = std::fmod(time_ms, period_ms) / sector_ms;  // in sector units
    const double target_angle = static_cast<double>(AngularSlot(pos));
    double wait_sectors = target_angle - angle_now;
    if (wait_sectors < 0.0) {
      wait_sectors += static_cast<double>(spt);
    }
    const double rot_ms = wait_sectors * sector_ms;
    time_ms += rot_ms;
    stats_.rotation_ms += rot_ms;

    const double xfer_ms = static_cast<double>(chunk) * sector_ms;
    time_ms += xfer_ms;
    stats_.transfer_ms += xfer_ms;
    pos += chunk;
  }

  stats_.busy_ms += time_ms - start_ms;
  cstats.busy_ms += time_ms - start_ms;
  return time_ms / 1000.0;
}

void SimDisk::ScheduleChannel(uint32_t ch_index) {
  if (qos_.Active()) {
    ScheduleChannelQos(ch_index);
    return;
  }
  Channel& ch = channels_[ch_index];
  if (ch.pending.empty()) {
    return;
  }
  std::vector<PendingIo> batch(ch.pending.begin(), ch.pending.end());
  ch.pending.clear();

  if (queue_policy_ == QueuePolicy::kCScan && batch.size() > 1) {
    // Circular elevator: sweep upward from the arm's current position, wrap
    // to the lowest request, and continue upward.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const PendingIo& a, const PendingIo& b) { return a.sector < b.sector; });
    const uint64_t head_sector = static_cast<uint64_t>(ch.arm_cylinder) *
                                 geometry_.sectors_per_track * geometry_.heads;
    auto pivot = std::find_if(batch.begin(), batch.end(), [head_sector](const PendingIo& r) {
      return r.sector >= head_sector;
    });
    std::rotate(batch.begin(), pivot, batch.end());
  }

  ChannelStats& cstats = stats_.MutableChannel(ch_index);
  size_t i = 0;
  while (i < batch.size()) {
    // Coalesce a run of physically adjacent same-direction requests into one
    // media transfer.
    size_t j = i + 1;
    uint64_t run_end = batch[i].sector + batch[i].count;
    double latest_submit = batch[i].submit_seconds;
    while (j < batch.size() && batch[j].is_read == batch[i].is_read &&
           batch[j].sector == run_end) {
      run_end += batch[j].count;
      latest_submit = std::max(latest_submit, batch[j].submit_seconds);
      ++j;
    }

    const double start = std::max(ch.busy_until_seconds, latest_submit);
    const double completion =
        ServiceAt(ch_index, start, batch[i].sector, run_end - batch[i].sector, batch[i].is_read);
    ch.busy_until_seconds = completion;

    for (size_t k = i; k < j; ++k) {
      completed_[batch[k].tag] = {batch[k].is_read, completion};
      const double wait_ms = (start - batch[k].submit_seconds) * 1000.0;
      stats_.queue_wait_ms += wait_ms;
      cstats.queue_wait_ms += wait_ms;
      // Tenant accounting rides along even without QoS dispatch so the
      // FIFO/C-SCAN legs of a multi-tenant comparison report per-tenant
      // latency too. Stats only — the schedule above is unchanged.
      TenantStats& tstats = stats_.MutableTenant(batch[k].tenant);
      tstats.queue_wait_ms += wait_ms;
      if (wait_ms > qos_.starvation_threshold_ms) {
        tstats.starved_requests++;
      }
      const double latency_ms = (completion - batch[k].submit_seconds) * 1000.0;
      if (batch[k].is_read) {
        stats_.read_ops++;
        stats_.sectors_read += batch[k].count;
        cstats.read_ops++;
        cstats.sectors_read += batch[k].count;
        tstats.read_ops++;
        tstats.sectors_read += batch[k].count;
        tstats.read_latency.Add(latency_ms);
      } else {
        stats_.write_ops++;
        stats_.sectors_written += batch[k].count;
        cstats.write_ops++;
        cstats.sectors_written += batch[k].count;
        tstats.write_ops++;
        tstats.sectors_written += batch[k].count;
        tstats.write_latency.Add(latency_ms);
      }
    }
    // The merged run's media time is charged to the tenant of its first
    // request (one transfer, one owner).
    stats_.MutableTenant(batch[i].tenant).busy_ms += (completion - start) * 1000.0;
    stats_.merged_requests += (j - i) - 1;
    i = j;
  }
}

void SimDisk::ScheduleChannelQos(uint32_t ch_index) {
  Channel& ch = channels_[ch_index];
  ChannelStats& cstats = stats_.MutableChannel(ch_index);
  const double slice_seconds = qos_.slice_ms / 1000.0;
  const uint64_t chunk_sectors = std::max<uint64_t>(
      1, static_cast<uint64_t>(qos_.chunk_kb) * 1024 / geometry_.sector_size);

  // Dispatch one chunk at a time, never committing the arm more than
  // slice_ms past the current clock: the next ScheduleAll (after the caller
  // advances the clock) re-picks a winner, which is where a victim's demand
  // read overtakes the remaining chunks of an aggressor's segment write.
  while (!ch.pending.empty() && ch.busy_until_seconds <= clock_->Now() + slice_seconds) {
    size_t pick = 0;
    if (qos_.policy == QosPolicy::kWeightedShare) {
      // Per-tenant head = its earliest pending request (deque keeps
      // submission order); winner = lowest virtual time, ties to the lower
      // tenant id.
      if (ch.vtime.size() < qos_.num_tenants) {
        ch.vtime.resize(qos_.num_tenants, 0.0);
      }
      TenantId best_tenant = 0;
      double best_vt = 0.0;
      bool found = false;
      std::vector<size_t> head(ch.vtime.size(), SIZE_MAX);
      for (size_t i = 0; i < ch.pending.size(); ++i) {
        const TenantId t = ch.pending[i].tenant;
        if (t >= ch.vtime.size()) {
          ch.vtime.resize(t + 1, 0.0);
          head.resize(t + 1, SIZE_MAX);
        }
        if (head[t] == SIZE_MAX) {
          head[t] = i;
          if (!found || ch.vtime[t] < best_vt) {
            found = true;
            best_tenant = t;
            best_vt = ch.vtime[t];
          }
        }
      }
      pick = head[best_tenant];
    } else {
      // kDeadline: earliest deadline first; reads carry tight deadlines so
      // they pass queued segment flushes.
      double best_deadline = 0.0;
      for (size_t i = 0; i < ch.pending.size(); ++i) {
        const PendingIo& req = ch.pending[i];
        const double deadline =
            req.submit_seconds +
            (req.is_read ? qos_.read_deadline_ms : qos_.write_deadline_ms) / 1000.0;
        if (i == 0 || deadline < best_deadline) {
          best_deadline = deadline;
          pick = i;
        }
      }
    }

    PendingIo& req = ch.pending[pick];
    const uint64_t n = std::min(req.count, chunk_sectors);
    const double start = std::max(ch.busy_until_seconds, req.submit_seconds);
    if (req.first_wait_ms < 0.0) {
      req.first_wait_ms = (start - req.submit_seconds) * 1000.0;
      stats_.queue_wait_ms += req.first_wait_ms;
      cstats.queue_wait_ms += req.first_wait_ms;
    }
    const double completion = ServiceAt(ch_index, start, req.sector, n, req.is_read);
    ch.busy_until_seconds = completion;
    stats_.MutableTenant(req.tenant).busy_ms += (completion - start) * 1000.0;
    if (qos_.policy == QosPolicy::kWeightedShare) {
      ch.vtime[req.tenant] += static_cast<double>(n) / qos_.WeightOf(req.tenant);
    }
    req.sector += n;
    req.count -= n;
    if (req.count == 0) {
      TenantStats& tstats = stats_.MutableTenant(req.tenant);
      tstats.queue_wait_ms += req.first_wait_ms;
      if (req.first_wait_ms > qos_.starvation_threshold_ms) {
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
      completed_[req.tag] = {req.is_read, completion};
      ch.pending.erase(ch.pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
}

void SimDisk::ScheduleAll() {
  for (uint32_t ch = 0; ch < channels_.size(); ++ch) {
    ScheduleChannel(ch);
  }
}

bool SimDisk::IsPendingTag(IoTag tag) const {
  for (const Channel& ch : channels_) {
    for (const PendingIo& req : ch.pending) {
      if (req.tag == tag) {
        return true;
      }
    }
  }
  return false;
}

uint64_t SimDisk::TotalPending() const {
  uint64_t total = 0;
  for (const Channel& ch : channels_) {
    total += ch.pending.size();
  }
  return total;
}

StatusOr<IoTag> SimDisk::Enqueue(uint64_t sector, uint64_t count, bool is_read) {
  const IoTag tag = NextTag();
  // A transfer straddling a band boundary is owned entirely by the channel
  // of its first sector.
  const uint32_t ch_index = ChannelOf(sector);
  Channel& ch = channels_[ch_index];
  if (qos_.Active() && qos_.policy == QosPolicy::kWeightedShare) {
    // WFQ arrival rule: lag the arriving tenant's virtual time up to the
    // lowest vt among tenants with queued work, so a tenant cannot bank
    // credit while idle and then starve everyone else with a burst.
    if (request_tenant_ >= ch.vtime.size()) {
      ch.vtime.resize(request_tenant_ + 1, 0.0);
    }
    bool any = false;
    double min_active_vt = 0.0;
    for (const PendingIo& req : ch.pending) {
      const double vt = req.tenant < ch.vtime.size() ? ch.vtime[req.tenant] : 0.0;
      if (!any || vt < min_active_vt) {
        any = true;
        min_active_vt = vt;
      }
    }
    if (any) {
      ch.vtime[request_tenant_] = std::max(ch.vtime[request_tenant_], min_active_vt);
    }
  }
  ch.pending.push_back({tag, sector, count, is_read, clock_->Now(), request_tenant_, count,
                        /*first_wait_ms=*/-1.0});
  stats_.NoteRequest(request_tenant_, clock_->Now());
  stats_.queued_requests++;
  stats_.MutableChannel(ch_index).queued_requests++;
  stats_.max_queue_depth = std::max<uint64_t>(stats_.max_queue_depth, TotalPending());
  if (ch.pending.size() >= queue_depth_) {
    ScheduleChannel(ch_index);
  }
  return tag;
}

StatusOr<IoTag> SimDisk::SubmitRead(uint64_t sector, std::span<uint8_t> out) {
  RETURN_IF_ERROR(ValidateRequest(sector, out.size()));
  // Data effects are applied at submit time; only timing is deferred. Reads
  // therefore observe every previously submitted write.
  storage_.CopyOut(sector * sector_size(), out);
  return Enqueue(sector, out.size() / sector_size(), /*is_read=*/true);
}

StatusOr<IoTag> SimDisk::SubmitWrite(uint64_t sector, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(ValidateRequest(sector, data.size()));
  storage_.CopyIn(sector * sector_size(), data);
  return Enqueue(sector, data.size() / sector_size(), /*is_read=*/false);
}

Status SimDisk::WaitFor(IoTag tag) {
  ScheduleAll();
  auto it = completed_.find(tag);
  // Under QoS dispatch a request can remain pending after ScheduleAll (its
  // channel only commits one slice at a time). Advance the clock to the
  // earliest moment any backlogged channel frees up and re-dispatch until
  // the tag's request finishes. The legacy path leaves nothing pending, so
  // this loop never runs there.
  while (it == completed_.end()) {
    if (!IsPendingTag(tag)) {
      return OkStatus();  // Already retired (e.g. by Drain).
    }
    double next = 0.0;
    bool any = false;
    for (const Channel& ch : channels_) {
      if (!ch.pending.empty() && (!any || ch.busy_until_seconds < next)) {
        any = true;
        next = ch.busy_until_seconds;
      }
    }
    // Every backlogged channel's busy-until is past now + slice (otherwise
    // ScheduleAll would have dispatched), so this strictly advances.
    clock_->AdvanceTo(next);
    ScheduleAll();
    it = completed_.find(tag);
  }
  clock_->AdvanceTo(it->second.completion_seconds);
  completed_.erase(it);
  return OkStatus();
}

std::vector<IoCompletion> SimDisk::Poll() {
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

Status SimDisk::Drain() {
  ScheduleAll();
  // QoS dispatch parcels work out slice by slice; keep advancing the clock
  // until every channel's queue is empty (no-op on the legacy path).
  while (TotalPending() > 0) {
    double next = 0.0;
    bool any = false;
    for (const Channel& ch : channels_) {
      if (!ch.pending.empty() && (!any || ch.busy_until_seconds < next)) {
        any = true;
        next = ch.busy_until_seconds;
      }
    }
    clock_->AdvanceTo(next);
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

double SimDisk::ScheduledCompletion(IoTag tag) const {
  auto it = completed_.find(tag);
  return it == completed_.end() ? -1.0 : it->second.completion_seconds;
}

Status SimDisk::Read(uint64_t sector, std::span<uint8_t> out) {
  if (out.size() % sector_size() != 0) {
    return InvalidArgumentError("read size not sector-aligned");
  }
  ASSIGN_OR_RETURN(IoTag tag, SubmitRead(sector, out));
  return WaitFor(tag);
}

Status SimDisk::Write(uint64_t sector, std::span<const uint8_t> data) {
  if (data.size() % sector_size() != 0) {
    return InvalidArgumentError("write size not sector-aligned");
  }
  ASSIGN_OR_RETURN(IoTag tag, SubmitWrite(sector, data));
  return WaitFor(tag);
}

}  // namespace ld
