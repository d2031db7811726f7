#include "src/lld/lld_maintenance.h"

#include <algorithm>

namespace ld {

namespace {

// Stripe sets one restripe slice may form. At least two: every bounded
// FormStripes pass seals one record-carrier segment, which is itself a
// future stripe candidate, so a one-set slice would churn carriers forever
// without ever shrinking the unstriped population.
constexpr uint32_t kRestripeSetsPerSlice = 8;

}  // namespace

void MaintenanceScheduler::Observe() {
  if (DiskStats* ds = lld_->device()->mutable_stats()) {
    // Sticky registration of the maintenance tenant, so NoteRequest can
    // classify traffic; redone every step because ResetStats() wipes it.
    ds->maintenance_tenant = kMaintenanceTenant;
  }
  // A rebuild queue observed nonempty and now drained means a heal just
  // finished; the healed channel's segments are unstriped until a restripe
  // pass covers them again.
  const uint32_t pending = lld_->rebuild_pending();
  if (pending > 0) {
    saw_rebuild_pending_ = true;
  } else if (saw_rebuild_pending_) {
    saw_rebuild_pending_ = false;
    restripe_armed_ = true;
  }
}

bool MaintenanceScheduler::HasWork() const {
  return (options_.checkpoint && lld_->CheckpointFrameDue()) ||
         (options_.rebuild && lld_->rebuild_pending() > 0) ||
         (options_.restripe && restripe_armed_) || (options_.scrub && scrub_armed_);
}

StatusOr<bool> MaintenanceScheduler::Step() {
  stats_.steps++;
  Observe();
  if (!HasWork()) {
    return false;
  }
  bool backoff = false;
  if (DiskStats* ds = lld_->device()->mutable_stats()) {
    // Fresh foreground traffic since the last step means the device is in a
    // busy phase: demand a doubled quiet window before spending a slice.
    backoff = ds->foreground_requests > foreground_seen_;
    foreground_seen_ = ds->foreground_requests;
    const double idle_ms = ds->IdleSeconds(lld_->device()->clock()->Now()) * 1000.0;
    if (idle_ms < options_.idle_threshold_ms * (backoff ? 2.0 : 1.0)) {
      stats_.idle_skips++;
      return false;
    }
  }
  return RunOneDuty();
}

StatusOr<uint32_t> MaintenanceScheduler::Drain(uint32_t max_steps) {
  uint32_t ran = 0;
  while (max_steps == 0 || ran < max_steps) {
    Observe();
    if (!HasWork()) {
      break;
    }
    ASSIGN_OR_RETURN(const bool did, RunOneDuty());
    if (!did) {
      break;  // Every armed duty declined (e.g. restripe found nothing).
    }
    ran++;
  }
  return ran;
}

StatusOr<bool> MaintenanceScheduler::RunOneDuty() {
  // Whichever duty runs, its I/O (and any cleaning it triggers) is
  // maintenance traffic.
  TenantScope tenant(lld_->device(), kMaintenanceTenant);
  // Round-robin over the duties so a long backlog in one (a full-volume
  // scrub) cannot starve the others (a due checkpoint frame).
  for (uint32_t probe = 0; probe < 4; ++probe) {
    const uint32_t duty = duty_cursor_;
    duty_cursor_ = (duty_cursor_ + 1) % 4;
    switch (duty) {
      case 0: {  // Checkpoint frame.
        if (!options_.checkpoint || !lld_->CheckpointFrameDue()) {
          break;
        }
        ASSIGN_OR_RETURN(const bool wrote, lld_->CheckpointStep());
        if (wrote) {
          stats_.checkpoint_frames++;
        }
        return true;
      }
      case 1: {  // Paced rebuild.
        if (!options_.rebuild || lld_->rebuild_pending() == 0) {
          break;
        }
        const uint32_t before = lld_->rebuild_pending();
        ASSIGN_OR_RETURN(const RebuildReport report,
                         lld_->Rebuild(std::max(options_.rebuild_segments_per_slice, 1u)));
        stats_.rebuild_slices++;
        stats_.rebuild_segments += before - std::min(before, report.segments_pending);
        stats_.last_rebuild = report;
        return true;
      }
      case 2: {  // Restripe after heal.
        if (!options_.restripe || !restripe_armed_) {
          break;
        }
        const uint32_t unstriped_before = lld_->UnstripedFullSegments();
        ASSIGN_OR_RETURN(const uint32_t formed, lld_->FormStripes(kRestripeSetsPerSlice));
        stats_.restripe_passes++;
        stats_.stripes_formed += formed;
        // Convergence is "the unstriped population stopped shrinking", not
        // "nothing was formed": every pass seals a record carrier that is
        // itself a fresh unstriped segment, so a pass that only re-stripes
        // its predecessor's carrier is treading water.
        if (formed == 0 || lld_->UnstripedFullSegments() >= unstriped_before) {
          restripe_armed_ = false;
        }
        if (formed == 0) {
          break;  // Let another duty use this slice.
        }
        return true;
      }
      case 3: {  // Incremental scrub.
        if (!options_.scrub || !scrub_armed_) {
          break;
        }
        const uint32_t cursor_before = lld_->scrub_cursor();
        ASSIGN_OR_RETURN(stats_.last_scrub,
                         lld_->ScrubStep(std::max(options_.scrub_segments_per_slice, 1u)));
        stats_.scrub_slices++;
        if (lld_->scrub_cycle_active()) {
          stats_.scrub_segments += lld_->scrub_cursor() - cursor_before;
        } else {
          stats_.scrub_segments += lld_->num_segments() - cursor_before;
          stats_.scrub_cycles++;
          scrub_armed_ = options_.continuous_scrub;
        }
        return true;
      }
    }
  }
  return false;
}

}  // namespace ld
