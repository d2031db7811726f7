// Idle-driven background maintenance for a log-structured LD.
//
// All the repair and hygiene work LLD knows how to do — media scrub,
// checkpoint frames, post-heal rebuild, restripe after heal — exists as
// incremental, re-entrant operations on LogStructuredDisk. This scheduler
// is the policy layer that runs them: it watches the device's foreground
// idle signal (DiskStats::IdleSeconds) and, when the device has been quiet
// long enough, runs one bounded slice of one duty per Step() call, billed to
// a tenant id of its own (kMaintenanceTenant) so the idle detector can tell
// maintenance from foreground and, where a QoS config weights that tenant,
// the dispatch layer paces it against whatever foreground arrives mid-slice.
//
// A scheduler attaches itself to its LLD when constructed and detaches when
// destroyed (LogStructuredDisk::set_maintenance). While attached, the LLD's
// cleaning rounds bill to kMaintenanceTenant too, and with the checkpoint
// duty on, cadence-driven checkpoint frames wait for the checkpoint duty
// instead of riding the seal. Build a scheduler only where Step() or Drain()
// will run; one that is never stepped leaves due frames unwritten.
//
// The scheduler owns no thread: the harness (or an embedding application)
// calls Step() at convenient points — between requests, on a timer tick —
// and the scheduler decides whether the device is idle enough to spend a
// slice. This mirrors the paper's user-level prototype, where background
// reorganization runs inside the LD server's event loop rather than in a
// kernel thread.
//
// Duties, round-robin so no duty starves another:
//   checkpoint — write the due delta frame that attachment kept off the
//                seal path (Lld::CheckpointStep).
//   rebuild    — re-materialize a healed channel's striped segments, a few
//                per slice (Lld::Rebuild(n)).
//   restripe   — re-form stripe sets over segments the heal left unstriped;
//                armed automatically when a rebuild queue drains, or by
//                RequestRestripe() (Lld::FormStripes(n)).
//   scrub      — cursor-driven media verification, a few segments per
//                slice (Lld::ScrubStep); one pass over the volume per
//                arming, continuous when continuous_scrub is set.
//
// Crash safety is inherited, not added: every duty is a normal LLD
// operation with the same durability ordering as its foreground equivalent,
// so a crash mid-maintenance recovers exactly like a crash mid-Scrub or
// mid-Rebuild (the recovery tests sweep both and compare outcome sets).

#ifndef SRC_LLD_LLD_MAINTENANCE_H_
#define SRC_LLD_LLD_MAINTENANCE_H_

#include <cstdint>

#include "src/lld/lld.h"
#include "src/lld/reports.h"

namespace ld {

// The tenant id of all maintenance I/O: every duty slice, and every
// cleaning round of the attached LLD. It must differ from the foreground's:
// the idle detector classifies requests by this id, and with a shared id the
// scheduler's own I/O would read as foreground pressure and starve it. The
// single-file-system setups run their session as kDefaultTenant (0); the
// multi-tenant rig, whose session 1 also uses id 1, attaches no scheduler.
// Nothing registers a QoS weight for it except bench_faults' aggressor
// experiment, so elsewhere it shares the device like any other tenant.
inline constexpr TenantId kMaintenanceTenant = 1;

struct MaintenanceOptions {
  // The device must have seen no foreground request for this long before a
  // slice runs. Fresh foreground pressure since the previous Step() doubles
  // the required window once (back-off under load).
  double idle_threshold_ms = 2.0;

  // Slice sizes: work per duty per Step(). Small slices keep the time the
  // device is busy with maintenance short, so a foreground burst arriving
  // mid-slice waits at most one slice (plus the QoS dispatch already
  // interleaves at chunk granularity).
  uint32_t scrub_segments_per_slice = 4;
  uint32_t rebuild_segments_per_slice = 2;

  // Duty gates, all on by default (a duty whose trigger never fires costs
  // nothing).
  bool scrub = true;
  bool checkpoint = true;
  bool rebuild = true;
  bool restripe = true;

  // Re-arm the scrub cursor after each completed pass, so the volume is
  // verified continuously instead of once per arming.
  bool continuous_scrub = false;
};

struct MaintenanceStats {
  uint64_t steps = 0;              // Step() calls.
  uint64_t idle_skips = 0;         // Steps with work that the idle gate vetoed.
  uint64_t scrub_slices = 0;
  uint64_t scrub_segments = 0;     // Segment indices the scrub cursor advanced over.
  uint64_t scrub_cycles = 0;       // Completed full passes over the volume.
  uint64_t checkpoint_frames = 0;  // Deferred frames written by CheckpointStep.
  uint64_t rebuild_slices = 0;
  uint64_t rebuild_segments = 0;   // Segments taken off the rebuild queue.
  uint64_t restripe_passes = 0;
  uint64_t stripes_formed = 0;
  ScrubReport last_scrub;          // Accumulated report of the current/last cycle.
  RebuildReport last_rebuild;
};

class MaintenanceScheduler {
 public:
  // Attaches to `lld` until destroyed; the LLD must outlive the scheduler.
  MaintenanceScheduler(LogStructuredDisk* lld, const MaintenanceOptions& options)
      : lld_(lld), options_(options) {
    lld_->set_maintenance(this);
  }
  ~MaintenanceScheduler() { lld_->set_maintenance(nullptr); }
  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  // Runs at most one duty slice if the device is idle and a duty has work.
  // Returns whether a slice ran. Safe to call at any cadence.
  StatusOr<bool> Step();

  // Runs duty slices back to back, ignoring the idle gate, until no duty
  // has work or `max_steps` slices ran (0 = unbounded). Returns the number
  // of slices run. For shutdown paths and tests that want the backlog gone.
  StatusOr<uint32_t> Drain(uint32_t max_steps = 0);

  // True when some enabled duty would run if the device were idle.
  bool HasWork() const;

  // Manual arming (a fresh scrub pass; a restripe pass without a preceding
  // rebuild — e.g. after growing the stripe-eligible segment population).
  void RequestScrub() { scrub_armed_ = true; }
  void RequestRestripe() { restripe_armed_ = true; }

  const MaintenanceStats& stats() const { return stats_; }
  const MaintenanceOptions& options() const { return options_; }

 private:
  // Updates restripe arming from the rebuild queue and registers the
  // maintenance tenant with the device's idle detector (re-done every step
  // because ResetStats() wipes it).
  void Observe();
  StatusOr<bool> RunOneDuty();

  LogStructuredDisk* lld_;
  MaintenanceOptions options_;
  MaintenanceStats stats_;
  uint32_t duty_cursor_ = 0;
  bool scrub_armed_ = true;      // One full verification pass after startup.
  bool restripe_armed_ = false;
  bool saw_rebuild_pending_ = false;
  uint64_t foreground_seen_ = 0;
};

}  // namespace ld

#endif  // SRC_LLD_LLD_MAINTENANCE_H_
