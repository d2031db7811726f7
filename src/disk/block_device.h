// The raw device interface every LD implementation sits on.
//
// A BlockDevice transfers whole runs of contiguous sectors in one request.
// Two access styles are offered:
//
//  * Asynchronous SubmitRead/SubmitWrite + WaitFor/Poll/Drain: requests are
//    tagged and queued; the caller may keep doing CPU work (advancing the
//    clock) while requests are "in flight", and only waits — advancing the
//    clock to the request's simulated completion time — when it needs the
//    result to be durable. Because the simulator is single-threaded, data
//    effects are applied eagerly at submit time (reads observe all previously
//    submitted writes); only the *timing* is deferred.
//  * Synchronous Read/Write: submit one request and wait for it (the shared
//    SimClock is advanced by the full service time).
//
// The synchronous calls are exactly submit + wait on every device, so both
// styles charge identical service time for a single outstanding request.
// The simulated devices share one request queue (QueuedDevice); MemDisk
// completes every request at submit.
//
// Devices may expose multiple independent *channels* (actuators on a
// multi-arm disk, flash channels on an SSD). Sector ranges are statically
// partitioned across channels; requests on different channels are serviced
// concurrently. ChannelOf() reveals the static mapping so log-structured
// layers can place data to exploit the parallelism.

#ifndef SRC_DISK_BLOCK_DEVICE_H_
#define SRC_DISK_BLOCK_DEVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/disk/clock.h"
#include "src/disk/qos.h"
#include "src/util/status.h"

namespace ld {

// Identifies one queued request; unique per device for the device's lifetime.
using IoTag = uint64_t;
inline constexpr IoTag kInvalidIoTag = 0;

// How a queueing device orders each scheduled batch before service.
// Devices without a mechanical arm may ignore the policy.
enum class QueuePolicy {
  kFifo,   // Submission order.
  kCScan,  // Circular elevator: ascending sector from the arm, then wrap.
};

// Reported by Poll(): a request that has (logically) finished.
struct IoCompletion {
  IoTag tag = kInvalidIoTag;
  bool is_read = false;
  // Simulated time at which the device finished servicing the request.
  double completion_seconds = 0.0;
};

// Per-channel activity breakdown. Devices with one channel still populate
// channel 0 if they track channels at all; devices that don't leave the
// vector empty and DiskStats::channel() returns zeros.
struct ChannelStats {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t sectors_read = 0;
  uint64_t sectors_written = 0;
  double busy_ms = 0.0;          // Channel service time (incl. overhead).
  double queue_wait_ms = 0.0;    // Time requests waited on this channel.
  uint64_t queued_requests = 0;  // Requests routed to this channel.

  // Channel health: failures counted by the fault wrapper and extra attempts
  // issued by the ReliableIo shim, attributed to the channel owning the
  // request's first sector. A dead channel shows up as a column of errors.
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t read_retries = 0;
  uint64_t write_retries = 0;
};

// Cumulative counters a device keeps about its own activity: only what the
// device, a fault wrapper, or the ReliableIo shim in front of it observes.
// Counters of the layers above live with their owners (BufferCache's hit and
// prefetch counters, LldCounters' user bytes, wear and stripe repairs), so
// two LDs sharing one device never count into each other's numbers.
struct DiskStats {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t sectors_read = 0;
  uint64_t sectors_written = 0;
  uint64_t seeks = 0;            // Requests that moved the arm.
  double seek_ms = 0.0;          // Total time spent seeking.
  double rotation_ms = 0.0;      // Total rotational latency.
  double transfer_ms = 0.0;      // Total media transfer time.
  double busy_ms = 0.0;          // Total service time (incl. overhead).

  // Request-queue behaviour (devices without a queue leave these at zero).
  uint64_t queued_requests = 0;  // Requests that passed through the queue.
  uint64_t merged_requests = 0;  // Requests coalesced into a neighbour.
  uint64_t max_queue_depth = 0;  // High-water mark of outstanding requests.
  double queue_wait_ms = 0.0;    // Total time requests waited before service.

  // Device health. The error counters are bumped by the device (or a fault
  // wrapper) when a request fails; the retry/recovery counters are bumped by
  // the ReliableIo shim that sits between a client and the device.
  uint64_t read_errors = 0;          // Read requests that failed.
  uint64_t write_errors = 0;         // Write requests that failed.
  uint64_t read_retries = 0;         // Extra read attempts issued by the shim.
  uint64_t write_retries = 0;        // Extra write attempts issued by the shim.
  uint64_t transient_recoveries = 0; // Requests that succeeded after retrying.

  // --- Idle / maintenance signal -------------------------------------------
  //
  // Devices stamp every request they accept through NoteRequest(), splitting
  // the activity clock between foreground traffic and the registered
  // maintenance tenant. The background MaintenanceScheduler registers its
  // tenant id here and gates its slices on IdleSeconds() — maintenance's own
  // I/O keeps a separate clock so a scrub slice does not reset the idle
  // detector it is gated on. Timestamps are simulated seconds; -1 = never.
  TenantId maintenance_tenant = kNoMaintenanceTenant;
  double last_foreground_submit_s = -1.0;
  double last_maintenance_submit_s = -1.0;
  uint64_t foreground_requests = 0;
  uint64_t maintenance_requests = 0;

  void NoteRequest(TenantId tenant, double now_seconds) {
    if (maintenance_tenant != kNoMaintenanceTenant && tenant == maintenance_tenant) {
      last_maintenance_submit_s = now_seconds;
      maintenance_requests++;
    } else {
      last_foreground_submit_s = now_seconds;
      foreground_requests++;
    }
  }
  // Seconds since the last foreground request (all of `now` if none ever).
  double IdleSeconds(double now_seconds) const {
    return last_foreground_submit_s < 0.0 ? now_seconds
                                          : now_seconds - last_foreground_submit_s;
  }

  uint64_t TotalOps() const { return read_ops + write_ops; }
  uint64_t BytesRead(uint32_t sector_size) const { return sectors_read * sector_size; }
  uint64_t BytesWritten(uint32_t sector_size) const { return sectors_written * sector_size; }

  // --- Per-channel breakdown (stable accessor) -----------------------------
  //
  // Access goes through channel() rather than a public vector so single-
  // channel devices (and old consumers) need no changes: out-of-range
  // indices read as all-zero.
  size_t channel_count() const { return channels_.size(); }
  const ChannelStats& channel(size_t i) const;
  // For devices: grows the vector on demand.
  ChannelStats& MutableChannel(size_t i);

  // --- Per-tenant breakdown (same accessor pattern) ------------------------
  //
  // Queueing devices account every request to the tenant that submitted it
  // (see BlockDevice::set_request_tenant). Single-tenant runs put everything
  // under kDefaultTenant; out-of-range indices read as all-zero.
  size_t tenant_count() const { return tenants_.size(); }
  const TenantStats& tenant(size_t i) const;
  TenantStats& MutableTenant(size_t i);

 private:
  std::vector<ChannelStats> channels_;
  std::vector<TenantStats> tenants_;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t sector_size() const = 0;
  virtual uint64_t num_sectors() const = 0;
  uint64_t capacity_bytes() const { return num_sectors() * sector_size(); }

  // Reads `out.size()` bytes starting at `sector`. out.size() must be a
  // multiple of the sector size. SubmitRead + WaitFor.
  virtual Status Read(uint64_t sector, std::span<uint8_t> out);

  // Writes `data.size()` bytes starting at `sector`; same size constraint.
  // SubmitWrite + WaitFor.
  virtual Status Write(uint64_t sector, std::span<const uint8_t> data);

  // --- Asynchronous request queue ------------------------------------------
  //
  // Submit* validates the request, applies its data effect immediately, and
  // enqueues its timing. Errors that a synchronous call would return (bad
  // alignment, out of range, injected device crash) are returned from Submit*
  // itself; a returned tag's eventual completion is always successful.

  virtual StatusOr<IoTag> SubmitRead(uint64_t sector, std::span<uint8_t> out) = 0;
  virtual StatusOr<IoTag> SubmitWrite(uint64_t sector, std::span<const uint8_t> data) = 0;

  // Blocks until `tag` completes, advancing the clock to its completion time.
  // Waiting on a tag that already completed (e.g. consumed by Drain) is a
  // no-op returning OK.
  virtual Status WaitFor(IoTag tag) = 0;

  // Returns (and retires) completions whose completion time is <= Now().
  // Never advances the clock.
  virtual std::vector<IoCompletion> Poll() = 0;

  // Blocks until every outstanding request completes, advancing the clock to
  // the last completion time.
  virtual Status Drain() = 0;

  // --- Scheduling knobs ----------------------------------------------------
  //
  // Defaults are no-ops so benches and tests can A/B any backend without
  // downcasting; queueing devices override them. queue_depth() == 1 means
  // every request is scheduled as soon as it is submitted (the synchronous
  // model).

  virtual void set_queue_policy(QueuePolicy /*policy*/) {}
  virtual QueuePolicy queue_policy() const { return QueuePolicy::kFifo; }
  virtual void set_queue_depth(uint32_t /*depth*/) {}
  virtual uint32_t queue_depth() const { return 1; }

  // --- Tenant context / QoS ------------------------------------------------
  //
  // The simulator is single-threaded, so the tenant id is sticky per-device
  // request context rather than a per-call argument: a session sets it before
  // issuing I/O (PartitionDevice re-asserts it on every forwarded call) and
  // the device stamps it into each queued request. Defaults are no-ops so
  // non-queueing devices and old consumers need no changes.

  virtual void set_request_tenant(TenantId /*tenant*/) {}
  virtual TenantId request_tenant() const { return kDefaultTenant; }

  // Dispatch policy between tenants. Only consulted by queueing devices, and
  // only deviates from the legacy schedule when config.Active() (more than
  // one tenant): QoS is a between-tenants policy, so single-tenant runs are
  // byte-identical with or without it.
  virtual void set_qos(const QosConfig& /*config*/) {}
  virtual QosConfig qos() const { return QosConfig{}; }

  // --- Channel topology ----------------------------------------------------

  // Number of independent channels/actuators. Requests on distinct channels
  // proceed concurrently; requests on the same channel serialize.
  virtual uint32_t num_channels() const { return 1; }

  // The channel that statically owns `sector`. Stable for the device's
  // lifetime; log-structured layers use it for placement.
  virtual uint32_t ChannelOf(uint64_t /*sector*/) const { return 0; }

  // Completion time of `tag` if it has been scheduled but not yet retired;
  // negative for unknown/unsupported. Exposed for tests.
  virtual double ScheduledCompletion(IoTag /*tag*/) const { return -1.0; }

  virtual SimClock* clock() = 0;
  virtual const DiskStats& stats() const = 0;
  virtual void ResetStats() = 0;

  // Mutable view of stats() for layers stacked on top of the device (fault
  // wrappers counting errors, the ReliableIo retry shim). Devices that track
  // stats return their own struct; wrappers forward to the wrapped device.
  virtual DiskStats* mutable_stats() { return nullptr; }
};

}  // namespace ld

#endif  // SRC_DISK_BLOCK_DEVICE_H_
