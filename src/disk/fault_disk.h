// Fault-injection wrapper used by recovery/robustness tests and benches.
//
// A FaultDisk forwards requests to an underlying device and injects media
// faults on the way through:
//
//  * Crash scheduling: CrashAfterWrites() fails the Nth write from now,
//    optionally persisting only a torn prefix of its sectors — a power
//    failure mid-segment-write. After the crash every request fails until
//    ClearFault() (the "reboot").
//  * Latent sector errors: sectors in the latent set fail every read with
//    IO_ERROR until they are rewritten (a rewrite remaps the sector, the
//    way real firmware heals a grown defect). Latent errors survive
//    ClearFault(): a reboot does not heal media.
//  * Transient errors: whole requests fail with IO_ERROR at a configured
//    probability, in bursts of bounded length, then succeed on retry.
//  * Silent corruption: written sectors are bit-flipped at a configured
//    probability, or explicitly via CorruptSector(). The flipped bytes are
//    stored on the inner device, so corruption persists across
//    ClearFault() and is only discovered by checksum verification above.
//
// Random faults are driven by a seeded Rng (FaultPlan::seed), so every
// fault schedule is deterministic and reproducible.

#ifndef SRC_DISK_FAULT_DISK_H_
#define SRC_DISK_FAULT_DISK_H_

#include <cstdint>
#include <unordered_set>

#include "src/disk/block_device.h"
#include "src/util/random.h"

namespace ld {

// Probabilistic fault schedule. All probabilities default to zero, so a
// default FaultPlan injects nothing; crash scheduling composes on top.
struct FaultPlan {
  uint64_t seed = 1;

  // Per-request probability that a read/write fails with a transient
  // IO_ERROR. A triggered fault starts a burst: the next `burst` requests of
  // that kind also fail, where burst is drawn uniformly from
  // [1, max_transient_burst]. The request after a burst always succeeds (no
  // new burst may trigger on it), so max_transient_burst is a hard bound on
  // consecutive transient failures and retry loops with a larger attempt
  // budget are guaranteed to get through.
  double transient_read_error_rate = 0.0;
  double transient_write_error_rate = 0.0;
  uint32_t max_transient_burst = 1;

  // Per-write probability that one sector of the written range develops a
  // latent error: the write itself succeeds, but later reads covering that
  // sector fail with IO_ERROR until it is rewritten.
  double latent_error_rate = 0.0;

  // Per-written-sector probability of a silent single-bit flip in the data
  // as it lands on media. Undetectable at the device interface.
  double bit_flip_rate = 0.0;
};

class FaultDisk : public BlockDevice {
 public:
  explicit FaultDisk(BlockDevice* inner) : inner_(inner), rng_(1) {}

  // Installs a probabilistic fault schedule (and reseeds the fault Rng).
  void SetFaultPlan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return plan_; }

  // Crashes on the Nth write from now (1 = the next write). If
  // `torn_sectors` >= 0, that write persists only its first `torn_sectors`
  // sectors before failing; otherwise it fails without persisting anything.
  void CrashAfterWrites(uint64_t n, int64_t torn_sectors = -1);

  // Immediately enter the crashed state.
  void CrashNow() { crashed_ = true; }

  // Leave the crashed state (the "reboot"). Clears crash scheduling and any
  // in-progress transient burst, but *preserves* latent sector errors and
  // corrupted sector contents: a reboot does not heal media.
  void ClearFault();

  bool crashed() const { return crashed_; }

  // --- Explicit media-fault injection -------------------------------------

  // Marks `sector` with a latent error: reads covering it fail with
  // IO_ERROR until the sector is rewritten.
  void InjectLatentError(uint64_t sector) { latent_sectors_.insert(sector); }
  bool HasLatentError(uint64_t sector) const { return latent_sectors_.count(sector) != 0; }
  size_t latent_error_count() const { return latent_sectors_.size(); }

  // Silently corrupts the stored contents of `sector` by XOR-ing
  // `xor_mask` into the byte at `byte_offset`. The damage is written to the
  // inner device (bypassing fault checks), so it persists across reboots.
  Status CorruptSector(uint64_t sector, uint32_t byte_offset = 0, uint8_t xor_mask = 0x01);

  // Number of silent bit flips injected so far (random plus explicit).
  uint64_t corruptions_injected() const { return corruptions_injected_; }

  // --- Whole-channel failure ----------------------------------------------

  // Fails channel `ch`: every request touching a sector owned by the channel
  // returns a typed IO_ERROR until the channel is healed. Models a dead
  // actuator/flash channel; survives ClearFault() like other media damage.
  void FailChannel(uint32_t ch) { failed_channels_.insert(ch); }

  // Replaces the channel with a blank spare: I/O is accepted again, but the
  // channel's media reads back as zeros (the old contents are gone). The LD
  // above is expected to re-materialize segments via Lld::Rebuild.
  Status HealChannel(uint32_t ch);

  bool channel_failed(uint32_t ch) const { return failed_channels_.count(ch) != 0; }
  size_t failed_channel_count() const { return failed_channels_.size(); }

  uint32_t sector_size() const override { return inner_->sector_size(); }
  uint64_t num_sectors() const override { return inner_->num_sectors(); }

  // Requests are forwarded to the inner device; faults are injected at
  // submit time, which models a crash that strikes while the write is in
  // flight (a torn write persists only its prefix, and the submit fails).
  // Sync Read/Write are submit + wait, so they take the same fault path.
  StatusOr<IoTag> SubmitRead(uint64_t sector, std::span<uint8_t> out) override;
  StatusOr<IoTag> SubmitWrite(uint64_t sector, std::span<const uint8_t> data) override;
  Status WaitFor(IoTag tag) override { return inner_->WaitFor(tag); }
  std::vector<IoCompletion> Poll() override { return inner_->Poll(); }
  Status Drain() override { return inner_->Drain(); }

  // Scheduling knobs and channel topology pass straight through so fault
  // injection composes with multi-channel devices and queue A/B tests.
  void set_queue_policy(QueuePolicy policy) override { inner_->set_queue_policy(policy); }
  QueuePolicy queue_policy() const override { return inner_->queue_policy(); }
  void set_queue_depth(uint32_t depth) override { inner_->set_queue_depth(depth); }
  uint32_t queue_depth() const override { return inner_->queue_depth(); }
  uint32_t num_channels() const override { return inner_->num_channels(); }
  uint32_t ChannelOf(uint64_t sector) const override { return inner_->ChannelOf(sector); }
  void set_request_tenant(TenantId tenant) override { inner_->set_request_tenant(tenant); }
  TenantId request_tenant() const override { return inner_->request_tenant(); }
  void set_qos(const QosConfig& config) override { inner_->set_qos(config); }
  QosConfig qos() const override { return inner_->qos(); }
  double ScheduledCompletion(IoTag tag) const override {
    return inner_->ScheduledCompletion(tag);
  }

  SimClock* clock() override { return inner_->clock(); }
  const DiskStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  DiskStats* mutable_stats() override { return inner_->mutable_stats(); }

 private:
  // Fault checks run at submit. Each returns OK or the injected failure,
  // and counts the failure in the device health stats.
  Status CheckReadFault(uint64_t sector, size_t bytes);
  Status CheckWriteFault(uint64_t sector, std::span<const uint8_t> data);
  Status CountReadError(uint64_t sector, Status s);
  Status CountWriteError(uint64_t sector, Status s);

  // Returns the failed channel owning any sector of [sector, sector+sectors),
  // or -1 when the range lies entirely on live channels.
  int64_t FailedChannelOf(uint64_t sector, uint64_t sectors) const;

  // Applies post-acceptance latent-error effects: heals rewritten latent
  // sectors and may develop a new one. SubmitWrite then bit-flips sectors as
  // they land.
  void ApplyWriteEffects(uint64_t sector, std::span<const uint8_t> data);

  BlockDevice* inner_;
  bool crashed_ = false;
  bool armed_ = false;
  uint64_t writes_until_crash_ = 0;
  int64_t torn_sectors_ = -1;

  FaultPlan plan_;
  Rng rng_;
  uint32_t read_burst_left_ = 0;
  uint32_t write_burst_left_ = 0;
  // Set when a burst drains: the next request of that kind may not start a
  // fresh burst, keeping max_transient_burst a hard bound.
  bool read_cooldown_ = false;
  bool write_cooldown_ = false;
  std::unordered_set<uint64_t> latent_sectors_;
  std::unordered_set<uint32_t> failed_channels_;
  uint64_t corruptions_injected_ = 0;
  std::vector<uint8_t> scratch_;  // Sector buffer for corruption writes.
};

}  // namespace ld

#endif  // SRC_DISK_FAULT_DISK_H_
