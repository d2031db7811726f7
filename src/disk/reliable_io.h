// Retry shim between a client (LLD) and a BlockDevice.
//
// Real controllers retry transient failures below the file system; this shim
// plays that role for the simulated stack. Every failed request classified as
// retryable (IO_ERROR — transient faults recover, persistent ones simply
// exhaust the attempts) is attempted up to kMaxAttempts times in total, with
// capped exponential backoff charged to the device's SimClock, so retry cost
// shows up in benchmark timings. CORRUPTION and argument errors are never
// retried: re-reading a bit-flipped sector returns the same wrong bytes.
//
// Health accounting (retries issued, transient recoveries) lands in the
// device's DiskStats via mutable_stats(). A request that succeeds on the
// first attempt takes the straight-through path with zero added cost.

#ifndef SRC_DISK_RELIABLE_IO_H_
#define SRC_DISK_RELIABLE_IO_H_

#include <cstdint>

#include "src/disk/block_device.h"

namespace ld {

class ReliableIo {
 public:
  explicit ReliableIo(BlockDevice* device) : device_(device) {}

  Status Read(uint64_t sector, std::span<uint8_t> out);
  Status Write(uint64_t sector, std::span<const uint8_t> data);

  // Submit-side retry for the async path: the submit call itself is where
  // injected faults surface (completions of accepted requests always
  // succeed), so retrying the submit covers the pipelined writers.
  StatusOr<IoTag> SubmitRead(uint64_t sector, std::span<uint8_t> out);
  StatusOr<IoTag> SubmitWrite(uint64_t sector, std::span<const uint8_t> data);

 private:
  static constexpr uint32_t kMaxAttempts = 4;         // Total attempts per request.
  static constexpr double kInitialBackoffS = 0.5e-3;  // Backoff before the first retry.
  static constexpr double kMaxBackoffS = 8e-3;        // Cap; backoff doubles up to this.

  // True for errors worth retrying.
  static bool Retryable(const Status& s) { return s.code() == ErrorCode::kIoError; }

  // Advances the sim clock for retry attempt `attempt` (1-based) and counts
  // the retry in the device health stats (global and per-channel, attributed
  // to the channel owning the request's first sector).
  void BackoffBeforeRetry(uint32_t attempt, bool is_read, uint64_t sector);
  void CountRecovery();

  BlockDevice* device_;
};

}  // namespace ld

#endif  // SRC_DISK_RELIABLE_IO_H_
