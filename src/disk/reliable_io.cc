#include "src/disk/reliable_io.h"

namespace ld {

void ReliableIo::BackoffBeforeRetry(uint32_t attempt, bool is_read, uint64_t sector) {
  double backoff = kInitialBackoffS;
  for (uint32_t i = 1; i < attempt; ++i) {
    backoff *= 2.0;
    if (backoff >= kMaxBackoffS) {
      backoff = kMaxBackoffS;
      break;
    }
  }
  if (SimClock* clock = device_->clock()) {
    clock->Advance(backoff);
  }
  if (DiskStats* stats = device_->mutable_stats()) {
    (is_read ? stats->read_retries : stats->write_retries)++;
    ChannelStats& ch = stats->MutableChannel(device_->ChannelOf(sector));
    (is_read ? ch.read_retries : ch.write_retries)++;
  }
}

void ReliableIo::CountRecovery() {
  if (DiskStats* stats = device_->mutable_stats()) {
    stats->transient_recoveries++;
  }
}

Status ReliableIo::Read(uint64_t sector, std::span<uint8_t> out) {
  Status s = device_->Read(sector, out);
  for (uint32_t attempt = 1; !s.ok() && Retryable(s) && attempt < kMaxAttempts;
       ++attempt) {
    BackoffBeforeRetry(attempt, /*is_read=*/true, sector);
    s = device_->Read(sector, out);
    if (s.ok()) {
      CountRecovery();
    }
  }
  return s;
}

Status ReliableIo::Write(uint64_t sector, std::span<const uint8_t> data) {
  Status s = device_->Write(sector, data);
  for (uint32_t attempt = 1; !s.ok() && Retryable(s) && attempt < kMaxAttempts;
       ++attempt) {
    BackoffBeforeRetry(attempt, /*is_read=*/false, sector);
    s = device_->Write(sector, data);
    if (s.ok()) {
      CountRecovery();
    }
  }
  return s;
}

StatusOr<IoTag> ReliableIo::SubmitRead(uint64_t sector, std::span<uint8_t> out) {
  StatusOr<IoTag> r = device_->SubmitRead(sector, out);
  for (uint32_t attempt = 1;
       !r.ok() && Retryable(r.status()) && attempt < kMaxAttempts; ++attempt) {
    BackoffBeforeRetry(attempt, /*is_read=*/true, sector);
    r = device_->SubmitRead(sector, out);
    if (r.ok()) {
      CountRecovery();
    }
  }
  return r;
}

StatusOr<IoTag> ReliableIo::SubmitWrite(uint64_t sector, std::span<const uint8_t> data) {
  StatusOr<IoTag> r = device_->SubmitWrite(sector, data);
  for (uint32_t attempt = 1;
       !r.ok() && Retryable(r.status()) && attempt < kMaxAttempts; ++attempt) {
    BackoffBeforeRetry(attempt, /*is_read=*/false, sector);
    r = device_->SubmitWrite(sector, data);
    if (r.ok()) {
      CountRecovery();
    }
  }
  return r;
}

}  // namespace ld
