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

template <typename Attempt>
Status ReliableIo::Retry(bool is_read, uint64_t sector, Attempt attempt) {
  Status s = attempt();
  for (uint32_t n = 1; Retryable(s) && n < kMaxAttempts; ++n) {
    BackoffBeforeRetry(n, is_read, sector);
    s = attempt();
    if (s.ok()) {
      CountRecovery();
    }
  }
  return s;
}

Status ReliableIo::Read(uint64_t sector, std::span<uint8_t> out) {
  return Retry(/*is_read=*/true, sector, [&] { return device_->Read(sector, out); });
}

Status ReliableIo::Write(uint64_t sector, std::span<const uint8_t> data) {
  return Retry(/*is_read=*/false, sector, [&] { return device_->Write(sector, data); });
}

StatusOr<IoTag> ReliableIo::SubmitRead(uint64_t sector, std::span<uint8_t> out) {
  IoTag tag = kInvalidIoTag;
  RETURN_IF_ERROR(Retry(/*is_read=*/true, sector, [&]() -> Status {
    ASSIGN_OR_RETURN(tag, device_->SubmitRead(sector, out));
    return OkStatus();
  }));
  return tag;
}

StatusOr<IoTag> ReliableIo::SubmitWrite(uint64_t sector, std::span<const uint8_t> data) {
  IoTag tag = kInvalidIoTag;
  RETURN_IF_ERROR(Retry(/*is_read=*/false, sector, [&]() -> Status {
    ASSIGN_OR_RETURN(tag, device_->SubmitWrite(sector, data));
    return OkStatus();
  }));
  return tag;
}

}  // namespace ld
