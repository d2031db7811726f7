#include "src/disk/fault_disk.h"

#include <algorithm>
#include <cstring>

namespace ld {

void FaultDisk::SetFaultPlan(const FaultPlan& plan) {
  plan_ = plan;
  rng_ = Rng(plan.seed);
  read_burst_left_ = 0;
  write_burst_left_ = 0;
  read_cooldown_ = false;
  write_cooldown_ = false;
}

void FaultDisk::CrashAfterWrites(uint64_t n, int64_t torn_sectors) {
  armed_ = true;
  writes_until_crash_ = n;
  torn_sectors_ = torn_sectors;
}

void FaultDisk::ClearFault() {
  crashed_ = false;
  armed_ = false;
  torn_sectors_ = -1;
  // A reboot ends any in-progress transient burst but does not touch
  // latent_sectors_ or stored (corrupted) contents: media damage persists.
  read_burst_left_ = 0;
  write_burst_left_ = 0;
  read_cooldown_ = false;
  write_cooldown_ = false;
}

Status FaultDisk::CorruptSector(uint64_t sector, uint32_t byte_offset, uint8_t xor_mask) {
  if (sector >= num_sectors() || byte_offset >= sector_size() || xor_mask == 0) {
    return InvalidArgumentError("CorruptSector: bad sector/offset/mask");
  }
  // Read-modify-write on the inner device so the damage is physically
  // stored and survives ClearFault().
  scratch_.resize(sector_size());
  RETURN_IF_ERROR(inner_->Read(sector, scratch_));
  scratch_[byte_offset] ^= xor_mask;
  RETURN_IF_ERROR(inner_->Write(sector, scratch_));
  corruptions_injected_++;
  return OkStatus();
}

Status FaultDisk::CountReadError(uint64_t sector, Status s) {
  if (DiskStats* stats = mutable_stats()) {
    stats->read_errors++;
    stats->MutableChannel(inner_->ChannelOf(sector)).read_errors++;
  }
  return s;
}

Status FaultDisk::CountWriteError(uint64_t sector, Status s) {
  if (DiskStats* stats = mutable_stats()) {
    stats->write_errors++;
    stats->MutableChannel(inner_->ChannelOf(sector)).write_errors++;
  }
  return s;
}

int64_t FaultDisk::FailedChannelOf(uint64_t sector, uint64_t sectors) const {
  if (failed_channels_.empty()) {
    return -1;
  }
  // Channels own contiguous sector bands (ChannelOf is monotonic), so a
  // request can only touch channels between its first and last sector's.
  const uint32_t first = inner_->ChannelOf(sector);
  const uint32_t last =
      inner_->ChannelOf(sectors > 0 ? sector + sectors - 1 : sector);
  for (uint32_t ch = first; ch <= last; ++ch) {
    if (failed_channels_.count(ch) != 0) {
      return ch;
    }
  }
  return -1;
}

Status FaultDisk::HealChannel(uint32_t ch) {
  if (ch >= inner_->num_channels()) {
    return InvalidArgumentError("HealChannel: no such channel");
  }
  if (failed_channels_.erase(ch) == 0) {
    // Healing a live channel is a no-op: the spare swap is destructive and
    // must only ever replace a channel that actually died.
    return OkStatus();
  }
  // The heal models swapping in a blank spare: find the channel's sector
  // band (ChannelOf is monotonic over contiguous bands) and zero it on the
  // inner device, bypassing fault checks. Latent errors in the band go with
  // the old platter.
  const uint64_t total = inner_->num_sectors();
  uint64_t lo = 0;
  uint64_t hi = total;
  while (lo < hi) {  // First sector owned by a channel >= ch.
    const uint64_t mid = lo + (hi - lo) / 2;
    if (inner_->ChannelOf(mid) < ch) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64_t band_begin = lo;
  hi = total;
  while (lo < hi) {  // First sector owned by a channel > ch.
    const uint64_t mid = lo + (hi - lo) / 2;
    if (inner_->ChannelOf(mid) <= ch) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64_t band_end = lo;
  const uint32_t ss = sector_size();
  const uint64_t chunk = 256;
  scratch_.assign(static_cast<size_t>(chunk) * ss, 0);
  for (uint64_t s = band_begin; s < band_end; s += chunk) {
    const uint64_t n = std::min(chunk, band_end - s);
    RETURN_IF_ERROR(inner_->Write(
        s, std::span<const uint8_t>(scratch_.data(), static_cast<size_t>(n) * ss)));
  }
  for (uint64_t s = band_begin; s < band_end; ++s) {
    latent_sectors_.erase(s);
  }
  return OkStatus();
}

Status FaultDisk::CheckReadFault(uint64_t sector, size_t bytes) {
  if (crashed_) {
    return CountReadError(sector, IoError("device crashed"));
  }
  // A dead channel fails everything touching its band, persistently (like a
  // latent error, it survives ClearFault: a reboot does not revive an arm).
  if (const int64_t ch = FailedChannelOf(sector, bytes / sector_size()); ch >= 0) {
    return CountReadError(
        sector, IoError("channel " + std::to_string(ch) + " failed"));
  }
  // Latent errors are persistent: they dominate transients so that retrying
  // a damaged sector keeps failing.
  if (!latent_sectors_.empty()) {
    const uint64_t sectors = bytes / sector_size();
    for (uint64_t s = sector; s < sector + sectors; ++s) {
      if (latent_sectors_.count(s) != 0) {
        return CountReadError(
            sector, IoError("latent sector error at sector " + std::to_string(s)));
      }
    }
  }
  if (read_burst_left_ > 0) {
    read_burst_left_--;
    read_cooldown_ = read_burst_left_ == 0;
    return CountReadError(sector, IoError("transient read error"));
  }
  if (read_cooldown_) {
    // The request right after a burst may not start a new one: this keeps
    // max_transient_burst a hard bound on consecutive failures.
    read_cooldown_ = false;
    return OkStatus();
  }
  if (plan_.transient_read_error_rate > 0.0 && rng_.Chance(plan_.transient_read_error_rate)) {
    read_burst_left_ =
        static_cast<uint32_t>(rng_.Range(1, plan_.max_transient_burst > 0
                                                ? plan_.max_transient_burst
                                                : 1)) - 1;
    read_cooldown_ = read_burst_left_ == 0;
    return CountReadError(sector, IoError("transient read error"));
  }
  return OkStatus();
}

Status FaultDisk::CheckWriteFault(uint64_t sector, std::span<const uint8_t> data) {
  if (crashed_) {
    return CountWriteError(sector, IoError("device crashed"));
  }
  // A dead-channel write is rejected before it can advance the armed-crash
  // countdown or land anything on media.
  if (const int64_t ch = FailedChannelOf(sector, data.size() / sector_size());
      ch >= 0) {
    return CountWriteError(
        sector, IoError("channel " + std::to_string(ch) + " failed"));
  }
  if (armed_) {
    if (writes_until_crash_ <= 1) {
      crashed_ = true;
      armed_ = false;
      if (torn_sectors_ > 0) {
        const size_t bytes = static_cast<size_t>(torn_sectors_) * sector_size();
        if (bytes < data.size()) {
          // Persist the prefix, then fail the request: a torn write.
          (void)inner_->Write(sector, data.subspan(0, bytes));
        } else {
          (void)inner_->Write(sector, data);
        }
      }
      return CountWriteError(sector, IoError("device crashed during write"));
    }
    writes_until_crash_--;
  }
  // A transient write failure is rejected before anything lands on media.
  if (write_burst_left_ > 0) {
    write_burst_left_--;
    write_cooldown_ = write_burst_left_ == 0;
    return CountWriteError(sector, IoError("transient write error"));
  }
  if (write_cooldown_) {
    write_cooldown_ = false;
    return OkStatus();
  }
  if (plan_.transient_write_error_rate > 0.0 && rng_.Chance(plan_.transient_write_error_rate)) {
    write_burst_left_ =
        static_cast<uint32_t>(rng_.Range(1, plan_.max_transient_burst > 0
                                                ? plan_.max_transient_burst
                                                : 1)) - 1;
    write_cooldown_ = write_burst_left_ == 0;
    return CountWriteError(sector, IoError("transient write error"));
  }
  return OkStatus();
}

void FaultDisk::ApplyWriteEffects(uint64_t sector, std::span<const uint8_t> data) {
  const uint64_t sectors = data.size() / sector_size();
  // Rewriting a sector heals its latent error (firmware remap on write).
  if (!latent_sectors_.empty()) {
    for (uint64_t s = sector; s < sector + sectors; ++s) {
      latent_sectors_.erase(s);
    }
  }
  // ...and may grow a fresh defect somewhere in the written range.
  if (plan_.latent_error_rate > 0.0 && rng_.Chance(plan_.latent_error_rate)) {
    latent_sectors_.insert(sector + rng_.Below(sectors > 0 ? sectors : 1));
  }
}

StatusOr<IoTag> FaultDisk::SubmitRead(uint64_t sector, std::span<uint8_t> out) {
  RETURN_IF_ERROR(CheckReadFault(sector, out.size()));
  return inner_->SubmitRead(sector, out);
}

StatusOr<IoTag> FaultDisk::SubmitWrite(uint64_t sector, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(CheckWriteFault(sector, data));
  ApplyWriteEffects(sector, data);
  if (plan_.bit_flip_rate > 0.0) {
    // Decide per sector whether a silent bit flip lands with the data.
    const uint32_t ss = sector_size();
    const uint64_t sectors = data.size() / ss;
    bool flipped = false;
    for (uint64_t i = 0; i < sectors; ++i) {
      if (!rng_.Chance(plan_.bit_flip_rate)) {
        continue;
      }
      if (!flipped) {
        scratch_.assign(data.begin(), data.end());
        flipped = true;
      }
      const size_t byte = i * ss + rng_.Below(ss);
      scratch_[byte] ^= static_cast<uint8_t>(1u << rng_.Below(8));
      corruptions_injected_++;
    }
    if (flipped) {
      // Data effects are applied eagerly at submit time, so the corrupted
      // image must land through the same submit call.
      return inner_->SubmitWrite(sector, scratch_);
    }
  }
  return inner_->SubmitWrite(sector, data);
}

}  // namespace ld
