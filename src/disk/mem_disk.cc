#include "src/disk/mem_disk.h"

#include <cstring>

namespace ld {

MemDisk::MemDisk(uint64_t num_sectors, uint32_t sector_size, SimClock* clock)
    : num_sectors_(num_sectors),
      sector_size_(sector_size),
      clock_(clock),
      storage_(num_sectors * sector_size, 0) {}

Status MemDisk::Read(uint64_t sector, std::span<uint8_t> out) {
  if (out.size() % sector_size_ != 0) {
    return InvalidArgumentError("read size not sector-aligned");
  }
  const uint64_t count = out.size() / sector_size_;
  if (sector + count > num_sectors_) {
    return InvalidArgumentError("read beyond device end");
  }
  std::memcpy(out.data(), storage_.data() + sector * sector_size_, out.size());
  stats_.NoteRequest(tenant_, clock_->Now());
  stats_.read_ops++;
  stats_.sectors_read += count;
  return OkStatus();
}

Status MemDisk::Write(uint64_t sector, std::span<const uint8_t> data) {
  if (data.size() % sector_size_ != 0) {
    return InvalidArgumentError("write size not sector-aligned");
  }
  const uint64_t count = data.size() / sector_size_;
  if (sector + count > num_sectors_) {
    return InvalidArgumentError("write beyond device end");
  }
  std::memcpy(storage_.data() + sector * sector_size_, data.data(), data.size());
  stats_.NoteRequest(tenant_, clock_->Now());
  stats_.write_ops++;
  stats_.sectors_written += count;
  return OkStatus();
}

}  // namespace ld
