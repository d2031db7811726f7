#include "src/disk/mem_disk.h"

#include <algorithm>
#include <iterator>
#include <string>

namespace ld {

MemDisk::MemDisk(uint64_t num_sectors, uint32_t sector_size, SimClock* clock)
    : num_sectors_(num_sectors),
      sector_size_(sector_size),
      clock_(clock),
      storage_(num_sectors * sector_size) {}

Status MemDisk::CheckRange(uint64_t sector, size_t bytes, const char* what) const {
  if (bytes % sector_size_ != 0) {
    return InvalidArgumentError(std::string(what) + " size not sector-aligned");
  }
  if (sector + bytes / sector_size_ > num_sectors_) {
    return InvalidArgumentError(std::string(what) + " beyond device end");
  }
  return OkStatus();
}

IoTag MemDisk::Complete(bool is_read, uint64_t count) {
  stats_.NoteRequest(tenant_, clock_->Now());
  if (is_read) {
    stats_.read_ops++;
    stats_.sectors_read += count;
  } else {
    stats_.write_ops++;
    stats_.sectors_written += count;
  }
  const IoTag tag = next_tag_++;
  done_.push_back({tag, is_read, clock_->Now()});
  return tag;
}

StatusOr<IoTag> MemDisk::SubmitRead(uint64_t sector, std::span<uint8_t> out) {
  RETURN_IF_ERROR(CheckRange(sector, out.size(), "read"));
  storage_.CopyOut(sector * sector_size_, out);
  return Complete(/*is_read=*/true, out.size() / sector_size_);
}

StatusOr<IoTag> MemDisk::SubmitWrite(uint64_t sector, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(CheckRange(sector, data.size(), "write"));
  storage_.CopyIn(sector * sector_size_, data);
  return Complete(/*is_read=*/false, data.size() / sector_size_);
}

Status MemDisk::WaitFor(IoTag tag) {
  // A synchronous call waits on the tag it just pushed: search from the back.
  auto it = std::find_if(done_.rbegin(), done_.rend(),
                         [tag](const IoCompletion& c) { return c.tag == tag; });
  if (it != done_.rend()) {
    clock_->AdvanceTo(it->completion_seconds);
    done_.erase(std::next(it).base());
  }
  return OkStatus();
}

std::vector<IoCompletion> MemDisk::Poll() {
  std::vector<IoCompletion> done;
  done.swap(done_);
  return done;
}

Status MemDisk::Drain() {
  for (const IoCompletion& c : done_) {
    clock_->AdvanceTo(c.completion_seconds);
  }
  done_.clear();
  return OkStatus();
}

}  // namespace ld
