// Lazily allocated byte store backing the simulated devices. Storage is
// allocated in 1-MB chunks at the first write of a non-zero byte, so
// multi-gigabyte devices can be simulated cheaply: never-written areas, and
// areas only ever written with zeros, read as zeros without taking memory.

#ifndef SRC_DISK_CHUNKED_STORAGE_H_
#define SRC_DISK_CHUNKED_STORAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ld {

class ChunkedStorage {
 public:
  explicit ChunkedStorage(uint64_t total_bytes);

  void CopyOut(uint64_t byte_offset, std::span<uint8_t> out) const;
  void CopyIn(uint64_t byte_offset, std::span<const uint8_t> data);

  // Chunks that hold memory.
  size_t allocated_chunks() const;

 private:
  static constexpr uint64_t kChunkBytes = 1 << 20;
  // Chunks come from calloc, which zero-fills only memory that is not fresh
  // from the kernel (that arrives zeroed), so a fresh chunk's pages take
  // memory and a first-touch fault only where writes land.
  struct Free {
    void operator()(uint8_t* chunk) const;
  };
  std::vector<std::unique_ptr<uint8_t, Free>> chunks_;
};

}  // namespace ld

#endif  // SRC_DISK_CHUNKED_STORAGE_H_
