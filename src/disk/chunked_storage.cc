#include "src/disk/chunked_storage.h"

#include <algorithm>
#include <cstring>

namespace ld {

ChunkedStorage::ChunkedStorage(uint64_t total_bytes) {
  chunks_.resize((total_bytes + kChunkBytes - 1) / kChunkBytes);
}

uint8_t* ChunkedStorage::ChunkFor(uint64_t byte_offset, bool allocate) const {
  const uint64_t index = byte_offset / kChunkBytes;
  if (chunks_[index] == nullptr) {
    if (!allocate) {
      return nullptr;
    }
    chunks_[index] = std::make_unique<uint8_t[]>(kChunkBytes);  // Value-initialized: zeros.
  }
  return chunks_[index].get();
}

void ChunkedStorage::CopyOut(uint64_t byte_offset, std::span<uint8_t> out) const {
  uint64_t byte = byte_offset;
  size_t copied = 0;
  while (copied < out.size()) {
    const uint64_t within = byte % kChunkBytes;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunkBytes - within, out.size() - copied));
    uint8_t* chunk = ChunkFor(byte, /*allocate=*/false);
    if (chunk != nullptr) {
      std::memcpy(out.data() + copied, chunk + within, n);
    } else {
      std::memset(out.data() + copied, 0, n);  // Never-written area reads as zeros.
    }
    copied += n;
    byte += n;
  }
}

void ChunkedStorage::CopyIn(uint64_t byte_offset, std::span<const uint8_t> data) {
  uint64_t byte = byte_offset;
  size_t copied = 0;
  while (copied < data.size()) {
    const uint64_t within = byte % kChunkBytes;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunkBytes - within, data.size() - copied));
    uint8_t* chunk = ChunkFor(byte, /*allocate=*/true);
    std::memcpy(chunk + within, data.data() + copied, n);
    copied += n;
    byte += n;
  }
}

}  // namespace ld
