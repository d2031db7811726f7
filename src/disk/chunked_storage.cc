#include "src/disk/chunked_storage.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace ld {

namespace {

bool AllZero(std::span<const uint8_t> bytes) {
  return bytes.empty() ||
         (bytes[0] == 0 && std::memcmp(bytes.data(), bytes.data() + 1, bytes.size() - 1) == 0);
}

}  // namespace

void ChunkedStorage::Free::operator()(uint8_t* chunk) const { std::free(chunk); }

ChunkedStorage::ChunkedStorage(uint64_t total_bytes) {
  chunks_.resize((total_bytes + kChunkBytes - 1) / kChunkBytes);
}

size_t ChunkedStorage::allocated_chunks() const {
  return static_cast<size_t>(std::count_if(chunks_.begin(), chunks_.end(),
                                           [](const auto& chunk) { return chunk != nullptr; }));
}

void ChunkedStorage::CopyOut(uint64_t byte_offset, std::span<uint8_t> out) const {
  uint64_t byte = byte_offset;
  size_t copied = 0;
  while (copied < out.size()) {
    const uint64_t within = byte % kChunkBytes;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunkBytes - within, out.size() - copied));
    const uint8_t* chunk = chunks_[byte / kChunkBytes].get();
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
    const std::span<const uint8_t> piece = data.subspan(copied, n);
    std::unique_ptr<uint8_t, Free>& chunk = chunks_[byte / kChunkBytes];
    if (chunk == nullptr && !AllZero(piece)) {
      chunk.reset(static_cast<uint8_t*>(std::calloc(kChunkBytes, 1)));
      if (chunk == nullptr) {
        throw std::bad_alloc();
      }
    }
    if (chunk != nullptr) {
      std::memcpy(chunk.get() + within, piece.data(), n);
    }  // Else zeros into a chunk that already reads as zeros.
    copied += n;
    byte += n;
  }
}

}  // namespace ld
