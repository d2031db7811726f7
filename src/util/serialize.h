// Little-endian encoders/decoders for on-disk structures.
//
// Every persistent structure in this project (segment summaries, superblocks,
// i-nodes, checkpoint regions) is serialized explicitly through these helpers
// so the on-disk format is well-defined and independent of host layout.

#ifndef SRC_UTIL_SERIALIZE_H_
#define SRC_UTIL_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace ld {

// Eight bytes as a little-endian word, assembled from bytes so the result
// does not depend on host byte order: byte k of the input is bits 8k..8k+7.
inline uint64_t LoadLe64(const uint8_t* p) {
  return uint64_t{p[0]} | uint64_t{p[1]} << 8 | uint64_t{p[2]} << 16 | uint64_t{p[3]} << 24 |
         uint64_t{p[4]} << 32 | uint64_t{p[5]} << 40 | uint64_t{p[6]} << 48 |
         uint64_t{p[7]} << 56;
}

// Appends fixed-width little-endian values to a byte vector.
class Encoder {
 public:
  explicit Encoder(std::vector<uint8_t>* out) : out_(out) {}

  // The low `bytes` bytes of v.
  void PutLe(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutLe(v, 2); }
  void PutU24(uint32_t v) { PutLe(v, 3); }
  void PutU32(uint32_t v) { PutLe(v, 4); }
  void PutU48(uint64_t v) { PutLe(v, 6); }
  void PutU64(uint64_t v) { PutLe(v, 8); }
  void PutBytes(std::span<const uint8_t> bytes) {
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }
  // Length-prefixed (u16) string, for names in superblocks.
  void PutString(const std::string& s);

  size_t size() const { return out_->size(); }

 private:
  std::vector<uint8_t>* out_;
};

// Reads fixed-width little-endian values from a byte span with bounds checks.
class Decoder {
 public:
  explicit Decoder(std::span<const uint8_t> data) : data_(data) {}

  bool ok() const { return !failed_; }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  // A `bytes`-byte little-endian value, 0 <= bytes <= 8 (0 once the decoder
  // has failed; any other width fails it). Inline, so a constant width
  // compiles to one bounds check and one unaligned load.
  uint64_t GetLe(int bytes) {
    if (failed_ || bytes < 0 || bytes > 8 || remaining() < static_cast<size_t>(bytes)) {
      failed_ = true;
      return 0;
    }
    uint64_t v = 0;
    if (bytes == 0) {
      return v;
    }
    const uint8_t* p = data_.data() + pos_;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, static_cast<size_t>(bytes));
    } else {
      for (int i = 0; i < bytes; ++i) {
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
      }
    }
    pos_ += static_cast<size_t>(bytes);
    return v;
  }
  uint8_t GetU8() { return static_cast<uint8_t>(GetLe(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLe(2)); }
  uint32_t GetU24() { return static_cast<uint32_t>(GetLe(3)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLe(4)); }
  uint64_t GetU48() { return GetLe(6); }
  uint64_t GetU64() { return GetLe(8); }
  std::vector<uint8_t> GetBytes(size_t n);
  std::string GetString();

  // Skips n bytes (marks the decoder failed if out of range).
  void Skip(size_t n);

  // Converts decode failure into a Status for callers. `context` names the
  // structure; the message is built only on failure.
  Status ToStatus(const char* context) const;

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace ld

#endif  // SRC_UTIL_SERIALIZE_H_
