// Fixed-width little-endian records for LLD's in-memory tables.
//
// The block map and the list table store each field at the width of the
// summary-record field it mirrors (ForEachField in summary_record.cc lists
// those widths): 3-byte ids, offsets, checksums and segment indices, 2-byte
// sizes, a 6-byte timestamp. An entry then costs about what the log spends
// on the same facts, and every value recovery can rebuild from the log fits
// it. A field is a (byte offset, width) pair, the same (width, field) idea as
// ForEachField; Load and Store are templated on it, so an accessor compiles
// to a few fixed-offset loads and stores.

#ifndef SRC_LLD_PACKED_RECORD_H_
#define SRC_LLD_PACKED_RECORD_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "src/lld/summary_record.h"

namespace ld {

struct PackedField {
  uint8_t at;     // Byte offset within the record.
  uint8_t width;  // Bytes, 1..8.

  constexpr uint64_t max() const {
    return width >= 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * width)) - 1;
  }
};

template <size_t kBytes>
class PackedRecord {
 public:
  template <PackedField F>
  uint64_t Load() const {
    static_assert(F.width >= 1 && F.width <= 8 && F.at + F.width <= kBytes);
    uint64_t v = 0;
    for (size_t i = 0; i < F.width; ++i) {
      v |= uint64_t{bytes_[F.at + i]} << (8 * i);
    }
    return v;
  }

  // Callers keep `v` within F.max(): the id allocators, ComputeLayout and
  // the checkpoint decoder refuse anything wider before it gets here.
  template <PackedField F>
  void Store(uint64_t v) {
    static_assert(F.width >= 1 && F.width <= 8 && F.at + F.width <= kBytes);
    assert(v <= F.max());
    for (size_t i = 0; i < F.width; ++i) {
      bytes_[F.at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

 private:
  std::array<uint8_t, kBytes> bytes_{};
};

// Sentinel for "no on-disk record" in the tables' authority fields
// (BlockMapEntry::link_seg and friends).
constexpr uint32_t kNoAuthoritySeg = 0xffffffffu;

// A segment index is a 3-byte field. Indices stop below kMaxSegments, so the
// two top 3-byte values are free for the two 32-bit sentinels, 0xfffffffe
// (PhysAddr::kOpenSegment) and 0xffffffff (PhysAddr::kNone,
// kNoAuthoritySeg): narrowing keeps their low bytes, and widening restores
// the high byte, so callers only ever see 32-bit values.
constexpr uint64_t NarrowSegment(uint32_t segment) {
  assert(segment < kMaxSegments || segment >= 0xfffffffeu);
  return segment & 0xffffffu;
}
constexpr uint32_t WidenSegment(uint64_t stored) {
  return stored >= kMaxSegments ? static_cast<uint32_t>(stored) | 0xff000000u
                                : static_cast<uint32_t>(stored);
}

}  // namespace ld

#endif  // SRC_LLD_PACKED_RECORD_H_
