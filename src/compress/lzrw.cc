#include "src/compress/lzrw.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "src/util/serialize.h"

namespace ld {

namespace {

constexpr size_t kHashBits = 12;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr size_t kMaxOffset = 4095;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 18;
constexpr int kGroupItems = 16;

// A hash slot holds the position of the bucket's latest item plus this bias,
// and 0 when empty. The offset (pos + bias - slot) of an empty slot is then
// pos + 4096, out of the window like any stale position, so the table starts
// zeroed and the candidate test has no empty-slot branch. Slots are size_t:
// no span reaches SIZE_MAX - kSlotBias bytes, so a biased position never
// wraps.
constexpr size_t kSlotBias = kMaxOffset + 1;

// Items at positions with at least kMaxMatch bytes left compare 8-byte words;
// the last kMaxMatch - 1 bytes take the byte-at-a-time match loop.
constexpr size_t kTailBytes = kMaxMatch - 1;

uint32_t Hash3(uint32_t v) {
  // Multiplicative hash of a 3-byte window, read little-endian.
  return (v * 2654435761u) >> (32 - kHashBits);
}

uint32_t Load3(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16);
}

// Equal leading bytes of p and c, up to kMaxMatch, given that at least
// kMaxMatch bytes are readable at both and `diff` is the XOR of their first
// words with its low three bytes zero. Words are little-endian (LoadLe64),
// so the first differing byte is the lowest set bit of the XOR.
size_t WordMatchLength(const uint8_t* p, const uint8_t* c, uint64_t diff) {
  if (diff != 0) {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
  diff = LoadLe64(p + 8) ^ LoadLe64(c + 8);
  if (diff != 0) {
    return 8 + static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
  // Bytes 16 and 17 are the top two of the word at byte 10.
  diff = (LoadLe64(p + 10) ^ LoadLe64(c + 10)) >> 48;
  if (diff != 0) {
    return 16 + static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
  return kMaxMatch;
}

void Copy8(uint8_t* dst, const uint8_t* src) {
  uint64_t w;
  std::memcpy(&w, src, sizeof(w));
  std::memcpy(dst, &w, sizeof(w));
}

}  // namespace

size_t Lzrw1Compressor::Compress(std::span<const uint8_t> in, std::vector<uint8_t>* out) {
  const uint8_t* const src = in.data();
  const size_t n = in.size();
  // An item costs at most one output byte per input byte it covers (a literal
  // 1 for 1, a copy 2 for 3 or more), and each group of up to 16 items adds a
  // 2-byte control word, so the output never exceeds n + n/8 + 2.
  out->resize(n + n / 8 + 4);
  uint8_t* const dst_begin = out->data();
  uint8_t* dst = dst_begin;

  size_t table[kHashSize] = {};
  const size_t word_end = n > kTailBytes ? n - kTailBytes : 0;
  size_t pos = 0;

  // The match length of the item at pos (below kMinMatch for a literal) and
  // its offset, for pos below word_end.
  auto word_match = [&](size_t* offset) -> size_t {
    const uint64_t word = LoadLe64(src + pos);
    const uint32_t h = Hash3(static_cast<uint32_t>(word) & 0xffffff);
    *offset = pos + kSlotBias - table[h];
    table[h] = pos + kSlotBias;
    // An out-of-window candidate compares the position with itself and
    // forces its first byte to differ: one branch decides literal or copy.
    const size_t in_window = size_t{0} - (*offset <= kMaxOffset);  // All ones or 0.
    const uint8_t* const candidate = src + pos - (*offset & in_window);
    const uint64_t diff = (word ^ LoadLe64(candidate)) | (in_window + 1);
    return (diff & 0xffffff) == 0 ? WordMatchLength(src + pos, candidate, diff) : 0;
  };
  // The same in the last kTailBytes bytes, one byte at a time.
  auto tail_match = [&](size_t* offset) -> size_t {
    if (pos + kMinMatch > n) {
      return 0;
    }
    const uint32_t h = Hash3(Load3(src + pos));
    *offset = pos + kSlotBias - table[h];
    table[h] = pos + kSlotBias;
    size_t len = 0;
    if (*offset <= kMaxOffset) {
      const size_t limit = std::min(kMaxMatch, n - pos);
      while (len < limit && src[pos - *offset + len] == src[pos + len]) {
        ++len;
      }
    }
    return len;
  };
  auto emit = [&](int item, size_t match_len, size_t offset, uint32_t* control) {
    if (match_len >= kMinMatch) {
      *control |= 1u << item;
      // 12-bit offset (1..4095), 4-bit (len - kMinMatch).
      const uint32_t word = static_cast<uint32_t>(offset << 4 | (match_len - kMinMatch));
      dst[0] = static_cast<uint8_t>(word & 0xff);
      dst[1] = static_cast<uint8_t>(word >> 8);
      dst += 2;
      pos += match_len;
    } else {
      *dst++ = src[pos++];
    }
  };

  while (pos < n) {
    uint8_t* const control_at = dst;
    dst += 2;
    uint32_t control = 0;
    size_t offset = 0;
    for (int item = 0; item < kGroupItems && pos < n; ++item) {
      const size_t len = pos < word_end ? word_match(&offset) : tail_match(&offset);
      emit(item, len, offset, &control);
    }
    control_at[0] = static_cast<uint8_t>(control & 0xff);
    control_at[1] = static_cast<uint8_t>(control >> 8);
  }
  out->resize(static_cast<size_t>(dst - dst_begin));
  return out->size();
}

Status Lzrw1Compressor::Decompress(std::span<const uint8_t> in, std::span<uint8_t> out) {
  const uint8_t* const src = in.data();
  uint8_t* const dst = out.data();
  const size_t in_size = in.size();
  const size_t out_size = out.size();
  size_t ip = 0;
  size_t op = 0;
  while (op < out_size) {
    if (ip + 2 > in_size) {
      return CorruptionError("lzrw1: truncated control word");
    }
    const uint32_t control = uint32_t{src[ip]} | uint32_t{src[ip + 1]} << 8;
    ip += 2;
    if (control == 0 && in_size - ip >= kGroupItems && out_size - op >= kGroupItems) {
      // Sixteen literals, all present and all fitting.
      std::memcpy(dst + op, src + ip, kGroupItems);
      ip += kGroupItems;
      op += kGroupItems;
      continue;
    }
    for (int item = 0; item < kGroupItems && op < out_size; ++item) {
      if (control & (1u << item)) {
        if (ip + 2 > in_size) {
          return CorruptionError("lzrw1: truncated copy item");
        }
        const uint32_t word = uint32_t{src[ip]} | uint32_t{src[ip + 1]} << 8;
        ip += 2;
        const size_t offset = word >> 4;
        const size_t len = (word & 0xf) + kMinMatch;
        if (offset == 0 || offset > op || op + len > out_size) {
          return CorruptionError("lzrw1: bad copy item");
        }
        if (offset >= 8 && out_size - op >= 24) {
          // Each 8-byte step reads only bytes written before it; the bytes
          // past op + len that the last step writes are rewritten by later
          // items, since the stream must fill out exactly.
          Copy8(dst + op, dst + op - offset);
          Copy8(dst + op + 8, dst + op - offset + 8);
          Copy8(dst + op + 16, dst + op - offset + 16);
        } else {
          // Byte-by-byte: overlapping copies are the RLE case.
          for (size_t i = 0; i < len; ++i) {
            dst[op + i] = dst[op - offset + i];
          }
        }
        op += len;
      } else {
        if (ip >= in_size) {
          return CorruptionError("lzrw1: truncated literal");
        }
        dst[op++] = src[ip++];
      }
    }
  }
  if (ip != in_size) {
    return CorruptionError("lzrw1: trailing bytes after decompression");
  }
  return OkStatus();
}

}  // namespace ld
