#include "src/util/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ld {

namespace {

// Slice-by-16 tables for the reflected IEEE polynomial. kTables[0] is the
// classic byte table; kTables[k][b] is the CRC register after byte b is
// followed by k zero bytes, so one lookup per byte folds a whole 16-byte
// block into the register. The result is the standard CRC-32 that every
// on-disk checksum already holds.
using Tables = std::array<std::array<uint32_t, 256>, 16>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Assembled from bytes so the result does not depend on host byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

#if defined(__x86_64__)

// Folds n bytes, n >= 64 and a multiple of 16, into the register with
// carry-less multiplies: Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). The constants are
// the ones Linux's crc32-pclmul and Chromium's zlib use for the reflected
// polynomial 0xEDB88320: each x^e mod P bit-reflected and shifted left one
// bit. A 128-bit lane moves on by a fold distance d as lo * (x^(d+32) mod P) ^
// hi * (x^(d-32) mod P): k1/k2 for d = 512 (four lanes), k3/k4 for d = 128
// (one lane). Then k4 and k5 (x^64 mod P) shorten 128 bits to 64 and 64 to
// 32, and a Barrett reduction by P' with mu' = x^64 / P leaves the register.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldBlocks(uint32_t crc, const uint8_t* p,
                                                             size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu' : P'
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  // Unaligned loads only, each of 16 bytes inside the span.
  const auto* q = reinterpret_cast<const __m128i*>(p);

  __m128i lane[4];
  for (int i = 0; i < 4; ++i) {
    lane[i] = _mm_loadu_si128(q + i);
  }
  lane[0] = _mm_xor_si128(lane[0], _mm_cvtsi32_si128(static_cast<int>(crc)));
  for (q += 4, n -= 64; n >= 64; q += 4, n -= 64) {
    for (int i = 0; i < 4; ++i) {
      lane[i] = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane[i], k1k2, 0x00),
                                            _mm_clmulepi64_si128(lane[i], k1k2, 0x11)),
                              _mm_loadu_si128(q + i));
    }
  }
  // The four lanes into one, then one 16-byte block at a time.
  __m128i x = lane[0];
  for (int i = 1; i < 4; ++i) {
    x = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x00),
                                    _mm_clmulepi64_si128(x, k3k4, 0x11)),
                      lane[i]);
  }
  for (; n >= 16; ++q, n -= 16) {
    x = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x00),
                                    _mm_clmulepi64_si128(x, k3k4, 0x11)),
                      _mm_loadu_si128(q));
  }
  // 128 -> 64 -> 32 bits, then Barrett.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#endif  // defined(__x86_64__)

bool DetectFolded() {
#if defined(__x86_64__)
  // GCC requires __builtin_cpu_init before __builtin_cpu_supports in a
  // static initializer.
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

// Chosen once at start-up. A CRC taken by another static initializer before
// this one runs sees false and takes the table path: the same checksum.
const bool kHasFolded = DetectFolded();

}  // namespace

namespace crc32_internal {

uint32_t TableUpdate(uint32_t crc, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  // Byte j of a 16-byte block is followed by 15 - j more, so it looks up
  // kTables[15 - j]. Only the first four bytes meet the register.
  for (; n >= 16; p += 16, n -= 16) {
    const uint32_t head = crc ^ LoadLe32(p);
    crc = kTables[15][head & 0xffu] ^ kTables[14][(head >> 8) & 0xffu] ^
          kTables[13][(head >> 16) & 0xffu] ^ kTables[12][head >> 24] ^ kTables[11][p[4]] ^
          kTables[10][p[5]] ^ kTables[9][p[6]] ^ kTables[8][p[7]] ^ kTables[7][p[8]] ^
          kTables[6][p[9]] ^ kTables[5][p[10]] ^ kTables[4][p[11]] ^ kTables[3][p[12]] ^
          kTables[2][p[13]] ^ kTables[1][p[14]] ^ kTables[0][p[15]];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t FoldedUpdate(uint32_t crc, std::span<const uint8_t> data) {
#if defined(__x86_64__)
  if (data.size() >= 64) {
    const size_t blocks = data.size() & ~size_t{15};
    crc = FoldBlocks(crc, data.data(), blocks);
    data = data.subspan(blocks);
  }
#endif
  return TableUpdate(crc, data);
}

bool HasFolded() { return kHasFolded; }

}  // namespace crc32_internal

uint32_t Crc32Init() { return 0xffffffffu; }

uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data) {
  return kHasFolded ? crc32_internal::FoldedUpdate(crc, data)
                    : crc32_internal::TableUpdate(crc, data);
}

uint32_t Crc32Final(uint32_t crc) { return crc ^ 0xffffffffu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace ld
