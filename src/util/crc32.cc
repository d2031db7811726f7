#include "src/util/crc32.h"

#include <array>
#include <cstddef>

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

}  // namespace

uint32_t Crc32Init() { return 0xffffffffu; }

uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data) {
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

uint32_t Crc32Final(uint32_t crc) { return crc ^ 0xffffffffu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace ld
