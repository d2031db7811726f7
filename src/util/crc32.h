// CRC-32 (IEEE 802.3 polynomial) for validating on-disk structures: segment
// summaries, checkpoint regions, and superblocks.

#ifndef SRC_UTIL_CRC32_H_
#define SRC_UTIL_CRC32_H_

#include <cstdint>
#include <span>

namespace ld {

// One-shot CRC of a byte span.
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental form: crc = Crc32Update(crc, chunk) starting from Crc32Init().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data);
uint32_t Crc32Final(uint32_t crc);

// The two kernels behind Crc32Update, exposed so tests can check each one.
// Both take and return the raw register, as Crc32Update does.
namespace crc32_internal {

// Slice-by-16 tables: the portable kernel.
uint32_t TableUpdate(uint32_t crc, std::span<const uint8_t> data);

// Carry-less-multiply folding over the span's whole 16-byte blocks when it has
// at least 64 bytes, then TableUpdate over the rest. Call only when
// HasFolded().
uint32_t FoldedUpdate(uint32_t crc, std::span<const uint8_t> data);

// True on x86-64 CPUs with PCLMULQDQ and SSE4.1, read once from CPUID.
bool HasFolded();

}  // namespace crc32_internal

}  // namespace ld

#endif  // SRC_UTIL_CRC32_H_
