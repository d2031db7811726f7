// Unit tests for src/util: Status/StatusOr, serialization, CRC, RNG, stats,
// and the table printer.

#include <gtest/gtest.h>

#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/util/serialize.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/table.h"

namespace ld {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NoSpaceError("segment pool exhausted");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(s.ToString(), "NO_SPACE: segment pool exhausted");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), ErrorCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(IoError("x").code(), ErrorCode::kIoError);
  EXPECT_EQ(CorruptionError("x").code(), ErrorCode::kCorruption);
  EXPECT_EQ(FailedPreconditionError("x").code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), ErrorCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseHalf(int x, int* out) {
  ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalf(7, &out).code(), ErrorCode::kInvalidArgument);
}

TEST(SerializeTest, RoundTripAllWidths) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU8(0xab);
  enc.PutU16(0x1234);
  enc.PutU24(0xabcdef);
  enc.PutU32(0xdeadbeef);
  enc.PutU48(0x123456789abcULL);
  enc.PutU64(0xfedcba9876543210ULL);
  enc.PutString("hello");

  Decoder dec(buf);
  EXPECT_EQ(dec.GetU8(), 0xab);
  EXPECT_EQ(dec.GetU16(), 0x1234);
  EXPECT_EQ(dec.GetU24(), 0xabcdefu);
  EXPECT_EQ(dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(dec.GetU48(), 0x123456789abcULL);
  EXPECT_EQ(dec.GetU64(), 0xfedcba9876543210ULL);
  EXPECT_EQ(dec.GetString(), "hello");
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(SerializeTest, LittleEndianLayout) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU32(0x04030201);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

TEST(SerializeTest, DecoderDetectsTruncation) {
  std::vector<uint8_t> buf = {1, 2};
  Decoder dec(buf);
  dec.GetU32();
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.ToStatus("test").code(), ErrorCode::kCorruption);
}

// Each fixed width reads whole at the exact end of a buffer; one byte short,
// it fails, returns 0 and consumes nothing, and every later read returns 0
// even where bytes remain.
TEST(SerializeTest, EachWidthAtTheEndAndOneByteShort) {
  const std::vector<uint8_t> bytes = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99};
  for (int width : {1, 2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE("width " + std::to_string(width));
    uint64_t want = 0;
    for (int i = 0; i < width; ++i) {
      want |= static_cast<uint64_t>(bytes[1 + i]) << (8 * i);
    }
    // The value sits at the end of the buffer, after one leading byte.
    Decoder exact(std::span<const uint8_t>(bytes).subspan(0, 1 + width));
    EXPECT_EQ(exact.GetU8(), 0x11);
    EXPECT_EQ(exact.GetLe(width), want);
    EXPECT_TRUE(exact.ok());
    EXPECT_EQ(exact.remaining(), 0u);

    Decoder shy(std::span<const uint8_t>(bytes).subspan(0, width));
    EXPECT_EQ(shy.GetU8(), 0x11);
    EXPECT_EQ(shy.GetLe(width), 0u);
    EXPECT_FALSE(shy.ok());
    EXPECT_EQ(shy.position(), 1u);
    if (width > 1) {
      EXPECT_EQ(shy.GetU8(), 0u);  // Bytes remain, but the decoder has failed.
    }
    EXPECT_EQ(shy.ToStatus("test").ToString(), "CORRUPTION: decode failed: test");
  }
  // The named widths are GetLe's.
  Decoder named(bytes);
  EXPECT_EQ(named.GetU16(), 0x2211u);
  EXPECT_EQ(named.GetU24(), 0x554433u);
  EXPECT_EQ(named.GetU32(), 0x99887766u);
  EXPECT_TRUE(named.ok());
  EXPECT_EQ(named.GetU48(), 0u);
  EXPECT_EQ(named.GetU64(), 0u);
  EXPECT_FALSE(named.ok());
  Decoder wide(bytes);
  EXPECT_EQ(wide.GetU48(), 0x665544332211u);
  EXPECT_EQ(wide.GetU24(), 0x998877u);
  EXPECT_EQ(wide.GetLe(0), 0u);
  EXPECT_TRUE(wide.ok());
  Decoder full(bytes);
  EXPECT_EQ(full.GetU64(), 0x8877665544332211u);
  EXPECT_EQ(full.GetU8(), 0x99u);
  EXPECT_EQ(full.GetU8(), 0u);
  EXPECT_FALSE(full.ok());
}

TEST(SerializeTest, SkipRespectsBounds) {
  std::vector<uint8_t> buf = {1, 2, 3};
  Decoder dec(buf);
  dec.Skip(2);
  EXPECT_TRUE(dec.ok());
  dec.Skip(2);
  EXPECT_FALSE(dec.ok());
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s), 9)),
            0xcbf43926u);
}

// Bit-at-a-time register update, 8 shifts per byte: the reference both
// kernels behind Crc32Update must match on every span and register.
uint32_t BitwiseCrc32Update(uint32_t crc, std::span<const uint8_t> data) {
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc;
}

std::vector<uint8_t> RandomBytes(uint64_t seed, size_t size) {
  std::vector<uint8_t> data(size);
  Rng rng(seed);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::vector<uint8_t> data = RandomBytes(1, 1000);
  const std::span<const uint8_t> all(data);
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, all.subspan(0, 400));
  crc = Crc32Update(crc, all.subspan(400));
  EXPECT_EQ(Crc32Final(crc), Crc32(data));

  // Every split point of a 300-byte buffer chained through two updates, so
  // each side crosses the 64-byte folding threshold.
  const auto head = all.subspan(0, 300);
  const uint32_t whole = Crc32Final(BitwiseCrc32Update(Crc32Init(), head));
  for (size_t split = 0; split <= head.size(); ++split) {
    const uint32_t chained =
        Crc32Update(Crc32Update(Crc32Init(), head.subspan(0, split)), head.subspan(split));
    ASSERT_EQ(Crc32Final(chained), whole) << "split " << split;
  }
}

// The CRC-32 of a fixed 1-MB corpus, chained over 4-KB and over 16-KB pieces
// (the payload and summary sizes), and of each piece on its own. The values
// were taken with slice-by-16 alone, so a change to both kernels together
// cannot drift a checksum already on disk.
TEST(Crc32Test, PinnedCorpusChecksums) {
  const std::vector<uint8_t> corpus = RandomBytes(1993, 1 << 20);
  const std::span<const uint8_t> all(corpus);
  for (size_t piece : {size_t{4096}, size_t{16384}}) {
    uint32_t chained = Crc32Init();
    std::vector<uint8_t> piece_crcs;
    Encoder enc(&piece_crcs);
    for (size_t at = 0; at < all.size(); at += piece) {
      chained = Crc32Update(chained, all.subspan(at, piece));
      enc.PutU32(Crc32(all.subspan(at, piece)));
    }
    EXPECT_EQ(Crc32Final(chained), 0x6001783fu) << piece;
    EXPECT_EQ(Crc32(piece_crcs), piece == 4096 ? 0xf13f6c1cu : 0xe071db07u) << piece;
  }
}

// Each kernel behind Crc32Update against the bit-at-a-time reference. The
// folded leg is skipped on a CPU without PCLMULQDQ and SSE4.1.
struct Crc32Kernel {
  const char* name;
  uint32_t (*update)(uint32_t, std::span<const uint8_t>);
  bool (*available)();
};

void PrintTo(const Crc32Kernel& kernel, std::ostream* os) { *os << kernel.name; }

class Crc32KernelTest : public ::testing::TestWithParam<Crc32Kernel> {
 protected:
  void SetUp() override {
    if (!GetParam().available()) {
      GTEST_SKIP() << "this CPU lacks PCLMULQDQ or SSE4.1";
    }
  }
  uint32_t Update(uint32_t crc, std::span<const uint8_t> data) const {
    return GetParam().update(crc, data);
  }
};

constexpr uint32_t kRegisters[] = {0xffffffffu, 0u, 0x9e3779b9u};

TEST_P(Crc32KernelTest, EveryShortSpanMatchesBitwise) {
  // Lengths 0-300 cover the table tail, the 64-byte folding threshold, the
  // four-lane loop, single 16-byte folds and every 0-15-byte remainder.
  const std::vector<uint8_t> data = RandomBytes(2, 316);
  const std::span<const uint8_t> all(data);
  for (uint32_t reg : kRegisters) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t length = 0; length <= 300; ++length) {
        const auto span = all.subspan(offset, length);
        ASSERT_EQ(Update(reg, span), BitwiseCrc32Update(reg, span))
            << "register " << reg << " offset " << offset << " length " << length;
      }
    }
  }
}

TEST_P(Crc32KernelTest, RandomSpansMatchBitwise) {
  const std::vector<uint8_t> data = RandomBytes(3, (64 << 10) + 16);
  const std::span<const uint8_t> all(data);
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const size_t length = rng.Below((64 << 10) + 1);
    const size_t offset = rng.Below(all.size() - length + 1);
    const auto reg = static_cast<uint32_t>(rng.Next());
    const auto span = all.subspan(offset, length);
    ASSERT_EQ(Update(reg, span), BitwiseCrc32Update(reg, span))
        << "register " << reg << " offset " << offset << " length " << length;
  }
}

TEST_P(Crc32KernelTest, EverySplitChainsToTheWhole) {
  const std::vector<uint8_t> data = RandomBytes(5, 300);
  const std::span<const uint8_t> all(data);
  for (uint32_t reg : kRegisters) {
    const uint32_t whole = BitwiseCrc32Update(reg, all);
    for (size_t split = 0; split <= all.size(); ++split) {
      ASSERT_EQ(Update(Update(reg, all.subspan(0, split)), all.subspan(split)), whole)
          << "register " << reg << " split " << split;
    }
  }
}

bool Always() { return true; }

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32KernelTest,
    ::testing::Values(Crc32Kernel{"Table", crc32_internal::TableUpdate, Always},
                      Crc32Kernel{"Folded", crc32_internal::FoldedUpdate,
                                  crc32_internal::HasFolded}),
    [](const ::testing::TestParamInfo<Crc32Kernel>& info) { return info.param.name; });

TEST(Crc32Test, DetectsBitFlip) {
  std::vector<uint8_t> data(64, 0x5a);
  const uint32_t before = Crc32(data);
  data[17] ^= 0x01;
  EXPECT_NE(before, Crc32(data));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.Range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.Chance(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(StatsTest, MeanAndStdDev) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.StdDev(), 2.138, 0.001);  // Sample stddev.
  EXPECT_EQ(s.Min(), 2.0);
  EXPECT_EQ(s.Max(), 9.0);
}

TEST(StatsTest, Percentile) {
  RunningStats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_EQ(s.Percentile(0), 1.0);
  EXPECT_EQ(s.Percentile(100), 100.0);
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddSeparator();
  t.AddRow({"b", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22    |"), std::string::npos);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(TextTable::Num(2064.4), "2064");
  EXPECT_EQ(TextTable::Num(8.52, 1), "8.5");
  EXPECT_EQ(TextTable::Percent(0.31), "31%");
}

}  // namespace
}  // namespace ld
