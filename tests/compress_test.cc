// Tests for the compression substrate: lossless round-trips on many data
// shapes (property-style fuzz), corruption detection, the store-raw
// fallback contract, and the achieved ratio on workload-generated data
// (the paper assumes ~60 %). The LZRW1 stream is the on-disk format of every
// compressed block, so the word-at-a-time coder is also checked byte for
// byte against a byte-at-a-time reference model kept here.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/compress/lzrw.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/workload/data_gen.h"

namespace ld {
namespace {

// Reference model: the byte-at-a-time LZRW1 coder that defined the format.
// Greedy LZ77 over a 4096-entry hash of 3-byte prefixes, looked up and
// updated once per item; 12-bit offsets, 3..18-byte matches; groups of 16
// items under a little-endian control word.
namespace model {

constexpr size_t kHashBits = 12;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr size_t kMaxOffset = 4095;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 18;
constexpr int kGroupItems = 16;

uint32_t Hash3(const uint8_t* p) {
  const uint32_t v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

size_t Compress(std::span<const uint8_t> in, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(in.size() + in.size() / 8 + 4);
  std::vector<size_t> table(kHashSize, SIZE_MAX);
  size_t pos = 0;
  while (pos < in.size()) {
    const size_t control_at = out->size();
    out->push_back(0);
    out->push_back(0);
    uint16_t control = 0;
    for (int item = 0; item < kGroupItems && pos < in.size(); ++item) {
      size_t match_len = 0;
      size_t match_pos = 0;
      if (pos + kMinMatch <= in.size()) {
        const uint32_t h = Hash3(in.data() + pos);
        const size_t candidate = table[h];
        table[h] = pos;
        if (candidate != SIZE_MAX && pos - candidate <= kMaxOffset) {
          const size_t limit = std::min(kMaxMatch, in.size() - pos);
          size_t len = 0;
          while (len < limit && in[candidate + len] == in[pos + len]) {
            ++len;
          }
          if (len >= kMinMatch) {
            match_len = len;
            match_pos = candidate;
          }
        }
      }
      if (match_len >= kMinMatch) {
        control |= static_cast<uint16_t>(1u << item);
        const size_t offset = pos - match_pos;
        const uint16_t word = static_cast<uint16_t>((offset << 4) | (match_len - kMinMatch));
        out->push_back(static_cast<uint8_t>(word & 0xff));
        out->push_back(static_cast<uint8_t>(word >> 8));
        pos += match_len;
      } else {
        out->push_back(in[pos]);
        ++pos;
      }
    }
    (*out)[control_at] = static_cast<uint8_t>(control & 0xff);
    (*out)[control_at + 1] = static_cast<uint8_t>(control >> 8);
  }
  return out->size();
}

Status Decompress(std::span<const uint8_t> in, std::span<uint8_t> out) {
  size_t ip = 0;
  size_t op = 0;
  while (op < out.size()) {
    if (ip + 2 > in.size()) {
      return CorruptionError("lzrw1: truncated control word");
    }
    const uint16_t control =
        static_cast<uint16_t>(in[ip]) | (static_cast<uint16_t>(in[ip + 1]) << 8);
    ip += 2;
    for (int item = 0; item < kGroupItems && op < out.size(); ++item) {
      if (control & (1u << item)) {
        if (ip + 2 > in.size()) {
          return CorruptionError("lzrw1: truncated copy item");
        }
        const uint16_t word =
            static_cast<uint16_t>(in[ip]) | (static_cast<uint16_t>(in[ip + 1]) << 8);
        ip += 2;
        const size_t offset = word >> 4;
        const size_t len = (word & 0xf) + kMinMatch;
        if (offset == 0 || offset > op || op + len > out.size()) {
          return CorruptionError("lzrw1: bad copy item");
        }
        for (size_t i = 0; i < len; ++i) {
          out[op + i] = out[op - offset + i];
        }
        op += len;
      } else {
        if (ip >= in.size()) {
          return CorruptionError("lzrw1: truncated literal");
        }
        out[op++] = in[ip++];
      }
    }
  }
  if (ip != in.size()) {
    return CorruptionError("lzrw1: trailing bytes after decompression");
  }
  return OkStatus();
}

// One decoded item of a well-formed stream.
struct Item {
  bool copy = false;
  size_t offset = 0;
  size_t len = 1;
  uint8_t literal = 0;
};

// The items of `stream`, which must decode to `n` bytes.
std::vector<Item> Items(std::span<const uint8_t> stream, size_t n) {
  std::vector<Item> items;
  size_t ip = 0;
  size_t op = 0;
  while (op < n) {
    const uint32_t control = uint32_t{stream[ip]} | uint32_t{stream[ip + 1]} << 8;
    ip += 2;
    for (int item = 0; item < kGroupItems && op < n; ++item) {
      if (control & (1u << item)) {
        const uint32_t word = uint32_t{stream[ip]} | uint32_t{stream[ip + 1]} << 8;
        items.push_back(Item{true, word >> 4, (word & 0xf) + kMinMatch});
        ip += 2;
      } else {
        items.push_back(Item{false, 0, 1, stream[ip]});
        ip += 1;
      }
      op += items.back().len;
    }
  }
  return items;
}

// The stream that holds `items`, in groups of 16.
std::vector<uint8_t> Stream(const std::vector<Item>& items) {
  std::vector<uint8_t> stream;
  size_t control_at = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const size_t item = i % kGroupItems;
    if (item == 0) {
      control_at = stream.size();
      stream.push_back(0);
      stream.push_back(0);
    }
    if (items[i].copy) {
      stream[control_at + item / 8] |= static_cast<uint8_t>(1u << (item % 8));
      const size_t word = items[i].offset << 4 | (items[i].len - kMinMatch);
      stream.push_back(static_cast<uint8_t>(word & 0xff));
      stream.push_back(static_cast<uint8_t>(word >> 8));
    } else {
      stream.push_back(items[i].literal);
    }
  }
  return stream;
}

}  // namespace model

std::string StatusText(const Status& s) { return s.ok() ? "OK" : s.ToString(); }

// Decodes `stream` into `out_size` bytes with the coder and the model:
// the same status text, and the same bytes when both succeed. Guard bytes
// follow the coder's output span, and it must leave them alone.
void ExpectSameDecode(std::span<const uint8_t> stream, size_t out_size, const char* what) {
  constexpr size_t kGuardBytes = 32;
  std::vector<uint8_t> got(out_size + kGuardBytes, 0xa5);
  std::vector<uint8_t> want(out_size, 0xa5);
  const Status got_status = Lzrw1Compressor().Decompress(stream, std::span(got).first(out_size));
  const Status want_status = model::Decompress(stream, want);
  ASSERT_EQ(StatusText(got_status), StatusText(want_status)) << what;
  EXPECT_TRUE(std::all_of(got.begin() + static_cast<ptrdiff_t>(out_size), got.end(),
                          [](uint8_t b) { return b == 0xa5; }))
      << what << ": wrote past the output";
  if (want_status.ok()) {
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin())) << what;
  }
}

// The coder must emit the model's stream for `input` and decode it, and four
// damaged variants of it, exactly as the model does. The cut streams are
// views of the intact one, so a read past their end finds plausible bytes.
void ExpectMatchesModel(std::span<const uint8_t> input, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "input size " << input.size() << ", seed " << seed);
  Lzrw1Compressor c;
  std::vector<uint8_t> got;
  std::vector<uint8_t> want;
  const size_t got_size = c.Compress(input, &got);
  const size_t want_size = model::Compress(input, &want);
  ASSERT_EQ(got_size, want_size);
  ASSERT_EQ(got, want);

  ExpectSameDecode(want, input.size(), "intact");
  if (input.size() > 0) {
    ExpectSameDecode(want, input.size() - 1, "output one short");
  }
  ExpectSameDecode(want, input.size() + 1, "output one long");
  if (want.empty()) {
    return;
  }
  Rng rng(seed);
  ExpectSameDecode(std::span(want).first(want.size() - 1), input.size(), "last byte dropped");
  ExpectSameDecode(std::span(want).first(rng.Below(want.size())), input.size(), "cut short");
  std::vector<uint8_t> damaged = want;
  damaged[rng.Below(damaged.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
  ExpectSameDecode(damaged, input.size(), "one byte flipped");
  damaged = want;
  const size_t at = rng.Below(damaged.size());
  for (size_t i = at; i < std::min(at + 4, damaged.size()); ++i) {
    damaged[i] = static_cast<uint8_t>(rng.Next());
  }
  ExpectSameDecode(damaged, input.size(), "four bytes scrambled");
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng->Next());
  }
  return bytes;
}

// `period` random bytes repeated to `n` bytes.
std::vector<uint8_t> Periodic(Rng* rng, size_t period, size_t n) {
  const std::vector<uint8_t> motif = RandomBytes(rng, period);
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = motif[i % period];
  }
  return bytes;
}

void RoundTrip(std::span<const uint8_t> input) {
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  c.Compress(input, &packed);
  std::vector<uint8_t> out(input.size());
  ASSERT_TRUE(c.Decompress(packed, out).ok());
  EXPECT_TRUE(std::equal(input.begin(), input.end(), out.begin()));
}

TEST(LzrwTest, EmptyInput) {
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  EXPECT_EQ(c.Compress({}, &packed), 0u);
  std::vector<uint8_t> out;
  EXPECT_TRUE(c.Decompress(packed, out).ok());
}

TEST(LzrwTest, AllZerosCompressesWell) {
  std::vector<uint8_t> input(4096, 0);
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  const size_t n = c.Compress(input, &packed);
  EXPECT_LT(n, input.size() / 4);
  RoundTrip(input);
}

TEST(LzrwTest, RandomDataDoesNotShrink) {
  Rng rng(17);
  std::vector<uint8_t> input(4096);
  for (auto& b : input) {
    b = static_cast<uint8_t>(rng.Next());
  }
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  const size_t n = c.Compress(input, &packed);
  EXPECT_GE(n, input.size());  // Caller stores raw in this case.
  RoundTrip(input);
}

TEST(LzrwTest, TextCompresses) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "the logical disk separates file management from disk management. ";
  }
  std::vector<uint8_t> input(text.begin(), text.end());
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  const size_t n = c.Compress(input, &packed);
  EXPECT_LT(n, input.size() / 2);
  RoundTrip(input);
}

// Property-style sweep: round-trip random structured inputs of many sizes.
class LzrwFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(LzrwFuzzTest, RoundTripStructuredRandom) {
  Rng rng(GetParam());
  const size_t size = 1 + rng.Below(16384);
  std::vector<uint8_t> input(size);
  // Mix of runs, repeated motifs, and noise.
  size_t pos = 0;
  while (pos < size) {
    const int kind = static_cast<int>(rng.Below(3));
    const size_t run = std::min<size_t>(1 + rng.Below(300), size - pos);
    if (kind == 0) {
      const uint8_t v = static_cast<uint8_t>(rng.Next());
      std::fill_n(input.begin() + pos, run, v);
    } else if (kind == 1 && pos > 4) {
      for (size_t i = 0; i < run; ++i) {
        input[pos + i] = input[pos + i - 4];
      }
    } else {
      for (size_t i = 0; i < run; ++i) {
        input[pos + i] = static_cast<uint8_t>(rng.Next());
      }
    }
    pos += run;
  }
  RoundTrip(input);
  ExpectMatchesModel(input, static_cast<uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzrwFuzzTest, ::testing::Range(0, 64));

// DataGenerator blocks at the benches' ratios, in LLD's block sizes and the
// largest size class.
TEST(LzrwModelTest, GeneratedBlocksMatchModel) {
  for (double ratio : {0.35, 0.6, 1.0}) {
    for (size_t size : {size_t{4096}, size_t{8192}, size_t{65535}}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        DataGenerator gen(seed, ratio);
        ExpectMatchesModel(gen.Make(size), seed);
      }
    }
  }
}

// Every size up to 64 lies on one side or both of the word path's tail bound.
// Each input is the front of a longer buffer whose bytes go on in the same
// pattern, so a read past the input's end would lengthen a match.
TEST(LzrwModelTest, EverySmallSizeMatchesModel) {
  Rng rng(5);
  for (size_t n = 0; n <= 64; ++n) {
    const std::vector<uint8_t> random = RandomBytes(&rng, n + 32);
    ExpectMatchesModel(std::span(random).first(n), n);
    const std::vector<uint8_t> run(n + 32, 'a');
    ExpectMatchesModel(std::span(run).first(n), n);
    const std::vector<uint8_t> periodic = Periodic(&rng, 1 + n % 7, n + 32);
    ExpectMatchesModel(std::span(periodic).first(n), n);
    DataGenerator gen(n, 0.6);
    const std::vector<uint8_t> generated = gen.Make(n + 32);
    ExpectMatchesModel(std::span(generated).first(n), n);
  }
}

TEST(LzrwModelTest, PeriodicPatternsMatchModel) {
  Rng rng(6);
  for (size_t period = 1; period <= 40; ++period) {
    for (size_t n : {size_t{100}, size_t{4096}, size_t{4096 + 17}}) {
      ExpectMatchesModel(Periodic(&rng, period, n), period);
    }
  }
}

// A 64-byte random motif followed by its first k bytes: the copies at offset
// 64 run to the input's last byte unless 1 or 2 bytes are left after the last
// 18-byte copy, ending on both sides of the word path's tail bound. The input
// is the front of a longer repeat, so a read past its end would lengthen the
// last copy.
TEST(LzrwModelTest, MatchEndingAtLastByteMatchesModel) {
  Rng rng(8);
  const std::vector<uint8_t> repeat = Periodic(&rng, 64, 3 * 64);
  for (size_t k = 3; k <= 60; ++k) {
    const std::span<const uint8_t> input = std::span(repeat).first(64 + k);
    ExpectMatchesModel(input, k);
    std::vector<uint8_t> packed;
    model::Compress(input, &packed);
    const std::vector<model::Item> items = model::Items(packed, input.size());
    EXPECT_EQ(items.back().copy, k % 18 == 0 || k % 18 >= 3) << k;
    if (items.back().copy) {
      EXPECT_EQ(items.back().offset, 64u) << k;
    }
  }
}

// A random motif repeated at distance d across a zero run: a copy reaches
// back 4,095 bytes at most, so at 4,096 the motif goes out as literals.
TEST(LzrwModelTest, WindowEdgeOffsetsMatchModel) {
  Rng rng(9);
  const std::vector<uint8_t> motif = RandomBytes(&rng, 24);
  for (size_t distance : {size_t{4094}, size_t{4095}, size_t{4096}, size_t{4097}}) {
    std::vector<uint8_t> input(distance + 64, 0);
    std::copy(motif.begin(), motif.end(), input.begin());
    std::copy(motif.begin(), motif.end(), input.begin() + static_cast<ptrdiff_t>(distance));
    ExpectMatchesModel(input, distance);
    std::vector<uint8_t> packed;
    model::Compress(input, &packed);
    bool reaches_motif = false;
    for (const model::Item& item : model::Items(packed, input.size())) {
      reaches_motif |= item.copy && item.offset == distance;
    }
    EXPECT_EQ(reaches_motif, distance <= 4095) << distance;
  }
}

// Hand-built streams: `offset` literals, one copy of every length at that
// offset, then `tail` literals. tail = 0 ends the copy exactly at out.size();
// 30 leaves room for the 8-byte steps, which need offset >= 8.
TEST(LzrwModelTest, CopiesAtShortOffsetsMatchModel) {
  for (size_t offset = 1; offset <= 20; ++offset) {
    for (size_t len = 3; len <= 18; ++len) {
      for (size_t tail : {size_t{0}, size_t{1}, size_t{5}, size_t{30}}) {
        std::vector<model::Item> items;
        for (size_t i = 0; i < offset; ++i) {
          items.push_back(model::Item{false, 0, 1, static_cast<uint8_t>('a' + i)});
        }
        items.push_back(model::Item{true, offset, len, 0});
        for (size_t i = 0; i < tail; ++i) {
          items.push_back(model::Item{false, 0, 1, static_cast<uint8_t>('A' + i)});
        }
        const std::vector<uint8_t> stream = model::Stream(items);
        const size_t n = offset + len + tail;
        ExpectSameDecode(stream, n, "short offset");
        std::vector<uint8_t> out(n);
        ASSERT_TRUE(Lzrw1Compressor().Decompress(stream, out).ok());
        for (size_t i = 0; i < len; ++i) {
          ASSERT_EQ(out[offset + i], out[i % offset]) << offset << " " << len << " " << tail;
        }
        // A copy that reaches before the start, or past the end, is refused.
        items[offset].offset = offset + 1;
        ExpectSameDecode(model::Stream(items), n, "offset past start");
        ExpectSameDecode(stream, n - 1, "copy past end");
      }
    }
  }
}

// The stream of a fixed corpus, pinned to its CRC-32 under the byte-at-a-time
// coder that defined the format: a rewrite of both the coder and the model
// cannot drift the on-disk format unnoticed.
TEST(LzrwModelTest, FixedCorpusStreamIsPinned) {
  uint32_t coder_crc = Crc32Init();
  uint32_t model_crc = Crc32Init();
  auto add = [&](std::span<const uint8_t> input) {
    std::vector<uint8_t> packed;
    Lzrw1Compressor().Compress(input, &packed);
    coder_crc = Crc32Update(coder_crc, packed);
    model::Compress(input, &packed);
    model_crc = Crc32Update(model_crc, packed);
  };
  for (double ratio : {0.35, 0.6, 1.0}) {
    DataGenerator gen(1993, ratio);
    for (int i = 0; i < 4; ++i) {
      add(gen.Make(4096));
    }
  }
  Rng rng(1993);
  for (size_t period = 1; period <= 40; ++period) {
    add(Periodic(&rng, period, 1000));
  }
  for (size_t n = 0; n <= 64; ++n) {
    add(RandomBytes(&rng, n));
  }
  constexpr uint32_t kPinnedCrc = 0x92ff56b6u;
  EXPECT_EQ(Crc32Final(model_crc), kPinnedCrc);
  EXPECT_EQ(Crc32Final(coder_crc), kPinnedCrc);
}

TEST(LzrwTest, DecompressDetectsTruncation) {
  std::vector<uint8_t> input(1024, 'x');
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  c.Compress(input, &packed);
  packed.resize(packed.size() / 2);
  std::vector<uint8_t> out(input.size());
  EXPECT_FALSE(c.Decompress(packed, out).ok());
}

TEST(LzrwTest, DecompressDetectsTrailingGarbage) {
  std::vector<uint8_t> input(256, 'y');
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  c.Compress(input, &packed);
  packed.push_back(0);
  packed.push_back(0);
  packed.push_back(0);
  std::vector<uint8_t> out(input.size());
  EXPECT_FALSE(c.Decompress(packed, out).ok());
}

TEST(NullCompressorTest, IdentityBehaviour) {
  NullCompressor c;
  std::vector<uint8_t> input = {1, 2, 3, 4};
  std::vector<uint8_t> packed;
  EXPECT_EQ(c.Compress(input, &packed), 4u);
  std::vector<uint8_t> out(4);
  EXPECT_TRUE(c.Decompress(packed, out).ok());
  EXPECT_EQ(out, input);
  std::vector<uint8_t> wrong(3);
  EXPECT_FALSE(c.Decompress(packed, wrong).ok());
}

// The workload generator must hit the paper's assumed ~60 % ratio so that
// the compression experiments are comparable (§3.3).
TEST(DataGeneratorTest, HitsTargetRatioApproximately) {
  DataGenerator gen(123, 0.6);
  Lzrw1Compressor c;
  uint64_t raw = 0, packed_total = 0;
  std::vector<uint8_t> packed;
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> block = gen.Make(4096);
    raw += block.size();
    packed_total += c.Compress(block, &packed);
  }
  const double ratio = static_cast<double>(packed_total) / raw;
  EXPECT_GT(ratio, 0.45);
  EXPECT_LT(ratio, 0.75);
}

TEST(DataGeneratorTest, ExtremesBehave) {
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;

  DataGenerator incompressible(1, 1.0);
  std::vector<uint8_t> hard = incompressible.Make(8192);
  EXPECT_GT(static_cast<double>(c.Compress(hard, &packed)) / hard.size(), 0.9);

  DataGenerator soft(2, 0.35);
  std::vector<uint8_t> easy = soft.Make(8192);
  EXPECT_LT(static_cast<double>(c.Compress(easy, &packed)) / easy.size(), 0.55);
}

}  // namespace
}  // namespace ld
