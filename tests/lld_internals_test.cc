// Direct unit tests for LLD's internal data structures: the summary-record
// codec (including the data-area extension spill), the block-number map,
// the list table, and the segment usage table.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/lld/block_map.h"
#include "src/lld/list_table.h"
#include "src/lld/summary_record.h"
#include "src/lld/usage_table.h"
#include "src/util/random.h"

namespace ld {
namespace {

// ---- Summary codec ------------------------------------------------------------

uint32_t Below24(Rng& rng) { return static_cast<uint32_t>(rng.Below(1u << 24)); }
uint16_t Below16(Rng& rng) { return static_cast<uint16_t>(rng.Below(1u << 16)); }
OpTimestamp Ts(Rng& rng) { return rng.Below(1ull << 48); }

// ARU tagging as LLD writes it: a record logged inside an open unit carries
// the unit's id, and only untagged records (and kAruCommit) end a unit.
SummaryRecord Tagged(SummaryRecord r, uint32_t aru_id) {
  r.aru_id = aru_id;
  return r;
}

ListHints SampleHints(Rng& rng) {
  ListHints hints;
  hints.cluster = rng.Chance(0.5);
  hints.compress = rng.Chance(0.5);
  hints.interlist_cluster = rng.Chance(0.5);
  return hints;
}

// One record of any of the 12 types. Data and list records are tagged with
// an open ARU the way LLD tags them; parity, scrub and stripe records are
// always logged outside a unit.
SummaryRecord SampleRecord(Rng& rng) {
  const uint32_t aru = rng.Chance(0.3) ? 1 + Below24(rng) % ((1u << 24) - 1) : 0;
  const auto maybe_tag = [aru](SummaryRecord r) { return aru == 0 ? r : Tagged(r, aru); };
  switch (rng.Below(12)) {
    case 0:
      return maybe_tag(SummaryRecord::BlockEntry(Ts(rng), Below24(rng), Below24(rng),
                                                 Below16(rng), Below16(rng), rng.Chance(0.3),
                                                 Below24(rng)));
    case 1:
      return maybe_tag(SummaryRecord::LinkTuple(Ts(rng), Below24(rng), Below24(rng)));
    case 2:
      return maybe_tag(SummaryRecord::ListHead(Ts(rng), Below24(rng), Below24(rng)));
    case 3:
      return maybe_tag(
          SummaryRecord::ListCreate(Ts(rng), Below24(rng), SampleHints(rng), Below24(rng)));
    case 4:
      return maybe_tag(
          SummaryRecord::ListMove(Ts(rng), Below24(rng), Below24(rng), SampleHints(rng)));
    case 5:
      return maybe_tag(SummaryRecord::ListDelete(Ts(rng), Below24(rng)));
    case 6:
      return maybe_tag(SummaryRecord::BlockFree(Ts(rng), Below24(rng)));
    case 7:
      return maybe_tag(
          SummaryRecord::BlockAlloc(Ts(rng), Below24(rng), Below24(rng), Below16(rng)));
    case 8:
      return SummaryRecord::SegmentParity(Ts(rng), Below24(rng), Below24(rng), Below24(rng),
                                          Below24(rng));
    case 9:
      return SummaryRecord::ScrubIntent(Ts(rng), Below24(rng), rng.Below(1ull << 48));
    case 10:
      return SummaryRecord::StripeParity(Ts(rng), Below24(rng), Below24(rng), Below16(rng),
                                         Below16(rng), rng.Below(1ull << 48), Below24(rng));
    default:
      return SummaryRecord::AruCommit(Ts(rng), 1 + Below24(rng) % ((1u << 24) - 1));
  }
}

std::vector<uint8_t> Encoded(const SummaryRecord& r) {
  std::vector<uint8_t> bytes;
  Encoder enc(&bytes);
  r.EncodeTo(&enc);
  return bytes;
}

// Two records are equal when they encode to the same bytes: the wire form
// is all a record has to survive.
void ExpectRecordsEqual(const SummaryRecord& a, const SummaryRecord& b) {
  EXPECT_EQ(Encoded(a), Encoded(b)) << "type " << static_cast<int>(a.type);
}

std::vector<uint8_t> Unhex(std::string_view hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string Hex(std::span<const uint8_t> bytes) {
  std::string out;
  for (uint8_t b : bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(SummaryCodecTest, RoundTripWithinTail) {
  Rng rng(42);
  std::vector<SummaryRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(SampleRecord(rng));
  }
  SummaryHeader header;
  header.seq = 77;
  header.segment_index = 5;
  header.data_bytes = 12345;

  std::vector<uint8_t> tail(8192);
  ASSERT_TRUE(EncodeSummary(header, records, tail).ok());

  SummaryHeader decoded;
  std::vector<SummaryRecord> out;
  ASSERT_TRUE(DecodeSummary(tail, &decoded, &out).ok());
  EXPECT_EQ(decoded.seq, 77u);
  EXPECT_EQ(decoded.segment_index, 5u);
  EXPECT_EQ(decoded.data_bytes, 12345u);
  EXPECT_EQ(decoded.ext_bytes, 0u);
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], out[i]);
  }
}

TEST(SummaryCodecTest, SpillsIntoExtensionAndRoundTrips) {
  Rng rng(7);
  std::vector<SummaryRecord> records;
  for (int i = 0; i < 2000; ++i) {  // Far more than a 4-KB tail can hold.
    records.push_back(SampleRecord(rng));
  }
  SummaryHeader header;
  header.seq = 9;
  header.segment_index = 1;

  std::vector<uint8_t> tail(4096);
  std::vector<uint8_t> ext(128 * 1024);
  uint32_t ext_used = 0;
  ASSERT_TRUE(EncodeSummary(header, records, tail, ext, &ext_used).ok());
  EXPECT_GT(ext_used, 0u);

  SummaryHeader decoded;
  ASSERT_TRUE(DecodeSummaryHeader(tail, &decoded).ok());
  EXPECT_EQ(decoded.ext_bytes, ext_used);

  std::vector<SummaryRecord> out;
  // The caller passes exactly the extension span (spill sits at its end).
  ASSERT_TRUE(
      DecodeSummary(tail, std::span<const uint8_t>(ext).subspan(ext.size() - ext_used, ext_used),
                    &decoded, &out)
          .ok());
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < records.size(); i += 131) {
    ExpectRecordsEqual(records[i], out[i]);
  }
}

TEST(SummaryCodecTest, OverflowWithoutExtensionFails) {
  Rng rng(3);
  std::vector<SummaryRecord> records;
  for (int i = 0; i < 2000; ++i) {
    records.push_back(SampleRecord(rng));
  }
  std::vector<uint8_t> tail(4096);
  EXPECT_EQ(EncodeSummary(SummaryHeader{}, records, tail).code(), ErrorCode::kCorruption);
}

TEST(SummaryCodecTest, BadMagicIsNotFound) {
  std::vector<uint8_t> tail(4096, 0);
  SummaryHeader header;
  std::vector<SummaryRecord> records;
  EXPECT_EQ(DecodeSummary(tail, &header, &records).code(), ErrorCode::kNotFound);
}

TEST(SummaryCodecTest, BitFlipIsCorruption) {
  Rng rng(11);
  std::vector<SummaryRecord> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(SampleRecord(rng));
  }
  std::vector<uint8_t> tail(4096);
  ASSERT_TRUE(EncodeSummary(SummaryHeader{}, records, tail).ok());
  tail[100] ^= 0x40;
  SummaryHeader header;
  std::vector<SummaryRecord> out;
  const Status status = DecodeSummary(tail, &header, &out);
  EXPECT_FALSE(status.ok());
}

TEST(SummaryCodecTest, EncodedSizeMatchesReality) {
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const SummaryRecord r = SampleRecord(rng);
    std::vector<uint8_t> buf;
    Encoder enc(&buf);
    r.EncodeTo(&enc);
    EXPECT_EQ(buf.size(), SummaryRecord::EncodedSize(r.type));
  }
}

// The wire format, pinned: one record of every type encoded into a fixed
// 288-byte tail. Any change to a field's width, order or flag bit shows up
// here as a byte diff.
std::vector<SummaryRecord> GoldenRecords() {
  ListHints hints;
  hints.cluster = false;
  hints.compress = true;
  std::vector<SummaryRecord> records;
  records.push_back(SummaryRecord::BlockFree(1, 7));
  records.push_back(Tagged(SummaryRecord::LinkTuple(2, 9, 10), 5));
  records.push_back(SummaryRecord::AruCommit(3, 5));
  records.push_back(SummaryRecord::BlockEntry(4, 0x123456, 0x0a0b0c, 4000, 4096, true, 0xabcdef));
  records.push_back(SummaryRecord::ListCreate(5, 3, hints, 8));
  records.push_back(SummaryRecord::StripeParity(6, 40, 17, 2, 3, 0x0102030405, 0x7f7e7d));
  records.push_back(SummaryRecord::ListHead(8, 3, 11));
  records.push_back(Tagged(SummaryRecord::ListMove(9, 4, 3, ListHints{}), 6));
  records.push_back(SummaryRecord::ListDelete(10, 4));
  records.push_back(SummaryRecord::BlockAlloc(11, 12, 3, 2048));
  records.push_back(SummaryRecord::SegmentParity(12, 0x010000, 0x011200, 0x00fe00, 0x313233));
  records.push_back(SummaryRecord::ScrubIntent(13, 21, 0x0000aabbccddeeff));
  return records;
}

TEST(SummaryCodecTest, GoldenBytes) {
  // A standalone kBlockFree: type 06, ts 1, flags 0x15 (ends-ARU plus the
  // default ListHints{} cluster and interlist bits every non-list record
  // carries), aru 0, bid 7.
  EXPECT_EQ(Hex(Encoded(SummaryRecord::BlockFree(1, 7))),
            "06" "010000000000" "15" "000000" "070000");

  SummaryHeader header;
  header.seq = 0x0102030405060708;
  header.segment_index = 19;
  header.data_bytes = 65000;
  std::vector<uint8_t> tail(288);
  ASSERT_TRUE(EncodeSummary(header, GoldenRecords(), tail).ok());
  static constexpr const char* kGolden[] = {
      "5353444c0807060504030201130000000c000000e8fd00000000000006010000",
      "0000001500000007000002020000000000140500000900000a00000703000000",
      "00001505000001040000000000370000005634120c0b0aa00f0010efcdab0405",
      "0000000000190000000300000800000c06000000000015000000280000110000",
      "020003000504030201007d7e7f03080000000000150000000300000b00000909",
      "000000000014060000040000030000050a000000000015000000040000080b00",
      "00000000150000000c000003000000080a0c0000000000150000000000010012",
      "0100fe003332310b0d000000000015000000150000ffeeddccbbaa3318153b00",
      "0000000000000000000000000000000000000000000000000000000000000000",
  };
  std::string golden;
  for (const char* line : kGolden) {
    golden += line;
  }
  EXPECT_EQ(Hex(tail), golden);
}

// A record cut anywhere after its flags byte fails with the decoder's own
// message: type, timestamp and flags decode, so the cut is the only fault.
TEST(SummaryCodecTest, TruncatedRecordIsCorruption) {
  for (const SummaryRecord& r : GoldenRecords()) {
    const std::vector<uint8_t> whole = Encoded(r);
    for (size_t cut = 8; cut < whole.size(); ++cut) {
      Decoder dec(std::span<const uint8_t>(whole).first(cut));
      const Status status = SummaryRecord::DecodeFrom(&dec).status();
      EXPECT_EQ(status.code(), ErrorCode::kCorruption);
      EXPECT_EQ(status.message(), "decode failed: summary record")
          << "type " << static_cast<int>(r.type) << " cut " << cut;
    }
  }
}

// The pre-checksum block-entry layout (flag 0x20 clear, the owning list
// where the CRC now sits) is refused: bid 11, list 4, offset 512, 300 stored
// bytes of a 1024-byte block.
TEST(SummaryCodecTest, PreChecksumBlockEntryIsCorruption) {
  const std::vector<uint8_t> legacy =
      Unhex("01" "070000000000" "15" "000000" "0b0000" "040000" "000200" "2c01" "0004");
  Decoder dec(legacy);
  EXPECT_EQ(SummaryRecord::DecodeFrom(&dec).status().code(), ErrorCode::kCorruption);
}

// Property sweep over randomized record mixes — all 12 record types, tagged
// and untagged: the codec must (a) round-trip exactly,
// (b) reject every truncation of the encoded image, and (c) reject a bit
// flip anywhere in the encoded bytes. (b) and (c) are what recovery leans
// on when it classifies torn and rotted summaries.
TEST(SummaryCodecTest, PropertyRandomizedRoundTripTruncationAndBitFlips) {
  for (uint64_t seed = 0; seed < 48; ++seed) {
    Rng rng(1000 + seed * 7919);
    std::vector<SummaryRecord> records;
    const int n = 1 + static_cast<int>(rng.Below(24));
    size_t record_bytes = 0;
    for (int i = 0; i < n; ++i) {
      records.push_back(SampleRecord(rng));
      record_bytes += SummaryRecord::EncodedSize(records.back().type);
    }
    SummaryHeader header;
    header.seq = 1 + rng.Below(100000);
    header.segment_index = rng.Below(64);
    header.data_bytes = rng.Below(1 << 17);
    std::vector<uint8_t> tail(8192);
    ASSERT_TRUE(EncodeSummary(header, records, tail).ok());

    // (a) Round-trip.
    SummaryHeader decoded;
    std::vector<SummaryRecord> out;
    ASSERT_TRUE(DecodeSummary(tail, &decoded, &out).ok());
    EXPECT_EQ(decoded.seq, header.seq);
    ASSERT_EQ(out.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      ExpectRecordsEqual(records[i], out[i]);
    }

    // Every byte of [0, used) is covered by the header or record checksum.
    const size_t used = SummaryHeader::kEncodedSize + record_bytes;
    ASSERT_LE(used, tail.size());

    // (b) Truncation anywhere inside the used image must not decode.
    const size_t cut = rng.Below(used);
    std::vector<uint8_t> truncated(tail.begin(), tail.begin() + cut);
    SummaryHeader h2;
    std::vector<SummaryRecord> out2;
    EXPECT_FALSE(DecodeSummary(truncated, &h2, &out2).ok()) << "seed " << seed;

    // (c) A single bit flip inside the used image must not decode clean.
    std::vector<uint8_t> flipped = tail;
    flipped[rng.Below(used)] ^= static_cast<uint8_t>(1u << rng.Below(8));
    SummaryHeader h3;
    std::vector<SummaryRecord> out3;
    EXPECT_FALSE(DecodeSummary(flipped, &h3, &out3).ok()) << "seed " << seed;
  }
}

// ---- Block map --------------------------------------------------------------------

TEST(BlockMapTest, AllocateFreeRecycle) {
  BlockMap map;
  const Bid a = *map.Allocate(1, 4096);
  const Bid b = *map.Allocate(1, 4096);
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNilBid);
  EXPECT_EQ(map.allocated_count(), 2u);
  ASSERT_TRUE(map.Free(a).ok());
  EXPECT_FALSE(map.IsAllocated(a));
  EXPECT_EQ(*map.Allocate(1, 4096), a);  // Freed numbers are reused.
  EXPECT_EQ(map.Free(999).code(), ErrorCode::kNotFound);
  EXPECT_EQ(map.Lookup(kNilBid).status().code(), ErrorCode::kNotFound);
}

TEST(BlockMapTest, EnsureAllocatedAndRebuild) {
  BlockMap map;
  map.EnsureAllocated(10).set_size_class(64);
  map.EnsureAllocated(10);  // Idempotent.
  EXPECT_EQ(map.allocated_count(), 1u);
  map.ForceFree(10);
  map.ForceFree(10);  // Tolerant of duplicates.
  EXPECT_EQ(map.allocated_count(), 0u);
  map.EnsureAllocated(5);
  map.RebuildFreeList();
  // Bids 1..4 and 6..10 are free; a fresh allocation uses one of them.
  const Bid fresh = *map.Allocate(1, 4096);
  EXPECT_NE(fresh, 5u);
  EXPECT_LE(fresh, 10u);
}

// Each field holds the full range of the summary-record field it mirrors,
// distinct values in every field read back (no two fields share a byte),
// and the 32-bit sentinels survive the 24-bit segment fields.
TEST(BlockMapTest, PackedEntryHoldsLogWidthLimitsAndSentinels) {
  static_assert(sizeof(BlockMapEntry) == 32);
  BlockMapEntry e;
  EXPECT_TRUE(e.phys().IsNone());
  EXPECT_EQ(e.phys().segment, PhysAddr::kNone);
  EXPECT_EQ(e.link_seg(), kNoAuthoritySeg);
  EXPECT_EQ(e.alloc_seg(), kNoAuthoritySeg);
  EXPECT_FALSE(e.allocated());
  EXPECT_FALSE(e.compressed());

  const auto fill = [](BlockMapEntry* entry, uint32_t seg, uint32_t offset, uint32_t id,
                       uint32_t size, uint32_t crc, OpTimestamp ts, bool flag) {
    entry->set_phys(PhysAddr{seg, offset});
    entry->set_successor(id);
    entry->set_list(id ^ 0x5a5a5a);
    entry->set_size_class(size);
    entry->set_stored_size(size ^ 0x00ff);
    entry->set_compressed(flag);
    entry->set_allocated(!flag);
    entry->set_payload_crc(crc);
    entry->set_link_seg(seg - 1);
    entry->set_alloc_seg(seg - 2);
    entry->set_write_ts(ts);
  };
  const auto check = [](const BlockMapEntry& entry, uint32_t seg, uint32_t offset, uint32_t id,
                        uint32_t size, uint32_t crc, OpTimestamp ts, bool flag) {
    EXPECT_EQ(entry.phys(), (PhysAddr{seg, offset}));
    EXPECT_EQ(entry.successor(), id);
    EXPECT_EQ(entry.list(), id ^ 0x5a5a5a);
    EXPECT_EQ(entry.size_class(), size);
    EXPECT_EQ(entry.stored_size(), size ^ 0x00ff);
    EXPECT_EQ(entry.compressed(), flag);
    EXPECT_EQ(entry.allocated(), !flag);
    EXPECT_EQ(entry.payload_crc(), crc);
    EXPECT_EQ(entry.link_seg(), seg - 1);
    EXPECT_EQ(entry.alloc_seg(), seg - 2);
    EXPECT_EQ(entry.write_ts(), ts);
  };
  // Limits: the last segment index, offset 2^24 - 1, id 0xFFFFFF, 16-bit
  // sizes, a 24-bit CRC and a 48-bit timestamp.
  const uint32_t last_seg = kMaxSegments - 1;
  fill(&e, last_seg, (1u << 24) - 1, kMaxId, kMaxBlockSize, 0xffffff,
       (uint64_t{1} << 48) - 1, true);
  check(e, last_seg, (1u << 24) - 1, kMaxId, kMaxBlockSize, 0xffffff,
        (uint64_t{1} << 48) - 1, true);
  // Distinct bytes everywhere, so an overlap between fields would show.
  fill(&e, 0x123450, 0xabcdef, 0x13579b, 0x2468, 0x0f1e2d, 0x0102030405ull, false);
  check(e, 0x123450, 0xabcdef, 0x13579b, 0x2468, 0x0f1e2d, 0x0102030405ull, false);

  // Sentinels widen back to their 32-bit values; the last real index does not.
  e.set_phys(PhysAddr{PhysAddr::kOpenSegment, 4096});
  EXPECT_TRUE(e.phys().IsOpen());
  EXPECT_EQ(e.phys().segment, PhysAddr::kOpenSegment);
  e.set_phys(PhysAddr{});
  EXPECT_TRUE(e.phys().IsNone());
  e.set_phys(PhysAddr{last_seg, 0});
  EXPECT_TRUE(e.phys().IsOnDisk());
  EXPECT_EQ(e.phys().segment, last_seg);
  e.set_link_seg(kNoAuthoritySeg);
  e.set_alloc_seg(last_seg);
  EXPECT_EQ(e.link_seg(), kNoAuthoritySeg);
  EXPECT_EQ(e.alloc_seg(), last_seg);
}

// Bids with no CountRead cost nothing; a freed number's count restarts.
TEST(BlockMapTest, ReadCountsLiveInASideTable) {
  BlockMap map;
  const Bid a = *map.Allocate(1, 4096);
  const Bid b = *map.Allocate(1, 4096);
  const uint64_t bare = map.MemoryBytes();
  EXPECT_EQ(map.read_count(a), 0u);
  map.CountRead(b);
  map.CountRead(b);
  EXPECT_EQ(map.read_count(b), 2u);
  EXPECT_GE(map.MemoryBytes(), bare + 3 * sizeof(uint32_t));
  ASSERT_TRUE(map.Free(b).ok());
  EXPECT_EQ(*map.Allocate(1, 4096), b);
  EXPECT_EQ(map.read_count(b), 0u);
}

// ---- List table ----------------------------------------------------------------------

TEST(ListTableTest, ListOfListsOrdering) {
  ListTable table;
  const Lid a = *table.Allocate(kBeginOfListOfLists, ListHints{});
  const Lid b = *table.Allocate(a, ListHints{});
  const Lid c = *table.Allocate(kBeginOfListOfLists, ListHints{});
  // Order: c, a, b.
  EXPECT_EQ(table.lol_head(), c);
  EXPECT_EQ(table.entry(c).lol_next(), a);
  EXPECT_EQ(table.entry(a).lol_next(), b);
  ASSERT_TRUE(table.Move(b, c).ok());  // c, b, a.
  EXPECT_EQ(table.entry(c).lol_next(), b);
  EXPECT_EQ(table.entry(b).lol_next(), a);
  EXPECT_EQ(table.Move(b, b).code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(table.Free(b).ok());
  EXPECT_EQ(table.entry(c).lol_next(), a);
  EXPECT_EQ(table.Allocate(999, ListHints{}).status().code(), ErrorCode::kNotFound);
}

TEST(ListTableTest, RelinkAfterRecovery) {
  ListTable table;
  // Simulate recovery: materialize entries with only next pointers.
  table.EnsureAllocated(3).set_lol_next(7);
  table.EnsureAllocated(7).set_lol_next(kNilLid);
  table.EnsureAllocated(5).set_lol_next(3);
  table.RelinkListOfLists();
  EXPECT_EQ(table.lol_head(), 5u);
  EXPECT_EQ(table.entry(3).lol_prev(), 5u);
  EXPECT_EQ(table.entry(7).lol_prev(), 3u);
}

TEST(ListTableTest, PackedEntryHoldsLogWidthLimitsAndSentinels) {
  static_assert(sizeof(ListEntry) == 16);
  ListEntry e;
  EXPECT_EQ(e.head_seg(), kNoAuthoritySeg);
  EXPECT_EQ(e.create_seg(), kNoAuthoritySeg);
  EXPECT_FALSE(e.allocated());
  const ListHints defaults = e.hints();
  EXPECT_TRUE(defaults.cluster);
  EXPECT_FALSE(defaults.compress);
  EXPECT_TRUE(defaults.interlist_cluster);

  const uint32_t last_seg = kMaxSegments - 1;
  for (const uint32_t id : {kMaxId, 0x13579bu}) {
    e.set_first(id);
    e.set_lol_prev(id ^ 0x000f0f);
    e.set_lol_next(id ^ 0x0f0f00);
    e.set_head_seg(last_seg - (id & 0xff));
    e.set_create_seg(last_seg - 1);
    e.set_allocated(true);
    EXPECT_EQ(e.first(), id);
    EXPECT_EQ(e.lol_prev(), id ^ 0x000f0f);
    EXPECT_EQ(e.lol_next(), id ^ 0x0f0f00);
    EXPECT_EQ(e.head_seg(), last_seg - (id & 0xff));
    EXPECT_EQ(e.create_seg(), last_seg - 1);
  }
  // Every hint combination, and the allocated bit beside them.
  for (int bits = 0; bits < 16; ++bits) {
    const ListHints hints{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    e.set_allocated((bits & 8) != 0);
    e.set_hints(hints);
    EXPECT_EQ(e.hints().cluster, hints.cluster);
    EXPECT_EQ(e.hints().compress, hints.compress);
    EXPECT_EQ(e.hints().interlist_cluster, hints.interlist_cluster);
    EXPECT_EQ(e.allocated(), (bits & 8) != 0);
  }
  e.set_head_seg(kNoAuthoritySeg);
  EXPECT_EQ(e.head_seg(), kNoAuthoritySeg);
  EXPECT_EQ(e.first(), 0x13579bu);
}

// ---- Usage table -----------------------------------------------------------------------

TEST(UsageTableTest, LiveAccountingAndPicks) {
  UsageTable table(4);
  table.segment(0).state = SegmentState::kFull;
  table.segment(1).state = SegmentState::kFull;
  table.segment(2).state = SegmentState::kScratch;
  table.AddLive(0, 1000, 5);
  table.AddLive(1, 200, 50);
  table.AddLive(2, 999, 1);

  EXPECT_EQ(table.TotalLiveBytes(), 2199u);
  EXPECT_EQ(table.FreeCount(), 1u);
  EXPECT_EQ(table.PickFree(), 3);
  EXPECT_EQ(table.PickGreedy(), 1);  // Lowest live among kFull only.
  table.RemoveLive(0, 900);
  EXPECT_EQ(table.PickGreedy(), 0);

  // Cost-benefit prefers the old, mostly-dead segment 0 over fresh 1.
  EXPECT_EQ(table.PickCostBenefit(4096, 100), 0);
}

TEST(UsageTableTest, AddLiveAgedPreservesAgeWhileAdvancingNewest) {
  UsageTable table(1);
  table.segment(0).state = SegmentState::kFull;
  // Cleaner relog at ts 90 of a block originally written at ts 10: record
  // authority moves to 90, the age input stays 10.
  table.AddLiveAged(0, 100, /*relog_ts=*/90, /*age=*/10);
  EXPECT_EQ(table.segment(0).newest_ts, 90u);
  EXPECT_EQ(table.segment(0).age_ts, 10u);
  // Record-only bytes (age unknown = 0) advance newest_ts but leave the age.
  table.AddLiveAged(0, 50, 95, 0);
  EXPECT_EQ(table.segment(0).newest_ts, 95u);
  EXPECT_EQ(table.segment(0).age_ts, 10u);
  // A foreground write (AddLive) refreshes both.
  table.AddLive(0, 10, 97);
  EXPECT_EQ(table.segment(0).newest_ts, 97u);
  EXPECT_EQ(table.segment(0).age_ts, 97u);
}

TEST(UsageTableTest, CostBenefitPrefersPreservedOldAgeAtEqualUtilization) {
  UsageTable table(2);
  table.segment(0).state = SegmentState::kFull;
  table.segment(1).state = SegmentState::kFull;
  // Identical live bytes and identical relog timestamps; only the preserved
  // ages differ. Scoring must read the age, not the relog time — otherwise
  // cleaner output always looks hot and gets recopied forever.
  table.AddLiveAged(0, 1000, /*relog_ts=*/90, /*age=*/5);
  table.AddLiveAged(1, 1000, /*relog_ts=*/90, /*age=*/80);
  EXPECT_EQ(table.PickCostBenefit(4096, /*now=*/100), 0);
}

TEST(UsageTableTest, CostBenefitFallsBackToNewestWhenAgeUnknown) {
  UsageTable table(2);
  table.segment(0).state = SegmentState::kFull;
  table.segment(1).state = SegmentState::kFull;
  // Both segments carry only record bytes (age 0 = unknown): the fallback
  // orders them by newest_ts, so the long-idle segment 0 wins.
  table.AddLiveAged(0, 1000, /*relog_ts=*/10, /*age=*/0);
  table.AddLiveAged(1, 1000, /*relog_ts=*/90, /*age=*/0);
  EXPECT_EQ(table.segment(0).age_ts, 0u);
  EXPECT_EQ(table.PickCostBenefit(4096, /*now=*/100), 0);
}

TEST(UsageTableTest, PicksSkipNonFullStates) {
  UsageTable table(3);
  table.segment(0).state = SegmentState::kScratch;
  table.segment(1).state = SegmentState::kCleaning;
  EXPECT_EQ(table.PickGreedy(), -1);
  EXPECT_EQ(table.PickCostBenefit(4096, 10), -1);
  EXPECT_EQ(table.PickFree(), 2);
}

}  // namespace
}  // namespace ld
