// Segment-summary records: LLD's metadata log (paper §3.1, Figure 2).
//
// A segment summary records, for every physical block in the segment, its
// logical block number, timestamp, length, and compression flag; it also
// logs list modifications as link tuples and list tuples, block
// deallocations, and ARU commit markers. Every record carries a timestamp
// and the id of the atomic recovery unit it belongs to (0 for a standalone
// operation); recovery applies a unit's records only if its commit marker is
// on disk, enforcing all-or-nothing semantics (§3.1, §3.6).
//
// In memory a record is a common header plus one payload struct per type,
// each field with one meaning; summary_record.cc lists every type's wire
// fields once, and the encoder, decoder and EncodedSize all walk that list.

#ifndef SRC_LLD_SUMMARY_RECORD_H_
#define SRC_LLD_SUMMARY_RECORD_H_

#include <cstdint>
#include <vector>

#include "src/ld/types.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace ld {

enum class SummaryRecordType : uint8_t {
  kBlockEntry = 1,   // A data block stored in this segment.
  kLinkTuple = 2,    // Successor-pointer update for a block.
  kListHead = 3,     // First-block update for a list.
  kListCreate = 4,   // List allocation (hints + position in list of lists).
  kListDelete = 5,   // List deallocation.
  kBlockFree = 6,    // Block-number deallocation.
  kAruCommit = 7,    // Explicit EndARU marker.
  kBlockAlloc = 8,   // Block-number allocation (bid, owning list, size class).
  kListMove = 9,     // List-of-lists successor update for a list.
  kSegmentParity = 10,  // XOR parity block covering this segment's data area.
  kScrubIntent = 11,    // Scrub retirement intent for a suspect segment.
  kStripeParity = 12,   // Cross-channel stripe membership (one per member).
};

// Format limits the record fields impose: a block's size class and stored
// length are 16-bit fields, and its byte offset within the segment is a
// 24-bit field, so no segment may exceed 16 MiB. Bids, Lids and segment
// indices are 24-bit fields too, so no id may exceed kMaxId. Segment indices
// also leave their two top values to PhysAddr's sentinels (the in-memory
// tables store them at the same width), so a volume holds at most
// kMaxSegments segments.
constexpr uint32_t kMaxBlockSize = 65535;
constexpr uint32_t kMaxSegmentBytes = 1u << 24;
constexpr uint32_t kMaxId = 0xffffff;
constexpr uint32_t kMaxSegments = 0xfffffe;

// The 24-bit payload checksum every block entry stores.
uint32_t PayloadCrc(std::span<const uint8_t> bytes);

struct SummaryRecord {
  // kBlockEntry. `payload_crc` is a 24-bit CRC of the stored bytes (the
  // compressed form if compressed), which relocation carries verbatim so
  // silent corruption is never laundered into a fresh valid checksum. This
  // is the only block-entry layout: the pre-checksum one, which stored the
  // owning list in the CRC's place, decodes as CORRUPTION.
  struct BlockEntryFields {
    Bid bid;
    uint32_t offset;       // Byte offset of the data within the segment.
    uint16_t stored_size;  // Bytes on disk.
    uint16_t size_class;   // Logical size.
    uint32_t payload_crc;
    bool compressed;
  };
  struct BlockAllocFields {  // kBlockAlloc.
    Bid bid;
    Lid lid;
    uint16_t size_class;
  };
  struct LinkTupleFields {  // kLinkTuple: `bid`'s successor becomes `successor`.
    Bid bid;
    Bid successor;
  };
  struct BlockFreeFields {  // kBlockFree.
    Bid bid;
  };
  struct ListHeadFields {  // kListHead: `lid`'s first block becomes `first`.
    Lid lid;
    Bid first;
  };
  // kListCreate and kListMove. Hints are immutable after NewList; carrying
  // them on every list record lets the cleaner re-log any of them as a full
  // kListCreate.
  struct ListFields {
    Lid lid;
    Lid lol_next;  // Successor in the list of lists.
    ListHints hints;
  };
  struct ListDeleteFields {  // kListDelete.
    Lid lid;
  };
  // kSegmentParity: the XOR parity block of this segment's data area. XOR
  // lanes wrap every `bytes` over [0, covered); `crc` is the 24-bit CRC of
  // the parity bytes themselves, so a rotted parity block is detected
  // before it is trusted.
  struct SegmentParityFields {
    uint32_t offset;   // Byte offset of the parity block in the segment.
    uint32_t bytes;    // Parity length.
    uint32_t covered;  // Data-area bytes the parity covers.
    uint32_t crc;
  };
  // kScrubIntent: scrub has relocated everything live out of `segment`,
  // whose retired summary carried `seq`. Recovery treats a damaged summary
  // there claiming a sequence <= seq as a retirement in progress and
  // completes it instead of refusing with CORRUPTION.
  struct ScrubIntentFields {
    uint32_t segment;
    uint64_t seq;
  };
  // kStripeParity declares one member of a cross-channel stripe set.
  // `member_seq` is the member's summary sequence, so a reused segment is
  // never mistaken for the striped image; `parity_crc` is the 24-bit CRC of
  // the parity segment's full image. A record with member_count 0 dissolves
  // the stripe (cleaner countermand). Newest record set per parity segment
  // wins, in seq order.
  struct StripeParityFields {
    uint32_t parity_segment;
    uint32_t member_segment;
    uint16_t member_index;
    uint16_t member_count;
    uint32_t parity_crc;
    uint64_t member_seq;
  };

  // A union with a non-trivial member (ListHints' initializers) needs a
  // user-provided constructor; a record starts as a zeroed block entry.
  SummaryRecord() : block{} {}

  SummaryRecordType type = SummaryRecordType::kBlockEntry;
  // Atomic-recovery-unit id: 0 for standalone operations (their own implicit
  // ARU); otherwise the id of the enclosing BeginARU..EndARU window. Recovery
  // applies an ARU's records only if its kAruCommit record is on disk. The id
  // generalizes the paper's single-bit tagging so that internal operations
  // (cleaning) can interleave with an open ARU, and is the natural extension
  // point for the concurrent ARUs the paper lists as future work (§5.4).
  uint32_t aru_id = 0;
  OpTimestamp ts = 0;
  // The payload `type` selects.
  union {
    BlockEntryFields block;
    BlockAllocFields alloc;
    LinkTupleFields link;
    BlockFreeFields freed;
    ListHeadFields head;
    ListFields list;
    ListDeleteFields deleted;
    SegmentParityFields parity;
    ScrubIntentFields scrub;
    StripeParityFields stripe;
  };

  static SummaryRecord BlockEntry(OpTimestamp ts, Bid bid, uint32_t offset, uint32_t stored_size,
                                  uint32_t size_class, bool compressed, uint32_t payload_crc);
  static SummaryRecord LinkTuple(OpTimestamp ts, Bid bid, Bid successor);
  static SummaryRecord ListHead(OpTimestamp ts, Lid lid, Bid first);
  static SummaryRecord ListCreate(OpTimestamp ts, Lid lid, ListHints hints, Lid lol_next);
  static SummaryRecord ListMove(OpTimestamp ts, Lid lid, Lid lol_next, ListHints hints);
  static SummaryRecord ListDelete(OpTimestamp ts, Lid lid);
  static SummaryRecord BlockFree(OpTimestamp ts, Bid bid);
  static SummaryRecord BlockAlloc(OpTimestamp ts, Bid bid, Lid lid, uint32_t size_class);
  static SummaryRecord AruCommit(OpTimestamp ts, uint32_t aru_id);
  static SummaryRecord SegmentParity(OpTimestamp ts, uint32_t offset, uint32_t parity_bytes,
                                     uint32_t covered_bytes, uint32_t parity_crc);
  static SummaryRecord ScrubIntent(OpTimestamp ts, uint32_t segment, uint64_t seq);
  static SummaryRecord StripeParity(OpTimestamp ts, uint32_t parity_segment,
                                    uint32_t member_segment, uint32_t member_index,
                                    uint32_t member_count, uint64_t member_seq,
                                    uint32_t parity_crc);

  void EncodeTo(Encoder* enc) const;
  static StatusOr<SummaryRecord> DecodeFrom(Decoder* dec);

  // Serialized size in bytes of a record of `type` (records are
  // variable-length by type).
  static size_t EncodedSize(SummaryRecordType type);
};
static_assert(sizeof(SummaryRecord) <= 40);

// Fixed header at the start of every segment summary (which itself sits at
// the fixed tail position of each segment).
struct SummaryHeader {
  static constexpr uint32_t kMagic = 0x4c445353;  // "LDSS"

  uint64_t seq = 0;           // Monotonic segment-write sequence number.
  uint32_t segment_index = 0;
  uint32_t record_count = 0;
  uint32_t data_bytes = 0;    // Fill level of the data area when written.
  // Bytes of record stream spilled into the *end of the data area* (just
  // below the summary tail). Record-heavy segments written by the cleaner
  // would otherwise waste their whole data area; the extension lets a
  // segment hold data_capacity worth of re-logged metadata.
  uint32_t ext_bytes = 0;

  static constexpr size_t kEncodedSize = 4 + 8 + 4 + 4 + 4 + 4 + 4;  // + crc
};

// Serializes header + records. The record stream fills `tail` (the fixed
// summary region) first; overflow goes into `ext` (the end of the data
// area), recording its size in the header. Pass an empty `ext` to forbid
// spilling. Returns CORRUPTION if the records do not fit. `ext_used`
// (optional) reports the spilled byte count.
Status EncodeSummary(const SummaryHeader& header, const std::vector<SummaryRecord>& records,
                     std::span<uint8_t> tail, std::span<uint8_t> ext = {},
                     uint32_t* ext_used = nullptr);

// Parses just the header of a summary tail (no CRC check): used to learn
// ext_bytes before fetching the extension region. NOT_FOUND on bad magic.
Status DecodeSummaryHeader(std::span<const uint8_t> tail, SummaryHeader* header);

// Parses a full summary from its tail plus (possibly empty) extension.
// Returns NOT_FOUND for a region that holds no valid summary (bad magic)
// and CORRUPTION for a torn or damaged one (bad CRC), which recovery treats
// as "segment never completed".
Status DecodeSummary(std::span<const uint8_t> tail, std::span<const uint8_t> ext,
                     SummaryHeader* header, std::vector<SummaryRecord>* records);
inline Status DecodeSummary(std::span<const uint8_t> tail, SummaryHeader* header,
                            std::vector<SummaryRecord>* records) {
  return DecodeSummary(tail, {}, header, records);
}

}  // namespace ld

#endif  // SRC_LLD_SUMMARY_RECORD_H_
