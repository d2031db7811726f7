#include "src/lld/summary_record.h"

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include "src/util/crc32.h"

namespace ld {

namespace {

constexpr uint8_t kFlagEndsAru = 0x01;
constexpr uint8_t kFlagCompressed = 0x02;
constexpr uint8_t kFlagCluster = 0x04;
constexpr uint8_t kFlagCompressList = 0x08;
constexpr uint8_t kFlagInterlist = 0x10;
// Set on every kBlockEntry: the entry carries a 24-bit payload checksum. A
// clear bit marks the pre-checksum layout (the owning list in the CRC's
// place), which no volume of the current superblock version holds, so it
// decodes as CORRUPTION.
constexpr uint8_t kFlagPayloadCrc = 0x20;

// Every record starts with type, ts, flags and aru_id.
constexpr size_t kCommonBytes = 1 + 6 + 1 + 3;

bool CarriesHints(SummaryRecordType type) {
  return type == SummaryRecordType::kListCreate || type == SummaryRecordType::kListMove;
}

// The wire layout after the common prefix: each type's fields in order, as
// f(width in bytes, field). The one place the layout is written down.
template <typename Record, typename F>
void ForEachField(Record& r, F&& f) {
  switch (r.type) {
    case SummaryRecordType::kBlockEntry:
      f(3, r.block.bid);
      f(3, r.block.offset);
      f(2, r.block.stored_size);
      f(2, r.block.size_class);
      f(3, r.block.payload_crc);
      break;
    case SummaryRecordType::kLinkTuple:
      f(3, r.link.bid);
      f(3, r.link.successor);
      break;
    case SummaryRecordType::kListHead:
      f(3, r.head.lid);
      f(3, r.head.first);
      break;
    case SummaryRecordType::kListCreate:
    case SummaryRecordType::kListMove:
      f(3, r.list.lid);
      f(3, r.list.lol_next);
      break;
    case SummaryRecordType::kListDelete:
      f(3, r.deleted.lid);
      break;
    case SummaryRecordType::kBlockFree:
      f(3, r.freed.bid);
      break;
    case SummaryRecordType::kBlockAlloc:
      f(3, r.alloc.bid);
      f(3, r.alloc.lid);
      f(2, r.alloc.size_class);
      break;
    case SummaryRecordType::kAruCommit:
      break;
    case SummaryRecordType::kSegmentParity:
      // Parity length and covered span need 24 bits: a parity block spans
      // RoundUp(kMaxBlockSize, sector) + sector > 64 KB, and covered bytes
      // range over the whole data area.
      f(3, r.parity.offset);
      f(3, r.parity.bytes);
      f(3, r.parity.covered);
      f(3, r.parity.crc);
      break;
    case SummaryRecordType::kScrubIntent:
      f(3, r.scrub.segment);
      f(6, r.scrub.seq);
      break;
    case SummaryRecordType::kStripeParity:
      f(3, r.stripe.parity_segment);
      f(3, r.stripe.member_segment);
      f(2, r.stripe.member_index);
      f(2, r.stripe.member_count);
      f(6, r.stripe.member_seq);
      f(3, r.stripe.parity_crc);
      break;
  }
}

// A record of `type` whose payload is the active, zeroed union member.
SummaryRecord Make(SummaryRecordType type, OpTimestamp ts) {
  SummaryRecord r;
  r.type = type;
  r.ts = ts;
  if (CarriesHints(type)) {
    // ListHints' member initializers make this payload's default constructor
    // non-trivial, so it must be constructed; assigning the others' fields
    // starts their lifetime.
    std::construct_at(&r.list);
  } else {
    ForEachField(r, [](int, auto& field) { field = 0; });
  }
  return r;
}

}  // namespace

uint32_t PayloadCrc(std::span<const uint8_t> bytes) {
  return Crc32Final(Crc32Update(Crc32Init(), bytes)) & 0xffffffu;
}

SummaryRecord SummaryRecord::BlockEntry(OpTimestamp ts, Bid bid, uint32_t offset,
                                        uint32_t stored_size, uint32_t size_class,
                                        bool compressed, uint32_t payload_crc) {
  SummaryRecord r = Make(SummaryRecordType::kBlockEntry, ts);
  r.block = {bid, offset, static_cast<uint16_t>(stored_size), static_cast<uint16_t>(size_class),
             payload_crc, compressed};
  return r;
}

SummaryRecord SummaryRecord::LinkTuple(OpTimestamp ts, Bid bid, Bid successor) {
  SummaryRecord r = Make(SummaryRecordType::kLinkTuple, ts);
  r.link = {bid, successor};
  return r;
}

SummaryRecord SummaryRecord::ListHead(OpTimestamp ts, Lid lid, Bid first) {
  SummaryRecord r = Make(SummaryRecordType::kListHead, ts);
  r.head = {lid, first};
  return r;
}

SummaryRecord SummaryRecord::ListCreate(OpTimestamp ts, Lid lid, ListHints hints, Lid lol_next) {
  SummaryRecord r = Make(SummaryRecordType::kListCreate, ts);
  r.list = {lid, lol_next, hints};
  return r;
}

SummaryRecord SummaryRecord::ListMove(OpTimestamp ts, Lid lid, Lid lol_next, ListHints hints) {
  SummaryRecord r = Make(SummaryRecordType::kListMove, ts);
  r.list = {lid, lol_next, hints};
  return r;
}

SummaryRecord SummaryRecord::ListDelete(OpTimestamp ts, Lid lid) {
  SummaryRecord r = Make(SummaryRecordType::kListDelete, ts);
  r.deleted = {lid};
  return r;
}

SummaryRecord SummaryRecord::BlockFree(OpTimestamp ts, Bid bid) {
  SummaryRecord r = Make(SummaryRecordType::kBlockFree, ts);
  r.freed = {bid};
  return r;
}

SummaryRecord SummaryRecord::BlockAlloc(OpTimestamp ts, Bid bid, Lid lid, uint32_t size_class) {
  SummaryRecord r = Make(SummaryRecordType::kBlockAlloc, ts);
  r.alloc = {bid, lid, static_cast<uint16_t>(size_class)};
  return r;
}

SummaryRecord SummaryRecord::AruCommit(OpTimestamp ts, uint32_t aru_id) {
  SummaryRecord r = Make(SummaryRecordType::kAruCommit, ts);
  r.aru_id = aru_id;
  return r;
}

SummaryRecord SummaryRecord::SegmentParity(OpTimestamp ts, uint32_t offset,
                                           uint32_t parity_bytes, uint32_t covered_bytes,
                                           uint32_t parity_crc) {
  SummaryRecord r = Make(SummaryRecordType::kSegmentParity, ts);
  r.parity = {offset, parity_bytes, covered_bytes, parity_crc};
  return r;
}

SummaryRecord SummaryRecord::ScrubIntent(OpTimestamp ts, uint32_t segment, uint64_t seq) {
  SummaryRecord r = Make(SummaryRecordType::kScrubIntent, ts);
  r.scrub = {segment, seq};
  return r;
}

SummaryRecord SummaryRecord::StripeParity(OpTimestamp ts, uint32_t parity_segment,
                                          uint32_t member_segment, uint32_t member_index,
                                          uint32_t member_count, uint64_t member_seq,
                                          uint32_t parity_crc) {
  SummaryRecord r = Make(SummaryRecordType::kStripeParity, ts);
  r.stripe = {parity_segment, member_segment, static_cast<uint16_t>(member_index),
              static_cast<uint16_t>(member_count), parity_crc, member_seq};
  return r;
}

void SummaryRecord::EncodeTo(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(type));
  enc->PutU48(ts);
  // The ends-ARU bit is derived from the id (recovery reads only the id),
  // and records without hints carry the ListHints{} bits, as they always
  // have on disk.
  const ListHints hints = CarriesHints(type) ? list.hints : ListHints{};
  const bool is_block = type == SummaryRecordType::kBlockEntry;
  uint8_t flags = 0;
  flags |= (aru_id == 0 || type == SummaryRecordType::kAruCommit) ? kFlagEndsAru : 0;
  flags |= (is_block && block.compressed) ? kFlagCompressed : 0;
  flags |= hints.cluster ? kFlagCluster : 0;
  flags |= hints.compress ? kFlagCompressList : 0;
  flags |= hints.interlist_cluster ? kFlagInterlist : 0;
  flags |= is_block ? kFlagPayloadCrc : 0;
  enc->PutU8(flags);
  enc->PutU24(aru_id);
  ForEachField(*this, [enc](int width, auto field) { enc->PutLe(field, width); });
}

StatusOr<SummaryRecord> SummaryRecord::DecodeFrom(Decoder* dec) {
  const uint8_t type = dec->GetU8();
  SummaryRecord r = Make(static_cast<SummaryRecordType>(type), dec->GetU48());
  const uint8_t flags = dec->GetU8();
  r.aru_id = dec->GetU24();
  if (type < static_cast<uint8_t>(SummaryRecordType::kBlockEntry) ||
      type > static_cast<uint8_t>(SummaryRecordType::kStripeParity)) {
    return CorruptionError("unknown summary record type " + std::to_string(type));
  }
  if (r.type == SummaryRecordType::kBlockEntry) {
    if ((flags & kFlagPayloadCrc) == 0) {
      return CorruptionError("pre-checksum block entry");
    }
    r.block.compressed = (flags & kFlagCompressed) != 0;
  } else if (CarriesHints(r.type)) {
    r.list.hints = ListHints{(flags & kFlagCluster) != 0, (flags & kFlagCompressList) != 0,
                             (flags & kFlagInterlist) != 0};
  }
  ForEachField(r, [dec](int width, auto& field) {
    field = static_cast<std::remove_reference_t<decltype(field)>>(dec->GetLe(width));
  });
  RETURN_IF_ERROR(dec->ToStatus("summary record"));
  return r;
}

size_t SummaryRecord::EncodedSize(SummaryRecordType type) {
  const SummaryRecord r = Make(type, 0);
  size_t size = kCommonBytes;
  ForEachField(r, [&size](int width, const auto&) { size += width; });
  return size;
}

Status EncodeSummary(const SummaryHeader& header, const std::vector<SummaryRecord>& records,
                     std::span<uint8_t> tail, std::span<uint8_t> ext, uint32_t* ext_used) {
  // Serialize the record stream once.
  std::vector<uint8_t> stream;
  {
    Encoder renc(&stream);
    for (const auto& r : records) {
      r.EncodeTo(&renc);
    }
  }
  // The tail holds header + first part of the stream + CRC.
  const size_t tail_capacity = tail.size() - SummaryHeader::kEncodedSize;
  const size_t in_tail = std::min(stream.size(), tail_capacity);
  const size_t spill = stream.size() - in_tail;
  if (spill > ext.size()) {
    return CorruptionError("segment summary overflow: " + std::to_string(stream.size()) +
                           " record bytes");
  }

  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU32(SummaryHeader::kMagic);
  enc.PutU64(header.seq);
  enc.PutU32(header.segment_index);
  enc.PutU32(static_cast<uint32_t>(records.size()));
  enc.PutU32(header.data_bytes);
  enc.PutU32(static_cast<uint32_t>(spill));
  enc.PutBytes(std::span<const uint8_t>(stream).subspan(0, in_tail));
  // CRC covers the header fields, the tail part, and the spilled part.
  uint32_t crc = Crc32Update(Crc32Init(), buf);
  crc = Crc32Update(crc, std::span<const uint8_t>(stream).subspan(in_tail));
  enc.PutU32(Crc32Final(crc));

  std::memcpy(tail.data(), buf.data(), buf.size());
  std::memset(tail.data() + buf.size(), 0, tail.size() - buf.size());
  if (spill > 0) {
    // Spill goes at the *end* of the extension span (abutting the tail).
    std::memcpy(ext.data() + ext.size() - spill, stream.data() + in_tail, spill);
  }
  if (ext_used != nullptr) {
    *ext_used = static_cast<uint32_t>(spill);
  }
  return OkStatus();
}

Status DecodeSummaryHeader(std::span<const uint8_t> tail, SummaryHeader* header) {
  Decoder dec(tail);
  const uint32_t magic = dec.GetU32();
  if (!dec.ok() || magic != SummaryHeader::kMagic) {
    return NotFoundError("no segment summary");
  }
  header->seq = dec.GetU64();
  header->segment_index = dec.GetU32();
  header->record_count = dec.GetU32();
  header->data_bytes = dec.GetU32();
  header->ext_bytes = dec.GetU32();
  return dec.ToStatus("summary header");
}

Status DecodeSummary(std::span<const uint8_t> tail, std::span<const uint8_t> ext,
                     SummaryHeader* header, std::vector<SummaryRecord>* records) {
  RETURN_IF_ERROR(DecodeSummaryHeader(tail, header));
  if (tail.size() < SummaryHeader::kEncodedSize) {
    return CorruptionError("segment summary tail shorter than its header");
  }
  if (header->ext_bytes > 0 && ext.size() < header->ext_bytes) {
    return InvalidArgumentError("summary extension not supplied");
  }

  // Reassemble the record stream: tail part + spilled part (at the end of
  // the extension span).
  const size_t tail_body = tail.size() - SummaryHeader::kEncodedSize;
  std::vector<uint8_t> stream;
  stream.reserve(tail_body + header->ext_bytes);
  stream.insert(stream.end(), tail.begin() + (SummaryHeader::kEncodedSize - 4),
                tail.end() - 4);
  if (header->ext_bytes > 0) {
    stream.insert(stream.end(), ext.end() - header->ext_bytes, ext.end());
  }

  Decoder dec(stream);
  records->clear();
  // The CRC is only checked after the records decode, so a damaged header
  // must not be trusted for allocation: every record is at least its common
  // prefix, so a count the stream cannot possibly hold is damage.
  if (header->record_count > stream.size() / kCommonBytes) {
    return CorruptionError("segment summary record count exceeds stream");
  }
  records->reserve(header->record_count);
  for (uint32_t i = 0; i < header->record_count; ++i) {
    ASSIGN_OR_RETURN(SummaryRecord r, SummaryRecord::DecodeFrom(&dec));
    records->push_back(r);
  }
  const size_t record_bytes = dec.position();

  // CRC covers header fields + record stream; it sits right after the tail
  // part of the stream.
  const size_t in_tail = std::min(record_bytes, tail_body);
  uint32_t crc = Crc32Update(Crc32Init(), tail.subspan(0, SummaryHeader::kEncodedSize - 4));
  crc = Crc32Update(crc, std::span<const uint8_t>(stream).subspan(0, record_bytes));
  const size_t crc_at = (SummaryHeader::kEncodedSize - 4) + in_tail;
  Decoder cdec(tail.subspan(crc_at, 4));
  const uint32_t stored_crc = cdec.GetU32();
  if (Crc32Final(crc) != stored_crc) {
    return CorruptionError("segment summary crc mismatch");
  }
  return OkStatus();
}

}  // namespace ld
