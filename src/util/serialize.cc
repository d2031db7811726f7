#include "src/util/serialize.h"

namespace ld {

void Encoder::PutString(const std::string& s) {
  PutU16(static_cast<uint16_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

uint64_t Decoder::GetLe(int bytes) {
  if (failed_ || remaining() < static_cast<size_t>(bytes)) {
    failed_ = true;
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += bytes;
  return v;
}

std::vector<uint8_t> Decoder::GetBytes(size_t n) {
  if (failed_ || remaining() < n) {
    failed_ = true;
    return {};
  }
  std::vector<uint8_t> out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

std::string Decoder::GetString() {
  const uint16_t n = GetU16();
  if (failed_ || remaining() < n) {
    failed_ = true;
    return {};
  }
  std::string out(reinterpret_cast<const char*>(data_.data()) + pos_, n);
  pos_ += n;
  return out;
}

void Decoder::Skip(size_t n) {
  if (failed_ || remaining() < n) {
    failed_ = true;
    return;
  }
  pos_ += n;
}

Status Decoder::ToStatus(const char* context) const {
  if (ok()) {
    return OkStatus();
  }
  return CorruptionError(std::string("decode failed: ") + context);
}

}  // namespace ld
