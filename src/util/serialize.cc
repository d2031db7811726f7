#include "src/util/serialize.h"

namespace ld {

void Encoder::PutString(const std::string& s) {
  PutU16(static_cast<uint16_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
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
