#include "src/disk/block_device.h"

namespace ld {

const ChannelStats& DiskStats::channel(size_t i) const {
  static const ChannelStats kZero{};
  return i < channels_.size() ? channels_[i] : kZero;
}

ChannelStats& DiskStats::MutableChannel(size_t i) {
  if (i >= channels_.size()) {
    channels_.resize(i + 1);
  }
  return channels_[i];
}

const TenantStats& DiskStats::tenant(size_t i) const {
  static const TenantStats kZero{};
  return i < tenants_.size() ? tenants_[i] : kZero;
}

TenantStats& DiskStats::MutableTenant(size_t i) {
  if (i >= tenants_.size()) {
    tenants_.resize(i + 1);
  }
  return tenants_[i];
}

Status BlockDevice::Read(uint64_t sector, std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(IoTag tag, SubmitRead(sector, out));
  return WaitFor(tag);
}

Status BlockDevice::Write(uint64_t sector, std::span<const uint8_t> data) {
  ASSIGN_OR_RETURN(IoTag tag, SubmitWrite(sector, data));
  return WaitFor(tag);
}

}  // namespace ld
