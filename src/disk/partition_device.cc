#include "src/disk/partition_device.h"

#include <string>
#include <vector>

namespace ld {

PartitionDevice::PartitionDevice(BlockDevice* parent, uint64_t first_sector,
                                 uint64_t num_sectors, TenantId tenant)
    : parent_(parent), first_sector_(first_sector), num_sectors_(num_sectors), tenant_(tenant) {}

Status PartitionDevice::ValidateRange(uint64_t sector, size_t bytes) const {
  const uint32_t ssz = parent_->sector_size();
  if (bytes == 0 || bytes % ssz != 0) {
    return InvalidArgumentError("request size not sector-aligned");
  }
  if (sector + bytes / ssz > num_sectors_) {
    return InvalidArgumentError("request beyond partition end (sector " +
                                std::to_string(sector) + ")");
  }
  return OkStatus();
}

StatusOr<IoTag> PartitionDevice::SubmitRead(uint64_t sector, std::span<uint8_t> out) {
  RETURN_IF_ERROR(ValidateRange(sector, out.size()));
  parent_->set_request_tenant(tenant_);
  ASSIGN_OR_RETURN(IoTag tag, parent_->SubmitRead(first_sector_ + sector, out));
  outstanding_.insert(tag);
  return tag;
}

StatusOr<IoTag> PartitionDevice::SubmitWrite(uint64_t sector, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(ValidateRange(sector, data.size()));
  parent_->set_request_tenant(tenant_);
  ASSIGN_OR_RETURN(IoTag tag, parent_->SubmitWrite(first_sector_ + sector, data));
  outstanding_.insert(tag);
  return tag;
}

Status PartitionDevice::WaitFor(IoTag tag) {
  outstanding_.erase(tag);
  parent_->set_request_tenant(tenant_);
  return parent_->WaitFor(tag);
}

std::vector<IoCompletion> PartitionDevice::Poll() {
  parent_->set_request_tenant(tenant_);
  std::vector<IoCompletion> all = parent_->Poll();
  std::vector<IoCompletion> own;
  for (const IoCompletion& c : all) {
    if (outstanding_.erase(c.tag) > 0) {
      own.push_back(c);
    }
  }
  return own;
}

Status PartitionDevice::Drain() {
  parent_->set_request_tenant(tenant_);
  // Wait out only this partition's requests; draining the whole parent
  // would drag the clock to other tenants' completions.
  std::vector<IoTag> tags(outstanding_.begin(), outstanding_.end());
  outstanding_.clear();
  for (IoTag tag : tags) {
    RETURN_IF_ERROR(parent_->WaitFor(tag));
  }
  return OkStatus();
}

}  // namespace ld
