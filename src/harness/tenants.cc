#include "src/harness/tenants.h"

namespace ld {

void MultiTenantRig::ResetMeasurement() {
  clock->Reset();
  disk->ResetStats();
  for (TenantSession& t : tenants) {
    if (t.lld != nullptr) {
      t.lld->ResetCounters();
    }
    if (t.fs != nullptr) {
      t.fs->ResetStats();
    }
  }
}

StatusOr<MultiTenantRig> MakeMultiTenantRig(const MultiTenantParams& params) {
  const uint32_t sessions = params.device.qos.num_tenants;
  if (sessions == 0) {
    return InvalidArgumentError("rig needs at least one tenant");
  }
  MultiTenantRig rig;
  rig.clock = std::make_unique<SimClock>();
  rig.disk = MakeDevice(params.device, rig.clock.get());

  const uint64_t sectors_per_tenant =
      params.device.capacity_bytes / sessions / rig.disk->sector_size();
  for (uint32_t i = 0; i < sessions; ++i) {
    TenantSession session;
    session.id = i;
    session.part = std::make_unique<PartitionDevice>(
        rig.disk.get(), i * sectors_per_tenant, sectors_per_tenant, /*tenant=*/i);
    ASSIGN_OR_RETURN(FsStack stack, MakeFsStack(session.part.get(), params.kind, params.fs,
                                                /*maintenance=*/false));
    session.lld = std::move(stack.lld);
    session.fs = std::move(stack.fs);
    rig.tenants.push_back(std::move(session));
  }
  rig.ResetMeasurement();
  return rig;
}

void TenantScheduler::Add(std::string name, Step step) {
  Entry e;
  e.name = std::move(name);
  e.step = std::move(step);
  entries_.push_back(std::move(e));
}

Status TenantScheduler::RunAll() {
  size_t live = entries_.size();
  while (live > 0) {
    for (Entry& e : entries_) {
      if (e.done) {
        continue;
      }
      StatusOr<bool> more = e.step();
      if (!more.ok()) {
        return Status(more.status().code(),
                      "tenant '" + e.name + "': " + std::string(more.status().message()));
      }
      e.steps++;
      if (!more.value()) {
        e.done = true;
        live--;
      }
    }
  }
  return OkStatus();
}

}  // namespace ld
