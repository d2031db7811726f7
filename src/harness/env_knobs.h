// Environment-driven parametrization shared by the bench mains and the test
// binaries: CI runs the same executables across a matrix of queue policies,
// channel counts, fault seeds, parity settings, read-path modes, and tenant
// counts. Each helper returns the caller's fallback when the variable is
// unset (or unparsable), so binaries keep deterministic defaults outside CI.
// Tests whose assertions depend on one specific setting construct their own
// options instead of consulting the environment.

#ifndef SRC_HARNESS_ENV_KNOBS_H_
#define SRC_HARNESS_ENV_KNOBS_H_

#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string_view>
#include <utility>

#include "src/disk/device_factory.h"
#include "src/disk/qos.h"
#include "src/lld/lld_options.h"

namespace ld {

// Generic flag: "0" turns it off; anything else turns it on; unset returns
// `fallback`. Every on/off knob reads this way: LD_READAHEAD, LD_MAINT and
// LD_SEGMENT_PARITY.
inline bool EnvFlag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return fallback;
  }
  return std::string_view(v) != "0";
}

// Generic integer: `fallback` when unset or below `min` (a value that does
// not parse reads as 0).
inline long long EnvInt(const char* name, long long fallback, long long min) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return fallback;
  }
  const long long n = std::atoll(v);
  return n >= min ? n : fallback;
}

// Generic enum: the value `spellings` pairs with the variable's spelling;
// `fallback` when unset or unrecognized.
template <typename T>
T EnvChoice(const char* name, std::initializer_list<std::pair<std::string_view, T>> spellings,
            T fallback) {
  if (const char* v = std::getenv(name)) {
    for (const auto& [spelling, value] : spellings) {
      if (spelling == v) {
        return value;
      }
    }
  }
  return fallback;
}

// LD_QUEUE_POLICY=fifo|cscan.
inline QueuePolicy EnvQueuePolicy(QueuePolicy fallback) {
  return EnvChoice("LD_QUEUE_POLICY",
                   {{"fifo", QueuePolicy::kFifo}, {"cscan", QueuePolicy::kCScan}}, fallback);
}

// LD_CHANNELS=N: independent actuator/channel count for the shared device.
inline uint32_t EnvChannels(uint32_t fallback) {
  return static_cast<uint32_t>(EnvInt("LD_CHANNELS", fallback, 1));
}

// Base seed for fault-injection tests (LD_FAULT_SEED=N): the CI fault
// matrix varies it so the same binaries cover several fault schedules.
inline uint64_t EnvFaultSeed(uint64_t fallback) {
  return static_cast<uint64_t>(EnvInt("LD_FAULT_SEED", static_cast<long long>(fallback), 0));
}

// Per-segment parity toggle (LD_SEGMENT_PARITY=0|1): the CI fault matrix
// runs the crash/corruption sweeps with the XOR parity block both absent
// and present. Tests whose expectations depend on one setting pin
// `LldOptions::segment_parity` explicitly instead.
inline bool EnvSegmentParity(bool fallback) { return EnvFlag("LD_SEGMENT_PARITY", fallback); }

// LD_FAIL_CHANNEL=N: channel the bench fault experiments kill with
// FaultDisk::FailChannel (-1 / unset = the experiment's own default).
inline int EnvFailChannel(int fallback) {
  return static_cast<int>(
      EnvInt("LD_FAIL_CHANNEL", fallback, std::numeric_limits<long long>::min()));
}

// Incremental checkpoint cadence in sealed segments (LD_CKPT_INTERVAL=N,
// 0 = checkpoints only at clean shutdown — the paper's behaviour). The CI
// recovery matrix varies it so the same binaries cover checkpoint-off and
// several cadences.
inline uint32_t EnvCheckpointInterval(uint32_t fallback) {
  return static_cast<uint32_t>(EnvInt("LD_CKPT_INTERVAL", fallback, 0));
}

// LD_CLEANER_POLICY=greedy|cost_benefit: the segment cleaner's victim-
// selection policy. Unset (or unrecognized) keeps the caller's default —
// kGreedy, the legacy byte-identical policy that the golden bench outputs
// pin. Tests whose expectations depend on one policy pin
// `LldOptions::cleaning_policy` explicitly instead.
inline CleaningPolicy EnvCleaningPolicy(CleaningPolicy fallback) {
  return EnvChoice("LD_CLEANER_POLICY",
                   {{"greedy", CleaningPolicy::kGreedy},
                    {"cost_benefit", CleaningPolicy::kCostBenefit}},
                   fallback);
}

// Per-file read-ahead toggle (LD_READAHEAD=0|1): the CI read-ahead matrix
// runs workload_test with prefetching both off and on. Tests whose
// assertions require one setting pin MinixOptions explicitly instead.
inline bool EnvReadAhead(bool fallback) { return EnvFlag("LD_READAHEAD", fallback); }

// LD_TENANTS=N: number of concurrent tenant sessions multiplexed over the
// shared device by the multi-tenant harness (1 = the classic single-FS
// setups, byte-identical to pre-tenant behaviour).
inline uint32_t EnvTenants(uint32_t fallback) {
  return static_cast<uint32_t>(EnvInt("LD_TENANTS", fallback, 1));
}

// LD_QOS=none|share|deadline: dispatch policy arbitrating channel time
// between tenants.
inline QosPolicy EnvQosPolicy(QosPolicy fallback) {
  return EnvChoice("LD_QOS",
                   {{"none", QosPolicy::kNone},
                    {"share", QosPolicy::kWeightedShare},
                    {"deadline", QosPolicy::kDeadline}},
                   fallback);
}

// QoS config honoring LD_QOS / LD_TENANTS. `Active()` stays false (and the
// legacy dispatch path runs verbatim) unless both a policy and more than
// one tenant are configured.
inline QosConfig EnvQosConfig(const QosConfig& fallback = QosConfig{}) {
  QosConfig qos = fallback;
  qos.policy = EnvQosPolicy(qos.policy);
  qos.num_tenants = EnvTenants(qos.num_tenants);
  return qos;
}

// Idle-driven background maintenance toggle (LD_MAINT=0|1): when on, the
// LD-based setups attach a MaintenanceScheduler running scrub, deferred
// checkpoint frames, paced rebuild, and restripe-after-heal during device
// idle time, billed with the LLD's cleaning to kMaintenanceTenant (the
// multi-tenant rig drops it: its sessions get no scheduler). Off (the
// fallback everywhere) keeps every maintenance operation a foreground call
// — the configuration the golden bench outputs pin.
inline bool EnvMaintenance(bool fallback) { return EnvFlag("LD_MAINT", fallback); }

// HP C3010 options honoring the environment overrides.
inline DeviceOptions EnvHpC3010(uint64_t partition_bytes) {
  DeviceOptions options = DeviceOptions::HpC3010(partition_bytes, EnvChannels(1));
  options.queue_policy = EnvQueuePolicy(options.queue_policy);
  options.qos = EnvQosConfig();
  return options;
}

}  // namespace ld

#endif  // SRC_HARNESS_ENV_KNOBS_H_
