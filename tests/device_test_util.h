// Shared helpers for the test tree: the fault seed that CI varies, and the
// configurations that suites run as gtest parameters. A configuration is a
// value each test constructs, never process state: LD_FAULT_SEED is the only
// environment variable a test reads, and it picks random fault data, not a
// code path.

#ifndef TESTS_DEVICE_TEST_UTIL_H_
#define TESTS_DEVICE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/disk/device_factory.h"

namespace ld {

// Base seed for fault-injection tests. LD_FAULT_SEED=N runs the same cases
// over other random fault data (CI loops over a few seeds); unset or
// negative keeps `fallback`, and a value that does not parse reads as 0.
inline uint64_t EnvFaultSeed(uint64_t fallback) {
  const char* v = std::getenv("LD_FAULT_SEED");
  if (v == nullptr) {
    return fallback;
  }
  const long long n = std::atoll(v);
  return n >= 0 ? static_cast<uint64_t>(n) : fallback;
}

// Names a segment-parity parameter. Suites whose cases must hold with
// LldOptions::segment_parity off and on instantiate over ::testing::Bool().
inline std::string ParityName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "ParityOn" : "ParityOff";
}

// One HP C3010 configuration for tests whose assertions hold under any
// queue policy and channel count.
struct DeviceConfig {
  QueuePolicy queue_policy = QueuePolicy::kCScan;
  uint32_t channels = 1;

  DeviceOptions Options(uint64_t partition_bytes) const {
    DeviceOptions options = DeviceOptions::HpC3010(partition_bytes, channels);
    options.queue_policy = queue_policy;
    return options;
  }
};

// FIFO and C-SCAN, each at 1 and 4 channels.
inline std::vector<DeviceConfig> QueueMatrix() {
  std::vector<DeviceConfig> configs;
  for (QueuePolicy policy : {QueuePolicy::kFifo, QueuePolicy::kCScan}) {
    for (uint32_t channels : {1u, 4u}) {
      configs.push_back({policy, channels});
    }
  }
  return configs;
}

inline std::string DeviceConfigName(const ::testing::TestParamInfo<DeviceConfig>& info) {
  return std::string(info.param.queue_policy == QueuePolicy::kFifo ? "Fifo" : "CScan") +
         "_Channels" + std::to_string(info.param.channels);
}

}  // namespace ld

#endif  // TESTS_DEVICE_TEST_UTIL_H_
