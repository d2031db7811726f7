// The "Database FS (B-trees)" of the paper's Figure 1: a B+-tree key-value
// store as a second, very different client of the same Logical Disk
// interface — sharing the log-structured implementation, its clustering,
// and its crash-atomicity with the MINIX file system.
//
//   $ build/examples/btree_store_demo

#include <cstdio>
#include <string>

#include "examples/check.h"
#include "src/btreefs/btree_store.h"
#include "src/disk/fault_disk.h"
#include "src/disk/device_factory.h"
#include "src/lld/lld.h"

int main() {
  ld::SimClock clock;
  auto sim = ld::MakeDevice(ld::DeviceOptions::HpC3010(64 << 20), &clock);
  ld::FaultDisk disk(sim.get());
  ld::LldOptions options;
  auto lld = Check(ld::LogStructuredDisk::Format(&disk, options), "Format");
  auto store = Check(ld::BTreeStore::Format(lld.get()), "BTreeStore::Format");

  // Load an "account table".
  std::printf("Loading 20,000 records...\n");
  for (uint64_t key = 0; key < 20000; ++key) {
    const std::string value = "account-" + std::to_string(key) + "-balance-" +
                              std::to_string((key * 37) % 1000);
    Check(store->Put(key, std::span<const uint8_t>(
                              reinterpret_cast<const uint8_t*>(value.data()), value.size())),
          "Put");
  }
  auto stats = Check(store->Stats(), "Stats");
  std::printf("Tree: %llu keys, height %u, %llu leaves + %llu internal nodes, %llu splits\n",
              static_cast<unsigned long long>(stats.keys), stats.height,
              static_cast<unsigned long long>(stats.leaf_nodes),
              static_cast<unsigned long long>(stats.internal_nodes),
              static_cast<unsigned long long>(stats.splits));

  // Range scan: the leaf chain sits on an LD list in key order, so LD
  // clusters it physically and the scan reads sequentially.
  Check(store->Sync(), "Sync");
  sim->ResetStats();
  uint64_t scanned = 0;
  Check(store->Scan(5000, 5999,
                    [&](uint64_t, std::span<const uint8_t>) {
                      scanned++;
                      return true;
                    }),
        "Scan");
  std::printf("Scanned %llu records in [5000, 5999] with %llu disk reads\n",
              static_cast<unsigned long long>(scanned),
              static_cast<unsigned long long>(sim->stats().read_ops));

  // Crash mid-update: every Put (including multi-node splits) is one atomic
  // recovery unit, so the reopened tree is always structurally perfect.
  std::printf("\nCrashing mid-workload...\n");
  disk.CrashAfterWrites(3);
  for (uint64_t key = 20000; key < 30000; ++key) {
    if (!store->Put(key, std::span<const uint8_t>{}).ok()) {
      break;
    }
  }
  disk.ClearFault();
  lld = Check(ld::LogStructuredDisk::Open(&disk, options), "Open");
  store = Check(ld::BTreeStore::Open(lld.get()), "BTreeStore::Open");
  const ld::Status check = store->CheckInvariants();
  std::printf("After crash + recovery: invariants %s, %llu keys survive\n",
              check.ok() ? "INTACT" : check.ToString().c_str(),
              static_cast<unsigned long long>(Check(store->Stats(), "Stats").keys));
  std::printf("The database client needed no write-ahead log of its own: LD's atomic\n"
              "recovery units did the work (paper §2.1).\n");
  return check.ok() ? 0 : 1;
}
