// Crash recovery and atomic recovery units (paper §2.1, §3.6).
//
// A bank-ledger-style update that must move data between two blocks
// atomically. Without an ARU, a crash between the two writes loses money;
// with BeginARU/EndARU, recovery gives all-or-nothing. Also demonstrates
// the one-sweep recovery path and what it reads.
//
//   $ build/examples/crash_recovery

#include <cstdio>
#include <cstring>
#include <vector>

#include "examples/check.h"
#include "src/disk/fault_disk.h"
#include "src/disk/device_factory.h"
#include "src/lld/lld.h"

using ld::Bid;
using ld::Lid;

namespace {

uint32_t ReadBalance(ld::LogicalDisk* lld, Bid account) {
  std::vector<uint8_t> block(4096);
  Check(lld->Read(account, block), "Read");
  uint32_t value;
  std::memcpy(&value, block.data(), 4);
  return value;
}

ld::Status WriteBalance(ld::LogicalDisk* lld, Bid account, uint32_t value) {
  std::vector<uint8_t> block(4096, 0);
  std::memcpy(block.data(), &value, 4);
  return lld->Write(account, block);
}

// Transfers 100 units from `from` to `to`, flushing (and crashing) between
// the two writes. Returns the total money after recovery.
uint32_t TransferWithCrash(bool use_aru) {
  ld::SimClock clock;
  auto sim = ld::MakeDevice(ld::DeviceOptions::HpC3010(32 << 20), &clock);
  ld::FaultDisk disk(sim.get());
  ld::LldOptions options;
  auto lld = Check(ld::LogStructuredDisk::Format(&disk, options), "Format");
  Lid list = Check(lld->NewList(ld::kBeginOfListOfLists, ld::ListHints{}), "NewList");
  Bid from = Check(lld->NewBlock(list, ld::kBeginOfList), "NewBlock");
  Bid to = Check(lld->NewBlock(list, from), "NewBlock");
  Check(WriteBalance(lld.get(), from, 500), "Write");
  Check(WriteBalance(lld.get(), to, 500), "Write");
  Check(lld->Flush(), "Flush");

  if (use_aru) {
    Check(lld->BeginARU(), "BeginARU");
  }
  Check(WriteBalance(lld.get(), from, 400), "Write");
  // Make the first half durable, then crash before the second half can be.
  Check(lld->Flush(), "Flush");
  if (!use_aru) {
    disk.CrashNow();
  } else {
    Check(WriteBalance(lld.get(), to, 600), "Write");
    // Crash before EndARU: the whole unit must roll back.
    Check(lld->Flush(), "Flush");
    disk.CrashNow();
  }

  disk.ClearFault();
  auto recovered = Check(ld::LogStructuredDisk::Open(&disk, options), "Open");
  const ld::RecoveryReport stats = recovered->last_recovery();
  const uint32_t f = ReadBalance(recovered.get(), from);
  const uint32_t t = ReadBalance(recovered.get(), to);
  std::printf("  %s: recovered balances %u + %u = %u  (%u summaries read, %llu records%s)\n",
              use_aru ? "with ARU   " : "without ARU", f, t, f + t, stats.summaries_valid,
              static_cast<unsigned long long>(stats.records_applied),
              use_aru ? ", uncommitted unit dropped" : "");
  return f + t;
}

}  // namespace

int main() {
  std::printf("Transfer 100 units between two blocks; crash mid-transfer.\n\n");

  const uint32_t naked = TransferWithCrash(/*use_aru=*/false);
  const uint32_t atomic = TransferWithCrash(/*use_aru=*/true);

  std::printf("\n");
  if (naked != 1000) {
    std::printf("Without an ARU the crash destroyed %d units — the classic reason\n"
                "file systems need fsck after a crash.\n",
                1000 - static_cast<int>(naked));
  }
  if (atomic == 1000) {
    std::printf("With an ARU, recovery rolled the incomplete unit back: no money lost,\n"
                "no consistency check needed (paper §2.1: ARUs eliminate fsck).\n");
  }
  return atomic == 1000 ? 0 : 1;
}
