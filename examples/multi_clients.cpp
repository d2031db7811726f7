// Figure 1, end to end: three very different file systems — a UNIX-style
// FS (MINIX), a DOS-style FS (FatFs, FAT eliminated by offset addressing),
// and a database FS (B-trees) — all running on the same log-structured LD
// implementation, each getting log-structured writes, clustering, and crash
// recovery without containing a line of disk-management code.
//
//   $ build/examples/multi_clients

#include <cstdio>
#include <string>
#include <vector>

#include "examples/check.h"
#include "src/btreefs/btree_store.h"
#include "src/disk/device_factory.h"
#include "src/fatfs/fat_fs.h"
#include "src/lld/lld.h"
#include "src/minixfs/minix_fs.h"

namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

}  // namespace

int main() {
  ld::SimClock clock;

  // --- Client 1: the UNIX-style file system -------------------------------
  auto disk1 = ld::MakeDevice(ld::DeviceOptions::HpC3010(64 << 20), &clock);
  auto lld1 = Check(ld::LogStructuredDisk::Format(disk1.get(), ld::LldOptions{}), "Format");
  auto minix = Check(ld::MinixFs::FormatOnLd(lld1.get(), ld::MinixOptions{},
                                             /*list_per_file=*/true),
                     "MINIX format");
  Check(minix->Mkdir("/home"), "Mkdir");
  auto ino = Check(minix->CreateFile("/home/notes.txt"), "CreateFile");
  Check(minix->WriteFile(ino, 0, Bytes("the file system manages files")), "WriteFile");
  Check(minix->SyncFs(), "SyncFs");
  std::printf("MINIX on LLD:   %-28s -> %llu segment writes, no bitmap code\n",
              "/home/notes.txt",
              static_cast<unsigned long long>(lld1->counters().segments_written +
                                              lld1->counters().partial_segments_written));

  // --- Client 2: the DOS-style file system, FAT eliminated ----------------
  auto disk2 = ld::MakeDevice(ld::DeviceOptions::HpC3010(64 << 20), &clock);
  auto lld2 = Check(ld::LogStructuredDisk::Format(disk2.get(), ld::LldOptions{}), "Format");
  auto fat = Check(ld::FatFs::Format(lld2.get()), "FAT format");
  Check(fat->Create("AUTOEXEC.BAT"), "Create");
  Check(fat->Write("AUTOEXEC.BAT", 0, Bytes("@echo the FAT is gone")), "Write");
  Check(fat->Sync(), "Sync");
  std::printf("DOS FS on LLD:  %-28s -> cluster chains are LD lists; the\n",
              "AUTOEXEC.BAT");
  std::printf("                %-28s    File Allocation Table does not exist\n", "");

  // --- Client 3: the database file system ---------------------------------
  auto disk3 = ld::MakeDevice(ld::DeviceOptions::HpC3010(64 << 20), &clock);
  auto lld3 = Check(ld::LogStructuredDisk::Format(disk3.get(), ld::LldOptions{}), "Format");
  auto db = Check(ld::BTreeStore::Format(lld3.get()), "B-tree format");
  for (uint64_t key = 0; key < 2000; ++key) {
    Check(db->Put(key, Bytes("row-" + std::to_string(key))), "Put");
  }
  Check(db->Sync(), "Sync");
  auto stats = Check(db->Stats(), "Stats");
  std::printf("B-tree on LLD:  %llu keys, height %u                -> every split was one\n",
              static_cast<unsigned long long>(stats.keys), stats.height);
  std::printf("                %-28s    atomic recovery unit\n", "");

  std::printf(
      "\nOne disk-management implementation (LLD), three file managements —\n"
      "the separation Figure 1 promises. MINIX and the DOS FS also run\n"
      "unchanged on the update-in-place FlatDisk; the B-tree additionally\n"
      "needs atomic recovery units, which only the log-structured LD offers.\n");
  return 0;
}
