// FlatDisk: an update-in-place implementation of the Logical Disk interface.
//
// The paper argues LD's value comes partly from admitting substantially
// different implementations (§5.2: "an LD implementation could use an
// update-in-place strategy or Loge's strategy"). FlatDisk is that other
// implementation: every block gets a fixed physical extent when allocated
// (first-fit, starting near its list predecessor for clustering), writes go
// to that extent in place, and the allocation table is persisted wholesale
// on Flush/Shutdown — the recovery model of a classic FAT-like system,
// deliberately weaker than LLD's.
//
// Atomic recovery units are not supported (BeginARU returns UNIMPLEMENTED):
// an update-in-place LD has no natural log to make them cheap, which is
// exactly the contrast the paper draws.

#ifndef SRC_FLATLD_FLAT_DISK_H_
#define SRC_FLATLD_FLAT_DISK_H_

#include <memory>
#include <vector>

#include "src/disk/block_device.h"
#include "src/ld/logical_disk.h"

namespace ld {

inline constexpr uint32_t kFlatBlockSize = 4096;  // Default size class of a new volume.

class FlatDisk : public LogicalDisk {
 public:
  static StatusOr<std::unique_ptr<FlatDisk>> Format(BlockDevice* device);
  // Takes the default size class the volume was formatted with.
  static StatusOr<std::unique_ptr<FlatDisk>> Open(BlockDevice* device);

  Status Read(Bid bid, std::span<uint8_t> out) override;
  Status Write(Bid bid, std::span<const uint8_t> data) override;
  StatusOr<Bid> NewBlock(Lid lid, Bid pred_bid, uint32_t size_bytes = 0) override;
  Status DeleteBlock(Bid bid, Lid lid, Bid pred_bid_hint) override;
  StatusOr<Lid> NewList(Lid pred_lid, ListHints hints) override;
  Status DeleteList(Lid lid, Lid pred_lid_hint) override;
  Status MoveSublist(Bid first, Bid last, Lid from_lid, Lid to_lid, Bid pred_bid) override;
  Status MoveList(Lid lid, Lid new_pred_lid) override;
  Status FlushList(Lid lid) override;
  Status BeginARU() override;
  Status EndARU() override;
  StatusOr<Bid> BlockAtIndex(Lid lid, uint64_t index) override;
  Status Flush(FailureSet failures = FailureSet::kPowerFailure) override;
  Status ReserveBlocks(uint64_t count, uint32_t size_bytes = 0) override;
  Status CancelReservation(uint64_t count, uint32_t size_bytes = 0) override;
  Status Shutdown() override;
  uint32_t default_block_size() const override { return block_size_; }
  StatusOr<uint32_t> BlockSize(Bid bid) const override;
  uint64_t FreeBytes() const override;

  // Introspection for tests.
  StatusOr<std::vector<Bid>> ListBlocks(Lid lid) const;
  StatusOr<uint64_t> PhysicalSector(Bid bid) const;

 private:
  struct Entry {
    uint64_t start_sector = 0;
    uint32_t sectors = 0;
    uint32_t size_class = 0;
    Bid successor = kNilBid;
    Lid list = kNilLid;
    bool allocated = false;
  };
  struct List {
    Bid first = kNilBid;
    bool allocated = false;
  };

  explicit FlatDisk(BlockDevice* device) : device_(device) {}

  Status ComputeLayout();
  // First-fit extent allocation starting from `near_sector`.
  StatusOr<uint64_t> AllocExtent(uint32_t sectors, uint64_t near_sector);
  void FreeExtent(uint64_t start, uint32_t sectors);
  Status PersistTable();
  Status LoadTable();

  BlockDevice* device_;
  uint32_t block_size_ = kFlatBlockSize;  // Persisted in the allocation table.

  uint64_t table_start_sector_ = 0;
  uint64_t table_sectors_ = 0;
  uint64_t data_start_sector_ = 0;
  uint64_t data_sectors_ = 0;

  std::vector<Entry> entries_{1};  // [0] reserved.
  std::vector<List> lists_{1};
  std::vector<Bid> free_bids_;
  std::vector<Lid> free_lids_;
  std::vector<bool> sector_used_;  // Allocation bitmap over data sectors.
  uint64_t used_sectors_ = 0;
  uint64_t reserved_bytes_ = 0;
  bool dirty_table_ = false;
};

}  // namespace ld

#endif  // SRC_FLATLD_FLAT_DISK_H_
