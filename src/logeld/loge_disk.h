// LogeDisk: a Loge-style implementation of the Logical Disk interface
// (English & Stepanov 1992, the paper's §5.2 comparison system).
//
// Loge is a self-organizing disk controller: every write of a logical block
// goes to a free *reserved* physical slot near the current head position;
// an indirection table maps logical to physical; each slot carries an
// in-band header (logical block number + timestamp) so the table can be
// recovered — by reading the entire disk.
//
// Built as an LD implementation, it makes the paper's contrasts measurable:
//
//   * writes are per-block (no segment batching): better than strict
//     update-in-place for scattered writes, worse than LLD when traffic is
//     write-dominated;
//   * recovery reads every slot header on the disk — the paper's
//     "order of magnitude slower than LLD" claim;
//   * durability is per-block ("up to the very last block successfully
//     written"), stronger than LLD's per-segment guarantee;
//   * lists degrade: the block-level information Loge sees cannot encode
//     inter-block relationships, so list *membership* survives recovery
//     (the header stores the owning list) but list *order* does not —
//     exactly the §5.2 argument for why LD's lists belong above the
//     block level. ARUs are unsupported (Mime added those).
//
// Slot layout: one header sector + block_size of data; the next write of
// the same logical block goes elsewhere and the old slot becomes free
// (Loge's constant pool of reserved blocks).

#ifndef SRC_LOGELD_LOGE_DISK_H_
#define SRC_LOGELD_LOGE_DISK_H_

#include <memory>
#include <vector>

#include "src/disk/block_device.h"
#include "src/ld/logical_disk.h"

namespace ld {

inline constexpr uint32_t kLogeBlockSize = 4096;
// Slots the allocator skips past the previous write so the next slot's
// first sector is still ahead of the head after controller overhead (the
// rotational-position optimization Loge does with real head feedback).
inline constexpr uint32_t kLogeRotationalSkip = 1;

struct LogeRecoveryStats {
  uint64_t slots_scanned = 0;
  uint64_t live_blocks = 0;
  double seconds = 0.0;
};

class LogeDisk : public LogicalDisk {
 public:
  static StatusOr<std::unique_ptr<LogeDisk>> Format(BlockDevice* device);
  // Recovery always scans the whole disk (Loge has no checkpoint shortcut;
  // the paper contrasts this with LLD's summary sweep).
  static StatusOr<std::unique_ptr<LogeDisk>> Open(BlockDevice* device,
                                                  LogeRecoveryStats* stats = nullptr);

  Status Read(Bid bid, std::span<uint8_t> out) override;
  Status Write(Bid bid, std::span<const uint8_t> data) override;
  StatusOr<Bid> NewBlock(Lid lid, Bid pred_bid, uint32_t size_bytes = 0) override;
  Status DeleteBlock(Bid bid, Lid lid, Bid pred_bid_hint) override;
  StatusOr<Lid> NewList(Lid pred_lid, ListHints hints) override;
  Status DeleteList(Lid lid, Lid pred_lid_hint) override;
  Status MoveSublist(Bid, Bid, Lid, Lid, Bid) override {
    return UnimplementedError("LogeDisk does not support MoveSublist");
  }
  Status MoveList(Lid, Lid) override { return OkStatus(); }
  Status FlushList(Lid lid) override;
  Status BeginARU() override {
    return UnimplementedError("Loge has no recovery units (Mime added those)");
  }
  Status EndARU() override {
    return UnimplementedError("Loge has no recovery units (Mime added those)");
  }
  Status Flush(FailureSet failures = FailureSet::kPowerFailure) override;
  Status ReserveBlocks(uint64_t count, uint32_t size_bytes = 0) override;
  Status CancelReservation(uint64_t count, uint32_t size_bytes = 0) override;
  Status Shutdown() override;
  uint32_t default_block_size() const override { return kLogeBlockSize; }
  StatusOr<uint32_t> BlockSize(Bid bid) const override;
  uint64_t FreeBytes() const override;

  // Unordered membership of a list (order is not recoverable; see header).
  StatusOr<std::vector<Bid>> ListMembers(Lid lid) const;

  uint64_t num_slots() const { return num_slots_; }

 private:
  struct Entry {
    int64_t slot = -1;  // -1 = never written.
    Lid list = kNilLid;
    bool allocated = false;
  };

  explicit LogeDisk(BlockDevice* device) : device_(device) {}
  Status ComputeLayout();
  uint64_t SlotSector(uint64_t slot) const;
  // Nearest free slot "ahead" of the last write (wrapping).
  StatusOr<uint64_t> AllocSlot();

  BlockDevice* device_;

  uint64_t data_start_sector_ = 0;
  uint64_t num_slots_ = 0;
  uint32_t sectors_per_slot_ = 0;

  std::vector<Entry> entries_{1};  // [0] reserved.
  std::vector<bool> slot_used_;
  std::vector<Bid> free_bids_;
  std::vector<bool> list_used_{true};  // [0] reserved.
  uint64_t used_slots_ = 0;
  uint64_t last_slot_ = 0;
  uint64_t next_ts_ = 1;
  uint64_t reserved_bytes_ = 0;
};

}  // namespace ld

#endif  // SRC_LOGELD_LOGE_DISK_H_
