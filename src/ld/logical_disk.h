// The Logical Disk interface (paper §2.2, Table 1).
//
// LD separates file management from disk management: a file system addresses
// blocks by logical block number and describes inter-block relationships
// with ordered lists; the LD implementation chooses (and may change) the
// physical locations. The interface also provides atomic recovery units and
// multiple block sizes.
//
// Three implementations exist in this repository:
//   * ld::LogStructuredDisk (src/lld/)    — the paper's LLD.
//   * ld::FlatDisk          (src/flatld/) — update-in-place baseline.
//   * ld::LogeDisk          (src/logeld/) — Loge-style self-organizing
//                                           controller (§5.2).

#ifndef SRC_LD_LOGICAL_DISK_H_
#define SRC_LD_LOGICAL_DISK_H_

#include <cstdint>
#include <span>

#include "src/disk/block_device.h"
#include "src/ld/types.h"
#include "src/lld/reports.h"
#include "src/util/status.h"

namespace ld {

class LogicalDisk {
 public:
  virtual ~LogicalDisk() = default;

  // ---- Block operations -------------------------------------------------

  // Reads logical block `bid` into `out`. out.size() must equal the block's
  // size. A block that was allocated but never written reads as zeros.
  virtual Status Read(Bid bid, std::span<uint8_t> out) = 0;

  // Writes logical block `bid`. data.size() must equal the block's size.
  virtual Status Write(Bid bid, std::span<const uint8_t> data) = 0;

  // Asynchronous read: like Read, but when the block is a plain stored copy
  // on the media the device request is *queued* and its tag returned, so the
  // simulated transfer overlaps whatever the caller does next (data lands in
  // `out` at submit time per the BlockDevice contract; only the timing is
  // deferred). Blocks that need more than a raw transfer — holes, copies
  // still in an in-memory buffer, compressed or damaged blocks — are served
  // by the synchronous path and report kInvalidIoTag, meaning "already
  // complete". The default implementation is that fallback for every block.
  virtual StatusOr<IoTag> SubmitRead(Bid bid, std::span<uint8_t> out) {
    RETURN_IF_ERROR(Read(bid, out));
    return kInvalidIoTag;
  }

  // Advances the clock to the completion of a SubmitRead tag.
  // kInvalidIoTag (the synchronous fallback) is a no-op.
  virtual Status WaitRead(IoTag tag) {
    (void)tag;
    return OkStatus();
  }

  // Allocates a logical block number and inserts it into list `lid` after
  // block `pred_bid` (kBeginOfList inserts at the front). `size_bytes` is
  // the block's size class; LD supports multiple block sizes (§2.1), e.g.
  // 64-byte i-node blocks next to 4-KB data blocks. Pass 0 for the
  // implementation's default block size.
  virtual StatusOr<Bid> NewBlock(Lid lid, Bid pred_bid, uint32_t size_bytes = 0) = 0;

  // Removes `bid` from list `lid` and frees its block number.
  // `pred_bid_hint` is a hint for the predecessor: if correct, the unlink is
  // one pointer update; if wrong or kNilBid, LD walks the list (§2.2).
  virtual Status DeleteBlock(Bid bid, Lid lid, Bid pred_bid_hint) = 0;

  // ---- List operations --------------------------------------------------

  // Allocates a list, inserted in the list of lists after `pred_lid`
  // (kBeginOfListOfLists inserts at the front).
  virtual StatusOr<Lid> NewList(Lid pred_lid, ListHints hints) = 0;

  // Frees list `lid` and every block still on it. `pred_lid_hint` is the
  // analogue of DeleteBlock's hint, for the list of lists.
  virtual Status DeleteList(Lid lid, Lid pred_lid_hint) = 0;

  // Moves the sublist [first..last] out of `from_lid` and inserts it into
  // `to_lid` after `pred_bid`. Lets a file system re-express clustering.
  virtual Status MoveSublist(Bid first, Bid last, Lid from_lid, Lid to_lid, Bid pred_bid) = 0;

  // Repositions `lid` in the list of lists after `new_pred_lid`.
  virtual Status MoveList(Lid lid, Lid new_pred_lid) = 0;

  // Makes all previous operations touching `lid` durable (easy fsync, §2.2).
  virtual Status FlushList(Lid lid) = 0;

  // ---- Atomic recovery units & durability --------------------------------

  // All commands until the next EndARU form one explicit atomic recovery
  // unit: after a failure, either all of them or none of them are visible.
  virtual Status BeginARU() = 0;
  virtual Status EndARU() = 0;

  // Concurrent ARUs — the extension the paper sketches in §5.4 for
  // multithreaded file systems: BeginConcurrentARU hands out an identifier;
  // SelectARU(id) routes subsequent commands into that unit (0 = no unit);
  // EndConcurrentARU(id) commits it. Units may interleave freely. An
  // implementation without recovery units returns UNIMPLEMENTED.
  using AruId = uint32_t;
  virtual StatusOr<AruId> BeginConcurrentARU() {
    return UnimplementedError("concurrent ARUs not supported");
  }
  virtual Status SelectARU(AruId id) {
    (void)id;
    return UnimplementedError("concurrent ARUs not supported");
  }
  virtual Status EndConcurrentARU(AruId id) {
    (void)id;
    return UnimplementedError("concurrent ARUs not supported");
  }
  // Abandons an open unit: its commit record is never written, so recovery
  // drops all of its operations. The runtime in-memory state is NOT rolled
  // back — the client must treat its own state as failed (reopen to heal).
  virtual Status AbandonARU(AruId id) {
    (void)id;
    return UnimplementedError("concurrent ARUs not supported");
  }

  // SwapContents (paper §5.4): atomically exchanges the contents (physical
  // locations) of two logical blocks of the same size class. New versions of
  // blocks can be installed atomically without losing the old versions —
  // the building block for transactions and multiversion storage.
  virtual Status SwapContents(Bid a, Bid b) {
    (void)a;
    (void)b;
    return UnimplementedError("SwapContents not supported");
  }

  // Offset addressing (paper §5.4): indexes a list as an array, returning
  // its index-th block. Lets a FAT-like file system drop its table and a
  // UNIX-like one drop indirect blocks; makes compact B-trees possible.
  virtual StatusOr<Bid> BlockAtIndex(Lid lid, uint64_t index) {
    (void)lid;
    (void)index;
    return UnimplementedError("offset addressing not supported");
  }

  // After Flush returns, all preceding operations survive the given kinds
  // of failure.
  virtual Status Flush(FailureSet failures = FailureSet::kPowerFailure) = 0;

  // ---- Space reservation -------------------------------------------------

  // Reserves physical space for `count` future blocks of `size_bytes` each,
  // so a file system can guarantee that buffered writes will not fail with
  // NO_SPACE (the UNIX delayed-write problem, §2.2).
  virtual Status ReserveBlocks(uint64_t count, uint32_t size_bytes = 0) = 0;
  virtual Status CancelReservation(uint64_t count, uint32_t size_bytes = 0) = 0;

  // ---- Media health -------------------------------------------------------

  // Read-repair pass over the whole volume: verify every piece of durable
  // state, repair or relocate what the implementation can, and report the
  // rest. Exposed on the interface so file-system checkers (fsck) can drive
  // a media scrub through their own entry points without knowing the LD
  // implementation. Implementations without media redundancy or
  // verification return UNIMPLEMENTED.
  virtual StatusOr<ScrubReport> Scrub() {
    return UnimplementedError("media scrub not supported");
  }

  // True once the implementation has hit an unrecoverable device failure
  // and degraded to read-only service.
  virtual bool degraded() const { return false; }

  // Health/queue counters of the device under this LD, when there is one,
  // for callers that hold only the LogicalDisk interface.
  virtual DiskStats* device_stats() { return nullptr; }

  // No LD in src/ labels its own requests: a session's tenant id belongs to
  // the device it runs on (PartitionDevice). Kept as a no-op for wrappers
  // that forward it (perfbench's TracedLd).
  virtual void SetTenant(TenantId tenant) { (void)tenant; }

  // ---- Lifecycle & introspection ------------------------------------------

  // Flushes state and writes a clean-shutdown checkpoint so the next
  // startup does not need log recovery.
  virtual Status Shutdown() = 0;

  // Default block size class of this instance.
  virtual uint32_t default_block_size() const = 0;

  // Size class of an allocated block.
  virtual StatusOr<uint32_t> BlockSize(Bid bid) const = 0;

  // Bytes available for new user blocks (net of reservations).
  virtual uint64_t FreeBytes() const = 0;
};

}  // namespace ld

#endif  // SRC_LD_LOGICAL_DISK_H_
