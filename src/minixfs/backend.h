// Storage backend of the MINIX file system core.
//
// The same file-system code runs over two backends — the point the paper
// makes in §4.1 with its "<100 changed lines": block allocation and raw
// block I/O are the only parts that differ between classic MINIX (bitmaps,
// physical block numbers, raw disk) and MINIX LLD (NewBlock/DeleteBlock on
// lists, logical block numbers, Flush for sync).

#ifndef SRC_MINIXFS_BACKEND_H_
#define SRC_MINIXFS_BACKEND_H_

#include <cstdint>
#include <span>

#include "src/util/status.h"

namespace ld {

class LogicalDisk;

class MinixBackend {
 public:
  virtual ~MinixBackend() = default;

  virtual uint32_t block_size() const = 0;

  // Raw block I/O by file-system block number (a physical block index in
  // classic mode, an LD Bid in LD modes). A read is a submit and a wait:
  // SubmitBlock fills `out`, queueing the device transfer, and returns an
  // opaque token for WaitBlock. Data lands in `out` at submit time (the
  // simulator's eager-data contract); WaitBlock advances the clock to the
  // transfer's completion. Token 0 means the read already completed (an LD
  // block that is not a raw transfer: a hole, an open-segment copy, a
  // compressed or repaired block); WaitBlock(0) is a no-op. A submit-time
  // error leaves no transfer outstanding.
  virtual StatusOr<uint64_t> SubmitBlock(uint32_t bno, std::span<uint8_t> out) = 0;
  virtual Status WaitBlock(uint64_t token) = 0;
  virtual Status WriteBlock(uint32_t bno, std::span<const uint8_t> data) = 0;

  // Multi-block transfers for the bitmaps and write clustering. Blocks are
  // consecutive *numbers*; only the classic backend can turn that into one
  // physical request. The default reads are one submit and wait per block.
  virtual Status ReadBlocks(uint32_t bno, uint32_t count, std::span<uint8_t> out);
  virtual Status WriteBlocks(uint32_t bno, uint32_t count, std::span<const uint8_t> data);

  // Allocates one block for a file. `lid` names the file's block list in LD
  // modes (0 = the global list); `pred_bno` is the previous block of the
  // file, used for physical clustering (classic) or list insertion (LD).
  virtual StatusOr<uint32_t> AllocBlock(uint32_t lid, uint32_t pred_bno) = 0;
  virtual Status FreeBlock(uint32_t bno, uint32_t lid, uint32_t pred_bno_hint) = 0;

  // Per-file block lists. Returns 0 when the backend keeps a single list
  // (or no lists at all); then AllocBlock receives lid 0.
  virtual StatusOr<uint32_t> CreateFileList(uint32_t near_lid) = 0;
  virtual Status DeleteFileList(uint32_t lid) = 0;

  // Small-i-node support (kLdSmallInodes): each i-node is its own 64-byte
  // logical block, read and written individually.
  virtual bool small_inodes() const { return false; }
  virtual Status ReadInodeBlock(uint32_t ino, std::span<uint8_t> out64);
  virtual Status WriteInodeBlock(uint32_t ino, std::span<const uint8_t> in64);

  // Durability barrier: device-level no-op for classic, Flush for LD.
  virtual Status Sync() = 0;

  // Clean shutdown of the underlying store.
  virtual Status ShutdownBackend() = 0;

  // MINIX enables read-ahead on the raw disk; MINIX LLD disables it because
  // logically consecutive blocks need not be physically consecutive (§4.1).
  virtual bool readahead() const = 0;

  // The underlying LogicalDisk, when there is one (LD modes): lets the core
  // use atomic recovery units directly.
  virtual LogicalDisk* logical_disk() { return nullptr; }
};

}  // namespace ld

#endif  // SRC_MINIXFS_BACKEND_H_
