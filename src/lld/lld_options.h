// Tunables of the log-structured LD implementation (paper §3).

#ifndef SRC_LLD_LLD_OPTIONS_H_
#define SRC_LLD_LLD_OPTIONS_H_

#include <cstdint>

#include "src/compress/compressor.h"

namespace ld {

enum class CleaningPolicy {
  kGreedy,       // Lowest live bytes first (the legacy policy).
  kCostBenefit,  // Sprite LFS cost-benefit: (1-u)*age / (1+u), on preserved
                 // block ages, with cleaner output segregated as cold.
};

struct LldOptions {
  // Default logical block size class (MINIX LLD uses 4 KB).
  uint32_t block_size = 4096;

  // Segment size. The paper measures 64..512 KB; 512 KB is the default used
  // in the main experiments.
  uint32_t segment_bytes = 512 * 1024;

  // Fixed-size summary region at the end of every segment. The paper packs
  // a summary into one 4-KB block (7 bytes per block, 12 per link tuple);
  // our records are more explicit (they carry the owning list, both size
  // fields, and an ARU id — ~77 bytes per freshly allocated block), so the
  // default is 16 KB (~3 % of a 512-KB segment). With a smaller summary the
  // record area fills before the data area and segments go out underfull.
  uint32_t summary_bytes = 16384;

  // Partial-segment threshold (paper §3.2): a Flush above this fill fraction
  // writes the segment as final; below it the segment goes to a scratch
  // physical segment and stays open in memory.
  double partial_segment_threshold = 0.75;

  // Segments cleaned per cleaner invocation.
  uint32_t segments_per_clean = 4;

  // Victim-selection policy. kGreedy is the legacy default and is
  // byte-identical to the pre-policy cleaner. kCostBenefit scores victims by
  // (1-u)*age/(1+u) over *preserved* block write ages (the cleaner re-logs a
  // block without refreshing its age) and marks cleaner-written segments as a
  // cold generation, so data that survived a cleaning pass stops being
  // recopied on every round. LD_CLEANER_POLICY selects it in the harness.
  CleaningPolicy cleaning_policy = CleaningPolicy::kGreedy;

  // Compression. When `compressor` is null, lists with the compress hint are
  // stored raw. CPU time at the prototype's measured bandwidths is charged
  // to the simulated clock; compression of one segment overlaps the disk
  // write of the previous one (§3.3, §4.2), decompression cannot overlap
  // the read.
  Compressor* compressor = nullptr;

  // Pipeline full-segment writes (§3.3): seal the open segment into a second
  // buffer, submit it to the device queue asynchronously, and keep accepting
  // writes — CPU (compression, list maintenance) overlaps the in-flight disk
  // write. When false, every full-segment write completes synchronously
  // (useful for timing A/B tests; recovery state is identical either way).
  bool pipeline_segment_writes = true;

  // Reorder live blocks into list order when cleaning (paper §3.5).
  bool cluster_on_clean = true;

  // Ablation for §4.2's "version of MINIX LLD that does not support lists":
  // when false, NewBlock/DeleteBlock skip all successor maintenance and its
  // logging (clustering degrades; recovery keeps block contents only).
  bool maintain_lists = true;

  // Track per-block read frequency (Akyürek & Salem 1993, cited in §5.3),
  // feeding RearrangeHotBlocks: frequently read blocks are rewritten
  // together so random reads of the hot set stop paying long seeks.
  bool track_read_heat = false;

  // NVRAM absorption of partial segments (Baker et al. 1992, cited in §5.3):
  // a below-threshold Flush whose open-segment content fits in NVRAM is
  // durable without any disk write; the segment keeps filling and goes out
  // once, full. This is a *performance* model — the simulation treats NVRAM
  // as surviving power failure, as Baker et al. do, so crash-recovery tests
  // must run with nvram_bytes = 0.
  uint64_t nvram_bytes = 0;

  // Write a per-segment XOR parity block when a segment is sealed, letting
  // the read path and Scrub *reconstruct* a single damaged extent (up to one
  // stored block, plus a sector of alignment slack) in an otherwise-healthy
  // segment instead of only reporting it. Costs one parity write per sealed
  // segment and shrinks the data area by the parity footprint; off by
  // default so fault-free benchmark tables are unchanged. Volumes mix
  // freely: segments without a kSegmentParity record simply aren't
  // reconstructible (PR 3 behaviour).
  bool segment_parity = false;

  // Cross-channel stripe parity (RAID-5-style). On a device with N >= 2
  // channels, sealed segments are grouped into stripe sets of one segment
  // per channel, and each set gets one parity segment (XOR of the members'
  // full images, rotated across channels) recorded via kStripeParity summary
  // records on the sealing segment. When a read or scrub failure exhausts
  // the per-segment parity lane — including a whole channel down — the block
  // is reconstructed from the N-1 surviving peers, gated on its payload CRC
  // so double faults stay typed CORRUPTION. Lld::Rebuild re-materializes a
  // healed (blank spare) channel's striped segments in place. Off by
  // default: fault-free benchmark tables are unchanged, and single-channel
  // devices never form stripes regardless.
  bool stripe_parity = false;

  // Incremental checkpointing (bounded recovery). 0 keeps the paper's
  // checkpoint-free normal operation: the only checkpoint is the clean-
  // shutdown image, invalidated on every startup, and recovery after a
  // crash scans every segment summary. When > 0, a delta checkpoint frame
  // is appended to the hardened A/B checkpoint region every this-many
  // sealed segments (carrying the summary records of the segments sealed
  // since the previous frame plus the covered sequence number), and new
  // segment writes are confined to the allocation window the latest frame
  // recorded — so crash recovery loads base + deltas and scans only the
  // window instead of the whole log. Recovery time becomes bounded by
  // log-written-since-checkpoint rather than volume size.
  uint32_t checkpoint_interval_segments = 0;

  // Fan the recovery summary scan out across the device's channels through
  // the async request queue (per-channel concurrent reads, then an ordered
  // merge by sequence number — ARU all-or-nothing semantics are preserved
  // because gating happens after the merge). When false, summaries are read
  // one at a time in segment order: the differential baseline; the
  // post-recovery state is byte-identical either way.
  bool parallel_recovery_scan = true;

  // CPU cost charged per list-maintenance operation (microseconds), modeling
  // the prototype's user-level list bookkeeping. 0 disables the model; the
  // list-overhead benchmark sets it to show the paper's ~15 % create/delete
  // overhead, which is CPU-side and otherwise invisible to a disk simulator.
  double cpu_per_list_op_us = 0.0;
};

}  // namespace ld

#endif  // SRC_LLD_LLD_OPTIONS_H_
