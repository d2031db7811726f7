// Maintenance reports: the shared shape for everything LLD's offline and
// online maintenance machinery tells its callers. Each report is a plain
// struct of counters plus a *typed outcome* (an enum, not a log line) and a
// ToString() for the harness printers — recovery (RecoveryReport), media
// scrub (ScrubReport), and the MINIX fsck report (src/minixfs) all follow
// the same convention so benches and tests consume them uniformly.

#ifndef SRC_LLD_REPORTS_H_
#define SRC_LLD_REPORTS_H_

#include <cstdint>
#include <string>

namespace ld {

// How an Open() rebuilt the in-memory state.
enum class RecoveryMode : uint8_t {
  kNone = 0,            // Freshly formatted; nothing to recover.
  kCheckpointClean,     // Clean-shutdown checkpoint: tables loaded, no scan.
  kCheckpointChain,     // Base + delta chain, replaying only newer segments.
  kLogScan,             // Full one-sweep log recovery (paper §3.6).
};

// Why recovery did not take the newest checkpoint chain at face value. The
// ladder is ordered by severity: each step is typed and observable instead
// of a silent downgrade to a full-log scan.
enum class RecoveryFallback : uint8_t {
  kNone = 0,            // Newest chain was intact (or none was expected).
  kDeltaTailDropped,    // Trailing delta frame(s) invalid: the valid prefix
                        // was used, with a full summary scan to re-find
                        // anything written after the prefix's coverage.
  kSlotFallback,        // Newest slot unusable (marker or base rotted); the
                        // other slot's older chain seeded the scan.
  kCheckpointLost,      // Both slots unusable; full log recovery.
};

const char* ToString(RecoveryMode mode);
const char* ToString(RecoveryFallback reason);

// What recovery did after a crash (paper §4.2 measures this), plus how the
// hardened checkpoint region behaved. Retained by LogStructuredDisk and
// exposed via last_recovery().
struct RecoveryReport {
  RecoveryMode mode = RecoveryMode::kNone;
  RecoveryFallback fallback_reason = RecoveryFallback::kNone;
  bool used_checkpoint = false;  // mode is one of the checkpoint modes.

  uint32_t summaries_scanned = 0;
  uint32_t summaries_valid = 0;
  uint64_t records_applied = 0;
  uint64_t records_dropped_uncommitted = 0;
  uint64_t live_blocks = 0;
  double seconds = 0.0;  // Simulated time recovery took.

  // Media damage the sweep encountered (and, for the torn tail, tolerated):
  // summaries whose CRC failed with a plausible header, and summaries the
  // device could not read at all (after retries).
  uint32_t summaries_corrupt = 0;
  uint32_t summaries_unreadable = 0;

  // Damaged summaries tolerated because the checkpoint chain proved them
  // stale (the segment was free, or the chain already covers its records) —
  // cases a chain-less scan would have had to refuse as CORRUPTION.
  uint32_t stale_damage_tolerated = 0;

  // Scrub retirements the sweep finished: damaged mid-log summaries covered
  // by a logged kScrubIntent record, whose segments were freed instead of
  // refused with CORRUPTION (the crash landed between the relocation batch
  // and the summary zeroing).
  uint32_t retirements_completed = 0;

  // Stripe members whose images (and therefore summaries) were rebuilt from
  // the N-1 surviving stripe peers plus parity during the sweep — segments a
  // stripe-less recovery would have refused as CORRUPTION or silently lost
  // to a blank replacement channel.
  uint32_t stripe_members_reconstructed = 0;

  // Checkpoint-chain accounting.
  uint32_t frames_loaded = 0;     // Base + delta frames applied.
  uint32_t frames_dropped = 0;    // Trailing frames rejected (bad CRC).
  uint32_t slots_rejected = 0;    // A/B slots skipped (marker/base invalid).
  uint32_t chain_segments = 0;    // Segments replayed from delta frames.
  uint64_t covered_seq = 0;       // Newest seq the chain covered.

  // Scan shape: how many channels the summary sweep fanned out over
  // (1 = the serial differential baseline).
  bool parallel_scan = false;
  uint32_t scan_channels = 1;

  std::string ToString() const;
};

// What one Scrub() pass over the media found and repaired.
struct ScrubReport {
  uint32_t segments_scanned = 0;   // Full segments whose summaries were verified.
  uint32_t suspect_segments = 0;   // Summaries unreadable or CRC-invalid.
  uint64_t blocks_scanned = 0;     // Live on-disk blocks read back.
  uint64_t blocks_relocated = 0;   // Blocks rewritten (off suspect segments, or
                                   // reconstructed and moved to fresh media).
  uint64_t blocks_corrupt = 0;     // Payload-CRC mismatches (data lost).
  uint64_t blocks_unreadable = 0;  // Persistent read errors (data lost).
  uint64_t records_relogged = 0;   // Metadata records re-logged from memory.
  uint64_t blocks_reconstructed = 0;  // Blocks rebuilt by the per-segment
                                      // XOR lane (first redundancy tier).
  uint64_t blocks_stripe_reconstructed = 0;  // Blocks rebuilt from the
                                             // cross-channel stripe peers
                                             // (second tier, after the lane
                                             // could not repair).

  // Typed outcome: clean media, damage fully repaired/retired, or data lost
  // (corrupt or unreadable payloads with no redundancy left).
  enum class Outcome : uint8_t { kClean = 0, kRepaired, kDataLoss };
  Outcome outcome() const {
    if (blocks_corrupt > 0 || blocks_unreadable > 0) {
      return Outcome::kDataLoss;
    }
    if (suspect_segments > 0 || blocks_relocated > 0 || blocks_reconstructed > 0 ||
        blocks_stripe_reconstructed > 0) {
      return Outcome::kRepaired;
    }
    return Outcome::kClean;
  }

  std::string ToString() const;
};

// What one Lld::Rebuild pass re-materialized onto a healed (blank spare)
// channel, and how much work remains queued.
struct RebuildReport {
  uint32_t segments_rebuilt = 0;        // Member segments rebuilt from peers.
  uint32_t parity_rebuilt = 0;          // Parity segments recomputed.
  uint32_t segments_unrecoverable = 0;  // Double faults: typed loss, stripe
                                        // dissolved rather than guessed.
  uint32_t segments_pending = 0;        // Still queued after this pass.
  uint64_t bytes_rewritten = 0;
  double seconds = 0.0;  // Simulated time the pass took.

  enum class Outcome : uint8_t { kIdle = 0, kRebuilt, kPartial, kDataLoss };
  Outcome outcome() const {
    if (segments_unrecoverable > 0) {
      return Outcome::kDataLoss;
    }
    if (segments_pending > 0) {
      return Outcome::kPartial;
    }
    if (segments_rebuilt > 0 || parity_rebuilt > 0) {
      return Outcome::kRebuilt;
    }
    return Outcome::kIdle;
  }

  std::string ToString() const;
};

inline const char* ToString(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kNone:
      return "none";
    case RecoveryMode::kCheckpointClean:
      return "checkpoint-clean";
    case RecoveryMode::kCheckpointChain:
      return "checkpoint-chain";
    case RecoveryMode::kLogScan:
      return "log-scan";
  }
  return "?";
}

inline const char* ToString(RecoveryFallback reason) {
  switch (reason) {
    case RecoveryFallback::kNone:
      return "none";
    case RecoveryFallback::kDeltaTailDropped:
      return "delta-tail-dropped";
    case RecoveryFallback::kSlotFallback:
      return "slot-fallback";
    case RecoveryFallback::kCheckpointLost:
      return "checkpoint-lost";
  }
  return "?";
}

inline std::string RecoveryReport::ToString() const {
  std::string s = "recovery{mode=";
  s += ld::ToString(mode);
  s += " fallback=";
  s += ld::ToString(fallback_reason);
  s += " scanned=" + std::to_string(summaries_scanned);
  s += " valid=" + std::to_string(summaries_valid);
  s += " applied=" + std::to_string(records_applied);
  s += " dropped_uncommitted=" + std::to_string(records_dropped_uncommitted);
  s += " live_blocks=" + std::to_string(live_blocks);
  if (frames_loaded > 0 || frames_dropped > 0 || slots_rejected > 0) {
    s += " frames=" + std::to_string(frames_loaded);
    s += " frames_dropped=" + std::to_string(frames_dropped);
    s += " slots_rejected=" + std::to_string(slots_rejected);
    s += " chain_segments=" + std::to_string(chain_segments);
    s += " covered_seq=" + std::to_string(covered_seq);
  }
  if (summaries_corrupt > 0 || summaries_unreadable > 0 || stale_damage_tolerated > 0 ||
      retirements_completed > 0) {
    s += " corrupt=" + std::to_string(summaries_corrupt);
    s += " unreadable=" + std::to_string(summaries_unreadable);
    s += " stale_tolerated=" + std::to_string(stale_damage_tolerated);
    s += " retirements=" + std::to_string(retirements_completed);
  }
  if (stripe_members_reconstructed > 0) {
    s += " stripe_members_reconstructed=" + std::to_string(stripe_members_reconstructed);
  }
  s += parallel_scan ? " scan=parallel@" + std::to_string(scan_channels) : std::string(" scan=serial");
  s += " seconds=" + std::to_string(seconds);
  s += "}";
  return s;
}

inline std::string ScrubReport::ToString() const {
  std::string s = "scrub{outcome=";
  switch (outcome()) {
    case Outcome::kClean:
      s += "clean";
      break;
    case Outcome::kRepaired:
      s += "repaired";
      break;
    case Outcome::kDataLoss:
      s += "data-loss";
      break;
  }
  s += " segments=" + std::to_string(segments_scanned);
  s += " suspects=" + std::to_string(suspect_segments);
  s += " blocks=" + std::to_string(blocks_scanned);
  s += " relocated=" + std::to_string(blocks_relocated);
  s += " reconstructed=" + std::to_string(blocks_reconstructed);
  s += " stripe_reconstructed=" + std::to_string(blocks_stripe_reconstructed);
  s += " corrupt=" + std::to_string(blocks_corrupt);
  s += " unreadable=" + std::to_string(blocks_unreadable);
  s += " relogged=" + std::to_string(records_relogged);
  s += "}";
  return s;
}

inline std::string RebuildReport::ToString() const {
  std::string s = "rebuild{outcome=";
  switch (outcome()) {
    case Outcome::kIdle:
      s += "idle";
      break;
    case Outcome::kRebuilt:
      s += "rebuilt";
      break;
    case Outcome::kPartial:
      s += "partial";
      break;
    case Outcome::kDataLoss:
      s += "data-loss";
      break;
  }
  s += " segments=" + std::to_string(segments_rebuilt);
  s += " parity=" + std::to_string(parity_rebuilt);
  s += " unrecoverable=" + std::to_string(segments_unrecoverable);
  s += " pending=" + std::to_string(segments_pending);
  s += " bytes=" + std::to_string(bytes_rewritten);
  s += " seconds=" + std::to_string(seconds);
  s += "}";
  return s;
}

}  // namespace ld

#endif  // SRC_LLD_REPORTS_H_
