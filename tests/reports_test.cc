// Property tests for the maintenance report contracts (src/lld/reports.h):
// every counter a report carries must survive its ToString() rendering
// (parse-back round-trip), the typed outcome() classifiers must match their
// documented predicates for arbitrary counter mixes, and the QoS
// LatencyHistogram that backs the per-tenant report lines must behave at its
// edges (empty, single sample, saturated bucket, out-of-range values), and
// the write-amplification ratio and LLD's wear histogram must keep their
// edge cases, invariants and reset rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/disk/mem_disk.h"
#include "src/disk/qos.h"
#include "src/harness/report.h"
#include "src/lld/lld.h"
#include "src/lld/reports.h"
#include "src/util/random.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

// Parses the numeric value following " key=" (or "{key=") in a report
// rendering. A report string is a flat "name{k=v k=v ...}" record, so a
// missing key is a test failure, not a parse ambiguity.
uint64_t Field(const std::string& s, const std::string& key) {
  const std::string needle = key + "=";
  size_t at = s.find(" " + needle);
  if (at == std::string::npos) {
    at = s.find("{" + needle);
  }
  if (at == std::string::npos) {
    ADD_FAILURE() << "field '" << key << "' missing from: " << s;
    return ~0ull;
  }
  return std::stoull(s.substr(at + 1 + needle.size()));
}

bool HasField(const std::string& s, const std::string& key) {
  return s.find(" " + key + "=") != std::string::npos;
}

// ---- ScrubReport -------------------------------------------------------------

ScrubReport RandomScrubReport(Rng& rng) {
  ScrubReport r;
  // Small ranges keep the zero cases (the interesting classifier edges) common.
  r.segments_scanned = rng.Below(100);
  r.suspect_segments = rng.Below(3);
  r.blocks_scanned = rng.Below(5000);
  r.blocks_relocated = rng.Below(3);
  r.blocks_corrupt = rng.Below(2);
  r.blocks_unreadable = rng.Below(2);
  r.records_relogged = rng.Below(50);
  r.blocks_reconstructed = rng.Below(2);
  r.blocks_stripe_reconstructed = rng.Below(2);
  return r;
}

TEST(ReportsTest, ScrubReportToStringRoundTripsEveryCounter) {
  Rng rng(EnvFaultSeed(7));
  for (int i = 0; i < 200; ++i) {
    const ScrubReport r = RandomScrubReport(rng);
    const std::string s = r.ToString();
    EXPECT_EQ(Field(s, "segments"), r.segments_scanned) << s;
    EXPECT_EQ(Field(s, "suspects"), r.suspect_segments) << s;
    EXPECT_EQ(Field(s, "blocks"), r.blocks_scanned) << s;
    EXPECT_EQ(Field(s, "relocated"), r.blocks_relocated) << s;
    EXPECT_EQ(Field(s, "reconstructed"), r.blocks_reconstructed) << s;
    EXPECT_EQ(Field(s, "stripe_reconstructed"), r.blocks_stripe_reconstructed) << s;
    EXPECT_EQ(Field(s, "corrupt"), r.blocks_corrupt) << s;
    EXPECT_EQ(Field(s, "unreadable"), r.blocks_unreadable) << s;
    EXPECT_EQ(Field(s, "relogged"), r.records_relogged) << s;
  }
}

TEST(ReportsTest, ScrubOutcomeMatchesDocumentedPredicate) {
  Rng rng(EnvFaultSeed(11));
  for (int i = 0; i < 500; ++i) {
    const ScrubReport r = RandomScrubReport(rng);
    const ScrubReport::Outcome outcome = r.outcome();
    if (r.blocks_corrupt > 0 || r.blocks_unreadable > 0) {
      EXPECT_EQ(outcome, ScrubReport::Outcome::kDataLoss);
    } else if (r.suspect_segments > 0 || r.blocks_relocated > 0 ||
               r.blocks_reconstructed > 0 || r.blocks_stripe_reconstructed > 0) {
      EXPECT_EQ(outcome, ScrubReport::Outcome::kRepaired);
    } else {
      EXPECT_EQ(outcome, ScrubReport::Outcome::kClean);
    }
    // The rendered outcome string agrees with the enum.
    const std::string s = r.ToString();
    const char* want = outcome == ScrubReport::Outcome::kDataLoss ? "outcome=data-loss"
                       : outcome == ScrubReport::Outcome::kRepaired ? "outcome=repaired"
                                                                    : "outcome=clean";
    EXPECT_NE(s.find(want), std::string::npos) << s;
  }
}

// ---- RebuildReport -----------------------------------------------------------

RebuildReport RandomRebuildReport(Rng& rng) {
  RebuildReport r;
  r.segments_rebuilt = rng.Below(5);
  r.parity_rebuilt = rng.Below(3);
  r.segments_unrecoverable = rng.Below(2);
  r.segments_pending = rng.Below(3);
  r.bytes_rewritten = rng.Below(1u << 20);
  r.seconds = static_cast<double>(rng.Below(1000)) / 100.0;
  return r;
}

TEST(ReportsTest, RebuildReportToStringRoundTripsEveryCounter) {
  Rng rng(EnvFaultSeed(13));
  for (int i = 0; i < 200; ++i) {
    const RebuildReport r = RandomRebuildReport(rng);
    const std::string s = r.ToString();
    EXPECT_EQ(Field(s, "segments"), r.segments_rebuilt) << s;
    EXPECT_EQ(Field(s, "parity"), r.parity_rebuilt) << s;
    EXPECT_EQ(Field(s, "unrecoverable"), r.segments_unrecoverable) << s;
    EXPECT_EQ(Field(s, "pending"), r.segments_pending) << s;
    EXPECT_EQ(Field(s, "bytes"), r.bytes_rewritten) << s;
  }
}

TEST(ReportsTest, RebuildOutcomeMatchesDocumentedPredicate) {
  Rng rng(EnvFaultSeed(17));
  for (int i = 0; i < 500; ++i) {
    const RebuildReport r = RandomRebuildReport(rng);
    const RebuildReport::Outcome outcome = r.outcome();
    if (r.segments_unrecoverable > 0) {
      EXPECT_EQ(outcome, RebuildReport::Outcome::kDataLoss);
    } else if (r.segments_pending > 0) {
      EXPECT_EQ(outcome, RebuildReport::Outcome::kPartial);
    } else if (r.segments_rebuilt > 0 || r.parity_rebuilt > 0) {
      EXPECT_EQ(outcome, RebuildReport::Outcome::kRebuilt);
    } else {
      EXPECT_EQ(outcome, RebuildReport::Outcome::kIdle);
    }
  }
}

// ---- RecoveryReport ----------------------------------------------------------

TEST(ReportsTest, RecoveryReportRoundTripsCoreAndConditionalSections) {
  Rng rng(EnvFaultSeed(19));
  for (int i = 0; i < 200; ++i) {
    RecoveryReport r;
    r.mode = static_cast<RecoveryMode>(rng.Below(4));
    r.fallback_reason = static_cast<RecoveryFallback>(rng.Below(4));
    r.summaries_scanned = rng.Below(500);
    r.summaries_valid = rng.Below(500);
    r.records_applied = rng.Below(10000);
    r.records_dropped_uncommitted = rng.Below(10);
    r.live_blocks = rng.Below(10000);
    r.frames_loaded = rng.Below(3);
    r.frames_dropped = rng.Below(2);
    r.slots_rejected = rng.Below(2);
    r.chain_segments = rng.Below(50);
    r.summaries_corrupt = rng.Below(2);
    r.summaries_unreadable = rng.Below(2);
    r.stale_damage_tolerated = rng.Below(2);
    r.retirements_completed = rng.Below(2);
    r.parallel_scan = rng.Below(2) == 1;
    r.scan_channels = r.parallel_scan ? 2 + rng.Below(6) : 1;

    const std::string s = r.ToString();
    EXPECT_NE(s.find(std::string("mode=") + ToString(r.mode)), std::string::npos) << s;
    EXPECT_NE(s.find(std::string("fallback=") + ToString(r.fallback_reason)),
              std::string::npos)
        << s;
    EXPECT_EQ(Field(s, "scanned"), r.summaries_scanned) << s;
    EXPECT_EQ(Field(s, "valid"), r.summaries_valid) << s;
    EXPECT_EQ(Field(s, "applied"), r.records_applied) << s;
    EXPECT_EQ(Field(s, "dropped_uncommitted"), r.records_dropped_uncommitted) << s;
    EXPECT_EQ(Field(s, "live_blocks"), r.live_blocks) << s;

    // Checkpoint-chain and damage sections render exactly when they carry
    // information, with every counter intact.
    const bool chain = r.frames_loaded > 0 || r.frames_dropped > 0 || r.slots_rejected > 0;
    EXPECT_EQ(HasField(s, "frames"), chain) << s;
    if (chain) {
      EXPECT_EQ(Field(s, "frames"), r.frames_loaded) << s;
      EXPECT_EQ(Field(s, "frames_dropped"), r.frames_dropped) << s;
      EXPECT_EQ(Field(s, "slots_rejected"), r.slots_rejected) << s;
      EXPECT_EQ(Field(s, "chain_segments"), r.chain_segments) << s;
    }
    const bool damage = r.summaries_corrupt > 0 || r.summaries_unreadable > 0 ||
                        r.stale_damage_tolerated > 0 || r.retirements_completed > 0;
    EXPECT_EQ(HasField(s, "stale_tolerated"), damage) << s;
    if (damage) {
      EXPECT_EQ(Field(s, "corrupt"), r.summaries_corrupt) << s;
      EXPECT_EQ(Field(s, "unreadable"), r.summaries_unreadable) << s;
      EXPECT_EQ(Field(s, "retirements"), r.retirements_completed) << s;
    }
    if (r.parallel_scan) {
      EXPECT_NE(s.find("scan=parallel@" + std::to_string(r.scan_channels)),
                std::string::npos)
          << s;
    } else {
      EXPECT_NE(s.find("scan=serial"), std::string::npos) << s;
    }
  }
}

TEST(ReportsTest, RecoveryEnumNamesAreTotal) {
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_STRNE(ToString(static_cast<RecoveryMode>(i)), "?");
    EXPECT_STRNE(ToString(static_cast<RecoveryFallback>(i)), "?");
  }
}

// ---- LatencyHistogram edge cases ---------------------------------------------

TEST(ReportsTest, EmptyHistogramIsAllZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.total_ms(), 0.0);
  EXPECT_EQ(h.MeanMs(), 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(ReportsTest, SingleSampleAllQuantilesAgreeWithinBucketWidth) {
  // Buckets are √2 wide, so the representative of the bucket holding x lies
  // within [x/√2, x·√2] for any in-range x.
  const double kSqrt2 = std::sqrt(2.0);
  for (double x : {0.002, 0.04, 0.9, 8.5, 120.0, 4000.0}) {
    LatencyHistogram h;
    h.Add(x);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.total_ms(), x);
    EXPECT_DOUBLE_EQ(h.MeanMs(), x);
    const double q0 = h.Quantile(0.0);
    EXPECT_EQ(q0, h.Quantile(0.5)) << x;
    EXPECT_EQ(q0, h.Quantile(1.0)) << x;
    EXPECT_GE(q0, x / kSqrt2) << x;
    EXPECT_LE(q0, x * kSqrt2) << x;
  }
}

TEST(ReportsTest, SaturatedSingleBucketIsExactOnEveryQuantile) {
  LatencyHistogram h;
  for (int i = 0; i < 100000; ++i) {
    h.Add(5.0);  // All samples land in one bucket.
  }
  EXPECT_EQ(h.count(), 100000u);
  const double rep = h.Quantile(0.5);
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.Quantile(q), rep) << q;
  }
  EXPECT_DOUBLE_EQ(h.MeanMs(), 5.0);
}

TEST(ReportsTest, QuantilesAreMonotoneOverRandomSamples) {
  Rng rng(EnvFaultSeed(23));
  LatencyHistogram h;
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform over ~6 decades, exercising many buckets.
    const double ms = 0.001 * std::pow(10.0, static_cast<double>(rng.Below(6000)) / 1000.0);
    h.Add(ms);
  }
  double prev = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double q = h.Quantile(static_cast<double>(i) / 100.0);
    EXPECT_GE(q, prev) << "quantile regressed at q=" << i / 100.0;
    prev = q;
  }
}

TEST(ReportsTest, OutOfRangeSamplesAndQuantilesStayFinite) {
  LatencyHistogram h;
  h.Add(-5.0);                 // Clamped to zero.
  h.Add(0.0);                  // Below the first bucket boundary.
  h.Add(1e12);                 // Far beyond the last bucket: clamps to bucket 63.
  EXPECT_EQ(h.count(), 3u);
  for (double q : {-1.0, 0.0, 0.5, 1.0, 2.0}) {  // Out-of-range q clamps too.
    const double v = h.Quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << q;
    EXPECT_GE(v, 0.0) << q;
  }
  // The overflow sample reads back as the last bucket's representative —
  // huge but finite (≈ an hour), never inf/nan.
  const double max = h.Quantile(1.0);
  EXPECT_TRUE(std::isfinite(max));
  EXPECT_GT(max, 1e6);
  EXPECT_LT(max, 1e12);
}

TEST(ReportsTest, MeanTracksExactTotalsNotBuckets) {
  // total_ms/MeanMs must be exact sums, unaffected by bucket quantization.
  LatencyHistogram h;
  double total = 0.0;
  Rng rng(EnvFaultSeed(29));
  for (int i = 0; i < 1000; ++i) {
    const double ms = static_cast<double>(rng.Below(100000)) / 1000.0;
    h.Add(ms);
    total += ms;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.total_ms(), total, 1e-9);
  EXPECT_NEAR(h.MeanMs(), total / 1000.0, 1e-9);
}

// ---- Write amplification (harness) and wear accounting (LldCounters) ------

TEST(ReportsTest, WafIsZeroWithoutUserBytesAndExactRatioOtherwise) {
  EXPECT_EQ(WriteAmplification(0, 0), 0.0);  // No user traffic yet: ratio undefined, report 0.
  EXPECT_EQ(WriteAmplification(4096, 0), 0.0);  // Pure overhead (format) still has no user bytes.
  EXPECT_NEAR(WriteAmplification(10240, 4096), 2.5, 1e-12);
}

TEST(ReportsTest, WearHistogramMovesSegmentsBetweenBuckets) {
  LldCounters c;
  // Segment A programmed three times, segment B once: one segment sits at
  // wear 3, one at wear 1, and the weighted sum recounts all four programs.
  c.NoteSegmentImage(1);  // A: 0 -> 1
  c.NoteSegmentImage(2);  // A: 1 -> 2
  c.NoteSegmentImage(3);  // A: 2 -> 3
  c.NoteSegmentImage(1);  // B: 0 -> 1
  EXPECT_EQ(c.wear_histogram[0], 1u);
  EXPECT_EQ(c.wear_histogram[1], 0u);
  EXPECT_EQ(c.wear_histogram[2], 1u);
  EXPECT_EQ(c.segment_images_written, 4u);
  EXPECT_EQ(c.segment_wear_max, 3u);
}

TEST(ReportsTest, WearHistogramInvariantsOverRandomProgramSequences) {
  // Property: after any interleaving of per-segment program sequences (each
  // segment's wear reported as 1, 2, 3, ... in order, as LLD does), the
  // histogram population equals the number of segments touched, the
  // weighted sum equals the total programs, and the max matches — as long as
  // no segment's wear clamps into the overflow bucket.
  Rng rng(EnvFaultSeed(31));
  LldCounters c;
  constexpr size_t kSegments = 40;
  uint32_t wear[kSegments] = {};
  uint64_t programs = 0;
  for (int step = 0; step < 400; ++step) {
    const size_t seg = rng.Below(kSegments);
    if (wear[seg] >= LldCounters::kWearBuckets) {
      continue;  // Keep every segment below the clamp.
    }
    c.NoteSegmentImage(++wear[seg]);
    programs++;
  }
  uint64_t population = 0, weighted = 0, expect_max = 0, expect_pop = 0;
  for (size_t b = 0; b < LldCounters::kWearBuckets; ++b) {
    population += c.wear_histogram[b];
    weighted += (b + 1) * c.wear_histogram[b];
  }
  for (size_t s = 0; s < kSegments; ++s) {
    expect_pop += wear[s] > 0 ? 1 : 0;
    expect_max = std::max<uint64_t>(expect_max, wear[s]);
  }
  EXPECT_EQ(population, expect_pop);
  EXPECT_EQ(weighted, programs);
  EXPECT_EQ(c.segment_images_written, programs);
  EXPECT_EQ(c.segment_wear_max, expect_max);
}

TEST(ReportsTest, WearHistogramClampsDeepWearIntoLastBucket) {
  LldCounters c;
  for (uint32_t w = 1; w <= 40; ++w) {
    c.NoteSegmentImage(w);
  }
  // Every program counted; the single segment occupies only the last bucket.
  EXPECT_EQ(c.segment_images_written, 40u);
  EXPECT_EQ(c.segment_wear_max, 40u);
  uint64_t population = 0;
  for (size_t b = 0; b < LldCounters::kWearBuckets; ++b) {
    population += c.wear_histogram[b];
  }
  EXPECT_EQ(population, 1u);
  EXPECT_EQ(c.wear_histogram[LldCounters::kWearBuckets - 1], 1u);
}

TEST(ReportsTest, WearResetsWithCountersAndSessionButNotDeviceBytes) {
  SimClock clock;
  MemDisk disk((16ull << 20) / 512, 512, &clock);
  LldOptions options;
  options.segment_bytes = 64 * 1024;
  options.summary_bytes = 4096;
  auto lld = *LogStructuredDisk::Format(&disk, options);
  const Lid list = *lld->NewList(kBeginOfListOfLists, ListHints{});
  const std::vector<uint8_t> data(4096, 0x5a);
  Bid pred = kBeginOfList;
  for (int i = 0; i < 64; ++i) {
    auto bid = lld->NewBlock(list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(lld->Write(*bid, data).ok());
    pred = *bid;
  }
  ASSERT_TRUE(lld->Flush().ok());
  ASSERT_GT(lld->counters().segment_images_written, 0u);
  ASSERT_GT(lld->counters().segment_wear_max, 0u);

  // ResetCounters zeroes the wear fields with every other LLD counter; the
  // device's media bytes belong to the device and stay.
  const uint64_t media = disk.stats().BytesWritten(512);
  lld->ResetCounters();
  EXPECT_EQ(lld->counters().segment_images_written, 0u);
  EXPECT_EQ(lld->counters().segment_wear_max, 0u);
  EXPECT_EQ(lld->counters().user_bytes_written, 0u);
  for (size_t b = 0; b < LldCounters::kWearBuckets; ++b) {
    EXPECT_EQ(lld->counters().wear_histogram[b], 0u);
  }
  EXPECT_EQ(disk.stats().BytesWritten(512), media);

  // A reopen is a new session: wear restarts with the fresh usage table.
  ASSERT_TRUE(lld->Shutdown().ok());
  lld.reset();
  lld = *LogStructuredDisk::Open(&disk, options);
  EXPECT_EQ(lld->counters().segment_images_written, 0u);
  uint64_t wear = 0;
  for (uint32_t s = 0; s < lld->num_segments(); ++s) {
    wear += lld->usage_table().segment(s).wear;
  }
  EXPECT_EQ(wear, 0u);
}

}  // namespace
}  // namespace ld
