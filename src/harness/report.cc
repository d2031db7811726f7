#include "src/harness/report.h"

#include <cstdio>

#include "src/util/table.h"

namespace ld {

void PrintBanner(const std::string& experiment_id, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment_id.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n");
}

namespace {
bool g_claim_failed = false;
}  // namespace

void CheckClaim(const char* claim, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", claim);
  g_claim_failed |= !ok;
}

int ClaimsExitCode() { return g_claim_failed ? 1 : 0; }

void PrintDiskQueueStats(const std::string& label, const DiskStats& stats) {
  const double mean_wait =
      stats.queued_requests == 0 ? 0.0 : stats.queue_wait_ms / static_cast<double>(stats.queued_requests);
  std::printf("  %-24s queued %-8llu merged %-6llu max depth %-4llu mean wait %.3f ms\n",
              label.c_str(), static_cast<unsigned long long>(stats.queued_requests),
              static_cast<unsigned long long>(stats.merged_requests),
              static_cast<unsigned long long>(stats.max_queue_depth), mean_wait);
}

double WriteAmplification(uint64_t media_bytes, uint64_t user_bytes) {
  return user_bytes == 0 ? 0.0 : static_cast<double>(media_bytes) / static_cast<double>(user_bytes);
}

void PrintDiskHealthStats(const std::string& label, const DiskStats& stats, uint32_t sector_size,
                          const LldCounters& lld) {
  std::printf(
      "  %-24s errors r/w %llu/%llu  retries r/w %llu/%llu  recovered %llu\n",
      label.c_str(), static_cast<unsigned long long>(stats.read_errors),
      static_cast<unsigned long long>(stats.write_errors),
      static_cast<unsigned long long>(stats.read_retries),
      static_cast<unsigned long long>(stats.write_retries),
      static_cast<unsigned long long>(stats.transient_recoveries));
  // Write amplification and wear, when the device saw any media writes: how
  // many bytes the media absorbed per user payload byte, and how evenly the
  // segment programs spread across the volume.
  const uint64_t media_bytes = stats.BytesWritten(sector_size);
  if (media_bytes > 0) {
    std::printf(
        "  %-24s user %.2f MB  media %.2f MB  WAF %.3f  segment writes %llu  max wear %llu\n",
        "", static_cast<double>(lld.user_bytes_written) / (1024.0 * 1024.0),
        static_cast<double>(media_bytes) / (1024.0 * 1024.0),
        WriteAmplification(media_bytes, lld.user_bytes_written),
        static_cast<unsigned long long>(lld.segment_images_written),
        static_cast<unsigned long long>(lld.segment_wear_max));
  }
  // On multi-channel devices a dead or dying channel shows up as one row's
  // error column towering over its peers — print the breakdown so the bench
  // output localizes the fault, not just counts it.
  if (stats.channel_count() > 1) {
    for (size_t ch = 0; ch < stats.channel_count(); ++ch) {
      const ChannelStats& c = stats.channel(ch);
      if (c.read_ops + c.write_ops + c.read_errors + c.write_errors == 0) {
        continue;
      }
      std::printf(
          "    channel %-2zu             errors r/w %llu/%llu  retries r/w %llu/%llu  "
          "ops r/w %llu/%llu\n",
          ch, static_cast<unsigned long long>(c.read_errors),
          static_cast<unsigned long long>(c.write_errors),
          static_cast<unsigned long long>(c.read_retries),
          static_cast<unsigned long long>(c.write_retries),
          static_cast<unsigned long long>(c.read_ops),
          static_cast<unsigned long long>(c.write_ops));
    }
  }
}

void PrintReadPathStats(const std::string& label, uint64_t hits, uint64_t misses,
                        uint64_t prefetch_hits, uint64_t prefetch_wasted) {
  const uint64_t lookups = hits + misses;
  const double hit_rate =
      lookups == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / static_cast<double>(lookups);
  std::printf(
      "  %-24s hits %-8llu misses %-8llu (%.1f%% hit)  prefetch hits %-6llu wasted %llu\n",
      label.c_str(), static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), hit_rate,
      static_cast<unsigned long long>(prefetch_hits),
      static_cast<unsigned long long>(prefetch_wasted));
}

void PrintTenantStats(const std::string& label, const DiskStats& stats, uint32_t sector_size) {
  if (stats.tenant_count() == 0) {
    return;
  }
  std::printf("  %s per-tenant:\n", label.c_str());
  for (size_t i = 0; i < stats.tenant_count(); ++i) {
    const TenantStats& t = stats.tenant(i);
    const uint64_t ops = t.read_ops + t.write_ops;
    if (ops == 0) {
      continue;
    }
    const double mb =
        static_cast<double>(t.sectors_read + t.sectors_written) * sector_size / (1024.0 * 1024.0);
    const double mean_wait = t.queue_wait_ms / static_cast<double>(ops);
    std::printf(
        "    tenant %-2zu ops %-7llu (%llu r / %llu w)  %7.1f MB  wait %7.3f ms  "
        "read p50/p99 %7.3f/%8.3f ms  starved %llu\n",
        i, static_cast<unsigned long long>(ops), static_cast<unsigned long long>(t.read_ops),
        static_cast<unsigned long long>(t.write_ops), mb, mean_wait,
        t.read_latency.Quantile(0.5), t.read_latency.Quantile(0.99),
        static_cast<unsigned long long>(t.starved_requests));
  }
}

void PrintRecoveryReport(const std::string& label, const RecoveryReport& report) {
  std::printf("  %-24s %s\n", label.c_str(), report.ToString().c_str());
}

void PrintMaintenanceStats(const std::string& label, const MaintenanceStats& stats) {
  std::printf(
      "  %-24s steps %-7llu idle-skips %-7llu scrub %llu slices/%llu seg/%llu cycles  "
      "ckpt frames %llu  rebuild %llu slices/%llu seg  restripe %llu passes/%llu sets\n",
      label.c_str(), static_cast<unsigned long long>(stats.steps),
      static_cast<unsigned long long>(stats.idle_skips),
      static_cast<unsigned long long>(stats.scrub_slices),
      static_cast<unsigned long long>(stats.scrub_segments),
      static_cast<unsigned long long>(stats.scrub_cycles),
      static_cast<unsigned long long>(stats.checkpoint_frames),
      static_cast<unsigned long long>(stats.rebuild_slices),
      static_cast<unsigned long long>(stats.rebuild_segments),
      static_cast<unsigned long long>(stats.restripe_passes),
      static_cast<unsigned long long>(stats.stripes_formed));
  std::printf("  %-24s %s  %s\n", "", stats.last_scrub.ToString().c_str(),
              stats.last_rebuild.ToString().c_str());
}

std::string Compare(double measured, double paper, const std::string& unit, int precision) {
  std::string out = TextTable::Num(measured, precision);
  if (!unit.empty()) {
    out += " " + unit;
  }
  if (paper > 0) {
    out += " (paper: " + TextTable::Num(paper, precision) + ", x" +
           TextTable::Num(measured / paper, 2) + ")";
  }
  return out;
}

}  // namespace ld
