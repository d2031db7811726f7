// Pinned stripe layouts and scrub repairs. The behavioural checks in
// lld_striping_test and lld_scrub_test and the golden bench outputs all miss
// a change in which segments a stripe set groups once the cleaner runs, or in
// what a scrub rewrites: no bench turns stripe parity on or calls scrub.
// These tests pin one run of each down to an FNV-1a hash of the whole device
// image, so a refactor of the stripe planner or of the scrub phases must
// leave every byte where it was. A change meant to move them must say why
// each value moved.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/lld/lld.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kPartitionBytes = 64ull << 20;

LldOptions PinOptions() {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  return options;
}

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 131 + i);
  }
  return data;
}

// A fault injector over a simulated multi-channel HP C3010.
struct PinRig {
  SimClock clock;
  std::unique_ptr<BlockDevice> inner;
  std::unique_ptr<FaultDisk> disk;

  explicit PinRig(uint32_t channels) {
    inner = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes, channels), &clock);
    disk = std::make_unique<FaultDisk>(inner.get());
  }
};

// FNV-1a over every byte of `device`, read past any fault injector above it.
std::string ImageHash(BlockDevice* device) {
  uint64_t hash = 14695981039346656037ull;
  std::vector<uint8_t> chunk(1 << 20);
  const uint64_t per_chunk = chunk.size() / device->sector_size();
  for (uint64_t s = 0; s < device->num_sectors(); s += per_chunk) {
    const uint64_t n = std::min(per_chunk, device->num_sectors() - s);
    const std::span<uint8_t> bytes(chunk.data(), n * device->sector_size());
    EXPECT_TRUE(device->Read(s, bytes).ok());
    for (uint8_t b : bytes) {
      hash = (hash ^ b) * 1099511628211ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

std::string PinnedCounters(const LogStructuredDisk& lld) {
  const LldCounters& c = lld.counters();
  return "formed=" + std::to_string(c.stripes_formed) +
         " dissolved=" + std::to_string(c.stripes_dissolved) +
         " written=" + std::to_string(c.segments_written) +
         " cleaned=" + std::to_string(c.segments_cleaned) +
         " reconstructed=" + std::to_string(c.blocks_reconstructed) +
         " stripe_reconstructed=" + std::to_string(c.blocks_stripe_reconstructed) +
         " sets=" + std::to_string(lld.stripe_count()) +
         " unstriped=" + std::to_string(lld.UnstripedFullSegments());
}

// A half-full 3-channel volume churned until the cleaner dissolves sets,
// striped by bounded and unbounded passes (which clean for parity space),
// then run with a dead channel, healed onto a blank spare, rebuilt and
// restriped.
TEST(LldPinnedTest, StripeLayoutsThroughCleaningAndHeal) {
  PinRig rig(3);
  LldOptions options = PinOptions();
  options.segment_bytes = 96 * 1024;
  options.stripe_parity = true;
  auto lld = *LogStructuredDisk::Format(rig.disk.get(), options);
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  ASSERT_TRUE(list.ok());
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  const uint64_t num_blocks = lld->TotalDataCapacity() / 2 / 4096;
  for (uint64_t i = 0; i < num_blocks; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, static_cast<uint32_t>(i))).ok());
    bids.push_back(pred = *bid);
  }
  Rng rng(2025);
  for (uint32_t w = 0; w < 3000; ++w) {
    ASSERT_TRUE(lld->Write(bids[rng.Below(bids.size())], Pattern(4096, 10000 + w)).ok());
    if (w % 500 == 499) {
      ASSERT_TRUE(lld->Flush().ok());
    }
  }
  std::string got = "passes";
  const auto form = [&](uint32_t max_sets) {
    auto formed = lld->FormStripes(max_sets);
    ASSERT_TRUE(formed.ok()) << formed.status().ToString();
    got += ' ';
    got += std::to_string(*formed);
  };
  form(2);
  form(0);

  rig.disk->FailChannel(1);
  ASSERT_TRUE(lld->SetChannelFailed(1, true).ok());
  uint32_t writes = 0;
  for (; writes < 1500; ++writes) {
    const Status s = lld->Write(bids[rng.Below(bids.size())], Pattern(4096, 20000 + writes));
    if (s.code() == ErrorCode::kNoSpace) {
      break;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  got += " | degraded writes " + std::to_string(writes);
  ASSERT_TRUE(rig.disk->HealChannel(1).ok());
  ASSERT_TRUE(lld->SetChannelFailed(1, false).ok());
  auto rebuilt = lld->Rebuild(0);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  got += " | passes";
  for (uint32_t max_sets : {2u, 2u, 2u, 0u}) {
    form(max_sets);
  }
  got += " | " + PinnedCounters(*lld) + " | image " + ImageHash(rig.inner.get());
  EXPECT_EQ(got,
            "passes 2 142 | degraded writes 550 | passes 2 2 2 150 | formed=549 dissolved=314 "
            "written=1201 cleaned=805 reconstructed=0 stripe_reconstructed=0 sets=235 "
            "unstriped=3 | image ef316fc2342a2e44");
}

// Scrub over damaged summaries and blocks: once incrementally, three
// segments per step to the end of the cycle, then all at once. One channel
// with the segment parity lane, and four channels with both parity tiers.
TEST(LldPinnedTest, ScrubRepairs) {
  struct Case {
    uint32_t channels;
    const char* want;
  };
  const Case cases[] = {
      {1,
       "steps 166 scrub{outcome=data-loss segments=249 suspects=6 blocks=6105 relocated=202 "
       "reconstructed=36 stripe_reconstructed=0 corrupt=1 unreadable=3 relogged=473} | "
       "scrub{outcome=data-loss segments=249 suspects=0 blocks=5936 relocated=0 reconstructed=0 "
       "stripe_reconstructed=0 corrupt=1 unreadable=3 relogged=0} | formed=0 dissolved=0 "
       "written=255 cleaned=6 reconstructed=36 stripe_reconstructed=0 sets=0 unstriped=249 | "
       "image 8ce9ad84806509b0"},
      {4,
       "steps 166 scrub{outcome=repaired segments=237 suspects=6 blocks=6066 relocated=206 "
       "reconstructed=38 stripe_reconstructed=2 corrupt=0 unreadable=0 relogged=504} | "
       "scrub{outcome=clean segments=255 suspects=0 blocks=5936 relocated=0 reconstructed=0 "
       "stripe_reconstructed=0 corrupt=0 unreadable=0 relogged=0} | formed=70 dissolved=6 "
       "written=261 cleaned=6 reconstructed=38 stripe_reconstructed=2 sets=64 unstriped=63 | "
       "image f5012b663a3f8f3f"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.channels) + " channels");
    PinRig rig(c.channels);
    LldOptions options = PinOptions();
    options.segment_parity = true;
    options.stripe_parity = c.channels > 1;
    auto lld = *LogStructuredDisk::Format(rig.disk.get(), options);
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    ASSERT_TRUE(list.ok());
    std::vector<Bid> bids;
    Bid pred = kBeginOfList;
    const uint64_t num_blocks = lld->TotalDataCapacity() * 4 / 10 / 4096;
    for (uint64_t i = 0; i < num_blocks; ++i) {
      auto bid = lld->NewBlock(*list, pred);
      ASSERT_TRUE(bid.ok());
      ASSERT_TRUE(lld->Write(*bid, Pattern(4096, static_cast<uint32_t>(i))).ok());
      bids.push_back(pred = *bid);
    }
    std::vector<Bid> live;
    for (size_t i = 0; i < bids.size(); ++i) {
      if (i % 211 == 105) {
        ASSERT_TRUE(lld->DeleteBlock(bids[i], *list, bids[i - 1]).ok());
      } else {
        live.push_back(bids[i]);
      }
    }
    ASSERT_TRUE(lld->Flush().ok());

    Rng rng(77 + c.channels);
    std::set<uint32_t> summaries;
    while (summaries.size() < 6) {
      const uint32_t seg = static_cast<uint32_t>(rng.Below(lld->num_segments()));
      if (lld->usage_table().segment(seg).state != SegmentState::kFull ||
          !summaries.insert(seg).second) {
        continue;
      }
      const uint64_t sector = lld->SegmentSummaryStartByte(seg) / rig.disk->sector_size();
      if (summaries.size() % 2 == 0) {
        rig.disk->InjectLatentError(sector);
      } else {
        ASSERT_TRUE(rig.disk->CorruptSector(sector, 0, 0xff).ok());
      }
    }
    for (uint32_t i = 0; i < 40; ++i) {
      const BlockMapEntry& e = lld->block_map().entry(live[rng.Below(live.size())]);
      ASSERT_TRUE(e.phys().IsOnDisk());
      const uint64_t sector = (lld->SegmentStartByte(e.phys().segment) + e.phys().offset) /
                                  rig.disk->sector_size() +
                              rng.Below(4096 / rig.disk->sector_size());
      if (i % 3 == 0) {
        rig.disk->InjectLatentError(sector);
      } else {
        ASSERT_TRUE(rig.disk
                        ->CorruptSector(sector, static_cast<uint32_t>(rng.Below(512)),
                                        static_cast<uint8_t>(1u << rng.Below(8)))
                        .ok());
      }
    }

    std::string got;
    uint32_t steps = 0;
    do {
      auto step = lld->ScrubStep(3);
      ASSERT_TRUE(step.ok()) << step.status().ToString();
      ASSERT_LT(++steps, 1000u);
      if (!lld->scrub_cycle_active()) {
        got = "steps " + std::to_string(steps) + " " + step->ToString();
      }
    } while (lld->scrub_cycle_active());
    auto full = lld->Scrub();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    got += " | " + full->ToString() + " | " + PinnedCounters(*lld) + " | image " +
           ImageHash(rig.inner.get());
    EXPECT_EQ(got, c.want);
  }
}

}  // namespace
}  // namespace ld
