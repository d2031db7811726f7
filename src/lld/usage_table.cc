#include "src/lld/usage_table.h"

#include <cassert>

namespace ld {

void UsageTable::AddLive(uint32_t index, uint32_t bytes, OpTimestamp ts) {
  AddLiveAged(index, bytes, ts, ts);
}

void UsageTable::AddLiveAged(uint32_t index, uint32_t bytes, OpTimestamp relog_ts,
                             OpTimestamp age) {
  SegmentUsage& s = segments_[index];
  s.live_bytes_ += bytes;
  total_live_bytes_ += bytes;
  if (relog_ts > s.newest_ts) {
    s.newest_ts = relog_ts;
  }
  if (age > s.age_ts) {
    s.age_ts = age;
  }
}

void UsageTable::RemoveLive(uint32_t index, uint32_t bytes) {
  SegmentUsage& s = segments_[index];
  assert(s.live_bytes_ >= bytes);
  s.live_bytes_ -= bytes;
  total_live_bytes_ -= bytes;
}

void UsageTable::SetLive(uint32_t index, uint32_t bytes) {
  SegmentUsage& s = segments_[index];
  total_live_bytes_ = total_live_bytes_ - s.live_bytes_ + bytes;
  s.live_bytes_ = bytes;
}

uint32_t UsageTable::FreeCount() const {
  uint32_t count = 0;
  for (const auto& s : segments_) {
    if (s.state == SegmentState::kFree) {
      count++;
    }
  }
  return count;
}

int64_t UsageTable::PickGreedy() const {
  int64_t best = -1;
  uint32_t best_live = 0;
  for (uint32_t i = 0; i < segments_.size(); ++i) {
    const SegmentUsage& s = segments_[i];
    if (s.state != SegmentState::kFull || s.aru_pins > 0 || !Harvestable(i)) {
      continue;
    }
    if (best < 0 || s.live_bytes() < best_live) {
      best = i;
      best_live = s.live_bytes();
    }
  }
  return best;
}

int64_t UsageTable::PickCostBenefit(uint32_t segment_capacity, OpTimestamp now) const {
  int64_t best = -1;
  double best_score = -1.0;
  for (uint32_t i = 0; i < segments_.size(); ++i) {
    const SegmentUsage& s = segments_[i];
    if (s.state != SegmentState::kFull || s.aru_pins > 0 || !Harvestable(i)) {
      continue;
    }
    const double u = static_cast<double>(s.live_bytes()) / segment_capacity;
    const OpTimestamp basis = s.age_ts != 0 ? s.age_ts : s.newest_ts;
    const double age = static_cast<double>(now - (basis < now ? basis : now)) + 1.0;
    const double score = (1.0 - u) * age / (1.0 + u);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

int64_t UsageTable::PickFree() const {
  for (uint32_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].state == SegmentState::kFree && Allocatable(i)) {
      return i;
    }
  }
  return -1;
}

uint32_t UsageTable::AllocatableCount() const {
  uint32_t count = 0;
  for (uint32_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].state == SegmentState::kFree && Allocatable(i)) {
      ++count;
    }
  }
  return count;
}

int64_t UsageTable::PickFreeNear(uint32_t target) const {
  int64_t best = -1;
  uint32_t best_distance = 0;
  for (uint32_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].state != SegmentState::kFree || !Allocatable(i)) {
      continue;
    }
    const uint32_t distance = i > target ? i - target : target - i;
    if (best < 0 || distance < best_distance) {
      best = i;
      best_distance = distance;
    }
  }
  return best;
}

void UsageTable::Reset() {
  for (auto& s : segments_) {
    s = SegmentUsage{};
  }
  total_live_bytes_ = 0;
}

}  // namespace ld
