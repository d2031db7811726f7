#include "src/workload/hot_cold.h"

#include <vector>

namespace ld {

namespace {

// Eight payload bytes per draw, taken little-endian so every host fills alike.
void FillPayload(Rng* rng, std::vector<uint8_t>* data) {
  uint64_t word = 0;
  for (size_t i = 0; i < data->size(); ++i) {
    if (i % 8 == 0) {
      word = rng->Next();
    }
    (*data)[i] = static_cast<uint8_t>(word >> (8 * (i % 8)));
  }
}

}  // namespace

StatusOr<HotColdResult> RunHotCold(LogicalDisk* ld, const HotColdParams& params) {
  HotColdResult result;
  Rng rng(kHotColdSeed);
  // Payloads draw from their own stream, so the index and hot/cold choices
  // do not depend on the block size.
  Rng payload_rng(kHotColdSeed + 1);
  const uint32_t bs = ld->default_block_size();
  std::vector<uint8_t> data(bs);

  ListHints hints;
  hints.cluster = true;
  ASSIGN_OR_RETURN(Lid lid, ld->NewList(kBeginOfListOfLists, hints));

  result.blocks.reserve(params.num_blocks);
  Bid pred = kBeginOfList;
  for (uint64_t i = 0; i < params.num_blocks; ++i) {
    ASSIGN_OR_RETURN(Bid bid, ld->NewBlock(lid, pred));
    FillPayload(&payload_rng, &data);
    RETURN_IF_ERROR(ld->Write(bid, data));
    result.blocks.push_back(bid);
    pred = bid;
  }
  RETURN_IF_ERROR(ld->Flush());

  const uint64_t hot_count =
      std::max<uint64_t>(1, static_cast<uint64_t>(params.num_blocks * params.hot_fraction));
  for (uint64_t w = 0; w < params.writes; ++w) {
    const bool hot = rng.Chance(params.hot_write_share);
    const uint64_t index =
        hot ? rng.Below(hot_count) : hot_count + rng.Below(params.num_blocks - hot_count);
    FillPayload(&payload_rng, &data);
    RETURN_IF_ERROR(ld->Write(result.blocks[index], data));
    result.writes_done++;
  }
  RETURN_IF_ERROR(ld->Flush());
  return result;
}

}  // namespace ld
