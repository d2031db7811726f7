#include "src/minixfs/backend.h"

namespace ld {

Status MinixBackend::ReadBlocks(uint32_t bno, uint32_t count, std::span<uint8_t> out) {
  const uint32_t bs = block_size();
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint64_t token,
                     SubmitBlock(bno + i, out.subspan(static_cast<size_t>(i) * bs, bs)));
    RETURN_IF_ERROR(WaitBlock(token));
  }
  return OkStatus();
}

Status MinixBackend::WriteBlocks(uint32_t bno, uint32_t count, std::span<const uint8_t> data) {
  const uint32_t bs = block_size();
  for (uint32_t i = 0; i < count; ++i) {
    RETURN_IF_ERROR(WriteBlock(bno + i, data.subspan(static_cast<size_t>(i) * bs, bs)));
  }
  return OkStatus();
}

Status MinixBackend::ReadInodeBlock(uint32_t, std::span<uint8_t>) {
  return UnimplementedError("backend has no small-i-node support");
}

Status MinixBackend::WriteInodeBlock(uint32_t, std::span<const uint8_t>) {
  return UnimplementedError("backend has no small-i-node support");
}

}  // namespace ld
