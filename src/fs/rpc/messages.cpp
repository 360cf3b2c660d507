#include "fs/rpc/messages.hpp"

#include "common/assert.hpp"

namespace mayflower::fs {

const char* to_string(Method method) {
  switch (method) {
    // The enumerator's name without its leading 'k'.
#define MAYFLOWER_RPC_NAME(method, id, req, resp, owners) \
  case Method::method: return &#method[1];
    MAYFLOWER_RPC_METHODS(MAYFLOWER_RPC_NAME)
#undef MAYFLOWER_RPC_NAME
  }
  return "?";
}

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not found";
    case Status::kAlreadyExists: return "already exists";
    case Status::kBadRequest: return "bad request";
    case Status::kUnavailable: return "unavailable";
    case Status::kIoError: return "io error";
    case Status::kNotPrimary: return "not primary";
    case Status::kWrongShard: return "wrong shard";
  }
  return "?";
}

std::uint64_t FileInfo::last_chunk_index() const {
  MAYFLOWER_ASSERT(chunk_size > 0);
  return size == 0 ? 0 : (size - 1) / chunk_size;
}

std::uint64_t FileInfo::last_chunk_offset() const {
  return last_chunk_index() * chunk_size;
}

}  // namespace mayflower::fs
