#include "fs/meta/shard_map.hpp"

#include "common/logging.hpp"

namespace mayflower::fs::meta {

const char* to_string(Partition mode) {
  switch (mode) {
    case Partition::kHash: return "hash";
    case Partition::kSubtree: return "subtree";
  }
  return "?";
}

void encode_into(Writer& w, Partition mode) {
  w.u32(static_cast<std::uint32_t>(mode));
}

void decode_into(Reader& r, Partition& mode) {
  const std::uint32_t v = r.u32();
  if (v != static_cast<std::uint32_t>(Partition::kHash) &&
      v != static_cast<std::uint32_t>(Partition::kSubtree)) {
    r.fail();
    return;
  }
  mode = static_cast<Partition>(v);
}

std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

std::string_view subtree_key(Partition mode, std::string_view path) {
  if (mode == Partition::kHash) return path;
  const std::size_t slash = path.find('/');
  return slash == std::string_view::npos ? path : path.substr(0, slash);
}

std::size_t ShardMap::shard_of_path(std::string_view path) const {
  MAYFLOWER_ASSERT(!owners.empty());
  return stable_hash(subtree_key(mode, path)) % owners.size();
}

}  // namespace mayflower::fs::meta
