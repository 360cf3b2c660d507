// Namespace partitioning for the sharded metadata plane (MetaFlow-style
// scalable lookup, PAPERS.md): the file namespace is split across N
// nameserver shards, and every client routes each path-keyed metadata RPC to
// the shard that owns the path.
//
// Two partition modes:
//  - kHash: a stable 64-bit hash of the full path, modulo the shard count.
//    Uniform load, but a directory's files scatter across every shard.
//  - kSubtree: the top-level directory component ("logs/2026/a.part" ->
//    "logs") is hashed instead, so a readdir-style prefix scan of one
//    directory subtree stays single-shard.
//
// The map carries an epoch: failover reassigns dead shards' ranges to
// survivors and bumps the epoch, and routers treat a kWrongShard reply as
// "my cached epoch is stale — refetch".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "fs/rpc/serializer.hpp"
#include "net/topology.hpp"

namespace mayflower::fs::meta {

enum class Partition : std::uint8_t {
  kHash = 0,
  kSubtree = 1,
};

const char* to_string(Partition mode);

// On the wire a partition mode is a u32; any value but the two modes fails
// the decode.
void encode_into(Writer& w, Partition mode);
void decode_into(Reader& r, Partition& mode);

// Deterministic 64-bit FNV-1a. The partition function is part of the wire
// contract between routers and shards, so it must be identical across
// builds and standard libraries — std::hash is neither.
std::uint64_t stable_hash(std::string_view s);

// The substring a path is partitioned by under `mode` (the whole path in
// hash mode; the first '/'-separated component in subtree mode).
std::string_view subtree_key(Partition mode, std::string_view path);

struct ShardMap {
  Partition mode = Partition::kHash;
  std::uint64_t epoch = 1;
  // owners[i] is the nameserver node currently serving shard i. After a
  // failover several shard indices may map to the same survivor.
  std::vector<net::NodeId> owners;

  std::size_t shard_count() const { return owners.size(); }
  std::size_t shard_of_path(std::string_view path) const;
  net::NodeId owner_of_path(std::string_view path) const {
    return owners[shard_of_path(path)];
  }

  static auto fields(auto& m) { return std::tie(m.mode, m.epoch, m.owners); }
};

// The kGetShardMap response payload (ShardMapResp) lives with every other
// wire message in fs/rpc/messages.hpp.

}  // namespace mayflower::fs::meta
