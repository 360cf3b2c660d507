// RPC message schema for the Mayflower filesystem (client <-> nameserver,
// client <-> dataserver, dataserver <-> dataserver, client <-> Flowserver
// service).
//
// The wire contract, stated once: each message lists its fields in wire
// order (`fields`, walked by encode()/decode<T>() in serializer.hpp), and
// MAYFLOWER_RPC_METHODS lists every method. A request that does not decode
// is answered with Status::kBadRequest.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/uuid.hpp"
#include "flowserver/assignment.hpp"
#include "fs/data.hpp"
#include "fs/meta/shard_map.hpp"
#include "fs/rpc/serializer.hpp"
#include "net/topology.hpp"

namespace mayflower::fs {

// One row per method: X(method, wire id, request, response, owners), where
// NoBody marks a side without a payload and `owners` names the server
// families whose handler answers the method (tools/lint_invariants.py
// --check=rpc holds their dispatch switches to it). kPing is the liveness
// probe every server family but the Flowserver service answers.
#define MAYFLOWER_RPC_METHODS(X)                                              \
  X(kCreateFile, 1, CreateFileReq, FileInfoResp, "nameserver")                \
  X(kDeleteFile, 2, NameReq, NoBody, "nameserver")                            \
  X(kLookupFile, 3, NameReq, FileInfoResp, "nameserver")                      \
  X(kListFiles, 4, NoBody, ListFilesResp, "nameserver")                       \
  X(kAppend, 5, AppendReq, AppendResp, "dataserver")                          \
  X(kAppendRelay, 6, AppendRelayReq, NoBody, "dataserver")                    \
  X(kReadFile, 7, ReadReq, ReadResp, "dataserver")                            \
  X(kScanFiles, 8, NoBody, ScanFilesResp, "dataserver")                       \
  X(kCreateReplica, 9, CreateReplicaReq, NoBody, "dataserver")                \
  X(kDropReplica, 10, DropReplicaReq, NoBody, "dataserver")                   \
  X(kReportSize, 11, ReportSizeReq, NoBody, "nameserver")                     \
  X(kSelectReplicas, 12, SelectReplicasReq, SelectReplicasResp, "flowserver") \
  X(kFlowDropped, 13, FlowDroppedReq, NoBody, "flowserver")                   \
  X(kPing, 14, NoBody, NoBody, "nameserver dataserver meta")                  \
  X(kReplicateTo, 15, ReplicateToReq, NoBody, "dataserver")                   \
  X(kInstallReplica, 16, InstallReplicaReq, NoBody, "dataserver")             \
  X(kUpdateReplicas, 17, UpdateReplicasReq, NoBody, "dataserver")             \
  X(kGetShardMap, 19, NoBody, ShardMapResp, "meta")                           \
  X(kPlanWrite, 20, PlanWriteReq, SelectReplicasResp, "flowserver")

enum class Method : std::uint16_t {
#define MAYFLOWER_RPC_ENUMERATOR(method, id, req, resp, owners) method = id,
  MAYFLOWER_RPC_METHODS(MAYFLOWER_RPC_ENUMERATOR)
#undef MAYFLOWER_RPC_ENUMERATOR
};

const char* to_string(Method method);

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kAlreadyExists = 2,
  kBadRequest = 3,
  kUnavailable = 4,
  kIoError = 5,
  kNotPrimary = 6,
  // A path-keyed metadata RPC landed on a shard that does not own the path
  // (stale shard map at the caller); refetch the map and retry.
  kWrongShard = 7,
};

const char* to_string(Status status);

// ---------------------------------------------------------------------------

// The side of a method that carries no payload.
struct NoBody {
  static auto fields(auto&) { return std::tie(); }
};

struct FileInfo {
  Uuid uuid;
  std::string name;
  std::uint64_t size = 0;
  std::uint64_t chunk_size = 0;
  // replicas[0] is the primary dataserver (orders appends, §3.3.2).
  std::vector<net::NodeId> replicas;

  net::NodeId primary() const { return replicas.front(); }
  // Index of the chunk holding the last byte (0 when empty).
  std::uint64_t last_chunk_index() const;
  // Byte offset where the last chunk begins.
  std::uint64_t last_chunk_offset() const;

  static auto fields(auto& m) {
    return std::tie(m.uuid, m.name, m.size, m.chunk_size, m.replicas);
  }
};

struct CreateFileReq {
  std::string name;
  std::uint32_t replication = 3;
  // The creating client's host: lets the nameserver place the primary near
  // the writer when collaborative placement is enabled.
  net::NodeId client = net::kInvalidNode;
  static auto fields(auto& m) {
    return std::tie(m.name, m.replication, m.client);
  }
};

struct FileInfoResp {  // CreateFile / Lookup response
  FileInfo info;
  static auto fields(auto& m) { return std::tie(m.info); }
};

struct NameReq {  // DeleteFile / Lookup request
  std::string name;
  static auto fields(auto& m) { return std::tie(m.name); }
};

struct ListFilesResp {
  std::vector<std::string> names;
  static auto fields(auto& m) { return std::tie(m.names); }
};

// Plans travel in the Flowserver's own plan unit: one planned flow per
// assignment (flowserver/assignment.hpp).
using flowserver::ReadAssignment;

struct AppendReq {
  Uuid file;
  ExtentList data;
  // Flowserver-planned relay hops (primary -> secondary -> secondary, in
  // relay order), carried by the client from its kPlanWrite response so the
  // primary pipelines the relay without its own planning round trip. Empty:
  // legacy fan-out relay.
  std::vector<ReadAssignment> chain;
  static auto fields(auto& m) { return std::tie(m.file, m.data, m.chain); }
};

struct AppendResp {
  std::uint64_t offset = 0;    // where the append landed
  std::uint64_t new_size = 0;  // file size afterwards
  // How many of the request's relay hops the primary started: a prefix of
  // `chain`. The client hands the rest back to the Flowserver.
  std::uint32_t hops_started = 0;
  static auto fields(auto& m) {
    return std::tie(m.offset, m.new_size, m.hops_started);
  }
};

// Primary -> secondary dataserver: one append, in the primary's order.
struct AppendRelayReq {
  Uuid file;
  std::uint64_t offset = 0;
  ExtentList data;
  static auto fields(auto& m) { return std::tie(m.file, m.offset, m.data); }
};

// Client -> any replica's dataserver.
struct ReadReq {
  Uuid file;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  static auto fields(auto& m) { return std::tie(m.file, m.offset, m.length); }
};

struct ReadResp {
  ExtentList data;
  // Current file size, piggybacked on every read so clients discover
  // appends without asking the nameserver (§3.3).
  std::uint64_t file_size = 0;
  static auto fields(auto& m) { return std::tie(m.data, m.file_size); }
};

struct ScanFilesResp {
  std::vector<FileInfo> files;  // this dataserver's local view
  static auto fields(auto& m) { return std::tie(m.files); }
};

// Nameserver -> dataserver (create, re-replication).
struct CreateReplicaReq {
  FileInfo info;
  static auto fields(auto& m) { return std::tie(m.info); }
};

// Nameserver -> dataserver (delete).
struct DropReplicaReq {
  Uuid file;
  static auto fields(auto& m) { return std::tie(m.file); }
};

// Client -> Flowserver (§5): "accepts a list of source/destination IP
// addresses, port numbers, and the size of the data to be transferred" and
// "returns a list of replicas and the corresponding data size to be
// downloaded from those replicas". Our addressing is NodeIds; the cookie
// stands in for the flow's 5-tuple.
struct SelectReplicasReq {
  net::NodeId client = net::kInvalidNode;
  std::vector<net::NodeId> replicas;
  double bytes = 0.0;
  static auto fields(auto& m) {
    return std::tie(m.client, m.replicas, m.bytes);
  }
};

struct SelectReplicasResp {
  std::vector<ReadAssignment> assignments;
  static auto fields(auto& m) { return std::tie(m.assignments); }
};

// Client -> Flowserver service, fire-and-forget: a planned flow ended.
struct FlowDroppedReq {
  std::uint64_t cookie = 0;
  static auto fields(auto& m) { return std::tie(m.cookie); }
};

// Client -> Flowserver: route one replication chain. `chain` is the host
// sequence the bytes traverse (writer, primary, secondaries in relay
// order; consecutive hosts distinct). The response reuses
// SelectReplicasResp: one assignment per routed hop in chain order, every
// hop SETBW'd to the chain bottleneck; fewer assignments than hops means
// the chain was truncated at the first unreachable hop.
struct PlanWriteReq {
  std::vector<net::NodeId> chain;
  double bytes = 0.0;
  static auto fields(auto& m) { return std::tie(m.chain, m.bytes); }
};

// Nameserver -> surviving dataserver: "copy your replica of `file` to
// `target`, then both of you adopt `replicas` as the new replica list."
// The survivor ships the bytes as a fabric transfer and relays the
// target's install status back.
struct ReplicateToReq {
  Uuid file;
  net::NodeId target = net::kInvalidNode;
  std::vector<net::NodeId> replicas;  // post-recovery list, primary first
  static auto fields(auto& m) { return std::tie(m.file, m.target, m.replicas); }
};

// Surviving -> replacement dataserver: full metadata + chunk data of one
// replica (overwrites any stale local copy).
struct InstallReplicaReq {
  FileInfo info;
  ExtentList data;
  static auto fields(auto& m) { return std::tie(m.info, m.data); }
};

// Nameserver -> dataserver: replace only the replica list of a file already
// held locally (size and data stay untouched — unlike kCreateReplica, which
// installs a whole FileInfo and would clobber a survivor's size).
struct UpdateReplicasReq {
  Uuid file;
  std::vector<net::NodeId> replicas;
  static auto fields(auto& m) { return std::tie(m.file, m.replicas); }
};

// Advisory: keeps the nameserver's size view fresh so lookups answer "the
// size of a file" (§3.3.1) without a dataserver round trip. Readers never
// depend on it — the authoritative size rides on every read reply.
struct ReportSizeReq {
  Uuid file;
  std::uint64_t size = 0;
  static auto fields(auto& m) { return std::tie(m.file, m.size); }
};

// kGetShardMap response payload: the metadata coordinator's current shard
// map (fs/meta/shard_map.hpp), epoch included, so routers can refresh a
// stale cache after a kWrongShard reply.
struct ShardMapResp {
  meta::ShardMap map;
  static auto fields(auto& m) { return std::tie(m.map); }
};

}  // namespace mayflower::fs
