// RPC message schema for the Mayflower filesystem (client <-> nameserver,
// client <-> dataserver, dataserver <-> dataserver).
//
// Every message round-trips through the binary serializer; decode failures
// surface as Status::kBadRequest at the server.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/uuid.hpp"
#include "flowserver/assignment.hpp"
#include "fs/data.hpp"
#include "fs/meta/shard_map.hpp"
#include "fs/rpc/serializer.hpp"
#include "net/topology.hpp"

namespace mayflower::fs {

enum class Method : std::uint16_t {
  kCreateFile = 1,
  kDeleteFile = 2,
  kLookupFile = 3,
  kListFiles = 4,
  kAppend = 5,        // client -> primary dataserver
  kAppendRelay = 6,   // primary -> secondary dataserver
  kReadFile = 7,      // client -> any dataserver
  kScanFiles = 8,     // nameserver -> dataserver (recovery)
  kCreateReplica = 9, // nameserver -> dataserver
  kDropReplica = 10,  // nameserver -> dataserver
  kReportSize = 11,   // primary dataserver -> nameserver (async, advisory)
  kSelectReplicas = 12,  // client -> Flowserver service (controller)
  kFlowDropped = 13,     // client -> Flowserver service (fire-and-forget)
  kPing = 14,            // nameserver -> dataserver (liveness probe)
  kReplicateTo = 15,     // nameserver -> surviving dataserver (recovery)
  kInstallReplica = 16,  // surviving -> replacement dataserver (data + meta)
  kUpdateReplicas = 17,  // nameserver -> dataserver (replica-list refresh)
  kSelectReplicasBatch = 18,  // client -> Flowserver service (batched)
  kGetShardMap = 19,          // client/router -> metadata coordinator
  kPlanWrite = 20,            // client -> Flowserver service (write chain)
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

  void encode(Writer& w) const;
  static FileInfo decode(Reader& r);
};

struct CreateFileReq {
  std::string name;
  std::uint32_t replication = 3;
  // The creating client's host: lets the nameserver place the primary near
  // the writer when collaborative placement is enabled.
  net::NodeId client = net::kInvalidNode;
  Bytes encode() const;
  static CreateFileReq decode(Reader& r);
};

struct FileInfoResp {  // CreateFile / Lookup response
  FileInfo info;
  Bytes encode() const;
  static FileInfoResp decode(Reader& r);
};

struct NameReq {  // DeleteFile / Lookup request
  std::string name;
  Bytes encode() const;
  static NameReq decode(Reader& r);
};

struct ListFilesResp {
  std::vector<std::string> names;
  Bytes encode() const;
  static ListFilesResp decode(Reader& r);
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
  Bytes encode() const;
  static AppendReq decode(Reader& r);
};

struct AppendResp {
  std::uint64_t offset = 0;    // where the append landed
  std::uint64_t new_size = 0;  // file size afterwards
  // How many of the request's relay hops the primary started: a prefix of
  // `chain`. The client hands the rest back to the Flowserver.
  std::uint32_t hops_started = 0;
  Bytes encode() const;
  static AppendResp decode(Reader& r);
};

struct AppendRelayReq {
  Uuid file;
  std::uint64_t offset = 0;
  ExtentList data;
  Bytes encode() const;
  static AppendRelayReq decode(Reader& r);
};

struct ReadReq {
  Uuid file;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  Bytes encode() const;
  static ReadReq decode(Reader& r);
};

struct ReadResp {
  ExtentList data;
  // Current file size, piggybacked on every read so clients discover
  // appends without asking the nameserver (§3.3).
  std::uint64_t file_size = 0;
  Bytes encode() const;
  static ReadResp decode(Reader& r);
};

struct ScanFilesResp {
  std::vector<FileInfo> files;  // this dataserver's local view
  Bytes encode() const;
  static ScanFilesResp decode(Reader& r);
};

struct CreateReplicaReq {
  FileInfo info;
  Bytes encode() const;
  static CreateReplicaReq decode(Reader& r);
};

struct DropReplicaReq {
  Uuid file;
  Bytes encode() const;
  static DropReplicaReq decode(Reader& r);
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
  Bytes encode() const;
  static SelectReplicasReq decode(Reader& r);
};

struct SelectReplicasResp {
  std::vector<ReadAssignment> assignments;
  Bytes encode() const;
  static SelectReplicasResp decode(Reader& r);
};

struct FlowDroppedReq {
  std::uint64_t cookie = 0;
  Bytes encode() const;
  static FlowDroppedReq decode(Reader& r);
};

// Batched admission (§5 co-design): many outstanding reads travel as ONE
// request and the Flowserver decides them as one batch against a single
// network snapshot, amortizing the view build and the trace/metrics flush.
struct SelectReplicasBatchReq {
  std::vector<SelectReplicasReq> reads;
  Bytes encode() const;
  static SelectReplicasBatchReq decode(Reader& r);
};

struct SelectReplicasBatchResp {
  // plans[i] answers reads[i]; an empty assignment list means that read had
  // no reachable replica (per-read kUnavailable inside a kOk batch).
  std::vector<SelectReplicasResp> plans;
  Bytes encode() const;
  static SelectReplicasBatchResp decode(Reader& r);
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
  Bytes encode() const;
  static PlanWriteReq decode(Reader& r);
};

// Nameserver -> surviving dataserver: "copy your replica of `file` to
// `target`, then both of you adopt `replicas` as the new replica list."
// The survivor ships the bytes as a fabric transfer and relays the
// target's install status back.
struct ReplicateToReq {
  Uuid file;
  net::NodeId target = net::kInvalidNode;
  std::vector<net::NodeId> replicas;  // post-recovery list, primary first
  Bytes encode() const;
  static ReplicateToReq decode(Reader& r);
};

// Surviving -> replacement dataserver: full metadata + chunk data of one
// replica (overwrites any stale local copy).
struct InstallReplicaReq {
  FileInfo info;
  ExtentList data;
  Bytes encode() const;
  static InstallReplicaReq decode(Reader& r);
};

// Nameserver -> dataserver: replace only the replica list of a file already
// held locally (size and data stay untouched — unlike kCreateReplica, which
// installs a whole FileInfo and would clobber a survivor's size).
struct UpdateReplicasReq {
  Uuid file;
  std::vector<net::NodeId> replicas;
  Bytes encode() const;
  static UpdateReplicasReq decode(Reader& r);
};

// Advisory: keeps the nameserver's size view fresh so lookups answer "the
// size of a file" (§3.3.1) without a dataserver round trip. Readers never
// depend on it — the authoritative size rides on every read reply.
struct ReportSizeReq {
  Uuid file;
  std::uint64_t size = 0;
  Bytes encode() const;
  static ReportSizeReq decode(Reader& r);
};

// kGetShardMap response payload: the metadata coordinator's current shard
// map (fs/meta/shard_map.hpp), epoch included, so routers can refresh a
// stale cache after a kWrongShard reply.
struct ShardMapResp {
  meta::ShardMap map;
  Bytes encode() const;
  static ShardMapResp decode(Reader& r);
};

}  // namespace mayflower::fs
