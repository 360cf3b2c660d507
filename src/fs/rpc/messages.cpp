#include "fs/rpc/messages.hpp"

#include "common/assert.hpp"

namespace mayflower::fs {
namespace {

void encode_uuid(Writer& w, const Uuid& u) {
  w.str(std::string(reinterpret_cast<const char*>(u.bytes().data()),
                    u.bytes().size()));
}

Uuid decode_uuid(Reader& r) {
  const std::string raw = r.str();
  if (raw.size() != 16) return {};
  // Round-trip through the canonical text form to reuse validation-free
  // byte loading.
  Uuid u;
  std::array<std::uint8_t, 16> bytes{};
  for (std::size_t i = 0; i < 16; ++i) {
    bytes[i] = static_cast<std::uint8_t>(raw[i]);
  }
  // Uuid has no raw-bytes setter by design; reconstruct via text.
  static constexpr char kHex[] = "0123456789abcdef";
  std::string text;
  for (std::size_t i = 0; i < 16; ++i) {
    if (i == 4 || i == 6 || i == 8 || i == 10) text.push_back('-');
    text.push_back(kHex[bytes[i] >> 4]);
    text.push_back(kHex[bytes[i] & 0x0f]);
  }
  return Uuid::parse(text);
}

}  // namespace

const char* to_string(Method method) {
  switch (method) {
    case Method::kCreateFile: return "CreateFile";
    case Method::kDeleteFile: return "DeleteFile";
    case Method::kLookupFile: return "LookupFile";
    case Method::kListFiles: return "ListFiles";
    case Method::kAppend: return "Append";
    case Method::kAppendRelay: return "AppendRelay";
    case Method::kReadFile: return "ReadFile";
    case Method::kScanFiles: return "ScanFiles";
    case Method::kCreateReplica: return "CreateReplica";
    case Method::kDropReplica: return "DropReplica";
    case Method::kReportSize: return "ReportSize";
    case Method::kSelectReplicas: return "SelectReplicas";
    case Method::kFlowDropped: return "FlowDropped";
    case Method::kPing: return "Ping";
    case Method::kReplicateTo: return "ReplicateTo";
    case Method::kInstallReplica: return "InstallReplica";
    case Method::kUpdateReplicas: return "UpdateReplicas";
    case Method::kSelectReplicasBatch: return "SelectReplicasBatch";
    case Method::kGetShardMap: return "GetShardMap";
    case Method::kPlanWrite: return "PlanWrite";
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

void FileInfo::encode(Writer& w) const {
  encode_uuid(w, uuid);
  w.str(name);
  w.u64(size);
  w.u64(chunk_size);
  w.list(replicas,
         [](Writer& writer, net::NodeId n) { writer.u32(n); });
}

FileInfo FileInfo::decode(Reader& r) {
  FileInfo info;
  info.uuid = decode_uuid(r);
  info.name = r.str();
  info.size = r.u64();
  info.chunk_size = r.u64();
  info.replicas =
      r.list<net::NodeId>([](Reader& reader) { return reader.u32(); });
  return info;
}

Bytes CreateFileReq::encode() const {
  Writer w;
  w.str(name);
  w.u32(replication);
  w.u32(client);
  return w.take();
}

CreateFileReq CreateFileReq::decode(Reader& r) {
  CreateFileReq req;
  req.name = r.str();
  req.replication = r.u32();
  req.client = r.u32();
  return req;
}

Bytes FileInfoResp::encode() const {
  Writer w;
  info.encode(w);
  return w.take();
}

FileInfoResp FileInfoResp::decode(Reader& r) {
  FileInfoResp resp;
  resp.info = FileInfo::decode(r);
  return resp;
}

Bytes NameReq::encode() const {
  Writer w;
  w.str(name);
  return w.take();
}

NameReq NameReq::decode(Reader& r) {
  NameReq req;
  req.name = r.str();
  return req;
}

Bytes ListFilesResp::encode() const {
  Writer w;
  w.list(names,
         [](Writer& writer, const std::string& n) { writer.str(n); });
  return w.take();
}

ListFilesResp ListFilesResp::decode(Reader& r) {
  ListFilesResp resp;
  resp.names =
      r.list<std::string>([](Reader& reader) { return reader.str(); });
  return resp;
}

namespace {

void encode_u32_list(Writer& w, const std::vector<std::uint32_t>& v) {
  w.list(v, [](Writer& writer, std::uint32_t x) { writer.u32(x); });
}

std::vector<std::uint32_t> decode_u32_list(Reader& r) {
  return r.list<std::uint32_t>([](Reader& reader) { return reader.u32(); });
}

void encode_assignment(Writer& w, const ReadAssignment& a) {
  w.u64(a.cookie);
  w.u32(a.replica);
  encode_u32_list(w, a.path.nodes);
  encode_u32_list(w, a.path.links);
  w.f64(a.bytes);
  w.f64(a.est_bw_bps);
}

ReadAssignment decode_assignment(Reader& r) {
  ReadAssignment a;
  a.cookie = r.u64();
  a.replica = r.u32();
  a.path.nodes = decode_u32_list(r);
  a.path.links = decode_u32_list(r);
  a.bytes = r.f64();
  a.est_bw_bps = r.f64();
  return a;
}

void encode_assignment_list(Writer& w,
                            const std::vector<ReadAssignment>& list) {
  w.list(list, [](Writer& writer, const ReadAssignment& a) {
    encode_assignment(writer, a);
  });
}

std::vector<ReadAssignment> decode_assignment_list(Reader& r) {
  return r.list<ReadAssignment>(
      [](Reader& reader) { return decode_assignment(reader); });
}

}  // namespace

Bytes AppendReq::encode() const {
  Writer w;
  encode_uuid(w, file);
  data.encode(w);
  encode_assignment_list(w, chain);
  return w.take();
}

AppendReq AppendReq::decode(Reader& r) {
  AppendReq req;
  req.file = decode_uuid(r);
  req.data = ExtentList::decode(r);
  req.chain = decode_assignment_list(r);
  return req;
}

Bytes AppendResp::encode() const {
  Writer w;
  w.u64(offset);
  w.u64(new_size);
  w.u32(hops_started);
  return w.take();
}

AppendResp AppendResp::decode(Reader& r) {
  AppendResp resp;
  resp.offset = r.u64();
  resp.new_size = r.u64();
  resp.hops_started = r.u32();
  return resp;
}

Bytes AppendRelayReq::encode() const {
  Writer w;
  encode_uuid(w, file);
  w.u64(offset);
  data.encode(w);
  return w.take();
}

AppendRelayReq AppendRelayReq::decode(Reader& r) {
  AppendRelayReq req;
  req.file = decode_uuid(r);
  req.offset = r.u64();
  req.data = ExtentList::decode(r);
  return req;
}

Bytes ReadReq::encode() const {
  Writer w;
  encode_uuid(w, file);
  w.u64(offset);
  w.u64(length);
  return w.take();
}

ReadReq ReadReq::decode(Reader& r) {
  ReadReq req;
  req.file = decode_uuid(r);
  req.offset = r.u64();
  req.length = r.u64();
  return req;
}

Bytes ReadResp::encode() const {
  Writer w;
  data.encode(w);
  w.u64(file_size);
  return w.take();
}

ReadResp ReadResp::decode(Reader& r) {
  ReadResp resp;
  resp.data = ExtentList::decode(r);
  resp.file_size = r.u64();
  return resp;
}

Bytes ScanFilesResp::encode() const {
  Writer w;
  w.list(files,
         [](Writer& writer, const FileInfo& f) { f.encode(writer); });
  return w.take();
}

ScanFilesResp ScanFilesResp::decode(Reader& r) {
  ScanFilesResp resp;
  resp.files =
      r.list<FileInfo>([](Reader& reader) { return FileInfo::decode(reader); });
  return resp;
}

Bytes CreateReplicaReq::encode() const {
  Writer w;
  info.encode(w);
  return w.take();
}

CreateReplicaReq CreateReplicaReq::decode(Reader& r) {
  CreateReplicaReq req;
  req.info = FileInfo::decode(r);
  return req;
}

Bytes DropReplicaReq::encode() const {
  Writer w;
  encode_uuid(w, file);
  return w.take();
}

DropReplicaReq DropReplicaReq::decode(Reader& r) {
  DropReplicaReq req;
  req.file = decode_uuid(r);
  return req;
}

namespace {

void encode_select_req(Writer& w, const SelectReplicasReq& req) {
  w.u32(req.client);
  encode_u32_list(w, req.replicas);
  w.f64(req.bytes);
}

SelectReplicasReq decode_select_req(Reader& r) {
  SelectReplicasReq req;
  req.client = r.u32();
  req.replicas = decode_u32_list(r);
  req.bytes = r.f64();
  return req;
}

}  // namespace

Bytes SelectReplicasReq::encode() const {
  Writer w;
  encode_select_req(w, *this);
  return w.take();
}

SelectReplicasReq SelectReplicasReq::decode(Reader& r) {
  return decode_select_req(r);
}

Bytes SelectReplicasResp::encode() const {
  Writer w;
  encode_assignment_list(w, assignments);
  return w.take();
}

SelectReplicasResp SelectReplicasResp::decode(Reader& r) {
  SelectReplicasResp resp;
  resp.assignments = decode_assignment_list(r);
  return resp;
}

Bytes SelectReplicasBatchReq::encode() const {
  Writer w;
  w.list(reads, [](Writer& writer, const SelectReplicasReq& one) {
    encode_select_req(writer, one);
  });
  return w.take();
}

SelectReplicasBatchReq SelectReplicasBatchReq::decode(Reader& r) {
  SelectReplicasBatchReq req;
  req.reads = r.list<SelectReplicasReq>(
      [](Reader& reader) { return decode_select_req(reader); });
  return req;
}

Bytes SelectReplicasBatchResp::encode() const {
  Writer w;
  w.list(plans, [](Writer& writer, const SelectReplicasResp& one) {
    encode_assignment_list(writer, one.assignments);
  });
  return w.take();
}

SelectReplicasBatchResp SelectReplicasBatchResp::decode(Reader& r) {
  SelectReplicasBatchResp resp;
  resp.plans = r.list<SelectReplicasResp>([](Reader& reader) {
    return SelectReplicasResp{decode_assignment_list(reader)};
  });
  return resp;
}

Bytes PlanWriteReq::encode() const {
  Writer w;
  encode_u32_list(w, chain);
  w.f64(bytes);
  return w.take();
}

PlanWriteReq PlanWriteReq::decode(Reader& r) {
  PlanWriteReq req;
  req.chain = decode_u32_list(r);
  req.bytes = r.f64();
  return req;
}

Bytes FlowDroppedReq::encode() const {
  Writer w;
  w.u64(cookie);
  return w.take();
}

FlowDroppedReq FlowDroppedReq::decode(Reader& r) {
  FlowDroppedReq req;
  req.cookie = r.u64();
  return req;
}

Bytes ReplicateToReq::encode() const {
  Writer w;
  encode_uuid(w, file);
  w.u32(target);
  encode_u32_list(w, replicas);
  return w.take();
}

ReplicateToReq ReplicateToReq::decode(Reader& r) {
  ReplicateToReq req;
  req.file = decode_uuid(r);
  req.target = r.u32();
  req.replicas = decode_u32_list(r);
  return req;
}

Bytes InstallReplicaReq::encode() const {
  Writer w;
  info.encode(w);
  data.encode(w);
  return w.take();
}

InstallReplicaReq InstallReplicaReq::decode(Reader& r) {
  InstallReplicaReq req;
  req.info = FileInfo::decode(r);
  req.data = ExtentList::decode(r);
  return req;
}

Bytes UpdateReplicasReq::encode() const {
  Writer w;
  encode_uuid(w, file);
  encode_u32_list(w, replicas);
  return w.take();
}

UpdateReplicasReq UpdateReplicasReq::decode(Reader& r) {
  UpdateReplicasReq req;
  req.file = decode_uuid(r);
  req.replicas = decode_u32_list(r);
  return req;
}

Bytes ReportSizeReq::encode() const {
  Writer w;
  encode_uuid(w, file);
  w.u64(size);
  return w.take();
}

ReportSizeReq ReportSizeReq::decode(Reader& r) {
  ReportSizeReq req;
  req.file = decode_uuid(r);
  req.size = r.u64();
  return req;
}

Bytes ShardMapResp::encode() const {
  Writer w;
  map.encode(w);
  return w.take();
}

ShardMapResp ShardMapResp::decode(Reader& r) {
  ShardMapResp resp;
  resp.map = meta::ShardMap::decode(r);
  return resp;
}

}  // namespace mayflower::fs
