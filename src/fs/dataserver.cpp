#include "fs/dataserver.hpp"

#include <algorithm>
#include <fstream>
#include <memory>

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace mayflower::fs {
namespace {

// Marks every host a path from `from` reaches (one BFS over the topology).
std::vector<char> hosts_reachable_from(const net::Topology& topo,
                                       net::NodeId from) {
  MAYFLOWER_ASSERT(from < topo.node_count());
  std::vector<char> seen(topo.node_count(), 0);
  std::vector<net::NodeId> order{from};
  seen[from] = 1;
  for (std::size_t next = 0; next < order.size(); ++next) {
    for (const net::LinkId l : topo.out_links(order[next])) {
      const net::NodeId v = topo.link(l).to;
      if (seen[v] == 0) {
        seen[v] = 1;
        order.push_back(v);
      }
    }
  }
  for (net::NodeId n = 0; n < seen.size(); ++n) {
    if (topo.node(n).kind != net::NodeKind::kHost) seen[n] = 0;
  }
  return seen;
}

}  // namespace

Dataserver::Dataserver(Transport& transport, sdn::SdnFabric& fabric,
                       net::NodeId node, DataserverConfig config,
                       std::uint64_t seed)
    : transport_(&transport),
      fabric_(&fabric),
      node_(node),
      config_(std::move(config)),
      paths_(fabric.topology()),
      reachable_hosts_(hosts_reachable_from(fabric.topology(), node)),
      ecmp_(seed) {
  if (!config_.disk_root.empty()) {
    std::filesystem::create_directories(config_.disk_root);
    load_from_disk();
  }
  transport_->bind(node_, [this](net::NodeId from, Method method,
                                 const Bytes& request, ResponseFn reply) {
    handle(from, method, request, std::move(reply));
  });
}

Dataserver::~Dataserver() { transport_->unbind(node_); }

void Dataserver::set_obs(obs::Observability* hub) {
  if (hub == nullptr) {
    relay_failed_metric_ = obs::Counter{};
    chain_appends_metric_ = obs::Counter{};
    return;
  }
  relay_failed_metric_ = hub->metrics.counter("fs.ds.relay_failed");
  chain_appends_metric_ = hub->metrics.counter("fs.ds.chain_appends");
}

const ExtentList* Dataserver::file_data(const Uuid& uuid) const {
  const auto it = files_.find(uuid);
  return it == files_.end() ? nullptr : &it->second.data;
}

std::uint64_t Dataserver::file_size(const Uuid& uuid) const {
  const auto it = files_.find(uuid);
  return it == files_.end() ? 0 : it->second.info.size;
}

void Dataserver::restart() {
  files_.clear();
  if (!config_.disk_root.empty()) load_from_disk();
}

void Dataserver::detach() {
  if (!attached_) return;
  attached_ = false;
  transport_->unbind(node_);
}

void Dataserver::attach() {
  if (attached_) return;
  attached_ = true;
  transport_->bind(node_, [this](net::NodeId from, Method method,
                                 const Bytes& request, ResponseFn reply) {
    handle(from, method, request, std::move(reply));
  });
}

void Dataserver::handle(net::NodeId /*from*/, Method method,
                        const Bytes& request, ResponseFn reply) {
  switch (method) {
    case Method::kCreateReplica: {
      auto req = decode<CreateReplicaReq>(request);
      if (!req || !valid_info(req->info)) {
        reply(Status::kBadRequest, {});
        return;
      }
      Stored& file = files_[req->info.uuid];
      file.info = std::move(req->info);
      persist_meta(file);
      reply(Status::kOk, {});
      return;
    }
    case Method::kDropReplica: {
      const auto req = decode<DropReplicaReq>(request);
      if (!req) {
        reply(Status::kBadRequest, {});
        return;
      }
      const auto it = files_.find(req->file);
      if (it != files_.end()) {
        // Fail queued appends before erasing: the transport owes every
        // request exactly one reply, and dropping the queue would strand
        // their clients waiting forever.
        for (PendingAppend& queued : it->second.queue) {
          queued.reply(Status::kNotFound, {});
        }
        files_.erase(it);
      }
      remove_dir(req->file);
      reply(Status::kOk, {});
      return;
    }
    case Method::kAppend:
      handle_append(request, std::move(reply));
      return;
    case Method::kAppendRelay:
      handle_append_relay(request, std::move(reply));
      return;
    case Method::kReadFile:
      handle_read(request, std::move(reply));
      return;
    case Method::kScanFiles: {
      ScanFilesResp resp;
      for (const auto& [uuid, file] : files_) {
        resp.files.push_back(file.info);
      }
      reply(Status::kOk, encode(resp));
      return;
    }
    case Method::kPing:
      // Liveness probe: reaching the handler at all is the answer (a
      // detached server's probe fails in the transport with kUnavailable).
      reply(Status::kOk, {});
      return;
    case Method::kUpdateReplicas: {
      auto req = decode<UpdateReplicasReq>(request);
      if (!req || !valid_replicas(req->replicas)) {
        reply(Status::kBadRequest, {});
        return;
      }
      const auto it = files_.find(req->file);
      if (it == files_.end()) {
        reply(Status::kNotFound, {});
        return;
      }
      it->second.info.replicas = std::move(req->replicas);
      persist_meta(it->second);
      reply(Status::kOk, {});
      return;
    }
    case Method::kInstallReplica: {
      auto req = decode<InstallReplicaReq>(request);
      if (!req || !valid_info(req->info) ||
          req->data.size() != req->info.size) {
        reply(Status::kBadRequest, {});
        return;
      }
      Stored& file = files_[req->info.uuid];
      file.info = std::move(req->info);
      file.data = std::move(req->data);
      persist_meta(file);
      persist_chunks(file, 0, file.info.size);
      reply(Status::kOk, {});
      return;
    }
    case Method::kReplicateTo:
      handle_replicate_to(request, std::move(reply));
      return;
    default:
      reply(Status::kBadRequest, {});
  }
}

void Dataserver::apply_append(Stored& file, std::uint64_t offset,
                              const ExtentList& data) {
  MAYFLOWER_ASSERT(offset == file.info.size);
  file.data.append(data);
  file.info.size += data.size();
  persist_chunks(file, offset, data.size());
  persist_meta(file);
}

void Dataserver::handle_append(const Bytes& request, ResponseFn reply) {
  auto req = decode<AppendReq>(request);
  if (!req || req->data.empty()) {
    reply(Status::kBadRequest, {});
    return;
  }
  const auto it = files_.find(req->file);
  if (it == files_.end()) {
    reply(Status::kNotFound, {});
    return;
  }
  Stored& file = it->second;
  if (file.info.primary() != node_) {
    reply(Status::kNotPrimary, {});
    return;
  }
  // "The dataserver only services one append request at a time for each
  // file" (§3.3.2): queue and pump.
  file.queue.push_back(PendingAppend{std::move(req->data),
                                     std::move(req->chain), std::move(reply)});
  pump_appends(file);
}

void Dataserver::pump_appends(Stored& file) {
  if (file.append_in_progress || file.queue.empty()) return;
  file.append_in_progress = true;
  PendingAppend pending = std::move(file.queue.front());
  file.queue.pop_front();

  const std::uint64_t offset = file.info.size;
  apply_append(file, offset, pending.data);
  ++appends_served_;
  const net::NodeId size_sink = config_.nameserver_resolver
                                    ? config_.nameserver_resolver(
                                          file.info.name)
                                    : config_.nameserver;
  if (size_sink != net::kInvalidNode) {
    ReportSizeReq report;
    report.file = file.info.uuid;
    report.size = file.info.size;
    transport_->call(node_, size_sink, Method::kReportSize, encode(report),
                     nullptr);
  }

  // Relay to the other replica hosts "while servicing the request locally"
  // (§3.3.2): ship the bytes as a fabric flow, then the relay RPC, and ack
  // the client once every secondary settled (confirmed or degraded).
  const Uuid uuid = file.info.uuid;
  std::vector<net::NodeId> secondaries;
  for (const net::NodeId rep : file.info.replicas) {
    if (rep != node_) secondaries.push_back(rep);
  }

  FinishFn finish = [this, uuid, offset, reply = std::move(pending.reply)](
                        std::uint32_t hops_started) {
    const auto fit = files_.find(uuid);
    if (fit == files_.end()) {
      reply(Status::kNotFound, {});
      return;
    }
    AppendResp resp;
    resp.offset = offset;
    resp.new_size = fit->second.info.size;
    resp.hops_started = hops_started;
    reply(Status::kOk, encode(resp));
    fit->second.append_in_progress = false;
    pump_appends(fit->second);
  };

  if (secondaries.empty()) {
    finish(0);
    return;
  }

  // Encode the relay request ONCE and share the buffer: the old per-
  // secondary `relay.data = pending.data` copies pinned one payload clone
  // per secondary for the whole life of its relay flow (seconds at
  // datacenter block sizes). The shared buffer frees when the last relay
  // settles.
  const double relay_bytes = static_cast<double>(pending.data.size());
  auto wire = std::make_shared<const Bytes>(
      encode(AppendRelayReq{uuid, offset, std::move(pending.data)}));

  if (!pending.chain.empty()) {
    relay_pipelined(uuid, offset, std::move(wire), relay_bytes,
                    std::move(pending.chain), secondaries, std::move(finish));
    return;
  }
  relay_fanout(uuid, std::move(wire), relay_bytes, secondaries,
               std::move(finish));
}

bool Dataserver::valid_replicas(
    const std::vector<net::NodeId>& replicas) const {
  return !replicas.empty() &&
         std::all_of(replicas.begin(), replicas.end(),
                     [this](net::NodeId n) { return reachable_host(n); });
}

bool Dataserver::valid_info(const FileInfo& info) const {
  return !info.uuid.is_nil() && info.chunk_size > 0 &&
         valid_replicas(info.replicas);
}

void Dataserver::count_relay_failure(const Uuid& uuid, net::NodeId secondary) {
  ++relay_failures_;
  relay_failed_metric_.inc();
  MAYFLOWER_LOG_WARN(
      "dataserver %u: relay of %s to %u failed; settling degraded", node_,
      uuid.to_string().c_str(), secondary);
}

void Dataserver::relay_fanout(const Uuid& uuid,
                              std::shared_ptr<const Bytes> wire, double bytes,
                              const std::vector<net::NodeId>& secondaries,
                              FinishFn finish) {
  auto pending_acks = std::make_shared<std::size_t>(secondaries.size());
  auto shared_finish = std::make_shared<FinishFn>(std::move(finish));
  for (const net::NodeId secondary : secondaries) {
    auto send_rpc = [this, secondary, wire, pending_acks,
                     shared_finish]() mutable {
      transport_->call(node_, secondary, Method::kAppendRelay, *wire,
                       [pending_acks, shared_finish](Status, Bytes) {
                         if (--*pending_acks == 0) (*shared_finish)(0);
                       });
    };
    // Bulk bytes travel the fabric first, over ECMP (the paper optimizes the
    // read path). If a failure kills the relay flow — or it is stillborn on
    // a path that is already dead — the secondary simply misses this append
    // (its replica falls behind; recovery re-copies whole replicas), but the
    // client's ack must not hang: count the relay as settled.
    auto relay_failed = [this, uuid, secondary, pending_acks, shared_finish](
                            sdn::Cookie, const net::FlowRecord&) {
      count_relay_failure(uuid, secondary);
      if (--*pending_acks == 0) (*shared_finish)(0);
    };
    const auto& candidates = paths_.get(node_, secondary);
    MAYFLOWER_ASSERT(!candidates.empty());
    const sdn::Cookie cookie = fabric_->new_cookie();
    const net::Path& path =
        ecmp_.choose(candidates, node_, secondary, cookie);
    fabric_->install_path(cookie, path);
    fabric_->start_flow(cookie, path, bytes,
                        [send_rpc = std::move(send_rpc)](
                            sdn::Cookie, sim::SimTime) mutable { send_rpc(); },
                        relay_failed);
  }
}

bool Dataserver::startable_hop(const std::vector<ReadAssignment>& hops,
                               std::size_t j, net::NodeId src,
                               net::NodeId dst, double bytes) const {
  const ReadAssignment& hop = hops[j];
  const net::Path& path = hop.path;
  const net::Topology& topo = fabric_->topology();
  if (hop.bytes != bytes || hop.replica != src || path.nodes.empty() ||
      path.nodes.size() != path.links.size() + 1 ||
      path.nodes.front() != src || path.nodes.back() != dst) {
    return false;
  }
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    if (path.links[i] >= topo.link_count()) return false;
    const net::Link& link = topo.link(path.links[i]);
    if (link.from != path.nodes[i] || link.to != path.nodes[i + 1]) {
      return false;
    }
  }
  for (std::size_t k = 0; k < j; ++k) {
    if (hops[k].cookie == hop.cookie) return false;
  }
  return !fabric_->flow_active(hop.cookie) &&
         fabric_->path_installed(hop.cookie, path);
}

void Dataserver::relay_pipelined(const Uuid& uuid, std::uint64_t offset,
                                 std::shared_ptr<const Bytes> wire,
                                 double bytes,
                                 std::vector<ReadAssignment> hops,
                                 const std::vector<net::NodeId>& secondaries,
                                 FinishFn finish) {
  // Validate the client-carried plan against OUR replica view (the client's
  // metadata may be stale) and the fabric: hop j must run from the previous
  // chain host to secondaries[j] over its installed path. Truncate at the
  // first failing hop — the tail degrades, and the client hands the cut
  // hops back.
  std::size_t covered = 0;
  while (covered < hops.size() && covered < secondaries.size() &&
         startable_hop(hops, covered,
                       covered == 0 ? node_ : secondaries[covered - 1],
                       secondaries[covered], bytes)) {
    ++covered;
  }
  hops.resize(covered);

  ++chain_appends_;
  chain_appends_metric_.inc();

  auto st = std::make_shared<ChainRelay>();
  st->uuid = uuid;
  st->offset = offset;
  st->wire = std::move(wire);
  st->hops = std::move(hops);
  st->targets.assign(secondaries.begin(),
                     secondaries.begin() + static_cast<long>(covered));
  st->flow_done.assign(covered, false);
  st->rpc_sent.assign(covered, false);
  st->state.assign(covered, 0);
  st->total = secondaries.size();
  st->finish = [finish = std::move(finish), covered] {
    finish(static_cast<std::uint32_t>(covered));
  };

  // Secondaries beyond the planned prefix (chain truncated at an
  // unreachable hop, or plan/replica mismatch) settle degraded immediately.
  for (std::size_t j = covered; j < secondaries.size(); ++j) {
    count_relay_failure(uuid, secondaries[j]);
    ++st->settled;
  }
  if (st->settled == st->total) {
    st->finish();
    return;
  }

  // Cut-through: every hop flow starts now and runs concurrently — each
  // relay host forwards bytes as they stream in, so the chain completes in
  // roughly bytes/bottleneck instead of hops * bytes/bottleneck, and no two
  // hops share this primary's uplink (unlike fan-out).
  for (std::size_t j = 0; j < st->hops.size(); ++j) {
    const ReadAssignment& hop = st->hops[j];
    fabric_->start_flow(
        hop.cookie, hop.path, hop.bytes,
        [this, st, j](sdn::Cookie, sim::SimTime) {
          st->flow_done[j] = true;
          chain_advance(st);
        },
        [this, st, j](sdn::Cookie, const net::FlowRecord&) {
          // Hop j's bytes never landed: every downstream host is cut off
          // from this append. Degrade the suffix, keep the settled prefix.
          chain_fail_from(st, j);
        });
  }
}

void Dataserver::chain_advance(const std::shared_ptr<ChainRelay>& st) {
  for (std::size_t j = 0; j < st->hops.size(); ++j) {
    if (st->state[j] == 2) return;  // suffix from here is degraded
    if (st->rpc_sent[j]) {
      if (st->state[j] == 0) return;  // ack outstanding gates j+1
      continue;
    }
    if (!st->flow_done[j]) return;
    // In-order gate: relay j applies after relay j-1 confirmed, preserving
    // the prefix-consistency property (a settled chain is always a prefix).
    st->rpc_sent[j] = true;
    transport_->call(node_, st->targets[j], Method::kAppendRelay, *st->wire,
                     [this, st, j](Status status, Bytes) {
                       if (status == Status::kOk) {
                         chain_settle(st, j, true);
                         chain_advance(st);
                       } else {
                         // The secondary rejected or is unreachable: it and
                         // everything downstream missed this append.
                         chain_fail_from(st, j);
                       }
                     });
    return;
  }
}

void Dataserver::chain_fail_from(const std::shared_ptr<ChainRelay>& st,
                                 std::size_t k) {
  for (std::size_t j = k; j < st->hops.size(); ++j) {
    if (st->state[j] != 0) continue;
    count_relay_failure(st->uuid, st->targets[j]);
    chain_settle(st, j, false);
  }
}

void Dataserver::chain_settle(const std::shared_ptr<ChainRelay>& st,
                              std::size_t j, bool ok) {
  MAYFLOWER_ASSERT(st->state[j] == 0);
  st->state[j] = ok ? 1 : 2;
  if (++st->settled == st->total) st->finish();
}

void Dataserver::handle_append_relay(const Bytes& request, ResponseFn reply) {
  const auto req = decode<AppendRelayReq>(request);
  if (!req) {
    reply(Status::kBadRequest, {});
    return;
  }
  const auto it = files_.find(req->file);
  if (it == files_.end()) {
    reply(Status::kNotFound, {});
    return;
  }
  Stored& file = it->second;
  if (req->offset + req->data.size() <= file.info.size) {
    reply(Status::kOk, {});  // duplicate delivery: idempotent
    return;
  }
  if (req->offset != file.info.size) {
    // Gap: the primary serializes appends and the transport preserves
    // order, so this indicates corruption.
    reply(Status::kBadRequest, {});
    return;
  }
  apply_append(file, req->offset, req->data);
  reply(Status::kOk, {});
}

void Dataserver::handle_replicate_to(const Bytes& request, ResponseFn reply) {
  const auto req = decode<ReplicateToReq>(request);
  if (!req || !reachable_host(req->target) ||
      !valid_replicas(req->replicas)) {
    reply(Status::kBadRequest, {});
    return;
  }
  const auto it = files_.find(req->file);
  if (it == files_.end()) {
    reply(Status::kNotFound, {});
    return;
  }
  Stored& file = it->second;
  // Adopt the post-recovery replica list up front: even if the copy fails,
  // the dead server must not stay listed here.
  file.info.replicas = req->replicas;
  persist_meta(file);

  InstallReplicaReq install;
  install.info = file.info;
  install.data = file.data;
  const net::NodeId target = req->target;
  auto send_install = [this, target, install = std::move(install),
                       reply]() mutable {
    transport_->call(node_, target, Method::kInstallReplica, encode(install),
                     [reply](Status status, Bytes) { reply(status, {}); });
  };

  // An empty file has no bulk bytes to ship — straight to the install RPC.
  if (file.info.size == 0) {
    send_install();
    return;
  }

  // Recovery copies travel as ordinary ECMP fabric transfers (the paper
  // optimizes the read path; re-replication is background traffic). A flow
  // killed by a further failure surfaces as kUnavailable; the nameserver
  // retries on its next probe cycle.
  const auto& candidates = paths_.get(node_, target);
  MAYFLOWER_ASSERT(!candidates.empty());
  const sdn::Cookie cookie = fabric_->new_cookie();
  const net::Path& path = ecmp_.choose(candidates, node_, target, cookie);
  fabric_->install_path(cookie, path);
  fabric_->start_flow(
      cookie, path, static_cast<double>(file.info.size),
      [send_install = std::move(send_install)](sdn::Cookie,
                                               sim::SimTime) mutable {
        send_install();
      },
      [reply](sdn::Cookie, const net::FlowRecord&) {
        reply(Status::kUnavailable, {});
      });
}

void Dataserver::handle_read(const Bytes& request, ResponseFn reply) {
  const auto req = decode<ReadReq>(request);
  if (!req) {
    reply(Status::kBadRequest, {});
    return;
  }
  const auto it = files_.find(req->file);
  if (it == files_.end()) {
    reply(Status::kNotFound, {});
    return;
  }
  const Stored& file = it->second;
  ++reads_served_;
  ReadResp resp;
  resp.file_size = file.info.size;
  if (req->offset < file.info.size) {
    resp.data = file.data.slice(req->offset, req->length);
  }
  reply(Status::kOk, encode(resp));
}

// --- persistence -----------------------------------------------------------

std::filesystem::path Dataserver::dir_of(const Uuid& uuid) const {
  return config_.disk_root / uuid.to_string();
}

void Dataserver::persist_meta(const Stored& file) {
  if (config_.disk_root.empty()) return;
  const auto dir = dir_of(file.info.uuid);
  std::filesystem::create_directories(dir);
  const Bytes meta = encode(file.info);
  std::ofstream out(dir / "meta", std::ios::binary | std::ios::trunc);
  out.write(meta.data(), static_cast<std::streamsize>(meta.size()));
}

void Dataserver::persist_chunks(const Stored& file, std::uint64_t offset,
                                std::uint64_t length) {
  if (config_.disk_root.empty() || length == 0) return;
  const auto dir = dir_of(file.info.uuid);
  std::filesystem::create_directories(dir);
  const std::uint64_t chunk = file.info.chunk_size;
  const std::uint64_t first = offset / chunk;
  const std::uint64_t last = (offset + length - 1) / chunk;
  for (std::uint64_t c = first; c <= last; ++c) {
    const Bytes bytes = encode(file.data.slice(c * chunk, chunk));
    // Chunks are numbered files starting at 1 (§3.3.2).
    std::ofstream out(dir / strfmt("%llu", static_cast<unsigned long long>(c + 1)),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

void Dataserver::remove_dir(const Uuid& uuid) {
  if (config_.disk_root.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir_of(uuid), ec);
}

void Dataserver::load_from_disk() {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.disk_root, ec)) {
    if (!entry.is_directory()) continue;
    const Uuid uuid = Uuid::parse(entry.path().filename().string());
    if (uuid.is_nil()) continue;

    std::ifstream meta_in(entry.path() / "meta", std::ios::binary);
    if (!meta_in) continue;
    const Bytes meta_bytes((std::istreambuf_iterator<char>(meta_in)),
                           std::istreambuf_iterator<char>());
    const auto info = decode<FileInfo>(meta_bytes);
    // A file this server would refuse over RPC is not loaded either.
    if (!info || info->uuid != uuid || !valid_info(*info)) continue;

    Stored file;
    file.info = *info;
    const std::uint64_t chunk = info->chunk_size;
    const std::uint64_t n_chunks =
        info->size == 0 ? 0 : (info->size - 1) / chunk + 1;
    bool intact = true;
    for (std::uint64_t c = 0; c < n_chunks && intact; ++c) {
      std::ifstream in(entry.path() /
                           strfmt("%llu", static_cast<unsigned long long>(c + 1)),
                       std::ios::binary);
      if (!in) {
        intact = false;
        break;
      }
      const Bytes bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      const auto extents = decode<ExtentList>(bytes);
      if (!extents) {
        intact = false;
        break;
      }
      file.data.append(*extents);
    }
    if (!intact || file.data.size() != info->size) {
      MAYFLOWER_LOG_WARN("dataserver %u: dropping damaged replica of %s",
                         node_, info->name.c_str());
      continue;
    }
    files_.emplace(uuid, std::move(file));
  }
}

}  // namespace mayflower::fs
