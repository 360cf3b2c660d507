#include "fs/nameserver.hpp"

#include <algorithm>
#include <memory>

#include "common/logging.hpp"
#include "workload/catalog.hpp"

namespace mayflower::fs {

using meta::file_key;

Nameserver::Nameserver(Transport& transport, net::NodeId node,
                       const net::ThreeTier& tree, NameserverConfig config,
                       std::uint64_t seed)
    : transport_(&transport),
      node_(node),
      tree_(&tree),
      config_(std::move(config)),
      rng_(seed),
      alive_(std::make_shared<bool>(true)) {
  MAYFLOWER_ASSERT(config_.chunk_size > 0);
  MAYFLOWER_ASSERT(!config_.kv_dir.empty());
  if (config_.op_service_time > sim::SimTime{} || config_.async.enabled) {
    MAYFLOWER_ASSERT_MSG(config_.events != nullptr,
                         "service-time queueing and async commits need an "
                         "event queue in NameserverConfig");
  }
  if (config_.events != nullptr) {
    committer_ =
        std::make_unique<meta::AsyncCommitter>(*config_.events, config_.async);
  }
  const bool ok = kv_.open(config_.kv_dir, config_.kv_options);
  MAYFLOWER_ASSERT_MSG(ok, "nameserver KV store failed to open");
  rebuild_uuid_index();
  bind_handler();
}

Nameserver::~Nameserver() {
  *alive_ = false;
  stop_monitoring();
  transport_->unbind(node_);
}

void Nameserver::bind_handler() {
  transport_->bind(node_, [this](net::NodeId from, Method method,
                                 const Bytes& request, ResponseFn reply) {
    handle(from, method, request, std::move(reply));
  });
}

void Nameserver::detach() {
  if (!attached_) return;
  attached_ = false;
  transport_->unbind(node_);
}

void Nameserver::attach() {
  if (attached_) return;
  attached_ = true;
  busy_until_ = sim::SimTime{};
  bind_handler();
}

std::optional<FileInfo> Nameserver::lookup(const std::string& name) const {
  const auto raw = kv_.get(file_key(name));
  if (!raw.has_value()) return std::nullopt;
  return decode<FileInfo>(*raw);
}

void Nameserver::persist(const FileInfo& info) {
  kv_.put(file_key(info.name), encode(info));
  uuid_to_name_[info.uuid] = info.name;
}

void Nameserver::rebuild_uuid_index() {
  uuid_to_name_.clear();
  for (const auto& [key, value] : kv_.scan_prefix("f/")) {
    const auto info = decode<FileInfo>(value);
    if (info) uuid_to_name_[info->uuid] = info->name;
  }
}

void Nameserver::set_obs(obs::Observability* hub) {
  if (hub == nullptr) {
    metrics_ = nullptr;
    ops_metric_ = probes_metric_ = rereplications_metric_ = obs::Counter{};
    if (committer_) committer_->set_obs(nullptr);
    return;
  }
  metrics_ = &hub->metrics;
  ops_metric_ = hub->metrics.counter(config_.metric_scope + ".ops");
  probes_metric_ = hub->metrics.counter(config_.metric_scope + ".probes_sent");
  rereplications_metric_ =
      hub->metrics.counter(config_.metric_scope + ".rereplications");
  if (committer_ && config_.async.enabled) committer_->set_obs(hub);
}

void Nameserver::handle(net::NodeId /*from*/, Method method,
                        const Bytes& request, ResponseFn reply) {
  if (method == Method::kPing) {
    // Liveness probes bypass the service queue: a loaded shard is slow, not
    // dead, and the plane's failover must not be tripped by queueing delay.
    reply(Status::kOk, {});
    return;
  }
  if (metrics_ != nullptr) {
    // Low-rate control path, so looking the counter up per call is fine and
    // avoids an eager array over every Method a nameserver never serves.
    metrics_
        ->counter(config_.metric_scope + ".rpc." + to_string(method))
        .inc();
  }
  if (config_.op_service_time > sim::SimTime{}) {
    // Modeled metadata CPU: one request at a time, FIFO. The handler runs
    // (and replies) only once the server has "spent" the service time on
    // every earlier request — the single-server throughput wall that the
    // sharded plane removes.
    const sim::SimTime start =
        std::max(config_.events->now(), busy_until_);
    busy_until_ = start + config_.op_service_time;
    auto alive = alive_;
    config_.events->schedule_at(
        busy_until_, [this, alive, method, request,
                      reply = std::move(reply)]() mutable {
          if (!*alive) return;
          if (!attached_) {
            reply(Status::kUnavailable, {});
            return;
          }
          dispatch(method, request, std::move(reply));
        });
    return;
  }
  dispatch(method, request, std::move(reply));
}

void Nameserver::dispatch(Method method, const Bytes& request,
                          ResponseFn reply) {
  ++ops_served_;
  ops_metric_.inc();
  switch (method) {
    case Method::kCreateFile:
      handle_create(request, std::move(reply));
      return;
    case Method::kDeleteFile:
      handle_delete(request, std::move(reply));
      return;
    case Method::kLookupFile: {
      const auto req = decode<NameReq>(request);
      if (!req) {
        reply(Status::kBadRequest, {});
        return;
      }
      if (!owns_path(req->name)) {
        ++wrong_shard_refusals_;
        reply(Status::kWrongShard, {});
        return;
      }
      const auto info = lookup(req->name);
      if (!info.has_value()) {
        reply(Status::kNotFound, {});
        return;
      }
      reply(Status::kOk, encode(FileInfoResp{*info}));
      return;
    }
    case Method::kReportSize:
      handle_report_size(request, std::move(reply));
      return;
    case Method::kListFiles: {
      // Serves this server's slice of the namespace; under sharding the
      // router fans the call out and merges.
      ListFilesResp resp;
      for (const auto& [key, value] : kv_.scan_prefix("f/")) {
        resp.names.push_back(key.substr(2));
      }
      reply(Status::kOk, encode(resp));
      return;
    }
    default:
      reply(Status::kBadRequest, {});
  }
}

void Nameserver::provision_replicas(const FileInfo& info,
                                    std::function<void(bool)> done) {
  auto pending = std::make_shared<std::size_t>(info.replicas.size());
  auto failed = std::make_shared<bool>(false);
  auto shared_done =
      std::make_shared<std::function<void(bool)>>(std::move(done));
  for (const net::NodeId ds : info.replicas) {
    transport_->call(node_, ds, Method::kCreateReplica,
                     encode(CreateReplicaReq{info}),
                     [pending, failed, shared_done](Status status, Bytes) {
                       if (status != Status::kOk) *failed = true;
                       if (--*pending > 0) return;
                       (*shared_done)(!*failed);
                     });
  }
}

void Nameserver::handle_create(const Bytes& request, ResponseFn reply) {
  const auto req = decode<CreateFileReq>(request);
  // Placement puts each replica in its own rack, the second in another
  // rack of the primary's pod, and ranks candidates from the writer's host:
  // a factor beyond the rack count, a second replica on a tree with one
  // rack per pod or a writer outside the topology's hosts cannot be placed.
  const net::Topology& topo = tree_->topo;
  if (!req || req->name.empty() || req->replication == 0 ||
      req->replication > tree_->edge_switches.size() ||
      (req->replication >= 2 && tree_->config.racks_per_pod < 2) ||
      (req->client != net::kInvalidNode &&
       (req->client >= topo.node_count() ||
        topo.node(req->client).kind != net::NodeKind::kHost))) {
    reply(Status::kBadRequest, {});
    return;
  }
  if (!owns_path(req->name)) {
    ++wrong_shard_refusals_;
    reply(Status::kWrongShard, {});
    return;
  }
  if (kv_.contains(file_key(req->name))) {
    reply(Status::kAlreadyExists, {});
    return;
  }

  FileInfo info;
  info.uuid = Uuid::generate(rng_);
  info.name = req->name;
  info.size = 0;
  info.chunk_size = config_.chunk_size;
  if (config_.placement_advisor && req->client != net::kInvalidNode) {
    info.replicas = meta::place_collaboratively(
        *tree_, req->replication, req->client, config_.placement_advisor);
  } else {
    info.replicas =
        workload::Catalog::place_replicas(*tree_, req->replication, rng_);
  }
  persist(info);

  if (config_.async.enabled) {
    // AsyncFS-style create: the client gets a provisional handle now and
    // its data flow starts immediately; replica provisioning commits in the
    // background within the committer's ack/retry window. On terminal
    // failure the provisional mapping is reconciled away (loudly), so a
    // client holding the handle sees kNotFound on its next touch and
    // recreates.
    reply(Status::kOk, encode(FileInfoResp{info}));
    committer_->launch(
        "create " + info.name,
        [this, info](std::function<void(bool)> done) {
          provision_replicas(info, std::move(done));
        },
        [this, info] {
          // Committed — unless the file was deleted while the commit was in
          // flight, in which case the freshly installed replicas are
          // orphans to sweep up.
          const auto cur = lookup(info.name);
          if (cur.has_value() && cur->uuid == info.uuid) return;
          for (const net::NodeId ds : info.replicas) {
            transport_->call(node_, ds, Method::kDropReplica,
                             encode(DropReplicaReq{info.uuid}), nullptr);
          }
        },
        [this, info] {
          const auto cur = lookup(info.name);
          if (!cur.has_value() || cur->uuid != info.uuid) return;
          kv_.erase(file_key(info.name));
          uuid_to_name_.erase(info.uuid);
          for (const net::NodeId ds : info.replicas) {
            transport_->call(node_, ds, Method::kDropReplica,
                             encode(DropReplicaReq{info.uuid}), nullptr);
          }
        });
    return;
  }

  // Synchronous path: provision the replica on every chosen dataserver,
  // reply once all ack.
  auto shared_reply = std::make_shared<ResponseFn>(std::move(reply));
  provision_replicas(info, [this, info, shared_reply](bool ok) {
    if (!ok) {
      // Roll the mapping back; the create is all-or-nothing.
      kv_.erase(file_key(info.name));
      uuid_to_name_.erase(info.uuid);
      (*shared_reply)(Status::kUnavailable, {});
      return;
    }
    (*shared_reply)(Status::kOk, encode(FileInfoResp{info}));
  });
}

void Nameserver::handle_report_size(const Bytes& request, ResponseFn reply) {
  const auto req = decode<ReportSizeReq>(request);
  if (!req) {
    reply(Status::kBadRequest, {});
    return;
  }
  const auto it = uuid_to_name_.find(req->file);
  if (it == uuid_to_name_.end()) {
    reply(Status::kNotFound, {});
    return;
  }
  auto info = lookup(it->second);
  if (info.has_value() && req->size > info->size) {
    info->size = req->size;
    persist(*info);
  }
  reply(Status::kOk, {});
}

void Nameserver::handle_delete(const Bytes& request, ResponseFn reply) {
  const auto req = decode<NameReq>(request);
  if (!req) {
    reply(Status::kBadRequest, {});
    return;
  }
  if (!owns_path(req->name)) {
    ++wrong_shard_refusals_;
    reply(Status::kWrongShard, {});
    return;
  }
  const auto info = lookup(req->name);
  if (!info.has_value()) {
    reply(Status::kNotFound, {});
    return;
  }
  kv_.erase(file_key(req->name));
  uuid_to_name_.erase(info->uuid);
  for (const net::NodeId ds : info->replicas) {
    transport_->call(node_, ds, Method::kDropReplica,
                     encode(DropReplicaReq{info->uuid}), nullptr);
  }
  reply(Status::kOk, {});
}

// --- failure detection + recovery ------------------------------------------

void Nameserver::monitor_dataservers(sim::EventQueue& events,
                                     std::vector<net::NodeId> dataservers,
                                     sim::SimTime interval) {
  MAYFLOWER_ASSERT(interval > sim::SimTime{});
  stop_monitoring();
  monitor_events_ = &events;
  monitored_ = std::move(dataservers);
  probe_interval_ = interval;
  probe_event_ =
      monitor_events_->schedule_in(probe_interval_, [this] { probe_cycle(); });
}

void Nameserver::stop_monitoring() {
  if (monitor_events_ != nullptr && probe_event_.valid()) {
    monitor_events_->cancel(probe_event_);
  }
  probe_event_ = {};
  monitor_events_ = nullptr;
  monitored_.clear();
}

void Nameserver::probe_cycle() {
  // Fixed cadence: re-arm first so a slow repair never skews the schedule.
  probe_event_ =
      monitor_events_->schedule_in(probe_interval_, [this] { probe_cycle(); });
  if (!attached_) return;  // a crashed shard probes nobody
  auto pending = std::make_shared<std::size_t>(monitored_.size());
  for (const net::NodeId ds : monitored_) {
    ++probes_sent_;
    probes_metric_.inc();
    transport_->call(node_, ds, Method::kPing, Bytes{},
                     [this, ds, pending](Status status, Bytes) {
                       if (status == Status::kOk) {
                         dead_.erase(ds);
                       } else {
                         dead_.insert(ds);
                       }
                       if (--*pending == 0 && !dead_.empty()) repair_sweep();
                     });
  }
}

void Nameserver::repair_sweep() {
  // Snapshot the degraded set first: repairs mutate the KV asynchronously.
  std::vector<FileInfo> degraded;
  for (const auto& [key, value] : kv_.scan_prefix("f/")) {
    auto info = decode<FileInfo>(value);
    if (!info || rerepl_inflight_.count(info->uuid) != 0) continue;
    for (const net::NodeId rep : info->replicas) {
      if (!dataserver_alive(rep)) {
        degraded.push_back(std::move(*info));
        break;
      }
    }
  }
  for (const FileInfo& info : degraded) rereplicate_file(info);
}

net::NodeId Nameserver::pick_replacement(
    const std::vector<net::NodeId>& taken) {
  std::vector<int> taken_racks;
  for (const net::NodeId h : taken) taken_racks.push_back(tree_->rack_of(h));
  const auto eligible = [&](net::NodeId h, bool respect_racks) {
    if (!dataserver_alive(h)) return false;
    if (std::find(taken.begin(), taken.end(), h) != taken.end()) return false;
    return !respect_racks ||
           std::find(taken_racks.begin(), taken_racks.end(),
                     tree_->rack_of(h)) == taken_racks.end();
  };
  // Prefer a rack none of the survivors occupy (the create-time fault-domain
  // rule); relax only when the tree runs out of distinct racks.
  for (const bool respect_racks : {true, false}) {
    std::vector<net::NodeId> pool;
    for (const net::NodeId h : monitored_) {
      if (eligible(h, respect_racks)) pool.push_back(h);
    }
    if (!pool.empty()) return pool[rng_.next_below(pool.size())];
  }
  return net::kInvalidNode;
}

void Nameserver::rereplicate_file(const FileInfo& info) {
  std::vector<net::NodeId> survivors;
  for (const net::NodeId rep : info.replicas) {
    if (dataserver_alive(rep)) survivors.push_back(rep);
  }
  if (survivors.empty()) {
    if (lost_seen_.insert(info.uuid).second) {
      ++lost_files_;
      MAYFLOWER_LOG_WARN("nameserver: every replica of %s is dead",
                         info.name.c_str());
    }
    return;  // mapping kept: a restarted dataserver may bring the data back
  }
  lost_seen_.erase(info.uuid);

  // Survivors keep their order, so the first survivor is the new primary.
  std::vector<net::NodeId> new_list = survivors;
  while (new_list.size() < info.replicas.size()) {
    const net::NodeId pick = pick_replacement(new_list);
    if (pick == net::kInvalidNode) break;  // no eligible host: stay degraded
    new_list.push_back(pick);
  }
  if (new_list.size() == survivors.size()) {
    // Nowhere to copy to; at least stop pointing readers at dead hosts.
    auto cur = lookup(info.name);
    if (cur.has_value() && cur->replicas != survivors) {
      cur->replicas = survivors;
      persist(*cur);
      for (const net::NodeId s : survivors) {
        transport_->call(node_, s, Method::kUpdateReplicas,
                         encode(UpdateReplicasReq{info.uuid, survivors}),
                         nullptr);
      }
    }
    return;
  }

  ++rereplications_;
  rereplications_metric_.inc();
  rerepl_inflight_.insert(info.uuid);
  const net::NodeId source = survivors.front();
  auto pending = std::make_shared<std::size_t>(new_list.size() -
                                               survivors.size());
  auto failed = std::make_shared<bool>(false);
  for (std::size_t i = survivors.size(); i < new_list.size(); ++i) {
    ReplicateToReq req;
    req.file = info.uuid;
    req.target = new_list[i];
    req.replicas = new_list;
    transport_->call(
        node_, source, Method::kReplicateTo, encode(req),
        [this, uuid = info.uuid, name = info.name, new_list, survivors,
         pending, failed](Status status, Bytes) {
          if (status != Status::kOk) *failed = true;
          if (--*pending > 0) return;
          rerepl_inflight_.erase(uuid);
          // Any failed copy leaves the mapping untouched; the file still
          // lists a dead server, so the next probe cycle retries.
          if (*failed) return;
          auto cur = lookup(name);
          if (!cur.has_value()) return;  // deleted meanwhile
          cur->replicas = new_list;
          persist(*cur);
          // The copy source adopted the list in kReplicateTo and the targets
          // were installed with it; the other survivors still need it.
          for (std::size_t j = 1; j < survivors.size(); ++j) {
            transport_->call(node_, survivors[j], Method::kUpdateReplicas,
                             encode(UpdateReplicasReq{uuid, new_list}),
                             nullptr);
          }
        });
  }
}

void Nameserver::rebuild_from_dataservers(
    const std::vector<net::NodeId>& dataservers, std::function<void()> done) {
  // "Instead of reading from the possibly stale database, the nameserver
  // rebuilds the mappings by scanning the file metadata stored at the
  // dataservers" (§3.3.1).
  for (const auto& [key, value] : kv_.scan_prefix("f/")) {
    kv_.erase(key);
  }
  uuid_to_name_.clear();
  adopt_from_dataservers([](const std::string&) { return true; }, dataservers,
                         std::move(done));
}

void Nameserver::adopt_from_dataservers(
    std::function<bool(const std::string&)> filter,
    const std::vector<net::NodeId>& dataservers, std::function<void()> done) {
  auto pending = std::make_shared<std::size_t>(dataservers.size());
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
  auto shared_filter =
      std::make_shared<std::function<bool(const std::string&)>>(
          std::move(filter));
  for (const net::NodeId ds : dataservers) {
    transport_->call(
        node_, ds, Method::kScanFiles, Bytes{},
        [this, pending, shared_done, shared_filter](Status status,
                                                    Bytes payload) {
          if (status == Status::kOk) {
            const auto resp = decode<ScanFilesResp>(payload);
            if (resp) {
              for (const FileInfo& info : resp->files) {
                if (!(*shared_filter)(info.name)) continue;
                // A dataserver's local size may lag the primary's (relay in
                // flight at crash time): keep the largest observed size.
                const auto existing = lookup(info.name);
                if (!existing.has_value() || existing->size < info.size) {
                  if (!existing.has_value()) ++adopted_files_;
                  persist(info);
                }
              }
            }
          }
          if (--*pending == 0 && *shared_done) (*shared_done)();
        });
  }
}

}  // namespace mayflower::fs
