#include "fs/cluster.hpp"

#include <unistd.h>

#include <atomic>

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace mayflower::fs {
namespace {

// Unique scratch directories for KV stores across concurrently running
// processes/tests.
std::filesystem::path make_scratch_dir(std::uint64_t seed) {
  static std::atomic<std::uint64_t> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   strfmt("mayflower-cluster-%d-%llu-%llu",
                          static_cast<int>(::getpid()),
                          static_cast<unsigned long long>(seed),
                          static_cast<unsigned long long>(counter++));
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

const char* to_string(FsScheme scheme) {
  switch (scheme) {
    case FsScheme::kMayflower: return "mayflower";
    case FsScheme::kHdfsMayflower: return "hdfs-mayflower";
    case FsScheme::kHdfsEcmp: return "hdfs-ecmp";
    case FsScheme::kNearestEcmp: return "nearest-ecmp";
  }
  return "?";
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      tree_(net::build_three_tier(config_.fabric)),
      policy_rng_(splitmix64(config_.seed ^ 0xf51deULL)) {
  // Dedicated metadata/controller nodes: they answer control RPCs only and
  // move no bulk data, so they hang off the topology without data links.
  nameserver_node_ =
      tree_.topo.add_node(net::NodeKind::kHost, "nameserver");
  controller_node_ =
      tree_.topo.add_node(net::NodeKind::kHost, "controller");

  fabric_ = std::make_unique<sdn::SdnFabric>(events_, tree_.topo);
  fabric_->set_obs(config_.obs);
  config_.flowserver.obs = config_.obs;
  transport_ = std::make_unique<SimTransport>(events_, config_.rpc_latency);

  scratch_dir_ = make_scratch_dir(config_.seed);
  if (config_.nameserver.kv_dir.empty()) {
    config_.nameserver.kv_dir = scratch_dir_ / "nameserver-kv";
  }

  // Scheme wiring mirrors the harness (§6.7 prototype comparison).
  const bool wants_flowserver = config_.scheme == FsScheme::kMayflower ||
                                config_.scheme == FsScheme::kHdfsMayflower;
  if (wants_flowserver) {
    // The Flowserver is an RPC service on the controller node (§5): every
    // selection and chain plan costs a round trip.
    flow_server_ =
        std::make_unique<flowserver::Flowserver>(*fabric_, config_.flowserver);
    flow_server_->start();
    flowserver_service_ = std::make_unique<FlowserverService>(
        *transport_, controller_node_, *flow_server_);
    rpc_planner_ =
        std::make_unique<RpcPlanner>(*transport_, controller_node_);
  }
  switch (config_.scheme) {
    case FsScheme::kMayflower:
      // A second RpcPlanner instance, so rpc_planner_ stays available as the
      // clients' write-chain planner (both talk to the same service).
      planner_ = std::make_unique<RpcPlanner>(*transport_, controller_node_);
      break;
    case FsScheme::kHdfsMayflower:
      replica_policy_ = std::make_unique<policy::HdfsRackAwareReplica>(
          tree_.topo, policy_rng_);
      planner_ = std::make_unique<ReplicaFilteredPlanner>(
          *replica_policy_, *rpc_planner_, *fabric_);
      break;
    case FsScheme::kHdfsEcmp:
      replica_policy_ = std::make_unique<policy::HdfsRackAwareReplica>(
          tree_.topo, policy_rng_);
      scheme_ = std::make_unique<policy::ReplicaPlusEcmp>(
          *replica_policy_, *fabric_, "hdfs-ecmp", config_.seed);
      planner_ = std::make_unique<LocalSchemePlanner>(*scheme_);
      break;
    case FsScheme::kNearestEcmp:
      replica_policy_ =
          std::make_unique<policy::NearestReplica>(tree_.topo, policy_rng_);
      scheme_ = std::make_unique<policy::ReplicaPlusEcmp>(
          *replica_policy_, *fabric_, "nearest-ecmp", config_.seed);
      planner_ = std::make_unique<LocalSchemePlanner>(*scheme_);
      break;
  }

  // Write-path co-design wiring. Measured placement swaps the Flowserver's
  // write-target ranking for residual-headroom ranking; model keeps the
  // ranker null (the believed-share ranking); static wires no create-time
  // advisor at all.
  if (config_.write_placement == policy::WritePlacementKind::kMeasured &&
      flow_server_) {
    measured_paths_ = std::make_unique<net::PathCache>(tree_.topo);
    // Residual headroom needs real per-link rates: monitor every fabric
    // link's port counters (the believed-flow table alone is blind to
    // traffic the Flowserver never planned).
    std::vector<net::LinkId> all_links(tree_.topo.link_count());
    for (net::LinkId l = 0; l < all_links.size(); ++l) all_links[l] = l;
    link_rates_ = std::make_unique<sdn::LinkRateMonitor>(
        *fabric_, std::move(all_links), config_.flowserver.poll_interval);
    flow_server_->set_rate_monitor(link_rates_.get());
    measured_placement_ =
        std::make_unique<policy::MeasuredWritePlacement>(*measured_paths_);
    flow_server_->set_write_ranker(
        [this](net::NodeId writer, const std::vector<net::NodeId>& pool,
               const net::NetworkView& v) {
          return measured_placement_->rank(writer, pool, v);
        });
  }
  if (config_.write_placement != policy::WritePlacementKind::kStatic &&
      flow_server_) {
    config_.nameserver.placement_advisor =
        [this](net::NodeId writer, const std::vector<net::NodeId>& pool) {
          return flow_server_->best_write_target(writer, pool);
        };
  }
  if (config_.write_pipeline) write_planner_ = rpc_planner_.get();
  config_.nameserver.events = &events_;
  if (config_.meta_shards > 0) {
    // Sharded metadata plane: the "nameserver" node becomes the shard-map
    // coordinator, and each shard server hangs off the topology like it —
    // spread round-robin across pods so a pod loss never takes the whole
    // plane (fault-domain placement).
    meta::MetaPlaneConfig mp;
    mp.partition = config_.meta_partition;
    mp.shard_base = config_.nameserver;
    mp.shard_base.op_service_time = config_.meta_service_time;
    mp.shard_base.async.enabled = config_.meta_async;
    mp.dataservers = tree_.hosts;
    for (std::size_t i = 0; i < config_.meta_shards; ++i) {
      const int pod = static_cast<int>(i % config_.fabric.pods);
      meta_shard_nodes_.push_back(tree_.topo.add_node(
          net::NodeKind::kHost, strfmt("metashard%zu", i), pod));
      mp.domains.push_back(pod);
    }
    meta_plane_ = std::make_unique<meta::MetaPlane>(
        *transport_, events_, tree_, nameserver_node_, meta_shard_nodes_,
        std::move(mp), splitmix64(config_.seed ^ 0x9a3e5));
    meta_plane_->set_obs(config_.obs);
  } else {
    config_.nameserver.async.enabled = config_.meta_async;
    config_.nameserver.op_service_time = config_.meta_service_time;
    nameserver_ = std::make_unique<Nameserver>(
        *transport_, nameserver_node_, tree_, config_.nameserver,
        splitmix64(config_.seed ^ 0x9a3e5));
    nameserver_->set_obs(config_.obs);
  }

  dataservers_.reserve(tree_.hosts.size());
  for (std::size_t i = 0; i < tree_.hosts.size(); ++i) {
    DataserverConfig ds = config_.dataserver;
    ds.nameserver = nameserver_node_;
    if (meta_plane_) {
      // Route size reports to the shard owning the file's path.
      ds.nameserver_resolver = [this](const std::string& name) {
        return meta_plane_->owner_node_of(name);
      };
    }
    if (!ds.disk_root.empty()) {
      ds.disk_root = ds.disk_root / strfmt("ds%zu", i);
    }
    dataservers_.push_back(std::make_unique<Dataserver>(
        *transport_, *fabric_, tree_.hosts[i], ds,
        splitmix64(config_.seed ^ (0xd5 + i))));
    dataservers_.back()->set_obs(config_.obs);
  }

  if (config_.heartbeat_interval > sim::SimTime{}) {
    if (meta_plane_) {
      for (std::size_t i = 0; i < meta_plane_->server_count(); ++i) {
        meta_plane_->shard_server(i).monitor_dataservers(
            events_, tree_.hosts, config_.heartbeat_interval);
      }
      meta_plane_->start_monitoring(config_.heartbeat_interval);
    } else {
      nameserver_->monitor_dataservers(events_, tree_.hosts,
                                       config_.heartbeat_interval);
    }
  }
}

Cluster::~Cluster() {
  if (flow_server_) flow_server_->stop();
  // Servers unbind before the transport dies (member order guarantees the
  // reverse-destruction invariants; this is belt-and-braces for clarity).
  clients_.clear();
  routers_.clear();
  dataservers_.clear();
  nameserver_.reset();
  meta_plane_.reset();
  std::error_code ec;
  std::filesystem::remove_all(scratch_dir_, ec);
}

Dataserver& Cluster::dataserver_at(net::NodeId host) {
  for (const auto& ds : dataservers_) {
    if (ds->node() == host) return *ds;
  }
  MAYFLOWER_ASSERT_MSG(false, "no dataserver on that host");
  __builtin_unreachable();
}

fault::FaultInjector& Cluster::fault_injector() {
  if (!fault_injector_) {
    fault_injector_ = std::make_unique<fault::FaultInjector>(*fabric_, tree_);
    fault_injector_->set_metrics(
        config_.obs == nullptr ? nullptr : &config_.obs->metrics);
    fault_injector_->set_hooks(fault::FaultHooks{
        [this](net::NodeId host) { dataserver_at(host).detach(); },
        [this](net::NodeId host) {
          Dataserver& ds = dataserver_at(host);
          ds.restart();  // volatile state is gone; reload from disk
          ds.attach();
        }});
  }
  return *fault_injector_;
}

Client& Cluster::client_at(net::NodeId host) {
  for (const auto& c : clients_) {
    if (c->node() == host) return *c;
  }
  ClientConfig client_config = config_.client;
  if (write_planner_ != nullptr) client_config.write_pipeline = true;
  clients_.push_back(std::make_unique<Client>(*transport_, *fabric_,
                                              *planner_, host,
                                              nameserver_node_,
                                              client_config));
  clients_.back()->set_obs(config_.obs);
  if (write_planner_ != nullptr) {
    clients_.back()->set_write_planner(write_planner_);
  }
  if (meta_plane_) {
    meta::MetaRouterConfig router_config;
    router_config.coordinator = nameserver_node_;  // the plane coordinator
    routers_.push_back(std::make_unique<meta::MetaRouter>(
        *transport_, events_, host, router_config));
    routers_.back()->set_obs(config_.obs);
    clients_.back()->set_meta_router(routers_.back().get());
  }
  return *clients_.back();
}

}  // namespace mayflower::fs
