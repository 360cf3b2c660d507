// ClusterHarness: wires a complete Mayflower deployment over the simulated
// datacenter — fabric, SDN controller + Flowserver (or a baseline scheme),
// one dataserver per host, a nameserver, and on-demand clients. This is the
// "real filesystem" configuration used by the Figure 8 comparison and the
// examples.
#pragma once

#include <memory>
#include <vector>

#include "fault/injector.hpp"
#include "flowserver/flowserver.hpp"
#include "fs/client.hpp"
#include "fs/flowserver_service.hpp"
#include "fs/dataserver.hpp"
#include "fs/meta/plane.hpp"
#include "fs/meta/router.hpp"
#include "fs/nameserver.hpp"
#include "policy/scheme.hpp"
#include "policy/write_placement.hpp"

namespace mayflower::fs {

// Read-scheduling configurations the full filesystem can run under.
enum class FsScheme {
  kMayflower,       // co-designed replica + path selection (the paper)
  kHdfsMayflower,   // HDFS rack-aware replica + Mayflower path scheduling
  kHdfsEcmp,        // HDFS rack-aware replica + ECMP (the Fig. 8 baseline)
  kNearestEcmp,
};

const char* to_string(FsScheme scheme);

struct ClusterConfig {
  net::ThreeTierConfig fabric{};
  FsScheme scheme = FsScheme::kMayflower;
  flowserver::FlowserverConfig flowserver{};
  NameserverConfig nameserver{};    // kv_dir auto-provisioned when empty
  DataserverConfig dataserver{};    // disk_root empty => in-memory servers
  ClientConfig client{};
  sim::SimTime rpc_latency = sim::SimTime::from_micros(200);
  std::uint64_t seed = 1;
  // Extensions beyond the paper's evaluated system (both default off, as in
  // the paper). Write placement: kStatic (default) is the nameserver's
  // random constrained spread; kModel makes the create-time decision
  // collaboratively with the Flowserver, ranking targets by believed
  // max-min share; kMeasured ranks by measured residual headroom
  // (Sinbad-style). kModel and kMeasured need a Flowserver scheme.
  policy::WritePlacementKind write_placement =
      policy::WritePlacementKind::kStatic;
  // Flowserver-planned pipelined chain replication for appends: clients
  // plan writer -> primary -> secondaries as one kPlanWrite chain and the
  // primary pipelines the relay instead of fanning out. Off = the paper's
  // ECMP upload + primary fan-out.
  bool write_pipeline = false;
  // When true (default, matching the prototype in §5) the Flowserver is an
  // RPC service on a controller node and every selection costs a round
  // trip; when false clients call it in-process (pure-simulation shortcut).
  bool flowserver_over_rpc = true;
  // Nameserver liveness probing cadence; zero (default) disables monitoring
  // and with it failure detection + re-replication. Under a sharded
  // metadata plane the same cadence also drives the coordinator's shard
  // liveness probing and failover.
  sim::SimTime heartbeat_interval{};
  // --- sharded metadata plane (src/fs/meta/) ----------------------------
  // Number of nameserver shards; 0 (default) keeps the classic single
  // nameserver and changes nothing else. Shard servers are spread across
  // pods (fault domains) round-robin.
  std::size_t meta_shards = 0;
  meta::Partition meta_partition = meta::Partition::kHash;
  // AsyncFS-style background commit of create-time replica provisioning.
  bool meta_async = false;
  // Modeled per-RPC metadata service time on every shard (0 = free).
  sim::SimTime meta_service_time{};
  // Optional observability hub (not owned): wired through the fabric,
  // Flowserver, nameserver, clients and fault injector. Null measures
  // nothing.
  obs::Observability* obs = nullptr;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::EventQueue& events() { return events_; }
  const net::ThreeTier& tree() const { return tree_; }
  sdn::SdnFabric& fabric() { return *fabric_; }
  Transport& transport() { return *transport_; }
  // The single nameserver — or, under a sharded metadata plane, shard
  // server 0 (tests that inspect mappings should go through the plane).
  Nameserver& nameserver() {
    return meta_plane_ ? meta_plane_->shard_server(0) : *nameserver_;
  }
  // Null unless meta_shards > 0.
  meta::MetaPlane* meta_plane() { return meta_plane_.get(); }
  // Per-client shard routers (empty unless meta_shards > 0); telemetry.
  const std::vector<std::unique_ptr<meta::MetaRouter>>& meta_routers() const {
    return routers_;
  }
  Dataserver& dataserver_at(net::NodeId host);
  flowserver::Flowserver* flow_server() { return flow_server_.get(); }
  FlowserverService* flowserver_service() { return flowserver_service_.get(); }

  // Client bound to `host` (created on first use, cached afterwards).
  Client& client_at(net::NodeId host);

  // Fault injector wired to this cluster (created on first use). Crashing a
  // dataserver detaches its RPC server and downs its access links; restart
  // re-attaches it and reloads persistent state.
  fault::FaultInjector& fault_injector();

  // Drains the event queue (optionally up to a deadline).
  void run() { events_.run(); }
  void run_until(sim::SimTime t) { events_.run_until(t); }

  const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
  sim::EventQueue events_;
  net::ThreeTier tree_;
  net::NodeId nameserver_node_ = net::kInvalidNode;
  net::NodeId controller_node_ = net::kInvalidNode;
  std::unique_ptr<sdn::SdnFabric> fabric_;
  std::unique_ptr<SimTransport> transport_;
  Rng policy_rng_;
  std::unique_ptr<flowserver::Flowserver> flow_server_;
  std::unique_ptr<FlowserverService> flowserver_service_;
  std::unique_ptr<policy::ReplicaPolicy> replica_policy_;
  std::unique_ptr<policy::Scheme> scheme_;
  std::unique_ptr<RpcPlanner> rpc_planner_;
  std::unique_ptr<ReadPlanner> planner_;
  // Measured write placement (write_placement == kMeasured): its own path
  // cache over the shared topology, ranking against the Flowserver's view —
  // whose tx rates come from a port-counter monitor over every fabric link,
  // so the ranking sees ALL traffic, not just believed Flowserver flows.
  std::unique_ptr<net::PathCache> measured_paths_;
  std::unique_ptr<sdn::LinkRateMonitor> link_rates_;
  std::unique_ptr<policy::MeasuredWritePlacement> measured_placement_;
  // Chain planner handed to clients when write_pipeline is on: the
  // RpcPlanner above in RPC mode, an in-process LocalWritePlanner otherwise.
  std::unique_ptr<LocalWritePlanner> local_write_planner_;
  WritePlanner* write_planner_ = nullptr;
  std::unique_ptr<Nameserver> nameserver_;
  std::vector<net::NodeId> meta_shard_nodes_;
  std::unique_ptr<meta::MetaPlane> meta_plane_;
  std::vector<std::unique_ptr<Dataserver>> dataservers_;  // by host order
  // Declared before clients_: each client holds a raw pointer to its router.
  std::vector<std::unique_ptr<meta::MetaRouter>> routers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::filesystem::path scratch_dir_;  // owned temp dir (removed in dtor)
};

}  // namespace mayflower::fs
