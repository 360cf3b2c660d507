// Read planning abstraction for the client library.
//
// The paper's Flowserver is an RPC service inside the SDN controller (§5):
// clients send (source/destination addresses, data size) and receive a list
// of replicas with the data size to fetch from each. RpcPlanner reproduces
// that hop — selections cost a real round trip — and is the filesystem's
// only way to the Flowserver, for read and write-chain plans alike.
// LocalSchemePlanner wraps the ECMP baselines' in-process policy::Scheme.
#pragma once

#include <functional>
#include <memory>

#include "fs/rpc/transport.hpp"
#include "policy/scheme.hpp"

namespace mayflower::fs {

class ReadPlanner {
 public:
  using PlanFn =
      std::function<void(Status, std::vector<ReadAssignment>)>;

  virtual ~ReadPlanner() = default;

  // Plans a read of `bytes` for `client`; delivers the subflow assignments
  // (paths pre-installed in the switches) via `done`.
  virtual void plan(net::NodeId client,
                    const std::vector<net::NodeId>& replicas, double bytes,
                    PlanFn done) = 0;

  // Completion/abort notification for one assignment's cookie.
  virtual void flow_complete(net::NodeId client, sdn::Cookie cookie) = 0;
};

// Adapter over an in-process scheme.
class LocalSchemePlanner final : public ReadPlanner {
 public:
  explicit LocalSchemePlanner(policy::Scheme& scheme) : scheme_(&scheme) {}

  void plan(net::NodeId client, const std::vector<net::NodeId>& replicas,
            double bytes, PlanFn done) override {
    scheme_->plan_read_async(
        client, replicas, bytes,
        [done = std::move(done)](std::vector<ReadAssignment> plan) {
          if (plan.empty()) {
            // No replica is reachable over a live path right now.
            done(Status::kUnavailable, {});
            return;
          }
          done(Status::kOk, std::move(plan));
        });
  }

  void flow_complete(net::NodeId /*client*/, sdn::Cookie cookie) override {
    scheme_->on_flow_complete(cookie);
  }

 private:
  policy::Scheme* scheme_;
};

// Remote planner: selection requests travel as RPCs to the Flowserver
// service on the controller node; drops are fire-and-forget. One instance
// serves both roles — read plans (kSelectReplicas) and write-chain plans
// (kPlanWrite) talk to the same controller.
class RpcPlanner final : public ReadPlanner {
 public:
  using BatchPlanFn = std::function<void(
      Status, std::vector<std::vector<ReadAssignment>>)>;

  RpcPlanner(Transport& transport, net::NodeId controller)
      : transport_(&transport), controller_(controller) {}

  void plan(net::NodeId client, const std::vector<net::NodeId>& replicas,
            double bytes, PlanFn done) override;

  // Ships `reads` as ONE kSelectReplicasBatch RPC: the Flowserver admits
  // the whole batch against a single view snapshot and plans[i] answers
  // reads[i] (empty = that read is unavailable right now).
  void plan_batch(net::NodeId client,
                  const std::vector<SelectReplicasReq>& reads,
                  BatchPlanFn done);

  // Plans the replication chain `chain` (writer first, then primary and
  // secondaries in relay order; consecutive hosts distinct) moving `bytes`.
  // The plan holds one assignment per routed hop in chain order (path
  // chain[i] -> chain[i+1], est_bw reporting the chain bottleneck); fewer
  // assignments than hops means the chain was truncated at the first
  // unreachable host and the tail degrades to the settled-relay contract.
  void plan_write(net::NodeId client, const std::vector<net::NodeId>& chain,
                  double bytes, PlanFn done);

  void flow_complete(net::NodeId client, sdn::Cookie cookie) override;

 private:
  Transport* transport_;
  net::NodeId controller_;
};

// Client-side replica policy composed with a downstream planner: used for
// "HDFS-Mayflower", where the filesystem picks the replica (rack-aware) and
// only the path is delegated to the Flowserver. The policy decides against
// this planner's own view of the fabric (liveness + capacities).
class ReplicaFilteredPlanner final : public ReadPlanner {
 public:
  ReplicaFilteredPlanner(policy::ReplicaPolicy& policy, ReadPlanner& base,
                         sdn::SdnFabric& fabric)
      : policy_(&policy), base_(&base), views_(fabric) {}

  void plan(net::NodeId client, const std::vector<net::NodeId>& replicas,
            double bytes, PlanFn done) override {
    const net::NodeId choice =
        policy_->choose(client, replicas, views_.view());
    base_->plan(client, {choice}, bytes, std::move(done));
  }

  void flow_complete(net::NodeId client, sdn::Cookie cookie) override {
    base_->flow_complete(client, cookie);
  }

 private:
  policy::ReplicaPolicy* policy_;
  ReadPlanner* base_;
  sdn::ViewBuilder views_;
};

}  // namespace mayflower::fs
