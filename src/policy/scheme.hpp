// Read-scheduling schemes: the five systems compared in §6 plus ablation
// variants, all behind one interface the experiment harness drives.
//
//   mayflower           — co-designed replica+path selection (the paper)
//   sinbad-r mayflower  — Sinbad-R replica, Mayflower path scheduler
//   sinbad-r ecmp       — Sinbad-R replica, ECMP hashing
//   nearest mayflower   — nearest replica, Mayflower path scheduler
//   nearest ecmp        — nearest replica, ECMP hashing
//   hdfs-*              — HDFS rack-aware replica selection (Fig. 8)
//
// Every scheme decides against a NetworkView snapshot. Flowserver-backed
// schemes ride the server's admission queue (plan_read_async enqueues; a
// decision batch drains against one view); the ECMP/Hedera baselines share
// one ExternalReplicaScheme planner that builds its view through a
// sdn::ViewBuilder.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "flowserver/flowserver.hpp"
#include "net/ecmp.hpp"
#include "policy/replica_policy.hpp"
#include "sdn/view_builder.hpp"

namespace mayflower::policy {

using flowserver::ReadAssignment;

class Scheme {
 public:
  using PlanCallback = flowserver::Flowserver::PlanCallback;

  virtual ~Scheme() = default;

  // Plans a read of `bytes` for `client`: installs paths and delivers the
  // subflows to start through `done`, possibly later (Flowserver-backed
  // schemes queue the request and decide a whole batch against one view
  // snapshot). The caller starts each via
  // fabric.start_flow(a.cookie, a.path, a.bytes, ...) and reports each
  // completion through on_flow_complete(). An empty plan means no listed
  // replica is reachable right now (never an assert — callers retry).
  virtual void plan_read_async(net::NodeId client,
                               const std::vector<net::NodeId>& replicas,
                               double bytes, PlanCallback done) = 0;

  virtual void on_flow_complete(sdn::Cookie cookie) = 0;

  virtual const std::string& name() const = 0;
};

// The full co-design: every plan is delegated to the Flowserver.
class MayflowerScheme final : public Scheme {
 public:
  explicit MayflowerScheme(flowserver::Flowserver& server,
                           std::string name = "mayflower")
      : server_(&server), name_(std::move(name)) {}

  void plan_read_async(net::NodeId client,
                       const std::vector<net::NodeId>& replicas, double bytes,
                       PlanCallback done) override {
    server_->enqueue({.client = client,
                      .replicas = replicas,
                      .bytes = bytes,
                      .done = std::move(done)});
  }

  void on_flow_complete(sdn::Cookie cookie) override {
    server_->flow_dropped(cookie);
  }

  const std::string& name() const override { return name_; }

 private:
  flowserver::Flowserver* server_;
  std::string name_;
};

// External replica policy + Mayflower's path scheduler ("Nearest Mayflower",
// "Sinbad-R Mayflower", "HDFS-Mayflower"): the Flowserver optimizes the path
// but the optimization space is limited to the pre-selected replica (§6.2).
// The replica choice runs INSIDE the Flowserver's decision batch, against
// the same view snapshot the path selection reads.
class ReplicaPlusMayflowerPath final : public Scheme {
 public:
  ReplicaPlusMayflowerPath(ReplicaPolicy& replica,
                           flowserver::Flowserver& server, std::string name)
      : replica_(&replica), server_(&server), name_(std::move(name)) {}

  void plan_read_async(net::NodeId client,
                       const std::vector<net::NodeId>& replicas, double bytes,
                       PlanCallback done) override {
    server_->enqueue({.client = client,
                      .replicas = replicas,
                      .bytes = bytes,
                      .chooser = chooser(),
                      .done = std::move(done)});
  }

  void on_flow_complete(sdn::Cookie cookie) override {
    server_->flow_dropped(cookie);
  }

  const std::string& name() const override { return name_; }

 private:
  flowserver::Flowserver::ReplicaChooser chooser() {
    return [this](net::NodeId client, const std::vector<net::NodeId>& live,
                  const net::NetworkView& view) {
      return replica_->choose(client, live, view);
    };
  }

  ReplicaPolicy* replica_;
  flowserver::Flowserver* server_;
  std::string name_;
};

// Shared planner for the non-Flowserver baselines (external replica policy +
// ECMP hashing over equal-cost shortest paths): one place holds the
// view-driven boilerplate — liveness filtering, replica choice, ECMP path
// hash, path install — and subclasses hook the planned assignment (Hedera
// registers it for re-placement).
class ExternalReplicaScheme : public Scheme {
 public:
  ExternalReplicaScheme(ReplicaPolicy& replica, sdn::SdnFabric& fabric,
                        std::string name, std::uint64_t ecmp_salt)
      : replica_(&replica),
        fabric_(&fabric),
        views_(fabric),
        paths_(fabric.topology()),
        hasher_(ecmp_salt),
        name_(std::move(name)) {}

  // Publishes NIC tx rates into the scheme's views (required when the
  // replica policy is utilization-driven, e.g. Sinbad-R).
  void set_rate_monitor(const sdn::LinkRateMonitor* monitor) {
    views_.set_rate_monitor(monitor);
  }

  // Plans inline: ECMP has no admission queue, so the plan is ready now.
  std::vector<ReadAssignment> plan_read(
      net::NodeId client, const std::vector<net::NodeId>& replicas,
      double bytes);

  void plan_read_async(net::NodeId client,
                       const std::vector<net::NodeId>& replicas, double bytes,
                       PlanCallback done) final {
    done(plan_read(client, replicas, bytes));
  }

  void on_flow_complete(sdn::Cookie /*cookie*/) override {}

  const std::string& name() const final { return name_; }

 protected:
  // Called once per planned assignment, before it is returned.
  virtual void on_planned(const ReadAssignment& assignment,
                          net::NodeId client) {
    (void)assignment;
    (void)client;
  }

 private:
  ReplicaPolicy* replica_;
  sdn::SdnFabric* fabric_;
  sdn::ViewBuilder views_;
  net::PathCache paths_;
  net::EcmpHasher hasher_;
  std::string name_;
};

// External replica policy + ECMP hashing across equal-cost shortest paths.
class ReplicaPlusEcmp final : public ExternalReplicaScheme {
 public:
  ReplicaPlusEcmp(ReplicaPolicy& replica, sdn::SdnFabric& fabric,
                  std::string name, std::uint64_t ecmp_salt = 0)
      : ExternalReplicaScheme(replica, fabric, std::move(name), ecmp_salt) {}
};

}  // namespace mayflower::policy
