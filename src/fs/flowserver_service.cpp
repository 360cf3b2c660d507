#include "fs/flowserver_service.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "fs/planner.hpp"

namespace mayflower::fs {
namespace {

// What every plan request must satisfy before it reaches the planner, whose
// asserts would otherwise abort the controller: a finite, positive size and
// node ids inside the topology. A failure answers kBadRequest.
bool plannable(const net::Topology& topo, double bytes,
               const std::vector<net::NodeId>& nodes) {
  if (!std::isfinite(bytes) || bytes <= 0.0) return false;
  return std::all_of(nodes.begin(), nodes.end(), [&topo](net::NodeId n) {
    return n < topo.node_count();
  });
}

bool valid_read(const net::Topology& topo, const SelectReplicasReq& req) {
  return !req.replicas.empty() && req.client < topo.node_count() &&
         plannable(topo, req.bytes, req.replicas);
}

// A plannable chain also has at least one hop and distinct consecutive
// hosts.
bool valid_chain(const net::Topology& topo, const PlanWriteReq& req) {
  if (req.chain.size() < 2 || !plannable(topo, req.bytes, req.chain)) {
    return false;
  }
  for (std::size_t i = 0; i + 1 < req.chain.size(); ++i) {
    if (req.chain[i] == req.chain[i + 1]) return false;
  }
  return true;
}

}  // namespace

FlowserverService::FlowserverService(Transport& transport, net::NodeId node,
                                     flowserver::Flowserver& server)
    : transport_(&transport), node_(node), server_(&server) {
  transport_->bind(node_, [this](net::NodeId from, Method method,
                                 const Bytes& request, ResponseFn reply) {
    handle(from, method, request, std::move(reply));
  });
}

FlowserverService::~FlowserverService() { transport_->unbind(node_); }

void FlowserverService::handle(net::NodeId /*from*/, Method method,
                               const Bytes& request, ResponseFn reply) {
  const net::Topology& topo = server_->fabric().topology();
  switch (method) {
    case Method::kSelectReplicas: {
      Reader r(request);
      const SelectReplicasReq req = SelectReplicasReq::decode(r);
      if (!r.ok() || !valid_read(topo, req)) {
        reply(Status::kBadRequest, {});
        return;
      }
      ++requests_;
      SelectReplicasResp resp{
          server_->select_for_read(req.client, req.replicas, req.bytes)};
      if (resp.assignments.empty()) {
        // Failures cut off every listed replica; the client backs off and
        // refetches its metadata (the mapping may have moved meanwhile).
        reply(Status::kUnavailable, {});
        return;
      }
      reply(Status::kOk, resp.encode());
      return;
    }
    case Method::kSelectReplicasBatch: {
      Reader r(request);
      const SelectReplicasBatchReq req = SelectReplicasBatchReq::decode(r);
      if (!r.ok() || req.reads.empty()) {
        reply(Status::kBadRequest, {});
        return;
      }
      for (const SelectReplicasReq& one : req.reads) {
        if (!valid_read(topo, one)) {
          reply(Status::kBadRequest, {});
          return;
        }
      }
      requests_ += req.reads.size();
      // Enqueue every read, then drain: the whole batch is decided against
      // one view snapshot, with one bulk path install per drained batch.
      // Admission callbacks run inside enqueue/drain (never later), so the
      // response is complete before the reply goes out.
      SelectReplicasBatchResp resp;
      resp.plans.resize(req.reads.size());
      std::size_t delivered = 0;
      for (std::size_t i = 0; i < req.reads.size(); ++i) {
        const SelectReplicasReq& one = req.reads[i];
        server_->enqueue(
            {.client = one.client,
             .replicas = one.replicas,
             .bytes = one.bytes,
             .done = [&resp, &delivered,
                      i](std::vector<ReadAssignment> plan) {
               resp.plans[i].assignments = std::move(plan);
               ++delivered;
             }});
      }
      server_->drain();  // flush the final partial batch
      MAYFLOWER_ASSERT_MSG(delivered == req.reads.size(),
                           "batched admission left requests undecided");
      reply(Status::kOk, resp.encode());
      return;
    }
    case Method::kPlanWrite: {
      Reader r(request);
      const PlanWriteReq req = PlanWriteReq::decode(r);
      if (!r.ok() || !valid_chain(topo, req)) {
        reply(Status::kBadRequest, {});
        return;
      }
      ++requests_;
      SelectReplicasResp resp{server_->plan_write(req.chain, req.bytes)};
      if (resp.assignments.empty()) {
        // Even the first hop is unreachable; the client degrades to the
        // unplanned upload path and retries planning on its next append.
        reply(Status::kUnavailable, {});
        return;
      }
      reply(Status::kOk, resp.encode());
      return;
    }
    case Method::kFlowDropped: {
      Reader r(request);
      const FlowDroppedReq req = FlowDroppedReq::decode(r);
      if (r.ok()) server_->flow_dropped(req.cookie);
      reply(Status::kOk, {});
      return;
    }
    default:
      reply(Status::kBadRequest, {});
  }
}

void RpcPlanner::plan(net::NodeId client,
                      const std::vector<net::NodeId>& replicas, double bytes,
                      PlanFn done) {
  SelectReplicasReq req;
  req.client = client;
  req.replicas = replicas;
  req.bytes = bytes;
  transport_->call(
      client, controller_, Method::kSelectReplicas, req.encode(),
      [done = std::move(done)](Status status, Bytes payload) {
        if (status != Status::kOk) {
          done(status, {});
          return;
        }
        Reader r(payload);
        SelectReplicasResp resp = SelectReplicasResp::decode(r);
        if (!r.ok()) {
          done(Status::kBadRequest, {});
          return;
        }
        done(Status::kOk, std::move(resp.assignments));
      });
}

void RpcPlanner::plan_batch(net::NodeId client,
                            const std::vector<SelectReplicasReq>& reads,
                            BatchPlanFn done) {
  SelectReplicasBatchReq req;
  req.reads = reads;
  transport_->call(
      client, controller_, Method::kSelectReplicasBatch, req.encode(),
      [n = reads.size(), done = std::move(done)](Status status,
                                                 Bytes payload) {
        if (status != Status::kOk) {
          done(status, {});
          return;
        }
        Reader r(payload);
        SelectReplicasBatchResp resp = SelectReplicasBatchResp::decode(r);
        if (!r.ok() || resp.plans.size() != n) {
          done(Status::kBadRequest, {});
          return;
        }
        std::vector<std::vector<ReadAssignment>> plans;
        plans.reserve(resp.plans.size());
        for (SelectReplicasResp& one : resp.plans) {
          plans.push_back(std::move(one.assignments));
        }
        done(Status::kOk, std::move(plans));
      });
}

void RpcPlanner::plan_write(net::NodeId client,
                            const std::vector<net::NodeId>& chain,
                            double bytes, PlanFn done) {
  PlanWriteReq req;
  req.chain = chain;
  req.bytes = bytes;
  transport_->call(
      client, controller_, Method::kPlanWrite, req.encode(),
      [done = std::move(done)](Status status, Bytes payload) {
        if (status != Status::kOk) {
          done(status, {});
          return;
        }
        Reader r(payload);
        SelectReplicasResp resp = SelectReplicasResp::decode(r);
        if (!r.ok()) {
          done(Status::kBadRequest, {});
          return;
        }
        done(Status::kOk, std::move(resp.assignments));
      });
}

void RpcPlanner::flow_complete(net::NodeId client, sdn::Cookie cookie) {
  transport_->call(client, controller_, Method::kFlowDropped,
                   FlowDroppedReq{cookie}.encode(), nullptr);
}

}  // namespace mayflower::fs
