#include "net/topology.hpp"

#include <deque>

namespace mayflower::net {
namespace {

std::uint64_t pair_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kHost: return "host";
    case NodeKind::kEdgeSwitch: return "edge";
    case NodeKind::kAggSwitch: return "agg";
    case NodeKind::kCoreSwitch: return "core";
  }
  return "?";
}

NodeId Topology::add_node(NodeKind kind, std::string name, std::int32_t pod,
                          std::int32_t rack) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{kind, std::move(name), pod, rack});
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

LinkId Topology::add_link(NodeId from, NodeId to, double capacity_bps) {
  MAYFLOWER_ASSERT(from < nodes_.size() && to < nodes_.size());
  MAYFLOWER_ASSERT_MSG(from != to, "self-links are not allowed");
  MAYFLOWER_ASSERT_MSG(capacity_bps > 0.0, "link capacity must be positive");
  MAYFLOWER_ASSERT_MSG(find_link(from, to) == kInvalidLink,
                       "duplicate directed link");
  const auto id = static_cast<LinkId>(links_.size());
  Link l;
  l.from = from;
  l.to = to;
  l.capacity_bps = capacity_bps;
  l.name = nodes_[from].name + "->" + nodes_[to].name;
  links_.push_back(std::move(l));
  out_[from].push_back(id);
  in_[to].push_back(id);
  link_index_[pair_key(from, to)] = id;
  return id;
}

LinkId Topology::add_duplex(NodeId a, NodeId b, double capacity_bps) {
  const LinkId forward = add_link(a, b, capacity_bps);
  add_link(b, a, capacity_bps);
  return forward;
}

LinkId Topology::find_link(NodeId from, NodeId to) const {
  const auto it = link_index_.find(pair_key(from, to));
  return it == link_index_.end() ? kInvalidLink : it->second;
}

std::vector<NodeId> Topology::hosts() const {
  return nodes_of_kind(NodeKind::kHost);
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == kind) out.push_back(id);
  }
  return out;
}

int Topology::hop_distance(NodeId from, NodeId to) const {
  MAYFLOWER_ASSERT(from < nodes_.size() && to < nodes_.size());
  if (from == to) return 0;
  std::vector<int> dist(nodes_.size(), -1);
  dist[from] = 0;
  std::deque<NodeId> queue{from};
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const LinkId l : out_[u]) {
      const NodeId v = links_[l].to;
      if (dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      if (v == to) return dist[v];
      queue.push_back(v);
    }
  }
  return -1;
}

std::vector<NodeId> edge_switches(const Topology& topo) {
  std::vector<NodeId> edges;
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind == NodeKind::kHost) continue;
    for (const LinkId l : topo.in_links(n)) {
      if (topo.node(topo.link(l).from).kind == NodeKind::kHost) {
        edges.push_back(n);
        break;
      }
    }
  }
  return edges;
}

}  // namespace mayflower::net
