// Datacenter topology graph.
//
// Nodes are hosts and switches; links are *directed* (full-duplex cabling is
// modelled as two independent directed links), because read and write traffic
// contend separately per direction — the distinction Sinbad-R relies on
// (§6.2: utilization of links "facing towards the core layer").
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"

namespace mayflower::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr LinkId kInvalidLink = std::numeric_limits<LinkId>::max();

enum class NodeKind : std::uint8_t { kHost, kEdgeSwitch, kAggSwitch, kCoreSwitch };

const char* to_string(NodeKind kind);

struct Node {
  NodeKind kind = NodeKind::kHost;
  std::string name;
  // Locality coordinates; -1 where not applicable (e.g. pod of a core switch).
  std::int32_t pod = -1;
  std::int32_t rack = -1;  // global rack index
};

struct Link {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double capacity_bps = 0.0;  // bytes per second
  std::string name;
};

class Topology {
 public:
  NodeId add_node(NodeKind kind, std::string name, std::int32_t pod = -1,
                  std::int32_t rack = -1);

  // Adds a directed link; returns its id.
  LinkId add_link(NodeId from, NodeId to, double capacity_bytes_per_sec);

  // Adds both directions with equal capacity; returns the forward link id.
  LinkId add_duplex(NodeId a, NodeId b, double capacity_bytes_per_sec);

  const Node& node(NodeId id) const {
    MAYFLOWER_ASSERT(id < nodes_.size());
    return nodes_[id];
  }
  const Link& link(LinkId id) const {
    MAYFLOWER_ASSERT(id < links_.size());
    return links_[id];
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }

  // Outgoing links of `from`.
  const std::vector<LinkId>& out_links(NodeId from) const {
    MAYFLOWER_ASSERT(from < out_.size());
    return out_[from];
  }
  const std::vector<LinkId>& in_links(NodeId to) const {
    MAYFLOWER_ASSERT(to < in_.size());
    return in_[to];
  }

  // Directed link from->to, or kInvalidLink.
  LinkId find_link(NodeId from, NodeId to) const;

  std::vector<NodeId> hosts() const;
  std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

  bool same_rack(NodeId a, NodeId b) const {
    return node(a).rack >= 0 && node(a).rack == node(b).rack;
  }
  bool same_pod(NodeId a, NodeId b) const {
    return node(a).pod >= 0 && node(a).pod == node(b).pod;
  }

  // Hop distance (number of links) along shortest path, or -1 if unreachable.
  int hop_distance(NodeId from, NodeId to) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
  std::vector<std::vector<LinkId>> in_;
  std::unordered_map<std::uint64_t, LinkId> link_index_;  // (from<<32|to)
};

// The edge switches in the polling sense: every switch with an attached
// host, in node order. This also covers hand-built topologies that do not
// label tiers.
std::vector<NodeId> edge_switches(const Topology& topo);

}  // namespace mayflower::net
