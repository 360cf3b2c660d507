// ShardMap: a static partition of the state plane by edge switch.
//
// The Flowserver's hot structures — the FlowStateTable and the NetworkView's
// believed-flow section — are partitioned by the EDGE SWITCH of a flow's
// source host, the same key the fabric's per-edge poll index already uses.
// A poll of edge E or the drop of a flow sourced under E then stales exactly
// one shard, so a snapshot rebuild after churn touches O(flows per edge)
// state instead of the whole cluster's.
//
// Shard 0 is a catch-all for nodes that hang off no edge switch (cores,
// aggs, hosts in degenerate hand-built topologies); each edge switch and the
// hosts attached to it share one dedicated shard. A default-constructed map
// has a single shard that holds every flow: the unsharded layout, refreshed
// through the same per-shard code as the edge-sharded one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "net/paths.hpp"
#include "net/topology.hpp"

namespace mayflower::net {

// The edge switches in the polling and sharding sense: every switch with an
// attached host, in node order. This also covers hand-built topologies that
// do not label tiers.
std::vector<NodeId> edge_switches(const Topology& topo);

class ShardMap {
 public:
  // One catch-all shard: the unsharded layout.
  ShardMap() = default;

  // One shard per edge switch (edge_switches(topo)) plus catch-all shard 0.
  // Hosts map to their edge switch's shard.
  static ShardMap by_edge_switch(const Topology& topo);

  std::uint32_t shard_count() const { return shard_count_; }

  // The shard owning `node` (0 when the map has one shard or the node is
  // outside the mapped topology).
  std::uint32_t shard_of_node(NodeId node) const {
    if (node >= shard_of_.size()) return 0;
    return shard_of_[node];
  }

  // A flow's shard: the shard of its source node (path.nodes.front()), i.e.
  // the edge switch its source host hangs off. Zero-hop paths shard by the
  // host itself, which maps to the same edge shard. A one-shard map accepts
  // node-less synthetic paths (unit tests build them); a multi-shard one
  // must be able to route.
  std::uint32_t shard_of_path(const Path& path) const {
    if (shard_count_ == 1) return 0;
    MAYFLOWER_ASSERT_MSG(!path.nodes.empty(), "path has no nodes");
    return shard_of_node(path.nodes.front());
  }

 private:
  std::uint32_t shard_count_ = 1;
  std::vector<std::uint32_t> shard_of_;  // by node id; empty => all shard 0
};

}  // namespace mayflower::net
