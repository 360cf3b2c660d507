#include "net/shard_map.hpp"

namespace mayflower::net {

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

ShardMap ShardMap::by_edge_switch(const Topology& topo) {
  ShardMap map;
  map.shard_of_.assign(topo.node_count(), 0);

  // Pass 1: every edge switch gets its own shard (ids 1..E in node order, so
  // the assignment is deterministic).
  std::uint32_t next = 1;
  for (const NodeId edge : edge_switches(topo)) map.shard_of_[edge] = next++;
  map.shard_count_ = next;

  // Pass 2: hosts join their edge switch's shard. A host's edge is the
  // first switch its uplinks reach that owns a shard (exactly one in every
  // tree/fat-tree this repo builds).
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind != NodeKind::kHost) continue;
    for (const LinkId l : topo.out_links(n)) {
      const std::uint32_t s = map.shard_of_[topo.link(l).to];
      if (s != 0) {
        map.shard_of_[n] = s;
        break;
      }
    }
  }
  return map;
}

}  // namespace mayflower::net
