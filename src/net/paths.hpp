// Equal-cost shortest path enumeration.
//
// Mayflower restricts replica-path selection to the shortest paths between
// endpoints (§4.2), which in a 3-tier tree have lengths 2, 4 or 6 links.
// Enumeration is generic over any Topology, so the hand-built Figure-2
// topology and property-test topologies work unchanged. A BFS from src
// labels distances up to dist(dst); one backward walk from dst over
// in_links then marks the nodes on some shortest path (u is marked when it
// links into a marked v with dist[u] == dist[v] - 1); a DFS from src over
// tightening links enters only marked nodes, so every branch reaches dst
// and the work is proportional to the paths returned, not to the dead ends
// inside dist(dst). The DFS visits out_links in order, which fixes the
// paths' order. Results are memoized per (src, dst).
#pragma once

#include <unordered_map>
#include <vector>

#include "net/topology.hpp"

namespace mayflower::net {

struct Path {
  std::vector<LinkId> links;
  std::vector<NodeId> nodes;  // links.size() + 1 entries, front=src, back=dst

  std::size_t length() const { return links.size(); }
  bool contains_link(LinkId l) const;
};

// All distinct shortest paths from src to dst (directed). Empty if
// unreachable; a single zero-length path if src == dst.
std::vector<Path> shortest_paths(const Topology& topo, NodeId src, NodeId dst);

// Returned references stay valid for the cache's lifetime (unordered_map is
// node-based; rehash moves nothing).
class PathCache {
 public:
  explicit PathCache(const Topology& topo) : topo_(&topo) {}

  const std::vector<Path>& get(NodeId src, NodeId dst);
  const Topology& topology() const { return *topo_; }

 private:
  const Topology* topo_;
  std::unordered_map<std::uint64_t, std::vector<Path>> cache_;
};

}  // namespace mayflower::net
