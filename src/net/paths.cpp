#include "net/paths.hpp"

#include <algorithm>

namespace mayflower::net {
namespace {

// Extends `partial` along every link into a node one hop further from src
// that lies on some shortest path; every branch it takes reaches dst.
void extend_paths(const Topology& topo, const std::vector<int>& dist,
                  const std::vector<char>& on_path, NodeId dst, Path& partial,
                  std::vector<Path>& out) {
  const NodeId u = partial.nodes.back();
  if (u == dst) {
    out.push_back(partial);
    return;
  }
  for (const LinkId l : topo.out_links(u)) {
    const NodeId v = topo.link(l).to;
    if (dist[v] != dist[u] + 1 || on_path[v] == 0) continue;
    partial.links.push_back(l);
    partial.nodes.push_back(v);
    extend_paths(topo, dist, on_path, dst, partial, out);
    partial.links.pop_back();
    partial.nodes.pop_back();
  }
}

}  // namespace

bool Path::contains_link(LinkId l) const {
  return std::find(links.begin(), links.end(), l) != links.end();
}

std::vector<Path> shortest_paths(const Topology& topo, NodeId src, NodeId dst) {
  MAYFLOWER_ASSERT(src < topo.node_count() && dst < topo.node_count());
  std::vector<Path> out;
  if (src == dst) {
    Path p;
    p.nodes.push_back(src);
    out.push_back(std::move(p));
    return out;
  }
  // BFS distance labels from src, pruned at dist(dst).
  std::vector<int> dist(topo.node_count(), -1);
  dist[src] = 0;
  std::vector<NodeId> queue{src};
  int limit = -1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    if (limit >= 0 && dist[u] >= limit) break;
    for (const LinkId l : topo.out_links(u)) {
      const NodeId v = topo.link(l).to;
      if (dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      if (v == dst) limit = dist[v];
      queue.push_back(v);
    }
  }
  if (dist[dst] < 0) return out;  // unreachable

  // Backward walk from dst over in_links: u lies on some shortest path iff
  // it has a link into such a node v with dist[u] == dist[v] - 1. The walk
  // stops at src, below which nothing is labelled.
  std::vector<char> on_path(topo.node_count(), 0);
  on_path[dst] = 1;
  std::vector<NodeId> stack{dst};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (v == src) continue;
    for (const LinkId l : topo.in_links(v)) {
      const NodeId u = topo.link(l).from;
      if (dist[u] != dist[v] - 1 || on_path[u] != 0) continue;
      on_path[u] = 1;
      stack.push_back(u);
    }
  }

  Path partial;
  partial.nodes.push_back(src);
  extend_paths(topo, dist, on_path, dst, partial, out);
  return out;
}

const std::vector<Path>& PathCache::get(NodeId src, NodeId dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, shortest_paths(*topo_, src, dst)).first;
  }
  return it->second;
}

}  // namespace mayflower::net
