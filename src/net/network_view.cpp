#include "net/network_view.hpp"

#include "common/assert.hpp"

namespace mayflower::net {

void NetworkView::reset_links(const Topology& topo) {
  refresh_link_state(topo);
  flows_.clear();
  index_.clear();
  tentative_ = false;
  undo_.clear();
  for (auto& keys : shard_keys_) keys.clear();
  shard_stamp_.assign(shard_stamp_.size(), 0);
}

void NetworkView::refresh_link_state(const Topology& topo) {
  const std::size_t n = topo.link_count();
  capacity_bps_.resize(n);
  up_.assign(n, 1);
  tx_rate_bps_.assign(n, 0.0);
  for (LinkId l = 0; l < static_cast<LinkId>(n); ++l) {
    capacity_bps_[l] = topo.link(l).capacity_bps;
  }
  stats_.clear();
}

void NetworkView::set_shard_map(ShardMap map) {
  MAYFLOWER_ASSERT_MSG(flows_.empty(),
                       "install the shard map before loading flows");
  shard_map_ = std::move(map);
  shard_keys_.assign(shard_count(), {});
  shard_stamp_.assign(shard_count(), 0);
}

void NetworkView::unload_shard(std::uint32_t s) {
  MAYFLOWER_ASSERT_MSG(!tentative_, "unload_shard inside a tentative scope");
  MAYFLOWER_ASSERT(s < shard_keys_.size());
  std::vector<std::uint64_t>& keys = shard_keys_[s];
  if (keys.size() == flows_.size()) {
    // The shard holds every believed flow (always so with one shard):
    // empty the flow section wholesale instead of key by key.
    flows_.clear();
    index_.clear();
  } else {
    for (const std::uint64_t key : keys) {
      const auto it = flows_.find(key);
      MAYFLOWER_ASSERT_MSG(it != flows_.end(), "shard key list out of sync");
      index_.remove(key, it->second.path.links);
      flows_.erase(it);
    }
  }
  keys.clear();
}

void NetworkView::track_key_added(std::uint64_t key, const Path& path) {
  shard_keys_[shard_map_.shard_of_path(path)].push_back(key);
}

void NetworkView::track_key_removed(std::uint64_t key, const Path& path) {
  std::vector<std::uint64_t>& keys =
      shard_keys_[shard_map_.shard_of_path(path)];
  // Searched from the back: a rollback removes the shard's newest key.
  for (std::size_t i = keys.size(); i-- > 0;) {
    if (keys[i] == key) {
      keys[i] = keys.back();
      keys.pop_back();
      return;
    }
  }
  MAYFLOWER_ASSERT_MSG(false, "shard key list out of sync");
}

void NetworkView::mark_link_down(LinkId link) {
  MAYFLOWER_ASSERT(link < up_.size());
  up_[link] = 0;
}

void NetworkView::set_tx_rate(LinkId link, double bps) {
  MAYFLOWER_ASSERT(link < tx_rate_bps_.size());
  tx_rate_bps_[link] = bps;
}

void NetworkView::set_flow_stats(std::uint64_t key, FlowStats stats) {
  stats_[key] = std::move(stats);
}

void NetworkView::load_flow(Flow f) {
  MAYFLOWER_ASSERT_MSG(flows_.find(f.key) == flows_.end(),
                       "view already holds this flow key");
  const std::uint64_t key = f.key;
  const auto it = flows_.emplace(key, std::move(f)).first;
  index_.add(key, it->second.path.links);
  track_key_added(key, it->second.path);
}

bool NetworkView::link_up(LinkId link) const {
  MAYFLOWER_ASSERT(link < up_.size());
  return up_[link] != 0;
}

double NetworkView::capacity_bps(LinkId link) const {
  MAYFLOWER_ASSERT(link < capacity_bps_.size());
  return capacity_bps_[link];
}

double NetworkView::tx_rate_bps(LinkId link) const {
  MAYFLOWER_ASSERT(link < tx_rate_bps_.size());
  return tx_rate_bps_[link];
}

bool NetworkView::path_alive(const Path& path) const {
  for (const LinkId l : path.links) {
    if (!link_up(l)) return false;
  }
  return true;
}

const NetworkView::Flow* NetworkView::find(std::uint64_t key) const {
  const auto it = flows_.find(key);
  return it == flows_.end() ? nullptr : &it->second;
}

void NetworkView::append_flows_on_link(LinkId link,
                                       std::vector<const Flow*>& out) const {
  for (const LinkIndex::Key k : index_.on_link(link)) {
    out.push_back(&flows_.at(k));
  }
}

const NetworkView::FlowStats* NetworkView::flow_stats(
    std::uint64_t key) const {
  const auto it = stats_.find(key);
  return it == stats_.end() ? nullptr : &it->second;
}

void NetworkView::add_flow(std::uint64_t key, Path path, double size_bytes,
                           double bw_bps) {
  MAYFLOWER_ASSERT_MSG(flows_.find(key) == flows_.end(),
                       "view already holds this flow key");
  MAYFLOWER_ASSERT(size_bytes > 0.0 && bw_bps > 0.0);
  if (tentative_) undo_.push_back({key, true, 0.0});
  Flow f;
  f.key = key;
  f.path = std::move(path);
  f.size_bytes = size_bytes;
  f.remaining_bytes = size_bytes;
  f.bw_bps = bw_bps;
  const auto it = flows_.emplace(key, std::move(f)).first;
  index_.add(key, it->second.path.links);
  track_key_added(key, it->second.path);
}

void NetworkView::set_flow_bps(std::uint64_t key, double bw_bps) {
  const auto it = flows_.find(key);
  MAYFLOWER_ASSERT_MSG(it != flows_.end(), "set_flow_bps on unknown flow");
  MAYFLOWER_ASSERT(bw_bps > 0.0);
  if (tentative_) undo_.push_back({key, false, it->second.bw_bps});
  it->second.bw_bps = bw_bps;
}

void NetworkView::resize_flow(std::uint64_t key, double new_size_bytes) {
  MAYFLOWER_ASSERT_MSG(!tentative_, "resize_flow inside a tentative scope");
  const auto it = flows_.find(key);
  MAYFLOWER_ASSERT_MSG(it != flows_.end(), "resize_flow on unknown flow");
  MAYFLOWER_ASSERT(new_size_bytes > 0.0);
  it->second.size_bytes = new_size_bytes;
  it->second.remaining_bytes = new_size_bytes;
}

void NetworkView::drop_flow(std::uint64_t key) {
  MAYFLOWER_ASSERT_MSG(!tentative_, "drop_flow inside a tentative scope");
  const auto it = flows_.find(key);
  if (it == flows_.end()) return;
  index_.remove(key, it->second.path.links);
  track_key_removed(key, it->second.path);
  flows_.erase(it);
}

void NetworkView::begin_tentative() {
  MAYFLOWER_ASSERT_MSG(!tentative_, "tentative scopes do not nest");
  tentative_ = true;
  undo_.clear();
}

void NetworkView::rollback_tentative() {
  MAYFLOWER_ASSERT_MSG(tentative_, "no tentative scope open");
  // Newest first: a key's oldest entry replays last, so a share changed
  // twice ends at its pre-scope value, and each added key is the newest in
  // its shard's key list when it is removed.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    const auto cur = flows_.find(it->key);
    MAYFLOWER_ASSERT_MSG(cur != flows_.end(), "undo log out of sync");
    if (it->added) {
      index_.remove(it->key, cur->second.path.links);
      track_key_removed(it->key, cur->second.path);
      flows_.erase(cur);
    } else {
      cur->second.bw_bps = it->prior_bps;
    }
  }
  tentative_ = false;
  undo_.clear();
}

}  // namespace mayflower::net
