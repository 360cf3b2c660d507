#include "net/network_view.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mayflower::net {

namespace {

bool same_path(const Path& a, const Path& b) {
  return a.links == b.links && a.nodes == b.nodes;
}

}  // namespace

void NetworkView::reset_links(const Topology& topo) {
  refresh_link_state(topo);
  slots_.clear();
  free_slots_.clear();
  slot_of_.clear();
  on_link_.resize(topo.link_count());
  for (std::vector<OnLink>& entries : on_link_) entries.clear();
  tentative_ = false;
  undo_.clear();
  syncing_ = kNoSync;
  for (auto& slots : shard_slots_) slots.clear();
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
  MAYFLOWER_ASSERT_MSG(slot_of_.empty(),
                       "install the shard map before loading flows");
  shard_map_ = std::move(map);
  shard_slots_.assign(shard_count(), {});
  shard_stamp_.assign(shard_count(), 0);
}

NetworkView::Slot& NetworkView::insert(std::uint64_t key, const Path& path) {
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const bool fresh = slot_of_.emplace(key, slot).second;
  MAYFLOWER_ASSERT_MSG(fresh, "view already holds this flow key");
  Slot& s = slots_[slot];
  s.flow.key = key;
  s.flow.path = path;  // a reused slot's buffers take the copy
  s.synced = 0;
  for (const LinkId l : path.links) {
    if (l >= on_link_.size()) on_link_.resize(static_cast<std::size_t>(l) + 1);
    std::vector<OnLink>& entries = on_link_[l];
    if (entries.empty() || entries.back().key < key) {
      entries.push_back({key, slot});  // monotone cookies: the common case
      continue;
    }
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const OnLink& e, std::uint64_t k) { return e.key < k; });
    entries.insert(it, {key, slot});
  }
  s.shard = shard_map_.shard_of_path(path);
  std::vector<std::uint32_t>& shard = shard_slots_[s.shard];
  s.shard_pos = static_cast<std::uint32_t>(shard.size());
  shard.push_back(slot);
  return s;
}

void NetworkView::erase(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint64_t key = s.flow.key;
  for (const LinkId l : s.flow.path.links) {
    std::vector<OnLink>& entries = on_link_[l];
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const OnLink& e, std::uint64_t k) { return e.key < k; });
    MAYFLOWER_ASSERT_MSG(it != entries.end() && it->slot == slot,
                         "link list out of sync");
    entries.erase(it);
  }
  std::vector<std::uint32_t>& shard = shard_slots_[s.shard];
  MAYFLOWER_ASSERT_MSG(shard[s.shard_pos] == slot, "shard list out of sync");
  shard[s.shard_pos] = shard.back();
  slots_[shard.back()].shard_pos = s.shard_pos;
  shard.pop_back();
  slot_of_.erase(key);
  free_slots_.push_back(slot);
}

std::uint32_t NetworkView::slot_of(std::uint64_t key) const {
  const auto it = slot_of_.find(key);
  return it == slot_of_.end() ? kNoSlot : it->second;
}

void NetworkView::begin_sync(std::uint32_t s) {
  MAYFLOWER_ASSERT_MSG(!tentative_, "shard sync inside a tentative scope");
  MAYFLOWER_ASSERT_MSG(syncing_ == kNoSync, "shard syncs do not nest");
  MAYFLOWER_ASSERT(s < shard_slots_.size());
  syncing_ = s;
  ++sync_pass_;
}

void NetworkView::sync_flow(std::uint64_t key, const Path& path,
                            double size_bytes, double remaining_bytes,
                            double bw_bps) {
  MAYFLOWER_ASSERT_MSG(syncing_ != kNoSync, "sync_flow outside a sync");
  const std::uint32_t slot = slot_of(key);
  Slot* s = nullptr;
  if (slot != kNoSlot && same_path(slots_[slot].flow.path, path)) {
    s = &slots_[slot];  // still tracked: keep the slot and its link entries
  } else {
    if (slot != kNoSlot) erase(slot);  // the cookie came back on a new path
    s = &insert(key, path);
  }
  MAYFLOWER_ASSERT_MSG(s->shard == syncing_, "flow outside the synced shard");
  s->flow.size_bytes = size_bytes;
  s->flow.remaining_bytes = remaining_bytes;
  s->flow.bw_bps = bw_bps;
  s->synced = sync_pass_;
}

void NetworkView::end_sync() {
  MAYFLOWER_ASSERT_MSG(syncing_ != kNoSync, "end_sync outside a sync");
  const std::vector<std::uint32_t>& shard = shard_slots_[syncing_];
  // Back to front: erase() moves the list's last slot, already visited,
  // into the hole.
  for (std::size_t i = shard.size(); i-- > 0;) {
    if (slots_[shard[i]].synced != sync_pass_) erase(shard[i]);
  }
  syncing_ = kNoSync;
}

bool NetworkView::shard_equals(const NetworkView& other,
                               std::uint32_t s) const {
  if (s >= shard_slots_.size() || s >= other.shard_slots_.size() ||
      shard_flow_count(s) != other.shard_flow_count(s)) {
    return false;
  }
  std::vector<const Flow*> mine;
  std::vector<const Flow*> theirs;
  for (const std::uint32_t slot : other.shard_slots_[s]) {
    const Flow& want = other.slots_[slot].flow;
    const Flow* got = find(want.key);
    if (got == nullptr || slots_[slot_of(want.key)].shard != s ||
        !same_path(got->path, want.path) ||
        got->size_bytes != want.size_bytes ||
        got->remaining_bytes != want.remaining_bytes ||
        got->bw_bps != want.bw_bps) {
      return false;
    }
    for (const LinkId l : want.path.links) {
      mine.clear();
      theirs.clear();
      append_flows_on_link(l, mine);
      other.append_flows_on_link(l, theirs);
      std::size_t next = 0;  // the next of `theirs` shard s must list
      for (std::size_t i = 0; i < mine.size(); ++i) {
        if (i > 0 && !(mine[i - 1]->key < mine[i]->key)) return false;
        if (slots_[slot_of(mine[i]->key)].shard != s) continue;
        if (next == theirs.size() || mine[i]->key != theirs[next]->key) {
          return false;
        }
        ++next;
      }
      if (next != theirs.size()) return false;
    }
  }
  return true;
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

double NetworkView::capacity_bps(LinkId link) const {
  MAYFLOWER_ASSERT(link < capacity_bps_.size());
  return capacity_bps_[link];
}

double NetworkView::tx_rate_bps(LinkId link) const {
  MAYFLOWER_ASSERT(link < tx_rate_bps_.size());
  return tx_rate_bps_[link];
}

const NetworkView::Flow* NetworkView::find(std::uint64_t key) const {
  const std::uint32_t slot = slot_of(key);
  return slot == kNoSlot ? nullptr : &slots_[slot].flow;
}

const NetworkView::FlowStats* NetworkView::flow_stats(
    std::uint64_t key) const {
  const auto it = stats_.find(key);
  return it == stats_.end() ? nullptr : &it->second;
}

void NetworkView::add_flow(std::uint64_t key, const Path& path,
                           double size_bytes, double bw_bps) {
  MAYFLOWER_ASSERT_MSG(syncing_ == kNoSync, "add_flow inside a shard sync");
  MAYFLOWER_ASSERT(size_bytes > 0.0 && bw_bps > 0.0);
  Slot& s = insert(key, path);
  if (tentative_) undo_.push_back({key, true, 0.0});
  s.flow.size_bytes = size_bytes;
  s.flow.remaining_bytes = size_bytes;
  s.flow.bw_bps = bw_bps;
}

void NetworkView::set_flow_bps(std::uint64_t key, double bw_bps) {
  const std::uint32_t slot = slot_of(key);
  MAYFLOWER_ASSERT_MSG(slot != kNoSlot, "set_flow_bps on unknown flow");
  MAYFLOWER_ASSERT(bw_bps > 0.0);
  Flow& f = slots_[slot].flow;
  if (tentative_) undo_.push_back({key, false, f.bw_bps});
  f.bw_bps = bw_bps;
}

void NetworkView::resize_flow(std::uint64_t key, double new_size_bytes) {
  MAYFLOWER_ASSERT_MSG(!tentative_, "resize_flow inside a tentative scope");
  const std::uint32_t slot = slot_of(key);
  MAYFLOWER_ASSERT_MSG(slot != kNoSlot, "resize_flow on unknown flow");
  MAYFLOWER_ASSERT(new_size_bytes > 0.0);
  Flow& f = slots_[slot].flow;
  f.size_bytes = new_size_bytes;
  f.remaining_bytes = new_size_bytes;
}

void NetworkView::drop_flow(std::uint64_t key) {
  MAYFLOWER_ASSERT_MSG(!tentative_, "drop_flow inside a tentative scope");
  const std::uint32_t slot = slot_of(key);
  if (slot != kNoSlot) erase(slot);
}

void NetworkView::begin_tentative() {
  MAYFLOWER_ASSERT_MSG(!tentative_, "tentative scopes do not nest");
  tentative_ = true;
  undo_.clear();
}

void NetworkView::rollback_tentative() {
  MAYFLOWER_ASSERT_MSG(tentative_, "no tentative scope open");
  // Newest first: a key's oldest entry replays last, so a share changed
  // twice ends at its pre-scope value.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    const std::uint32_t slot = slot_of(it->key);
    MAYFLOWER_ASSERT_MSG(slot != kNoSlot, "undo log out of sync");
    if (it->added) {
      erase(slot);
    } else {
      slots_[slot].flow.bw_bps = it->prior_bps;
    }
  }
  tentative_ = false;
  undo_.clear();
}

}  // namespace mayflower::net
