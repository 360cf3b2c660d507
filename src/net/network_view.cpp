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

NetworkView::Flow& NetworkView::insert(std::uint64_t key, const Path& path) {
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const bool fresh = slot_of_.emplace(key, slot).second;
  MAYFLOWER_ASSERT_MSG(fresh, "view already holds this flow key");
  Flow& f = slots_[slot];
  f.key = key;
  f.path = path;  // a reused slot's buffers take the copy
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
  return f;
}

void NetworkView::erase(std::uint32_t slot) {
  const Flow& f = slots_[slot];
  const std::uint64_t key = f.key;
  for (const LinkId l : f.path.links) {
    std::vector<OnLink>& entries = on_link_[l];
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const OnLink& e, std::uint64_t k) { return e.key < k; });
    MAYFLOWER_ASSERT_MSG(it != entries.end() && it->slot == slot,
                         "link list out of sync");
    entries.erase(it);
  }
  slot_of_.erase(key);
  free_slots_.push_back(slot);
}

std::uint32_t NetworkView::slot_of(std::uint64_t key) const {
  const auto it = slot_of_.find(key);
  return it == slot_of_.end() ? kNoSlot : it->second;
}

void NetworkView::upsert_flow(std::uint64_t key, const Path& path,
                              double size_bytes, double remaining_bytes,
                              double bw_bps) {
  MAYFLOWER_ASSERT_MSG(!tentative_, "upsert_flow inside a tentative scope");
  const std::uint32_t slot = slot_of(key);
  Flow* f = nullptr;
  if (slot != kNoSlot && same_path(slots_[slot].path, path)) {
    f = &slots_[slot];  // still tracked: keep the slot and its link entries
  } else {
    if (slot != kNoSlot) erase(slot);  // the cookie came back on a new path
    f = &insert(key, path);
  }
  f->size_bytes = size_bytes;
  f->remaining_bytes = remaining_bytes;
  f->bw_bps = bw_bps;
}

bool NetworkView::flows_equal(const NetworkView& other) const {
  if (flow_count() != other.flow_count()) return false;
  const std::size_t links = std::max(on_link_.size(), other.on_link_.size());
  for (std::size_t l = 0; l < links; ++l) {
    const std::size_t n = l < on_link_.size() ? on_link_[l].size() : 0;
    const std::size_t m =
        l < other.on_link_.size() ? other.on_link_[l].size() : 0;
    if (n != m) return false;
    for (std::size_t i = 0; i < n; ++i) {
      const OnLink& mine = on_link_[l][i];
      if (i > 0 && !(on_link_[l][i - 1].key < mine.key)) return false;
      if (mine.key != other.on_link_[l][i].key ||
          slots_[mine.slot].key != mine.key) {
        return false;
      }
    }
  }
  // Same keys on every link; now every key's fields, zero-hop flows too.
  for (const Flow& want : other.slots_) {
    const std::uint32_t theirs = other.slot_of(want.key);
    if (theirs == kNoSlot || &other.slots_[theirs] != &want) continue;  // free
    const Flow* got = find(want.key);
    if (got == nullptr || !same_path(got->path, want.path) ||
        got->size_bytes != want.size_bytes ||
        got->remaining_bytes != want.remaining_bytes ||
        got->bw_bps != want.bw_bps) {
      return false;
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
  return slot == kNoSlot ? nullptr : &slots_[slot];
}

const NetworkView::FlowStats* NetworkView::flow_stats(
    std::uint64_t key) const {
  const auto it = stats_.find(key);
  return it == stats_.end() ? nullptr : &it->second;
}

void NetworkView::add_flow(std::uint64_t key, const Path& path,
                           double size_bytes, double bw_bps) {
  MAYFLOWER_ASSERT(size_bytes > 0.0 && bw_bps > 0.0);
  Flow& f = insert(key, path);
  if (tentative_) undo_.push_back({key, true, 0.0});
  f.size_bytes = size_bytes;
  f.remaining_bytes = size_bytes;
  f.bw_bps = bw_bps;
}

void NetworkView::set_flow_bps(std::uint64_t key, double bw_bps) {
  const std::uint32_t slot = slot_of(key);
  MAYFLOWER_ASSERT_MSG(slot != kNoSlot, "set_flow_bps on unknown flow");
  MAYFLOWER_ASSERT(bw_bps > 0.0);
  Flow& f = slots_[slot];
  if (tentative_) undo_.push_back({key, false, f.bw_bps});
  f.bw_bps = bw_bps;
}

void NetworkView::resize_flow(std::uint64_t key, double new_size_bytes) {
  MAYFLOWER_ASSERT_MSG(!tentative_, "resize_flow inside a tentative scope");
  const std::uint32_t slot = slot_of(key);
  MAYFLOWER_ASSERT_MSG(slot != kNoSlot, "resize_flow on unknown flow");
  MAYFLOWER_ASSERT(new_size_bytes > 0.0);
  Flow& f = slots_[slot];
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
      slots_[slot].bw_bps = it->prior_bps;
    }
  }
  tentative_ = false;
  undo_.clear();
}

}  // namespace mayflower::net
