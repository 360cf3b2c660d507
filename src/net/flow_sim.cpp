#include "net/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.hpp"

namespace mayflower::net {
namespace {

// A flow is complete when its remaining bytes are below this. With ns event
// rounding, residuals are < rate * 1ns; 1e-3 bytes covers any realistic rate.
constexpr double kCompleteEps = 1e-3;

// Rate-comparison slack for bottleneck certificates, matched to the solver's
// freeze tolerance (relative, with a tiny absolute floor for rates near 0).
double rate_slack(double rate) { return kMaxMinEps * rate + 1e-12; }

}  // namespace

FlowSim::FlowSim(sim::EventQueue& events, const Topology& topo, Config config)
    : events_(&events), topo_(&topo), config_(config) {
  link_capacity_.reserve(topo.link_count());
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    link_capacity_.push_back(topo.link(l).capacity_bps);
  }
  base_capacity_ = link_capacity_;
  capacity_factor_.assign(topo.link_count(), 1.0);
  link_up_.assign(topo.link_count(), 1);
  link_bytes_.assign(topo.link_count(), 0.0);
  link_slots_.resize(topo.link_count());
  scratch_capacity_.assign(topo.link_count(), 0.0);
  region_stamp_.assign(topo.link_count(), 0);
  round_load_.assign(topo.link_count(), 0.0);
  round_max_rate_.assign(topo.link_count(), 0.0);
  round_stamp_.assign(topo.link_count(), 0);
  last_advance_ = events.now();
}

bool FlowSim::path_alive(const Path& path) const {
  for (const LinkId l : path.links) {
    if (!link_up(l)) return false;
  }
  return true;
}

FlowSim::Slot FlowSim::claim_slot(FlowRecord f, CompletionFn on_complete) {
  if (free_slots_.empty()) {
    records_.push_back(std::move(f));
    completion_fns_.push_back(std::move(on_complete));
    slot_dirty_.push_back(0);
    touch_stamp_.push_back(0);
    return static_cast<Slot>(records_.size() - 1);
  }
  const Slot s = free_slots_.back();
  free_slots_.pop_back();
  records_[s] = std::move(f);
  completion_fns_[s] = std::move(on_complete);
  return s;
}

void FlowSim::release_slot(Slot s) {
  records_[s] = FlowRecord{};
  completion_fns_[s] = nullptr;
  free_slots_.push_back(s);
}

const FlowSim::LiveFlow* FlowSim::find_live(FlowId id) const {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), id,
      [](const LiveFlow& lf, FlowId key) { return lf.id < key; });
  return it != live_.end() && it->id == id ? &*it : nullptr;
}

void FlowSim::erase_live(FlowId id) {
  const LiveFlow* lf = find_live(id);
  MAYFLOWER_ASSERT(lf != nullptr);
  live_.erase(live_.begin() + (lf - live_.data()));
}

void FlowSim::link_slot(Slot s) {
  const FlowId id = records_[s].id;
  for (const LinkId l : records_[s].path.links) {
    std::vector<Slot>& on = link_slots_[l];
    if (on.empty() || records_[on.back()].id < id) {
      on.push_back(s);  // monotone id allocation: the common case
      continue;
    }
    const auto it = std::lower_bound(
        on.begin(), on.end(), id,
        [this](Slot x, FlowId key) { return records_[x].id < key; });
    MAYFLOWER_ASSERT_MSG(it == on.end() || *it != s, "slot already linked");
    on.insert(it, s);
  }
}

void FlowSim::unlink_slot(Slot s) {
  const FlowId id = records_[s].id;
  for (const LinkId l : records_[s].path.links) {
    std::vector<Slot>& on = link_slots_[l];
    const auto it = std::lower_bound(
        on.begin(), on.end(), id,
        [this](Slot x, FlowId key) { return records_[x].id < key; });
    MAYFLOWER_ASSERT_MSG(it != on.end() && *it == s,
                         "unlinking a slot the link does not hold");
    on.erase(it);
  }
}

FlowId FlowSim::start_flow(Path path, double size_bytes,
                           CompletionFn on_complete, std::uint64_t tag,
                           double demand) {
  MAYFLOWER_ASSERT_MSG(!path.nodes.empty(), "path must name its endpoints");
  MAYFLOWER_ASSERT_MSG(path.links.size() + 1 == path.nodes.size(),
                       "malformed path");
  MAYFLOWER_ASSERT(size_bytes > 0.0);
  MAYFLOWER_ASSERT_MSG(path_alive(path),
                       "flow started over a down link (check path_alive)");
  advance_to_now();

  FlowRecord f;
  f.id = next_id_++;
  f.path = std::move(path);
  f.size_bytes = size_bytes;
  f.remaining_bytes = size_bytes;
  f.demand_bps = f.path.links.empty() ? std::min(demand, config_.zero_hop_bps)
                                      : demand;
  // Zero-hop flows take exactly their (bounded) demand and never contend;
  // they stay off every link list and out of the solver.
  if (f.path.links.empty()) f.rate_bps = f.demand_bps;
  f.tag = tag;
  f.start_time = events_->now();
  const FlowId id = f.id;
  const Slot s = claim_slot(std::move(f), std::move(on_complete));
  live_.push_back({id, s});
  link_slot(s);

  // The record's own link list seeds the recompute: nothing in it moves
  // the record or edits its path.
  recompute_after_change(records_[s].path.links);
  schedule_next_completion();
  return id;
}

bool FlowSim::cancel(FlowId id) {
  const LiveFlow* lf = find_live(id);
  if (lf == nullptr) return false;
  const Slot s = lf->slot;
  advance_to_now();
  unlink_slot(s);
  const std::vector<LinkId> seed = std::move(records_[s].path.links);
  erase_live(id);
  release_slot(s);
  recompute_after_change(seed);
  schedule_next_completion();
  return true;
}

bool FlowSim::reroute(FlowId id, Path new_path) {
  const LiveFlow* lf = find_live(id);
  if (lf == nullptr) return false;
  const Slot s = lf->slot;
  FlowRecord& f = records_[s];
  MAYFLOWER_ASSERT_MSG(!new_path.nodes.empty() &&
                           new_path.nodes.front() == f.src() &&
                           new_path.nodes.back() == f.dst(),
                       "reroute must preserve the flow's endpoints");
  MAYFLOWER_ASSERT_MSG(path_alive(new_path), "reroute onto a down link");
  advance_to_now();
  // Dirty region spans both placements: the vacated links may speed up the
  // flows left behind, the new links slow their current tenants down.
  std::vector<LinkId> seed = f.path.links;
  unlink_slot(s);
  f.path = std::move(new_path);
  link_slot(s);  // an older flow lands mid-list on links newer flows hold
  seed.insert(seed.end(), f.path.links.begin(), f.path.links.end());
  recompute_after_change(seed);
  schedule_next_completion();
  return true;
}

void FlowSim::sync() {
  advance_to_now();
}

const FlowRecord* FlowSim::find(FlowId id) const {
  const LiveFlow* lf = find_live(id);
  return lf == nullptr ? nullptr : &records_[lf->slot];
}

std::vector<const FlowRecord*> FlowSim::flows_on_link(LinkId link) const {
  std::vector<const FlowRecord*> out;
  if (link >= link_slots_.size()) return out;
  out.reserve(link_slots_[link].size());
  for (const Slot s : link_slots_[link]) out.push_back(&records_[s]);
  return out;
}

double FlowSim::link_tx_bytes(LinkId link) const {
  MAYFLOWER_ASSERT(link < link_bytes_.size());
  return link_bytes_[link];
}

double FlowSim::link_utilization(LinkId link) const {
  // Fail loudly instead of silently dividing by zero: an unknown id is a
  // caller bug, and a down (zero-capacity) link has no meaningful
  // utilization — callers must filter by link_up() first.
  MAYFLOWER_ASSERT_MSG(link < link_capacity_.size(), "unknown link");
  MAYFLOWER_ASSERT_MSG(link_capacity_[link] > 0.0,
                       "utilization of a down or zero-capacity link");
  double used = 0.0;
  for (const Slot s : link_slots_[link]) used += records_[s].rate_bps;
  return used / link_capacity_[link];
}

bool FlowSim::fail_link(LinkId link) {
  MAYFLOWER_ASSERT(link < link_up_.size());
  if (!link_up_[link]) return false;
  advance_to_now();
  link_up_[link] = 0;
  link_capacity_[link] = 0.0;

  // Kill every flow crossing the link. The dirty region spans the victims'
  // full paths: the capacity they vacate elsewhere speeds up their
  // ex-neighbors.
  std::vector<FlowRecord> killed;
  std::vector<LinkId> seed{link};
  // A copy, in id order: every kill edits the link's own list.
  const std::vector<Slot> victims = link_slots_[link];
  for (const Slot s : victims) {
    unlink_slot(s);
    FlowRecord& dead = records_[s];
    seed.insert(seed.end(), dead.path.links.begin(), dead.path.links.end());
    erase_live(dead.id);
    killed.push_back(std::move(dead));
    release_slot(s);
  }
  recompute_after_change(seed);
  schedule_next_completion();

  // Handlers run last (like completion callbacks): they may start new flows
  // against consistent state.
  if (kill_handler_) {
    for (const FlowRecord& dead : killed) kill_handler_(dead);
  }
  return true;
}

bool FlowSim::restore_link(LinkId link) {
  MAYFLOWER_ASSERT(link < link_up_.size());
  if (link_up_[link]) return false;
  link_up_[link] = 1;
  link_capacity_[link] = base_capacity_[link] * capacity_factor_[link];
  // No flow crosses a down link, so no existing rate changes: new capacity
  // only matters to flows started from now on.
  return true;
}

void FlowSim::set_link_capacity_factor(LinkId link, double factor) {
  MAYFLOWER_ASSERT(link < link_up_.size());
  MAYFLOWER_ASSERT_MSG(factor > 0.0 && factor <= 1.0,
                       "capacity factor must be in (0, 1]");
  advance_to_now();
  capacity_factor_[link] = factor;
  if (!link_up_[link]) return;  // applied on restore
  link_capacity_[link] = base_capacity_[link] * factor;
  recompute_after_change({link});
  schedule_next_completion();
}

void FlowSim::advance_to_now() {
  const sim::SimTime now = events_->now();
  MAYFLOWER_ASSERT(now >= last_advance_);
  const double dt = (now - last_advance_).seconds();
  last_advance_ = now;
  if (dt <= 0.0) return;
  for (const LiveFlow& lf : live_) {
    FlowRecord& f = records_[lf.slot];
    if (f.rate_bps <= 0.0) continue;
    const double moved = std::min(f.remaining_bytes, f.rate_bps * dt);
    f.remaining_bytes -= moved;
    for (const LinkId l : f.path.links) {
      link_bytes_[l] += moved;
    }
  }
}

void FlowSim::recompute_after_change(const std::vector<LinkId>& seed_links) {
  if (live_.empty()) return;
  if (!config_.incremental) {
    recompute_full();
    return;
  }
  recompute_incremental(seed_links);
#ifndef NDEBUG
  MAYFLOWER_ASSERT_MSG(rates_match_full_solve(),
                       "incremental max-min diverged from the full solve");
#endif
}

void FlowSim::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    incremental_solves_ = obs::Counter{};
    full_solves_ = obs::Counter{};
    handoff_solves_ = obs::Counter{};
    return;
  }
  incremental_solves_ = registry->counter("net.flowsim.incremental_solves");
  full_solves_ = registry->counter("net.flowsim.full_solves");
  handoff_solves_ = registry->counter("net.flowsim.handoff_solves");
}

void FlowSim::collect_all(std::vector<FlowLinks>& out) const {
  out.clear();
  for (const LiveFlow& lf : live_) {
    const FlowRecord& f = records_[lf.slot];
    out.push_back({f.path.links, f.path.links.empty()
                                     ? std::min(f.demand_bps,
                                                config_.zero_hop_bps)
                                     : f.demand_bps});
  }
}

void FlowSim::recompute_full() {
  full_solves_.inc();
  collect_all(solve_flows_);
  solver_.solve(solve_flows_, link_capacity_, solve_rates_);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    records_[live_[i].slot].rate_bps = solve_rates_[i];
  }
}

std::pair<double, double> FlowSim::round_link_stats(LinkId link) {
  if (round_stamp_[link] != round_) {
    double load = 0.0, max_rate = 0.0;
    for (const Slot s : link_slots_[link]) {
      const double r = records_[s].rate_bps;
      load += r;
      max_rate = std::max(max_rate, r);
    }
    round_load_[link] = load;
    round_max_rate_[link] = max_rate;
    round_stamp_[link] = round_;
  }
  return {round_load_[link], round_max_rate_[link]};
}

// Dirty-set max-min. A change only invalidates rates that can no longer hold
// a bottleneck certificate (a saturated link on which the flow's rate is
// maximal, or a met demand). Starting from the flows sharing a link with the
// change, re-solve that subset against residual capacities (everyone else's
// allocation held fixed), then verify certificates across the touched
// region; any flow the candidate allocation leaves uncertified — or any
// fixed-rate flow out-earning an uncertified dirty flow on a saturated link
// — joins the dirty set and the subproblem is re-solved. At the fixpoint the
// allocation is feasible and every flow is bottlenecked, which pins it to
// the unique global max-min solution; flows in untouched connected
// components are never visited. Every working set lives in a member buffer.
void FlowSim::recompute_incremental(const std::vector<LinkId>& seed_links) {
  const auto by_id = [](const LiveFlow& a, const LiveFlow& b) {
    return a.id < b.id;
  };
  // Seed: every flow on a changed link, flagged once, then put in id order.
  dirty_.clear();
  for (const LinkId l : seed_links) {
    for (const Slot s : link_slots_[l]) {
      if (slot_dirty_[s]) continue;
      slot_dirty_[s] = 1;
      dirty_.push_back({records_[s].id, s});
    }
  }
  if (dirty_.empty()) {
    incremental_solves_.inc();
    return;
  }
  std::sort(dirty_.begin(), dirty_.end(), by_id);
  // Every exit clears the flags again, the hand-off to the full solve too.
  const auto clear_dirty = [this] {
    for (const LiveFlow& d : dirty_) slot_dirty_[d.slot] = 0;
  };

  for (std::size_t round = 0;; ++round) {
    MAYFLOWER_ASSERT_MSG(round <= live_.size(),
                         "dirty-set expansion failed to converge");
    // When the change stops being local (a saturated mesh can couple most of
    // the network), the subproblem machinery costs more than it saves: hand
    // off to the full solve. The answer is identical either way.
    if (dirty_.size() > 64 && 4 * dirty_.size() > live_.size()) {
      clear_dirty();
      handoff_solves_.inc();
      recompute_full();
      return;
    }
    ++round_;
    region_.clear();
    for (const LiveFlow& d : dirty_) {
      for (const LinkId l : records_[d.slot].path.links) {
        if (region_stamp_[l] == round_) continue;
        region_stamp_[l] = round_;
        region_.push_back(l);
      }
    }

    // Residual capacity on region links: whatever the fixed-rate flows
    // (non-dirty tenants) are not already holding.
    for (const LinkId l : region_) {
      double fixed = 0.0;
      for (const Slot s : link_slots_[l]) {
        if (!slot_dirty_[s]) fixed += records_[s].rate_bps;
      }
      scratch_capacity_[l] = std::max(link_capacity_[l] - fixed, 0.0);
    }

    // The solver reads each dirty flow's links in place, in id order.
    solve_flows_.clear();
    for (const LiveFlow& d : dirty_) {
      const FlowRecord& f = records_[d.slot];
      solve_flows_.push_back({f.path.links, f.demand_bps});
    }
    solver_.solve(solve_flows_, scratch_capacity_, solve_rates_);
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      records_[dirty_[i].slot].rate_bps = solve_rates_[i];
    }

    // Verify bottleneck certificates over every flow touching the region,
    // against this round's per-link aggregates.
    const auto certified = [this](const FlowRecord& f) {
      if (std::isfinite(f.demand_bps) &&
          f.rate_bps >= f.demand_bps - rate_slack(f.demand_bps)) {
        return true;
      }
      for (const LinkId l : f.path.links) {
        const auto [load, max_rate] = round_link_stats(l);
        if (link_saturated(load, link_capacity_[l]) &&
            f.rate_bps >= max_rate - rate_slack(max_rate)) {
          return true;
        }
      }
      return false;
    };

    // Each touched flow is visited once per round (stamped); the order it
    // is met in does not matter, as expand_ is sorted before it merges.
    expand_.clear();
    for (const LinkId region_link : region_) {
      for (const Slot s : link_slots_[region_link]) {
        if (touch_stamp_[s] == round_) continue;
        touch_stamp_[s] = round_;
        const FlowRecord& f = records_[s];
        if (certified(f)) continue;
        if (!slot_dirty_[s]) {
          expand_.push_back({f.id, s});
          continue;
        }
        // A dirty flow can only lack a certificate because a fixed-rate
        // flow out-earns it on one of its saturated links; pull those flows
        // in (even demand-certified ones — their demand may exceed the new
        // fair share).
        for (const LinkId l : f.path.links) {
          const auto [load, max_rate] = round_link_stats(l);
          if (!link_saturated(load, link_capacity_[l])) continue;
          for (const Slot k : link_slots_[l]) {
            if (slot_dirty_[k]) continue;
            if (records_[k].rate_bps > f.rate_bps + rate_slack(f.rate_bps)) {
              expand_.push_back({records_[k].id, k});
            }
          }
        }
      }
    }
    if (expand_.empty()) break;
    std::sort(expand_.begin(), expand_.end(), by_id);
    expand_.erase(std::unique(expand_.begin(), expand_.end(),
                              [](const LiveFlow& a, const LiveFlow& b) {
                                return a.id == b.id;
                              }),
                  expand_.end());
    merged_.clear();
    std::set_union(dirty_.begin(), dirty_.end(), expand_.begin(),
                   expand_.end(), std::back_inserter(merged_), by_id);
    MAYFLOWER_ASSERT_MSG(merged_.size() > dirty_.size(),
                         "dirty-set expansion made no progress");
    for (const LiveFlow& e : expand_) slot_dirty_[e.slot] = 1;
    dirty_.swap(merged_);
  }
  clear_dirty();
  incremental_solves_.inc();
}

bool FlowSim::rates_match_full_solve(double rel_eps) const {
  std::vector<FlowLinks> all;
  collect_all(all);
  std::vector<double> want;
  MaxMinSolver().solve(all, link_capacity_, want);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const double got = records_[live_[i].slot].rate_bps;
    if (std::abs(got - want[i]) > rel_eps * (1.0 + std::abs(want[i]))) {
      return false;
    }
  }
  return true;
}

void FlowSim::schedule_next_completion() {
  events_->cancel(completion_event_);
  completion_event_ = sim::EventId{};
  double earliest = std::numeric_limits<double>::infinity();
  for (const LiveFlow& lf : live_) {
    const FlowRecord& f = records_[lf.slot];
    if (f.rate_bps <= 0.0) continue;
    earliest = std::min(earliest, f.remaining_bytes / f.rate_bps);
  }
  if (!std::isfinite(earliest)) return;
  // Round up to the next nanosecond so the flow is fully drained when the
  // event fires. Completions beyond the representable horizon (~292 sim
  // years) are not scheduled; any rate change re-arms the timer.
  const double ns_d = std::ceil(earliest * 1e9);
  if (ns_d >= 9.0e18) return;
  const auto ns = static_cast<std::int64_t>(ns_d);
  completion_event_ = events_->schedule_in(
      sim::SimTime::from_nanos(std::max<std::int64_t>(ns, 0)),
      [this] { on_completion_event(); });
}

void FlowSim::on_completion_event() {
  completion_event_ = sim::EventId{};
  advance_to_now();

  // One pass in id order: finished flows leave, the rest close ranks.
  std::vector<std::pair<FlowRecord, CompletionFn>> done;
  std::vector<LinkId> seed;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const LiveFlow lf = live_[i];
    FlowRecord& f = records_[lf.slot];
    if (f.remaining_bytes > kCompleteEps) {
      live_[kept++] = lf;
      continue;
    }
    f.remaining_bytes = 0.0;
    unlink_slot(lf.slot);
    seed.insert(seed.end(), f.path.links.begin(), f.path.links.end());
    done.emplace_back(std::move(f), std::move(completion_fns_[lf.slot]));
    release_slot(lf.slot);
  }
  live_.resize(kept);
  recompute_after_change(seed);
  schedule_next_completion();

  // Callbacks run last: they may start new flows, which re-enters
  // start_flow() against consistent state.
  for (auto& [record, cb] : done) {
    if (cb) cb(record);
  }
}

}  // namespace mayflower::net
