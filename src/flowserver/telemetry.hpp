// Adaptive, budgeted flow telemetry (the Floware direction: balanced,
// budget-bound flow monitoring in SDNs). The legacy poll sweep applies every
// flow's byte-counter sample every interval — cost linear in flow count. This
// layer classifies flows as ELEPHANTS or MICE from per-poll byte-count deltas
// (Hedera's 10%-of-edge-capacity rule, with a hysteresis band so borderline
// flows don't flap), applies elephant samples every collection cycle, defers
// mouse samples to a configurable long period, and caps the samples applied
// in any one poll tick at a controller-side budget.
//
// Deferring a sample costs nothing at the switch — byte counters are
// cumulative, so the next applied sample simply measures the rate over the
// whole deferred window. What it costs is belief freshness, and that cost is
// exactly what bench/micro_telemetry measures via the estimator audit.
//
// The class is pure bookkeeping: it never touches the fabric or the table,
// so the decision/state boundary holds and unit tests can drive it with
// synthetic rates. With the default config (no budget, mouse period 1) the
// layer reports inactive and the Flowserver's sweep takes the legacy path
// untouched — byte-identical decisions and metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "sdn/switch.hpp"

namespace mayflower::flowserver {

struct TelemetryConfig {
  // Max measurement samples applied per poll tick (one sweep of every edge
  // switch); 0 = unlimited.
  std::size_t samples_budget = 0;
  // A mouse's samples are applied every this-many collection cycles
  // (phase-staggered by cookie so the mouse sweep is balanced, not bursty).
  // 1 = every cycle (legacy cadence).
  std::size_t mouse_period = 1;
  // Promote to elephant at >= this fraction of the flow's edge (host uplink)
  // capacity — Hedera's 10% rule.
  double elephant_fraction = 0.10;
  // Demote to mouse only below this smaller fraction (hysteresis band
  // between the two thresholds holds the current class)...
  double mouse_fraction = 0.05;
  // ...and only after this many consecutive below-band samples.
  std::size_t demote_after = 2;
};

class AdaptiveTelemetry {
 public:
  enum class FlowClass : std::uint8_t { kElephant, kMouse };
  enum class Verdict : std::uint8_t { kApply, kDeferMouse, kDeferBudget };

  explicit AdaptiveTelemetry(TelemetryConfig config);

  // False with the default config: the caller must then keep the legacy
  // full-rate sweep (and pays zero classification overhead).
  bool active() const {
    return config_.samples_budget > 0 || config_.mouse_period > 1;
  }

  // Opens one poll tick: resets the per-tick budget. `cycle` is the
  // collection-cycle index (ticks - 1).
  void begin_tick(std::uint64_t cycle);

  // Decides one offered measurement sample. `window_rate_bps` is the flow's
  // byte delta over the window since its last APPLIED sample;
  // `edge_capacity_bps` is its host-uplink capacity (<= 0: unknown, class is
  // left untouched). kApply consumes budget and updates the classification;
  // both defer verdicts leave the flow's poll bookkeeping untouched so the
  // next applied sample integrates over the longer window.
  Verdict admit(sdn::Cookie cookie, double window_rate_bps,
                double edge_capacity_bps);

  // Drops a finished flow's classification state.
  void forget(sdn::Cookie cookie);

  // --- accounting (tests, metrics, report lines) -------------------------
  std::size_t tracked() const { return state_.size(); }
  std::size_t elephants() const { return elephants_; }
  std::size_t mice() const { return state_.size() - elephants_; }
  std::size_t applied_this_tick() const { return applied_this_tick_; }
  std::uint64_t deferred_mouse() const { return deferred_mouse_; }
  std::uint64_t deferred_budget() const { return deferred_budget_; }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }
  const TelemetryConfig& config() const { return config_; }

  FlowClass flow_class(sdn::Cookie cookie) const;

 private:
  struct FlowState {
    // New flows start as elephants: a fresh flow's rate is unknown and its
    // belief is a planner estimate, so it gets full-rate polling until it
    // proves slow (demote_after consecutive below-band samples).
    FlowClass cls = FlowClass::kElephant;
    std::uint32_t slow_streak = 0;
    // First cycle this flow's next sample is due. Elephants are always due;
    // a budget deferral leaves the flow due, so it retries next tick.
    std::uint64_t next_due_cycle = 0;
  };

  void classify(FlowState& st, double rate, double cap);

  TelemetryConfig config_;
  // Keyed by cookie (ordered, not pointer-derived) — determinism-safe.
  std::map<sdn::Cookie, FlowState> state_;
  std::uint64_t cycle_ = 0;
  std::size_t applied_this_tick_ = 0;
  std::size_t elephants_ = 0;
  std::uint64_t deferred_mouse_ = 0;
  std::uint64_t deferred_budget_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace mayflower::flowserver
