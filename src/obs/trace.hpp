// Per-flow lifecycle traces and Flowserver decision audits.
//
// The tracer pairs what the Flowserver *planned* for each transfer — the
// bandwidth share and byte count in effect when the data transfer started,
// i.e. after any multi-read split sizing — with what the data plane
// *realized* (bytes moved over the transfer's lifetime), and records every
// estimate-relevant event in between: multi-read resizes, SETBW bumps by
// later selections, poll updates the freeze state suppressed, reroutes and
// fault kills. Estimator error per completed flow is
//
//     |planned_bps − realized_bw| / realized_bw
//
// which is what the EXPERIMENTS.md estimator-audit bench reports per scheme.
//
// Cookies are plain uint64 so this layer depends on nothing above common/.
// All methods tolerate unknown cookies (flows owned by baseline schemes
// never register here) and no-op when the tracer is disabled.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mayflower::obs {

struct FlowTraceRecord {
  std::uint64_t cookie = 0;
  double planned_bw_bps = 0.0;   // controller estimate when the flow started
  double planned_bytes = 0.0;    // size after split sizing
  double start_sec = 0.0;        // registration time (== transfer start)
  double end_sec = -1.0;         // completion/kill time; -1 while active
  double realized_bw_bps = 0.0;  // moved_bytes / (end - start)
  double moved_bytes = 0.0;
  std::uint32_t resizes = 0;     // multi-read split re-sizings
  std::uint32_t reroutes = 0;
  std::uint32_t freeze_hits = 0;  // poll updates suppressed by the freeze
  std::uint32_t setbw_bumps = 0;  // SETBW from later selections' commits
  bool split = false;             // one leg of a multi-read
  bool killed = false;            // ended by an injected fault, not completion
  bool started = false;
};

// One replica–path selection as the Flowserver saw it (Eq. 2 terms of the
// chosen candidate, how much work the search did, and how much of the state
// it trusted was frozen estimate rather than measurement).
struct DecisionAudit {
  double time_sec = 0.0;
  std::uint32_t candidates = 0;       // (replica, path) pairs evaluated
  double own_time_sec = 0.0;          // d_j / b_j of the chosen candidate
  double impact_sec = 0.0;            // Eq. 2 second term of the chosen one
  std::uint32_t frozen_flows = 0;     // table entries frozen at decision time
  std::uint64_t freeze_suppressed = 0;  // cumulative suppressed poll updates
  bool split = false;                 // decision produced a multi-read
};

class FlowTracer {
 public:
  explicit FlowTracer(bool enabled = true) : enabled_(enabled) {}
  FlowTracer(const FlowTracer&) = delete;
  FlowTracer& operator=(const FlowTracer&) = delete;

  bool enabled() const { return enabled_; }

  // --- registration/planning (FlowStateTable hooks) ----------------------
  void flow_planned(std::uint64_t cookie, double now_sec, double bytes,
                    double planned_bw_bps);
  // Before the transfer starts these revise the plan (multi-read sizing);
  // afterwards they count as SETBW bumps and leave the plan untouched.
  void flow_resized(std::uint64_t cookie, double new_bytes);
  void flow_bw_set(std::uint64_t cookie, double bw_bps);
  void freeze_hit(std::uint64_t cookie);
  void mark_split(std::uint64_t cookie);

  // --- data plane (SdnFabric hooks) --------------------------------------
  void flow_started(std::uint64_t cookie, double now_sec);
  void flow_rerouted(std::uint64_t cookie);
  void flow_completed(std::uint64_t cookie, double now_sec,
                      double moved_bytes);
  void flow_killed(std::uint64_t cookie, double now_sec, double moved_bytes);

  void decision(const DecisionAudit& audit);

  // One stats-poll audit sample: |table belief − actual rate| / actual rate
  // for a tracked flow at poll time, *before* UPDATEBW ran. This is the
  // quantity the update-freeze protects — the accuracy of the bandwidth
  // state every selection trusts.
  void belief_error_sample(double error);

  // --- inspection / export -----------------------------------------------
  const std::vector<FlowTraceRecord>& finished() const { return finished_; }
  const std::vector<DecisionAudit>& decisions() const { return decisions_; }
  std::size_t active_count() const { return active_.size(); }
  const FlowTraceRecord* find_active(std::uint64_t cookie) const;

  // |planned − realized| / realized for every completed (not killed) flow
  // with a positive realized bandwidth, in completion order.
  std::vector<double> estimator_errors() const;

  // Poll-time belief errors, in sample order.
  const std::vector<double>& belief_errors() const { return belief_errors_; }

  // Appends "flows":[...],"decisions":[...] fragments to `out`.
  void write_json(std::string* out) const;

 private:
  FlowTraceRecord* mutable_active(std::uint64_t cookie);
  void finish(std::uint64_t cookie, double now_sec, double moved_bytes,
              bool killed);

  bool enabled_;
  std::map<std::uint64_t, FlowTraceRecord> active_;
  std::vector<FlowTraceRecord> finished_;  // completion/kill order
  std::vector<DecisionAudit> decisions_;
  std::vector<double> belief_errors_;
};

}  // namespace mayflower::obs
