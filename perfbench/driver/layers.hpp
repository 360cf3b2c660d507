// Per-layer metrics of the traced run: each layer's self time as a share of
// the traced wall-clock, the timing of its calls, and its work counts per
// job or per decision.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace mayflower::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Self times and call timings accumulated over the traced repetitions.
class LayerProfile {
 public:
  // Adds one traced repetition: its spans and timed-phase wall-clock.
  void add(const SpanRecorder& rec, double wall_sec);

  double wall_sec() const { return wall_sec_; }
  // Self seconds of a layer (a span name or a dotted prefix of span names).
  double self_sec(const std::string& layer) const;
  // Self time of each call of a layer, in microseconds.
  const std::vector<double>& call_us(const std::string& layer) const;
  // Seconds inside any span.
  double covered_sec() const { return covered_sec_; }

 private:
  double wall_sec_ = 0.0;
  double covered_sec_ = 0.0;
  std::map<std::string, double> self_sec_;
  std::map<std::string, std::vector<double>> call_us_;
};

// The layer a span name belongs to: the longest registered layer name equal
// to it or followed in it by '.'; empty when none.
std::string layer_of(const std::string& span_name);

// Every per-layer metric, zero where the layer is absent from the workload.
// `untraced_us_per_job` and `traced_us_per_job` give trace.overhead_frac.
std::vector<Metric> layer_metrics(const LayerProfile& profile,
                                  const LayerCounts& counts,
                                  double untraced_us_per_job,
                                  double traced_us_per_job);

}  // namespace mayflower::perfbench
