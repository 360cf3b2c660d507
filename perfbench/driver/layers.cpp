#include "layers.hpp"

#include <algorithm>
#include <numeric>

#include "stats.hpp"

namespace mayflower::perfbench {
namespace {

// Every layer a traced span can belong to. Handler and callback spans of
// the fs servers and the Flowserver service are named "<layer>.<Method>" and
// "<layer>.cb.<Method>".
const char* const kLayers[] = {
    "sim.step",        "flowserver.decide", "flowserver.view",
    "flowserver.drop", "flowserver.poll",   "flowserver.rpc",
    "policy.write_placement", "sdn.start_flow", "fs.ns",
    "fs.ds",           "fs.client",
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::string layer_of(const std::string& span_name) {
  std::string best;
  for (const char* layer : kLayers) {
    const std::string l = layer;
    const bool match =
        span_name == l || (span_name.size() > l.size() &&
                           span_name.compare(0, l.size(), l) == 0 &&
                           span_name[l.size()] == '.');
    if (match && l.size() > best.size()) best = l;
  }
  return best;
}

void LayerProfile::add(const SpanRecorder& rec, double wall_sec) {
  wall_sec_ += wall_sec;
  std::vector<std::string> layer_by_name;
  layer_by_name.reserve(rec.names().size());
  for (const std::string& name : rec.names()) {
    layer_by_name.push_back(layer_of(name));
  }
  const std::vector<std::int64_t> self = self_times_ns(rec.spans());
  for (std::size_t i = 0; i < self.size(); ++i) {
    const std::string& layer = layer_by_name[rec.spans()[i].name];
    const double s = static_cast<double>(self[i]) * 1e-9;
    self_sec_[layer] += s;
    call_us_[layer].push_back(s * 1e6);
    covered_sec_ += s;
  }
}

double LayerProfile::self_sec(const std::string& layer) const {
  const auto it = self_sec_.find(layer);
  return it == self_sec_.end() ? 0.0 : it->second;
}

const std::vector<double>& LayerProfile::call_us(
    const std::string& layer) const {
  static const std::vector<double> kNone;
  const auto it = call_us_.find(layer);
  return it == call_us_.end() ? kNone : it->second;
}

std::vector<Metric> layer_metrics(const LayerProfile& profile,
                                  const LayerCounts& c,
                                  double untraced_us_per_job,
                                  double traced_us_per_job) {
  const auto share = [&](const char* layer) {
    return ratio(profile.self_sec(layer), profile.wall_sec());
  };
  const auto p50_us = [&](const char* layer) {
    const std::vector<double>& calls = profile.call_us(layer);
    return calls.empty() ? 0.0 : median(calls);
  };
  const auto mean_us = [&](const char* layer) {
    const std::vector<double>& calls = profile.call_us(layer);
    return ratio(std::accumulate(calls.begin(), calls.end(), 0.0),
                 static_cast<double>(calls.size()));
  };
  const auto jobs = static_cast<double>(c.jobs);
  const auto decisions = static_cast<double>(c.decisions);
  // A handoff is a full solve the incremental path gave up to.
  const auto solves = static_cast<double>(c.incremental_solves + c.full_solves);

  return {
      {"flowserver.view.us_p50", p50_us("flowserver.view"), "us"},
      {"flowserver.view.share", share("flowserver.view"), "ratio"},
      {"flowserver.view.rebuilds_per_decision",
       ratio(static_cast<double>(c.view_rebuilds), decisions), "1/decision"},
      {"flowserver.view.shard_reloads_per_decision",
       ratio(static_cast<double>(c.shard_reloads), decisions), "1/decision"},
      {"flowserver.decide.us_p50", p50_us("flowserver.decide"), "us"},
      {"flowserver.decide.share", share("flowserver.decide"), "ratio"},
      {"flowserver.decide.candidates_per_decision",
       ratio(static_cast<double>(c.audited_candidates),
             static_cast<double>(c.audited_decisions)),
       "1/decision"},
      {"flowserver.decide.split_frac",
       ratio(static_cast<double>(c.split_reads),
             static_cast<double>(c.selections)),
       "ratio"},
      {"flowserver.drop.share", share("flowserver.drop"), "ratio"},
      {"flowserver.poll.us_per_tick", mean_us("flowserver.poll"), "us"},
      {"flowserver.poll.share", share("flowserver.poll"), "ratio"},
      {"flowserver.poll.samples_per_tick",
       ratio(static_cast<double>(c.poll_samples),
             static_cast<double>(c.poll_ticks)),
       "1/tick"},
      {"flowserver.rpc.share", share("flowserver.rpc"), "ratio"},
      {"flowserver.rpc.calls_per_job",
       ratio(static_cast<double>(c.flowserver_rpcs), jobs), "1/job"},
      {"policy.write_placement.us_p50", p50_us("policy.write_placement"),
       "us"},
      {"policy.write_placement.share", share("policy.write_placement"),
       "ratio"},
      {"policy.write_placement.candidates_per_call",
       ratio(static_cast<double>(c.placement_candidates),
             static_cast<double>(c.placement_calls)),
       "1/call"},
      {"sdn.start_flow.us_p50", p50_us("sdn.start_flow"), "us"},
      {"sdn.start_flow.share", share("sdn.start_flow"), "ratio"},
      {"sdn.installs_per_job",
       ratio(static_cast<double>(c.path_installs), jobs), "1/job"},
      {"sim.step.share", share("sim.step"), "ratio"},
      {"sim.events_per_job", ratio(static_cast<double>(c.events), jobs),
       "1/job"},
      {"net.flowsim.solves_per_job", ratio(solves, jobs), "1/job"},
      {"net.flowsim.incremental_frac",
       ratio(static_cast<double>(c.incremental_solves), solves), "ratio"},
      {"net.flowsim.handoff_frac",
       ratio(static_cast<double>(c.handoff_solves), solves), "ratio"},
      {"net.flowsim.active_flows_mean",
       ratio(c.active_flows_sum, static_cast<double>(c.events)), "count"},
      {"net.flowsim.active_flows_max",
       static_cast<double>(c.active_flows_max), "count"},
      {"fs.ns.share", share("fs.ns"), "ratio"},
      {"fs.ds.share", share("fs.ds"), "ratio"},
      {"fs.client.share", share("fs.client"), "ratio"},
      {"fs.rpc.calls_per_job", ratio(static_cast<double>(c.rpc_calls), jobs),
       "1/job"},
      {"fs.rpc.bytes_per_job", ratio(static_cast<double>(c.rpc_bytes), jobs),
       "B/job"},
      {"fs.client.cache_hit_frac",
       ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_hits + c.lookups)),
       "ratio"},
      {"fs.ds.chain_appends_per_write",
       ratio(static_cast<double>(c.chain_appends),
             static_cast<double>(c.writes)),
       "1/write"},
      {"fs.ds.relay_failed", static_cast<double>(c.relay_failures), "count"},
      {"other.share",
       ratio(profile.wall_sec() - profile.covered_sec(), profile.wall_sec()),
       "ratio"},
      {"trace.overhead_frac",
       untraced_us_per_job > 0.0 ? traced_us_per_job / untraced_us_per_job - 1.0
                                 : 0.0,
       "ratio"},
  };
}

}  // namespace mayflower::perfbench
