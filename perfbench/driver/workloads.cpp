#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <system_error>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "sims.hpp"

namespace mayflower::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// A fresh directory for one repetition's on-disk state.
std::filesystem::path fresh_dir(const std::filesystem::path& work_dir) {
  static std::uint64_t counter = 0;
  const auto dir = work_dir / strfmt("kv-%llu",
                                     static_cast<unsigned long long>(counter++));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// Set-up (construction) and the timed phase of one simulation; teardown
// happens after the clock stops.
template <typename Make>
RepResult measure(Make make, bool traced) {
  RepResult r;
  const Clock::time_point t0 = Clock::now();
  auto sim = make();
  const Clock::time_point t1 = Clock::now();
  sim->run();
  const Clock::time_point t2 = Clock::now();
  r.setup_sec = seconds_between(t0, t1);
  r.wall_sec = seconds_between(t1, t2);
  r.sim = sim->outcome();
  r.decide_us = sim->decide_us();
  if (traced) r.counts = sim->counts();
  return r;
}

void compare(std::vector<std::string>& diffs, const char* what,
             double harness, double driver) {
  if (harness != driver) {
    diffs.push_back(strfmt("%s: harness %.17g, driver %.17g", what, harness,
                           driver));
  }
}

void compare_summary(std::vector<std::string>& diffs, const char* what,
                     const Summary& harness, const Summary& driver) {
  const std::string w = what;
  compare(diffs, (w + ".count").c_str(), static_cast<double>(harness.count),
          static_cast<double>(driver.count));
  compare(diffs, (w + ".mean").c_str(), harness.mean, driver.mean);
  compare(diffs, (w + ".stddev").c_str(), harness.stddev, driver.stddev);
  compare(diffs, (w + ".min").c_str(), harness.min, driver.min);
  compare(diffs, (w + ".max").c_str(), harness.max, driver.max);
  compare(diffs, (w + ".p50").c_str(), harness.p50, driver.p50);
  compare(diffs, (w + ".p95").c_str(), harness.p95, driver.p95);
  compare(diffs, (w + ".p99").c_str(), harness.p99, driver.p99);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kPaperRead, Workload::kFattreeStorm, Workload::kWriteMix}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kPaperRead: return "paper_read";
    case Workload::kFattreeStorm: return "fattree_storm";
    case Workload::kWriteMix: return "write_mix";
  }
  return "?";
}

WorkloadSpec make_spec(Workload w, std::uint64_t seed, bool smoke) {
  WorkloadSpec spec;
  spec.workload = w;
  harness::ExperimentConfig& r = spec.read;
  r.scheme = harness::SchemeKind::kMayflower;
  r.seed = seed;
  // The paper's catalog: 400 files of 256 MB, 3 replicas, Zipf 1.1
  // popularity, locality (0.5, 0.3, 0.2) — the harness defaults.
  switch (w) {
    case Workload::kPaperRead:
      // Fig. 3 tree: 64 hosts, 4 pods, 8:1 oversubscription, 1 Gbps edges;
      // 0.07 jobs/s per server, the harness default. At 0.10, nearer the
      // knee where the backlog starts to grow (0.12), rare congestion
      // episodes set the tail: the p99 completion time and the per-job cost
      // then vary twice as much from seed to seed.
      r.fabric = net::ThreeTierConfig::with_oversubscription(8.0);
      r.gen.lambda_per_server = 0.07;
      r.gen.total_jobs = smoke ? 1200 : 16000;
      r.warmup_jobs = 100;
      spec.steady_state = true;
      break;
    case Workload::kFattreeStorm:
      // A flash crowd: 1000 reads arrive within about two simulated
      // seconds, so the storm has no warm-up to exclude. (The smoke run is
      // a light load on a k = 8 tree: a storm's cost grows with its size.)
      r.fabric_kind = harness::FabricKind::kFatTree;
      r.fat_tree.k = smoke ? 8 : 16;
      r.flowserver.shard_by_edge = true;
      r.gen.lambda_per_server = smoke ? 0.05 : 0.5;
      r.gen.total_jobs = 1000;
      r.warmup_jobs = 0;
      break;
    case Workload::kWriteMix: {
      harness::WriteExperimentConfig& c = spec.write;
      c.placement = policy::WritePlacementKind::kMeasured;
      c.pipeline = true;
      c.write_fraction = 0.7;
      c.lambda_per_server = 0.03;
      c.total_jobs = smoke ? 4000 : 5000;
      c.warmup_jobs = 25;
      c.seed = seed;
      spec.steady_state = true;
      break;
    }
  }
  return spec;
}

RepResult run_rep(const WorkloadSpec& spec, SpanRecorder& rec,
                  const std::filesystem::path& work_dir) {
  std::unique_ptr<obs::Observability> hub;
  if (rec.enabled()) hub = std::make_unique<obs::Observability>();
  if (spec.workload == Workload::kWriteMix) {
    return measure(
        [&] {
          return std::make_unique<WriteMixSim>(spec.write, fresh_dir(work_dir),
                                               rec, hub.get());
        },
        rec.enabled());
  }
  return measure(
      [&] { return std::make_unique<ReadSim>(spec.read, rec, hub.get()); },
      rec.enabled());
}

double setup_only(const WorkloadSpec& spec,
                  const std::filesystem::path& work_dir) {
  SpanRecorder off(false);
  const Clock::time_point t0 = Clock::now();
  double seconds = 0.0;
  if (spec.workload == Workload::kWriteMix) {
    WriteMixSim sim(spec.write, fresh_dir(work_dir), off, nullptr);
    seconds = seconds_between(t0, Clock::now());
  } else {
    ReadSim sim(spec.read, off, nullptr);
    seconds = seconds_between(t0, Clock::now());
  }
  return seconds;
}

HarnessRun run_harness(const WorkloadSpec& spec) {
  HarnessRun run;
  run.write = spec.workload == Workload::kWriteMix;
  if (run.write) {
    run.write_result = harness::run_write_experiment(spec.write);
  } else {
    run.read = harness::run_experiment(spec.read);
  }
  return run;
}

std::vector<std::string> identity_diffs(const HarnessRun& harness,
                                        const SimOutcome& driver) {
  std::vector<std::string> diffs;
  if (harness.write) {
    const harness::WriteRunResult& h = harness.write_result;
    compare_summary(diffs, "append", h.write_completion,
                    summarize(driver.appends));
    compare_summary(diffs, "read", h.read_completion, summarize(driver.reads));
    compare(diffs, "writes", static_cast<double>(h.writes),
            static_cast<double>(driver.appends.size()));
    compare(diffs, "reads", static_cast<double>(h.reads),
            static_cast<double>(driver.reads.size()));
    compare(diffs, "incomplete", static_cast<double>(h.incomplete),
            static_cast<double>(driver.incomplete));
    compare(diffs, "chains_planned", static_cast<double>(h.chains_planned),
            static_cast<double>(driver.write_chains));
    compare(diffs, "chain_appends", static_cast<double>(h.chain_appends),
            static_cast<double>(driver.chain_appends));
    compare(diffs, "relay_failures", static_cast<double>(h.relay_failures),
            static_cast<double>(driver.relay_failures));
    compare(diffs, "makespan_sec", h.makespan_sec, driver.sim_end_sec);
    return diffs;
  }
  const harness::RunResult& h = harness.read;
  compare(diffs, "measured jobs", static_cast<double>(h.completions.size()),
          static_cast<double>(driver.reads.size()));
  for (std::size_t i = 0;
       i < std::min(h.completions.size(), driver.reads.size()); ++i) {
    if (h.completions[i] != driver.reads[i]) {
      compare(diffs, strfmt("completion[%zu]", i).c_str(), h.completions[i],
              driver.reads[i]);
      break;  // the first divergence is enough to locate it
    }
  }
  compare(diffs, "incomplete", static_cast<double>(h.incomplete),
          static_cast<double>(driver.incomplete));
  compare(diffs, "selections", static_cast<double>(h.selections),
          static_cast<double>(driver.selections));
  compare(diffs, "split_reads", static_cast<double>(h.split_reads),
          static_cast<double>(driver.split_reads));
  compare(diffs, "sim_duration_sec", h.sim_duration_sec, driver.sim_end_sec);
  return diffs;
}

}  // namespace mayflower::perfbench
