// The benchmark's workloads, built from the repository's public classes.
//
//   paper_read    the paper's Fig. 3 tree, Zipf reads, open-loop Poisson
//   fattree_storm a k = 16 fat-tree flash crowd on the same catalog
//   write_mix     the write tenant (create + append, reads of written files)
//                 through the fs client, nameserver, dataservers and RPC
//
// Each simulated run is one repetition: set-up (topology, catalog, job
// trace, servers), then the timed phase (the event loop until every job
// finished). The simulated outcome of a repetition is deterministic for a
// workload and seed; the harness-identity check compares it with the public
// harness's result on the same config and seed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/write_experiment.hpp"
#include "spans.hpp"

namespace mayflower::perfbench {

enum class Workload { kPaperRead, kFattreeStorm, kWriteMix };

std::optional<Workload> parse_workload(std::string_view name);
const char* to_string(Workload w);

struct WorkloadSpec {
  Workload workload = Workload::kPaperRead;
  harness::ExperimentConfig read;        // paper_read, fattree_storm
  harness::WriteExperimentConfig write;  // write_mix
  bool steady_state = false;  // guarded by the first/second-half check
};

// The workload's configuration for `seed`. `smoke` shrinks it to a run of
// about a second for the benchmark's own tests.
WorkloadSpec make_spec(Workload w, std::uint64_t seed, bool smoke);

// Deterministic result of one simulated run. Equal across repetitions of
// one workload and seed.
struct SimOutcome {
  std::vector<double> reads;    // completion (s) of each measured read
  std::vector<double> appends;  // create + append completion (s), write_mix
  std::vector<double> jobs;     // every measured job's completion, job order
  std::size_t attempted = 0;    // jobs in the trace
  // Jobs unfinished at the simulation cap, or finished with a non-OK status
  // or wrong content.
  std::size_t failed = 0;
  std::size_t incomplete = 0;   // measured jobs unfinished at the cap
  // Completion callbacks that fired other than exactly once, and plan
  // callbacks that did not arrive synchronously (batch of one).
  std::size_t callback_errors = 0;
  std::uint64_t selections = 0;
  std::uint64_t split_reads = 0;
  std::uint64_t write_chains = 0;
  std::uint64_t chain_appends = 0;
  std::uint64_t relay_failures = 0;
  double sim_end_sec = 0.0;

  bool operator==(const SimOutcome&) const = default;
};

// Work counts of one traced repetition, read from public accessors and the
// obs::Observability hub attached to traced runs. Zero where a layer is not
// part of the workload.
struct LayerCounts {
  std::uint64_t jobs = 0;
  std::uint64_t decisions = 0;  // plan requests timed as decide_us
  std::uint64_t view_rebuilds = 0;
  std::uint64_t shard_reloads = 0;
  std::uint64_t audited_decisions = 0;
  std::uint64_t audited_candidates = 0;
  std::uint64_t selections = 0;
  std::uint64_t split_reads = 0;
  std::uint64_t poll_ticks = 0;
  std::uint64_t poll_samples = 0;
  std::uint64_t path_installs = 0;
  std::uint64_t events = 0;
  std::uint64_t incremental_solves = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t handoff_solves = 0;
  double active_flows_sum = 0.0;  // FlowSim active flows, summed per step
  std::uint64_t active_flows_max = 0;
  // write_mix only.
  std::uint64_t flowserver_rpcs = 0;
  std::uint64_t placement_calls = 0;
  std::uint64_t placement_candidates = 0;
  std::uint64_t rpc_calls = 0;
  std::uint64_t rpc_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t lookups = 0;
  std::uint64_t writes = 0;
  std::uint64_t chain_appends = 0;
  std::uint64_t relay_failures = 0;
};

// One repetition's measurements.
struct RepResult {
  SimOutcome sim;
  double setup_sec = 0.0;
  double wall_sec = 0.0;           // the timed phase
  std::vector<double> decide_us;   // one per Flowserver plan request
  LayerCounts counts;              // traced repetitions only
};

// Runs one repetition. A traced repetition records spans into `rec` (which
// must be enabled) and attaches an observability hub; an untraced one is
// given a disabled recorder. `work_dir` holds the run's on-disk state
// (write_mix's nameserver KV store).
RepResult run_rep(const WorkloadSpec& spec, SpanRecorder& rec,
                  const std::filesystem::path& work_dir);

// Builds the workload's servers and tears them down without running: one
// more set-up sample. Returns its set-up seconds.
double setup_only(const WorkloadSpec& spec,
                  const std::filesystem::path& work_dir);

// The public harness's result on a workload's config and seed:
// harness::run_experiment for the read workloads,
// harness::run_write_experiment for write_mix.
struct HarnessRun {
  bool write = false;
  harness::RunResult read;
  harness::WriteRunResult write_result;
};
HarnessRun run_harness(const WorkloadSpec& spec);

// Every field the harness result shares with the driver's outcome that
// differs (empty: identical).
std::vector<std::string> identity_diffs(const HarnessRun& harness,
                                        const SimOutcome& driver);

}  // namespace mayflower::perfbench
