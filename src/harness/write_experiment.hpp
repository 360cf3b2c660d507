// Write-heavy mixed-tenant experiment driver: a single tenant issuing an
// open-loop Poisson mix of writes (create + append one block) and reads of
// previously written files against a full fs::Cluster, parameterized by the
// write-placement policy (static / model / measured) and the replication
// transport (legacy primary fan-out vs the Flowserver-planned pipelined
// chain). This is the write-side companion of harness/experiment.hpp's
// read-only workload: all timing is simulated, so results are exactly
// reproducible for a fixed seed.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "fs/cluster.hpp"

namespace mayflower::harness {

struct WriteExperimentConfig {
  policy::WritePlacementKind placement = policy::WritePlacementKind::kStatic;
  bool pipeline = false;
  // Fraction of jobs that write; the rest read a file some earlier write
  // produced (a job with nothing to read writes instead, so the trace is
  // always valid).
  double write_fraction = 0.7;
  double lambda_per_server = 0.03;  // jobs/s per host
  std::size_t total_jobs = 200;
  std::size_t warmup_jobs = 25;
  double block_bytes = 256e6;
  // Must be 1 and read by nothing: kept only because perfbench's write_mix
  // driver assigns it, and goes with ROADMAP item 1's benchmark PR.
  std::size_t decision_threads = 1;
  net::ThreeTierConfig fabric{};
  double sim_time_cap_sec = 30000.0;
  std::uint64_t seed = 1;
  obs::Observability* obs = nullptr;  // optional; null measures nothing
};

struct WriteRunResult {
  Summary write_completion;  // create -> append ack, seconds (post-warmup)
  Summary read_completion;   // read_file issue -> last byte, seconds
  std::size_t writes = 0;    // measured (post-warmup) write jobs
  std::size_t reads = 0;     // measured read jobs
  std::size_t incomplete = 0;
  // Flowserver / dataserver write-path telemetry for the whole run.
  std::uint64_t chains_planned = 0;
  std::uint64_t chain_appends = 0;
  std::uint64_t relay_failures = 0;
  double makespan_sec = 0.0;
};

WriteRunResult run_write_experiment(const WriteExperimentConfig& config);

}  // namespace mayflower::harness
