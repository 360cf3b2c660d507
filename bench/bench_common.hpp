// Shared configuration/runner helpers for the figure-reproduction benches.
//
// Paper defaults (§6.1): 64 hosts in 4 pods, 8:1 core-to-rack
// oversubscription, 1 Gbps edges, 256 MB blocks, Zipf(1.1) popularity,
// Poisson arrivals at lambda per server. Every bench pools several seeds so
// the printed confidence intervals are meaningful.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "fs/cluster.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace mayflower::bench {

inline harness::ExperimentConfig paper_config(harness::SchemeKind scheme,
                                              double lambda = 0.07) {
  harness::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.catalog.num_files = 400;
  cfg.catalog.file_bytes = 256e6;
  cfg.gen.lambda_per_server = lambda;
  cfg.gen.total_jobs = 1100;
  cfg.warmup_jobs = 100;
  cfg.seed = 1;
  return cfg;
}

// Runs `config` under `seeds` different seeds and pools the per-job samples
// (splits/selections/incomplete are summed; sim duration is the max).
inline harness::RunResult run_pooled(harness::ExperimentConfig config,
                                     const std::vector<std::uint64_t>& seeds) {
  harness::RunResult pooled;
  for (const std::uint64_t seed : seeds) {
    config.seed = seed;
    harness::RunResult r = harness::run_experiment(config);
    pooled.scheme = r.scheme;
    pooled.completions.insert(pooled.completions.end(), r.completions.begin(),
                              r.completions.end());
    pooled.subflow_finish_gaps.insert(pooled.subflow_finish_gaps.end(),
                                      r.subflow_finish_gaps.begin(),
                                      r.subflow_finish_gaps.end());
    pooled.incomplete += r.incomplete;
    pooled.split_reads += r.split_reads;
    pooled.selections += r.selections;
    pooled.flow_failures += r.flow_failures;
    pooled.faults_injected += r.faults_injected;
    pooled.samples_applied += r.samples_applied;
    pooled.samples_deferred_mouse += r.samples_deferred_mouse;
    pooled.samples_deferred_budget += r.samples_deferred_budget;
    pooled.telemetry_promotions += r.telemetry_promotions;
    pooled.telemetry_demotions += r.telemetry_demotions;
    pooled.poll_cycles += r.poll_cycles;
    if (r.sim_duration_sec > pooled.sim_duration_sec) {
      pooled.sim_duration_sec = r.sim_duration_sec;
    }
  }
  pooled.summary = summarize(pooled.completions);
  return pooled;
}

inline const std::vector<std::uint64_t>& default_seeds() {
  static const std::vector<std::uint64_t> seeds{1, 2, 3};
  return seeds;
}

// The write-path benches' tenant: on a Mayflower cluster built from `cfg`
// (after `setup`, e.g. background load), `jobs` Poisson arrivals at
// `lambda` per host each create "out-<j>" from a random host and append one
// 256 MB block. Completion times from job `warmup` on; jobs still running
// at the 30000 s cap are censored there.
inline harness::RunResult run_write_tenant(
    fs::ClusterConfig cfg, double lambda, std::uint64_t seed,
    std::size_t jobs, std::size_t warmup,
    const std::function<void(fs::Cluster&)>& setup = {}) {
  constexpr std::uint64_t kBlockBytes = 256'000'000;
  cfg.scheme = fs::FsScheme::kMayflower;
  cfg.nameserver.chunk_size = kBlockBytes;
  cfg.seed = seed;
  fs::Cluster cluster(cfg);
  const net::ThreeTier& tree = cluster.tree();
  if (setup) setup(cluster);

  Rng rng(splitmix64(seed ^ 0x77e11ULL));
  std::size_t done = 0;
  std::vector<double> durations(jobs, -1.0);
  const double system_rate = lambda * static_cast<double>(tree.hosts.size());
  double arrival = 0.0;
  for (std::size_t j = 0; j < jobs; ++j) {
    arrival += rng.exponential(system_rate);
    const net::NodeId writer_host =
        tree.hosts[rng.next_below(tree.hosts.size())];
    cluster.events().schedule_at(
        sim::SimTime::from_seconds(arrival),
        [&cluster, &durations, &done, j, writer_host] {
          const double start = cluster.events().now().seconds();
          const std::string name = strfmt("out-%04zu", j);
          fs::Client& writer = cluster.client_at(writer_host);
          writer.create(name, [&cluster, &writer, &durations, &done, j, name,
                               start](fs::Status s, const fs::FileInfo&) {
            MAYFLOWER_ASSERT(s == fs::Status::kOk);
            writer.append(
                name, fs::ExtentList(fs::Extent::pattern(j, kBlockBytes)),
                [&cluster, &durations, &done, j, start](
                    fs::Status as, const fs::AppendResp&) {
                  MAYFLOWER_ASSERT(as == fs::Status::kOk);
                  durations[j] = cluster.events().now().seconds() - start;
                  ++done;
                });
          });
        });
  }
  const auto cap = sim::SimTime::from_seconds(30000.0);
  while (done < jobs && !cluster.events().empty() &&
         cluster.events().now() < cap) {
    cluster.events().step();
  }
  harness::RunResult result;
  for (std::size_t j = warmup; j < jobs; ++j) {
    if (durations[j] >= 0.0) {
      result.completions.push_back(durations[j]);
    } else {
      ++result.incomplete;
      result.completions.push_back(cluster.events().now().seconds());
    }
  }
  result.summary = summarize(result.completions);
  return result;
}

inline void print_banner(const char* artifact, const char* description) {
  std::printf(
      "==============================================================\n"
      "%s — %s\n"
      "Mayflower reproduction (simulated 64-host 3-tier fabric)\n"
      "==============================================================\n",
      artifact, description);
}

}  // namespace mayflower::bench
