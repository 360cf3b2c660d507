#include "harness/write_experiment.hpp"

#include <string>
#include <vector>

#include "common/strings.hpp"

namespace mayflower::harness {

WriteRunResult run_write_experiment(const WriteExperimentConfig& config) {
  fs::ClusterConfig cluster_cfg;
  cluster_cfg.scheme = fs::FsScheme::kMayflower;
  cluster_cfg.fabric = config.fabric;
  cluster_cfg.write_placement = config.placement;
  cluster_cfg.write_pipeline = config.pipeline;
  cluster_cfg.nameserver.chunk_size =
      static_cast<std::uint64_t>(config.block_bytes);
  cluster_cfg.flowserver.decision_threads = config.decision_threads;
  cluster_cfg.obs = config.obs;
  cluster_cfg.seed = config.seed;
  fs::Cluster cluster(cluster_cfg);
  const net::ThreeTier& tree = cluster.tree();

  const std::size_t jobs = config.total_jobs;
  Rng arrivals(splitmix64(config.seed ^ 0x3717eULL));
  Rng mix(splitmix64(config.seed ^ 0xead5ULL));

  struct JobOutcome {
    double duration = -1.0;
    bool write = false;
  };
  std::vector<JobOutcome> outcomes(jobs);
  std::vector<std::string> live;  // names whose append has been acked
  std::size_t done = 0;

  const double system_rate =
      config.lambda_per_server * static_cast<double>(tree.hosts.size());
  double arrival = 0.0;
  for (std::size_t j = 0; j < jobs; ++j) {
    arrival += arrivals.exponential(system_rate);
    const net::NodeId host =
        tree.hosts[arrivals.next_below(tree.hosts.size())];
    const bool wants_write = arrivals.uniform(0.0, 1.0) < config.write_fraction;
    cluster.events().schedule_at(
        sim::SimTime::from_seconds(arrival),
        [&cluster, &outcomes, &live, &mix, &done, &config, j, host,
         wants_write] {
          const double start = cluster.events().now().seconds();
          fs::Client& client = cluster.client_at(host);
          // Read tenant half: read back a finished write, if any exists yet.
          if (!wants_write && !live.empty()) {
            const std::string& name = live[mix.next_below(live.size())];
            outcomes[j].write = false;
            client.read_file(name, [&cluster, &outcomes, &done, j, start](
                                       fs::Status s, fs::ReadResult) {
              MAYFLOWER_ASSERT(s == fs::Status::kOk);
              outcomes[j].duration =
                  cluster.events().now().seconds() - start;
              ++done;
            });
            return;
          }
          outcomes[j].write = true;
          const std::string name = strfmt("w-%04zu", j);
          client.create(name, [&cluster, &outcomes, &live, &done, &config, j,
                               name, start, &client](fs::Status s,
                                                     const fs::FileInfo&) {
            MAYFLOWER_ASSERT(s == fs::Status::kOk);
            client.append(
                name,
                fs::ExtentList(fs::Extent::pattern(
                    j, static_cast<std::uint64_t>(config.block_bytes))),
                [&cluster, &outcomes, &live, &done, j, name, start](
                    fs::Status as, const fs::AppendResp&) {
                  MAYFLOWER_ASSERT(as == fs::Status::kOk);
                  outcomes[j].duration =
                      cluster.events().now().seconds() - start;
                  live.push_back(name);
                  ++done;
                });
          });
        });
  }

  const auto cap = sim::SimTime::from_seconds(config.sim_time_cap_sec);
  while (done < jobs && !cluster.events().empty() &&
         cluster.events().now() < cap) {
    cluster.events().step();
  }

  WriteRunResult result;
  result.makespan_sec = cluster.events().now().seconds();
  std::vector<double> write_samples;
  std::vector<double> read_samples;
  for (std::size_t j = config.warmup_jobs; j < jobs; ++j) {
    if (outcomes[j].duration < 0.0) {
      ++result.incomplete;
      continue;
    }
    if (outcomes[j].write) {
      write_samples.push_back(outcomes[j].duration);
    } else {
      read_samples.push_back(outcomes[j].duration);
    }
  }
  result.writes = write_samples.size();
  result.reads = read_samples.size();
  result.write_completion = summarize(write_samples);
  result.read_completion = summarize(read_samples);
  if (cluster.flow_server() != nullptr) {
    result.chains_planned = cluster.flow_server()->write_chains();
  }
  for (const net::NodeId host : tree.hosts) {
    result.chain_appends += cluster.dataserver_at(host).chain_appends();
    result.relay_failures += cluster.dataserver_at(host).relay_failures();
  }
  return result;
}

}  // namespace mayflower::harness
