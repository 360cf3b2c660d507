#include "harness/experiment.hpp"

#include <algorithm>
#include <memory>

#include <functional>

#include "common/logging.hpp"
#include "fault/injector.hpp"
#include "policy/hedera.hpp"
#include "policy/scheme.hpp"
#include "sdn/fabric.hpp"
#include "sdn/link_rate_monitor.hpp"
#include "workload/catalog.hpp"

namespace mayflower::harness {
namespace {

struct JobState {
  double arrival_sec = 0.0;
  // Active transfers plus pending retries: a killed transfer keeps its slot
  // until the replacement read finishes, so a job can never complete while a
  // piece of it is still being recovered.
  std::size_t outstanding = 0;
  bool measured = false;
  bool split = false;
  double first_subflow_done = -1.0;
};

// Bounded backoff between read retries after an injected failure.
sim::SimTime retry_backoff(std::uint32_t attempt) {
  const std::int64_t ms =
      std::min<std::int64_t>(200 * (static_cast<std::int64_t>(attempt) + 1),
                             2000);
  return sim::SimTime::from_millis(static_cast<double>(ms));
}

bool uses_flowserver(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kSinbadEcmp:
    case SchemeKind::kNearestEcmp:
    case SchemeKind::kRandomEcmp:
    case SchemeKind::kHdfsEcmp:
    case SchemeKind::kNearestHedera:
    case SchemeKind::kSinbadHedera:
      return false;
    default:
      return true;
  }
}

bool uses_sinbad(SchemeKind kind) {
  return kind == SchemeKind::kSinbadMayflower ||
         kind == SchemeKind::kSinbadEcmp ||
         kind == SchemeKind::kSinbadHedera;
}

bool uses_hedera(SchemeKind kind) {
  return kind == SchemeKind::kNearestHedera ||
         kind == SchemeKind::kSinbadHedera;
}

}  // namespace

const char* to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kMayflower: return "mayflower";
    case SchemeKind::kSinbadMayflower: return "sinbad-r mayflower";
    case SchemeKind::kSinbadEcmp: return "sinbad-r ecmp";
    case SchemeKind::kNearestMayflower: return "nearest mayflower";
    case SchemeKind::kNearestEcmp: return "nearest ecmp";
    case SchemeKind::kRandomEcmp: return "random ecmp";
    case SchemeKind::kNearestHedera: return "nearest hedera";
    case SchemeKind::kSinbadHedera: return "sinbad-r hedera";
    case SchemeKind::kHdfsEcmp: return "hdfs ecmp";
    case SchemeKind::kHdfsMayflower: return "hdfs mayflower";
    case SchemeKind::kMayflowerNoMultiread: return "mayflower (no multiread)";
    case SchemeKind::kMayflowerNoFreeze: return "mayflower (no freeze)";
    case SchemeKind::kMayflowerGreedy: return "mayflower (greedy bw)";
  }
  return "?";
}

RunResult run_experiment(const ExperimentConfig& config) {
  // Independent random streams: the workload draw is identical for every
  // scheme given the same seed; policy tie-breaking is a separate stream.
  Rng workload_rng(splitmix64(config.seed ^ 0x57a99e12d0c1f00dULL));
  Rng policy_rng(splitmix64(config.seed ^ 0x9021bc0ffee12345ULL));

  net::ThreeTier tree = config.fabric_kind == FabricKind::kFatTree
                            ? net::three_tier_from_fat_tree(config.fat_tree)
                            : net::build_three_tier(config.fabric);
  workload::Catalog catalog(tree, config.catalog, workload_rng);
  const std::vector<workload::ReadJob> jobs =
      generate_jobs(tree, catalog, config.gen, workload_rng);

  sim::EventQueue events;
  sdn::SdnFabric fabric(events, tree.topo);
  fabric.set_obs(config.obs);
  obs::Counter harness_retries;
  if (config.obs != nullptr) {
    harness_retries = config.obs->metrics.counter("harness.read_retries");
  }

  // --- scheme construction ----------------------------------------------
  flowserver::FlowserverConfig fs_config = config.flowserver;
  fs_config.obs = config.obs;
  switch (config.scheme) {
    case SchemeKind::kMayflowerNoMultiread:
      fs_config.multiread_enabled = false;
      break;
    case SchemeKind::kMayflowerNoFreeze:
      fs_config.freeze_enabled = false;
      break;
    case SchemeKind::kMayflowerGreedy:
      fs_config.impact_aware = false;
      break;
    default:
      break;
  }

  std::unique_ptr<flowserver::Flowserver> flow_server;
  if (uses_flowserver(config.scheme)) {
    flow_server = std::make_unique<flowserver::Flowserver>(fabric, fs_config);
    flow_server->start();
  }
  // Sinbad-R's NIC telemetry: one LinkRateMonitor over every host uplink
  // (rack-major host order), publishing rates into whichever views the
  // scheme builds. The monitor's ctor starts the poll timer — keep it at
  // the position the old in-policy sampler started, so event sequences
  // (and therefore every downstream random draw) are unchanged.
  std::unique_ptr<sdn::LinkRateMonitor> nic_monitor;
  std::unique_ptr<policy::SinbadRReplica> sinbad;
  if (uses_sinbad(config.scheme)) {
    std::vector<net::LinkId> uplinks;
    uplinks.reserve(tree.hosts.size());
    for (const net::NodeId h : tree.hosts) {
      uplinks.push_back(tree.host_uplink(h));
    }
    nic_monitor = std::make_unique<sdn::LinkRateMonitor>(
        fabric, std::move(uplinks), config.sinbad_poll);
    if (flow_server) flow_server->set_rate_monitor(nic_monitor.get());
    sinbad = std::make_unique<policy::SinbadRReplica>(tree, policy_rng);
  }
  std::unique_ptr<policy::HederaScheduler> hedera;
  if (uses_hedera(config.scheme)) {
    hedera = std::make_unique<policy::HederaScheduler>(
        fabric, policy::HederaConfig{});
    hedera->start();
  }
  policy::NearestReplica nearest(tree.topo, policy_rng);
  policy::RandomReplica random_replica(policy_rng);
  policy::HdfsRackAwareReplica hdfs(tree.topo, policy_rng);

  std::unique_ptr<policy::Scheme> scheme;
  const std::string scheme_name = to_string(config.scheme);
  switch (config.scheme) {
    case SchemeKind::kMayflower:
    case SchemeKind::kMayflowerNoMultiread:
    case SchemeKind::kMayflowerNoFreeze:
    case SchemeKind::kMayflowerGreedy:
      scheme = std::make_unique<policy::MayflowerScheme>(*flow_server,
                                                         scheme_name);
      break;
    case SchemeKind::kSinbadMayflower:
      scheme = std::make_unique<policy::ReplicaPlusMayflowerPath>(
          *sinbad, *flow_server, scheme_name);
      break;
    case SchemeKind::kNearestMayflower:
      scheme = std::make_unique<policy::ReplicaPlusMayflowerPath>(
          nearest, *flow_server, scheme_name);
      break;
    case SchemeKind::kHdfsMayflower:
      scheme = std::make_unique<policy::ReplicaPlusMayflowerPath>(
          hdfs, *flow_server, scheme_name);
      break;
    case SchemeKind::kSinbadEcmp: {
      auto ecmp = std::make_unique<policy::ReplicaPlusEcmp>(
          *sinbad, fabric, scheme_name, config.seed);
      ecmp->set_rate_monitor(nic_monitor.get());
      scheme = std::move(ecmp);
      break;
    }
    case SchemeKind::kNearestEcmp:
      scheme = std::make_unique<policy::ReplicaPlusEcmp>(
          nearest, fabric, scheme_name, config.seed);
      break;
    case SchemeKind::kRandomEcmp:
      scheme = std::make_unique<policy::ReplicaPlusEcmp>(
          random_replica, fabric, scheme_name, config.seed);
      break;
    case SchemeKind::kNearestHedera:
      scheme = std::make_unique<policy::ReplicaPlusHedera>(
          nearest, fabric, *hedera, scheme_name, config.seed);
      break;
    case SchemeKind::kSinbadHedera: {
      auto hed = std::make_unique<policy::ReplicaPlusHedera>(
          *sinbad, fabric, *hedera, scheme_name, config.seed);
      hed->set_rate_monitor(nic_monitor.get());
      scheme = std::move(hed);
      break;
    }
    case SchemeKind::kHdfsEcmp:
      scheme = std::make_unique<policy::ReplicaPlusEcmp>(
          hdfs, fabric, scheme_name, config.seed);
      break;
  }

  // --- fault injection -----------------------------------------------------
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.events_per_minute > 0.0) {
    injector = std::make_unique<fault::FaultInjector>(fabric, tree);
    injector->set_metrics(
        config.obs == nullptr ? nullptr : &config.obs->metrics);
    injector->arm(fault::FaultPlan::random(
        tree, config.faults, splitmix64(config.seed ^ 0xfa017b0b5ULL)));
  }

  // --- job scheduling ------------------------------------------------------
  RunResult result;
  result.scheme = scheme_name;
  std::vector<JobState> states(jobs.size());
  std::vector<double> durations(jobs.size(), -1.0);
  std::size_t jobs_done = 0;

  // Launches (or, after a failure, re-launches) a read of `bytes` for job
  // `job_id`. The caller has already reserved one outstanding slot for it;
  // a split plan claims the extra slots here. The function object outlives
  // the event loop (both live in this frame; leftover scheduled callbacks
  // are destroyed unrun), so callbacks may hold it by reference.
  using LaunchFn = std::function<void(std::size_t, net::NodeId,
                                      const std::vector<net::NodeId>&, double,
                                      std::uint32_t)>;
  LaunchFn launch_read;
  launch_read = [&](std::size_t job_id, net::NodeId client,
                    const std::vector<net::NodeId>& replicas, double bytes,
                    std::uint32_t attempt) {
    const auto retry_later = [&, job_id, client, replicas, bytes, attempt] {
      harness_retries.inc();
      events.schedule_in(
          retry_backoff(attempt),
          [&launch_read, job_id, client, replicas, bytes, attempt] {
            launch_read(job_id, client, replicas, bytes, attempt + 1);
          });
    };
    std::vector<net::NodeId> live = replicas;
    if (injector) {
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](net::NodeId h) {
                                  return !injector->host_up(h);
                                }),
                 live.end());
    }
    if (live.empty()) {  // every replica crashed: wait out a repair
      retry_later();
      return;
    }
    // The plan may arrive later (batched admission defers the decision to
    // the batch drain), so the continuation captures its parameters by
    // value; by-reference captures are frame-locals that outlive the event
    // loop, same as launch_read itself.
    scheme->plan_read_async(
        client, live, bytes,
        [&, job_id, client, replicas, bytes, attempt](
            std::vector<policy::ReadAssignment> plan) {
          if (plan.empty()) {  // no live path to any live replica right now
            MAYFLOWER_ASSERT_MSG(injector != nullptr,
                                 "empty read plan without fault injection");
            harness_retries.inc();
            events.schedule_in(
                retry_backoff(attempt),
                [&launch_read, job_id, client, replicas, bytes, attempt] {
                  launch_read(job_id, client, replicas, bytes, attempt + 1);
                });
            return;
          }
          JobState& st = states[job_id];
          st.outstanding += plan.size() - 1;  // launch already holds one slot
          if (plan.size() > 1) st.split = true;
          for (const auto& assignment : plan) {
            fabric.start_flow(
                assignment.cookie, assignment.path, assignment.bytes,
                [&, job_id](sdn::Cookie cookie, sim::SimTime) {
                  scheme->on_flow_complete(cookie);
                  JobState& js = states[job_id];
                  MAYFLOWER_ASSERT(js.outstanding > 0);
                  const double now_sec = events.now().seconds();
                  if (js.split && js.first_subflow_done < 0.0) {
                    js.first_subflow_done = now_sec;
                  }
                  if (--js.outstanding == 0) {
                    durations[job_id] = now_sec - js.arrival_sec;
                    if (js.split && js.measured) {
                      result.subflow_finish_gaps.push_back(
                          now_sec - js.first_subflow_done);
                    }
                    ++jobs_done;
                  }
                },
                [&, job_id, client, replicas, attempt](
                    sdn::Cookie cookie, const net::FlowRecord& record) {
                  // A fault killed this transfer mid-flight (or at birth).
                  // Release scheme state and retry the unread remainder
                  // against the replica set; the slot carries over to the
                  // replacement read.
                  scheme->on_flow_complete(cookie);
                  ++result.flow_failures;
                  harness_retries.inc();
                  const double rest = std::max(record.remaining_bytes, 1.0);
                  events.schedule_in(
                      retry_backoff(attempt),
                      [&launch_read, job_id, client, replicas, rest,
                       attempt] {
                        launch_read(job_id, client, replicas, rest,
                                    attempt + 1);
                      });
                });
          }
        });
  };

  for (const workload::ReadJob& job : jobs) {
    events.schedule_at(
        sim::SimTime::from_seconds(job.arrival_sec), [&, job] {
          JobState& st = states[job.id];
          st.arrival_sec = job.arrival_sec;
          st.measured = job.id >= config.warmup_jobs;
          st.outstanding = 1;
          const workload::FileMeta& file = catalog.file(job.file);
          launch_read(job.id, job.client, file.replicas, file.bytes,
                      /*attempt=*/0);
        });
  }

  // --- run -----------------------------------------------------------------
  const sim::SimTime cap = sim::SimTime::from_seconds(config.sim_time_cap_sec);
  while (jobs_done < jobs.size() && !events.empty() && events.now() < cap) {
    events.step();
  }
  result.sim_duration_sec = events.now().seconds();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].id < config.warmup_jobs) continue;
    if (durations[i] >= 0.0) {
      result.completions.push_back(durations[i]);
    } else {
      // Censored: still running (or never started) at the cap.
      ++result.incomplete;
      result.completions.push_back(
          std::max(result.sim_duration_sec - jobs[i].arrival_sec, 0.0));
    }
  }
  result.summary = summarize(result.completions);
  if (injector) result.faults_injected = injector->total_injected();
  if (flow_server) {
    result.split_reads = flow_server->split_reads();
    result.selections = flow_server->selections();
    result.samples_applied = flow_server->stats_samples();
    result.samples_deferred_mouse = flow_server->telemetry().deferred_mouse();
    result.samples_deferred_budget =
        flow_server->telemetry().deferred_budget();
    result.telemetry_promotions = flow_server->telemetry().promotions();
    result.telemetry_demotions = flow_server->telemetry().demotions();
    result.poll_cycles = flow_server->polls();
    flow_server->stop();
  }
  if (nic_monitor) nic_monitor->stop();
  if (hedera) hedera->stop();
  return result;
}

}  // namespace mayflower::harness
