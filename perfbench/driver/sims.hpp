// The two simulation drivers behind the workloads. Each constructor is the
// set-up phase and run() is the timed phase; the wiring mirrors
// harness::run_experiment (ReadSim) and fs::Cluster +
// harness::run_write_experiment (WriteMixSim) with the benchmark's
// measurement points added around the calls into each layer.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "flowserver/flowserver.hpp"
#include "fs/client.hpp"
#include "fs/dataserver.hpp"
#include "fs/flowserver_service.hpp"
#include "fs/nameserver.hpp"
#include "policy/scheme.hpp"
#include "policy/write_placement.hpp"
#include "timed_transport.hpp"
#include "workload/catalog.hpp"
#include "workloads.hpp"

namespace mayflower::perfbench {

// paper_read and fattree_storm: the read harness with the Mayflower scheme,
// no faults. The benchmark calls Flowserver::view() just before each plan
// (a no-op refresh, so decisions are unchanged) and runs the stats polls
// from its own timer instead of Flowserver::start(), so both can be timed.
class ReadSim {
 public:
  ReadSim(const harness::ExperimentConfig& cfg, SpanRecorder& rec,
          obs::Observability* hub);

  ReadSim(const ReadSim&) = delete;
  ReadSim& operator=(const ReadSim&) = delete;

  void run();
  SimOutcome outcome() const;
  LayerCounts counts() const;
  const std::vector<double>& decide_us() const { return decide_us_; }

 private:
  struct JobState {
    double arrival_sec = 0.0;
    std::size_t outstanding = 0;
    double duration = -1.0;
    bool failed = false;
    std::uint32_t fired = 0;  // completion callbacks
  };

  void arm_poll();
  void on_arrival(const workload::ReadJob& job);
  void start_plan(std::uint32_t job, std::vector<policy::ReadAssignment> plan);
  void on_flow_end(std::uint32_t job, sdn::Cookie cookie, bool ok);

  harness::ExperimentConfig cfg_;
  SpanRecorder* rec_;
  obs::Observability* hub_;
  Rng workload_rng_;
  net::ThreeTier tree_;
  workload::Catalog catalog_;
  std::vector<workload::ReadJob> jobs_;
  sim::EventQueue events_;
  sdn::SdnFabric fabric_;
  flowserver::Flowserver server_;
  policy::MayflowerScheme scheme_;

  std::vector<JobState> states_;
  std::size_t jobs_done_ = 0;
  std::size_t callback_errors_ = 0;
  std::uint64_t plans_delivered_ = 0;
  std::vector<double> decide_us_;
  std::uint64_t poll_ticks_ = 0;
  std::uint64_t steps_ = 0;
  double active_sum_ = 0.0;
  std::uint64_t active_max_ = 0;

  std::uint32_t step_span_;
  std::uint32_t decide_span_;
  std::uint32_t view_span_;
  std::uint32_t drop_span_;
  std::uint32_t poll_span_;
  std::uint32_t start_flow_span_;
};

// write_mix: the fs cluster wired from the public fs classes the way
// fs::Cluster wires a Mayflower cluster with the Flowserver behind RPC,
// measured write placement and pipelined chain replication, driven by the
// job mix of harness::run_write_experiment. Two wrappers measure it: the
// TimedTransport decorator and a wrapper around the nameserver's placement
// advisor.
class WriteMixSim {
 public:
  WriteMixSim(const harness::WriteExperimentConfig& cfg,
              std::filesystem::path kv_dir, SpanRecorder& rec,
              obs::Observability* hub);
  ~WriteMixSim();

  WriteMixSim(const WriteMixSim&) = delete;
  WriteMixSim& operator=(const WriteMixSim&) = delete;

  void run();
  SimOutcome outcome() const;
  LayerCounts counts() const;
  const std::vector<double>& decide_us() const {
    return transport_->decide_us();
  }

 private:
  struct JobState {
    double duration = -1.0;
    bool write = false;
    bool failed = false;
    std::uint32_t fired = 0;  // completion callbacks
  };

  void arm_poll();
  void on_arrival(std::size_t job, std::size_t host_index, bool wants_write);
  void finish(std::size_t job, double start_sec, bool ok);

  harness::WriteExperimentConfig cfg_;
  std::filesystem::path kv_dir_;
  SpanRecorder* rec_;
  obs::Observability* hub_;

  sim::EventQueue events_;
  net::ThreeTier tree_;
  net::NodeId nameserver_node_ = net::kInvalidNode;
  net::NodeId controller_node_ = net::kInvalidNode;
  std::unique_ptr<sdn::SdnFabric> fabric_;
  std::unique_ptr<TimedTransport> transport_;
  std::unique_ptr<flowserver::Flowserver> flow_server_;
  std::unique_ptr<fs::FlowserverService> service_;
  std::unique_ptr<fs::RpcPlanner> write_planner_;
  std::unique_ptr<fs::RpcPlanner> read_planner_;
  std::unique_ptr<net::PathCache> measured_paths_;
  std::unique_ptr<sdn::LinkRateMonitor> link_rates_;
  std::unique_ptr<policy::MeasuredWritePlacement> measured_placement_;
  std::unique_ptr<fs::Nameserver> nameserver_;
  std::vector<std::unique_ptr<fs::Dataserver>> dataservers_;  // host order
  std::vector<std::unique_ptr<fs::Client>> clients_;          // host order

  Rng mix_;
  std::vector<JobState> states_;
  std::vector<std::string> live_;           // files whose append was acked
  std::vector<std::uint64_t> live_writer_;  // job that wrote live_[i]
  std::size_t done_ = 0;
  std::size_t callback_errors_ = 0;
  std::uint64_t placement_calls_ = 0;
  std::uint64_t placement_candidates_ = 0;
  std::uint64_t poll_ticks_ = 0;
  std::uint64_t steps_ = 0;
  double active_sum_ = 0.0;
  std::uint64_t active_max_ = 0;

  std::uint32_t step_span_;
  std::uint32_t poll_span_;
  std::uint32_t placement_span_;
  std::uint32_t create_span_;
  std::uint32_t append_span_;
  std::uint32_t read_span_;
};

}  // namespace mayflower::perfbench
