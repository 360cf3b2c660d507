#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "sims.hpp"
#include "workload/generator.hpp"

namespace mayflower::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

net::ThreeTier build_fabric(const harness::ExperimentConfig& cfg) {
  return cfg.fabric_kind == harness::FabricKind::kFatTree
             ? net::three_tier_from_fat_tree(cfg.fat_tree)
             : net::build_three_tier(cfg.fabric);
}

flowserver::FlowserverConfig server_config(
    const harness::ExperimentConfig& cfg, obs::Observability* hub) {
  flowserver::FlowserverConfig c = cfg.flowserver;
  c.obs = hub;
  return c;
}

}  // namespace

// The member order reproduces run_experiment's construction order: the
// workload stream draws the catalog, then the job trace.
ReadSim::ReadSim(const harness::ExperimentConfig& cfg, SpanRecorder& rec,
                 obs::Observability* hub)
    : cfg_(cfg),
      rec_(&rec),
      hub_(hub),
      workload_rng_(splitmix64(cfg.seed ^ 0x57a99e12d0c1f00dULL)),
      tree_(build_fabric(cfg)),
      catalog_(tree_, cfg.catalog, workload_rng_),
      jobs_(workload::generate_jobs(tree_, catalog_, cfg.gen, workload_rng_)),
      fabric_(events_, tree_.topo),
      server_(fabric_, server_config(cfg, hub)),
      scheme_(server_, harness::to_string(harness::SchemeKind::kMayflower)),
      states_(jobs_.size()),
      step_span_(rec.intern("sim.step")),
      decide_span_(rec.intern("flowserver.decide")),
      view_span_(rec.intern("flowserver.view")),
      drop_span_(rec.intern("flowserver.drop")),
      poll_span_(rec.intern("flowserver.poll")),
      start_flow_span_(rec.intern("sdn.start_flow")) {
  MAYFLOWER_ASSERT_MSG(cfg.scheme == harness::SchemeKind::kMayflower &&
                           cfg.faults.events_per_minute == 0.0,
                       "ReadSim runs the fault-free Mayflower scheme only");
  fabric_.set_obs(hub);
  decide_us_.reserve(jobs_.size());
  // Where run_experiment calls Flowserver::start().
  arm_poll();
  for (const workload::ReadJob& job : jobs_) {
    events_.schedule_at(sim::SimTime::from_seconds(job.arrival_sec),
                        [this, job] { on_arrival(job); });
  }
}

// The Flowserver's StatsPoller schedule, tick for tick: the next tick is
// armed after the collection, one poll interval later.
void ReadSim::arm_poll() {
  events_.schedule_in(server_.config().poll_interval, [this] {
    rec_->set_job(-1);
    {
      ScopedSpan span(*rec_, poll_span_);
      server_.collect_stats();
    }
    ++poll_ticks_;
    arm_poll();
  });
}

void ReadSim::on_arrival(const workload::ReadJob& job) {
  JobState& st = states_[job.id];
  st.arrival_sec = job.arrival_sec;
  st.outstanding = 1;
  const workload::FileMeta& file = catalog_.file(job.file);
  rec_->set_job(job.id);

  const Clock::time_point start = Clock::now();
  const std::int32_t decide = rec_->open(decide_span_);
  {
    ScopedSpan view(*rec_, view_span_);
    server_.view();
  }
  const std::uint64_t delivered = plans_delivered_;
  scheme_.plan_read_async(
      job.client, file.replicas, file.bytes,
      [this, id = job.id, start,
       decide](std::vector<policy::ReadAssignment> plan) {
        rec_->close(decide);
        decide_us_.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
        ++plans_delivered_;
        start_plan(id, std::move(plan));
      });
  if (plans_delivered_ != delivered + 1) {
    // A batch of one decides inside the call; anything else is a different
    // pipeline from the one this benchmark defines.
    ++callback_errors_;
  }
}

void ReadSim::start_plan(std::uint32_t job,
                         std::vector<policy::ReadAssignment> plan) {
  JobState& st = states_[job];
  if (plan.empty()) {  // no reachable replica: impossible without faults
    st.failed = true;
    return;
  }
  st.outstanding += plan.size() - 1;
  for (const policy::ReadAssignment& a : plan) {
    ScopedSpan span(*rec_, start_flow_span_);
    fabric_.start_flow(
        a.cookie, a.path, a.bytes,
        [this, job](sdn::Cookie cookie, sim::SimTime) {
          on_flow_end(job, cookie, true);
        },
        [this, job](sdn::Cookie cookie, const net::FlowRecord&) {
          on_flow_end(job, cookie, false);
        });
  }
}

void ReadSim::on_flow_end(std::uint32_t job, sdn::Cookie cookie, bool ok) {
  rec_->set_job(job);
  {
    ScopedSpan span(*rec_, drop_span_);
    scheme_.on_flow_complete(cookie);
  }
  JobState& st = states_[job];
  if (!ok) st.failed = true;  // killed transfer: no faults are injected
  if (st.outstanding == 0) {
    ++callback_errors_;
    return;
  }
  if (--st.outstanding > 0) return;
  ++st.fired;
  st.duration = events_.now().seconds() - st.arrival_sec;
  ++jobs_done_;
}

void ReadSim::run() {
  const sim::SimTime cap = sim::SimTime::from_seconds(cfg_.sim_time_cap_sec);
  if (!rec_->enabled()) {
    while (jobs_done_ < jobs_.size() && !events_.empty() &&
           events_.now() < cap) {
      events_.step();
    }
    return;
  }
  while (jobs_done_ < jobs_.size() && !events_.empty() &&
         events_.now() < cap) {
    rec_->set_job(-1);
    {
      ScopedSpan span(*rec_, step_span_);
      events_.step();
    }
    ++steps_;
    const std::size_t active = fabric_.flow_sim().active_flow_count();
    active_sum_ += static_cast<double>(active);
    active_max_ = std::max<std::uint64_t>(active_max_, active);
  }
}

SimOutcome ReadSim::outcome() const {
  SimOutcome o;
  o.attempted = jobs_.size();
  o.sim_end_sec = events_.now().seconds();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobState& st = states_[i];
    if (st.failed || st.duration < 0.0) ++o.failed;
    if (st.fired != 1) ++o.callback_errors;
    if (jobs_[i].id < cfg_.warmup_jobs) continue;
    if (st.duration >= 0.0) {
      o.reads.push_back(st.duration);
    } else {
      // Censored at the cap, as the harness reports it.
      ++o.incomplete;
      o.reads.push_back(std::max(o.sim_end_sec - jobs_[i].arrival_sec, 0.0));
    }
  }
  o.jobs = o.reads;
  o.callback_errors += callback_errors_;
  o.selections = server_.selections();
  o.split_reads = server_.split_reads();
  return o;
}

LayerCounts ReadSim::counts() const {
  LayerCounts c;
  c.jobs = jobs_.size();
  c.decisions = decide_us_.size();
  c.view_rebuilds = server_.view_rebuilds();
  c.shard_reloads = server_.shard_reloads();
  c.selections = server_.selections();
  c.split_reads = server_.split_reads();
  c.poll_ticks = poll_ticks_;
  c.poll_samples = server_.stats_samples();
  c.events = steps_;
  c.active_flows_sum = active_sum_;
  c.active_flows_max = active_max_;
  if (hub_ != nullptr) {
    for (const obs::DecisionAudit& d : hub_->trace.decisions()) {
      ++c.audited_decisions;
      c.audited_candidates += d.candidates;
    }
    const obs::MetricsRegistry& m = hub_->metrics;
    c.path_installs = m.counter_value("sdn.fabric.path_installs");
    c.incremental_solves = m.counter_value("net.flowsim.incremental_solves");
    c.full_solves = m.counter_value("net.flowsim.full_solves");
    c.handoff_solves = m.counter_value("net.flowsim.handoff_solves");
  }
  return c;
}

}  // namespace mayflower::perfbench
