#include <algorithm>
#include <system_error>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "sims.hpp"

namespace mayflower::perfbench {
namespace {

// ClusterConfig defaults the write tenant runs with.
constexpr sim::SimTime kRpcLatency = sim::SimTime::from_micros(200);

// Every extent of `got` reads back the pattern `writer` appended.
bool content_matches(const fs::ExtentList& got, std::uint64_t writer,
                     std::uint64_t bytes) {
  if (got.size() != bytes) return false;
  const fs::Extent whole = fs::Extent::pattern(writer, bytes);
  std::uint64_t offset = 0;
  for (const fs::Extent& e : got.extents()) {
    if (!e.content_equals(whole.slice(offset, e.size()))) return false;
    offset += e.size();
  }
  return true;
}

}  // namespace

// Construction order follows fs::Cluster's constructor for a Mayflower
// cluster (Flowserver over RPC, measured placement, pipelined chains,
// collaborative placement, single nameserver, in-memory dataservers): the
// order fixes event sequence numbers and hence the simulated outcome.
WriteMixSim::WriteMixSim(const harness::WriteExperimentConfig& cfg,
                         std::filesystem::path kv_dir, SpanRecorder& rec,
                         obs::Observability* hub)
    : cfg_(cfg),
      kv_dir_(std::move(kv_dir)),
      rec_(&rec),
      hub_(hub),
      tree_(net::build_three_tier(cfg.fabric)),
      mix_(splitmix64(cfg.seed ^ 0xead5ULL)),
      step_span_(rec.intern("sim.step")),
      poll_span_(rec.intern("flowserver.poll")),
      placement_span_(rec.intern("policy.write_placement")),
      create_span_(rec.intern("fs.client.create")),
      append_span_(rec.intern("fs.client.append")),
      read_span_(rec.intern("fs.client.read_file")) {
  MAYFLOWER_ASSERT_MSG(cfg.placement == policy::WritePlacementKind::kMeasured &&
                           cfg.pipeline,
                       "WriteMixSim wires measured placement with chains");
  nameserver_node_ = tree_.topo.add_node(net::NodeKind::kHost, "nameserver");
  controller_node_ = tree_.topo.add_node(net::NodeKind::kHost, "controller");

  fabric_ = std::make_unique<sdn::SdnFabric>(events_, tree_.topo);
  fabric_->set_obs(hub_);
  transport_ = std::make_unique<TimedTransport>(events_, kRpcLatency, rec);
  transport_->set_role(controller_node_, Role::kFlowserver);
  transport_->set_role(nameserver_node_, Role::kNameserver);

  flowserver::FlowserverConfig fs_cfg;
  fs_cfg.decision_threads = cfg.decision_threads;
  fs_cfg.obs = hub_;
  flow_server_ = std::make_unique<flowserver::Flowserver>(*fabric_, fs_cfg);
  arm_poll();  // where fs::Cluster calls Flowserver::start()
  const std::uint32_t view_span = rec.intern("flowserver.view");
  transport_->set_before_plan([this, view_span] {
    ScopedSpan span(*rec_, view_span);
    flow_server_->view();
  });
  service_ = std::make_unique<fs::FlowserverService>(
      *transport_, controller_node_, *flow_server_);
  write_planner_ = std::make_unique<fs::RpcPlanner>(*transport_, controller_node_);
  read_planner_ = std::make_unique<fs::RpcPlanner>(*transport_, controller_node_);

  // Measured placement: residual headroom from port counters over every
  // fabric link, ranked against the Flowserver's view.
  measured_paths_ = std::make_unique<net::PathCache>(tree_.topo);
  std::vector<net::LinkId> all_links(tree_.topo.link_count());
  for (net::LinkId l = 0; l < all_links.size(); ++l) all_links[l] = l;
  link_rates_ = std::make_unique<sdn::LinkRateMonitor>(
      *fabric_, std::move(all_links), fs_cfg.poll_interval);
  flow_server_->set_rate_monitor(link_rates_.get());
  measured_placement_ =
      std::make_unique<policy::MeasuredWritePlacement>(*measured_paths_);
  flow_server_->set_write_ranker(
      [this](net::NodeId writer, const std::vector<net::NodeId>& pool,
             const net::NetworkView& v) {
        return measured_placement_->rank(writer, pool, v);
      });

  fs::NameserverConfig ns_cfg;
  ns_cfg.chunk_size = static_cast<std::uint64_t>(cfg.block_bytes);
  ns_cfg.kv_dir = kv_dir_;
  ns_cfg.events = &events_;
  ns_cfg.placement_advisor = [this](net::NodeId writer,
                                    const std::vector<net::NodeId>& pool) {
    ScopedSpan span(*rec_, placement_span_);
    ++placement_calls_;
    placement_candidates_ += pool.size();
    return flow_server_->best_write_target(writer, pool);
  };
  nameserver_ = std::make_unique<fs::Nameserver>(
      *transport_, nameserver_node_, tree_, std::move(ns_cfg),
      splitmix64(cfg.seed ^ 0x9a3e5));
  nameserver_->set_obs(hub_);

  dataservers_.reserve(tree_.hosts.size());
  clients_.reserve(tree_.hosts.size());
  for (std::size_t i = 0; i < tree_.hosts.size(); ++i) {
    fs::DataserverConfig ds;
    ds.nameserver = nameserver_node_;
    dataservers_.push_back(std::make_unique<fs::Dataserver>(
        *transport_, *fabric_, tree_.hosts[i], ds,
        splitmix64(cfg.seed ^ (0xd5 + i))));
    dataservers_.back()->set_obs(hub_);
  }
  // fs::Cluster creates clients on first use; a client neither schedules
  // events nor draws randomness when built, so building them all here only
  // moves their construction into set-up.
  fs::ClientConfig client_cfg;
  client_cfg.write_pipeline = true;
  for (const net::NodeId host : tree_.hosts) {
    clients_.push_back(std::make_unique<fs::Client>(
        *transport_, *fabric_, *read_planner_, host, nameserver_node_,
        client_cfg));
    clients_.back()->set_obs(hub_);
    clients_.back()->set_write_planner(write_planner_.get());
  }

  // The job trace of run_write_experiment.
  const std::size_t jobs = cfg.total_jobs;
  states_.resize(jobs);
  Rng arrivals(splitmix64(cfg.seed ^ 0x3717eULL));
  const double system_rate =
      cfg.lambda_per_server * static_cast<double>(tree_.hosts.size());
  double arrival = 0.0;
  for (std::size_t j = 0; j < jobs; ++j) {
    arrival += arrivals.exponential(system_rate);
    const std::size_t host = arrivals.next_below(tree_.hosts.size());
    const bool wants_write = arrivals.uniform(0.0, 1.0) < cfg.write_fraction;
    events_.schedule_at(sim::SimTime::from_seconds(arrival),
                        [this, j, host, wants_write] {
                          on_arrival(j, host, wants_write);
                        });
  }
}

WriteMixSim::~WriteMixSim() {
  clients_.clear();
  dataservers_.clear();
  nameserver_.reset();
  std::error_code ec;
  std::filesystem::remove_all(kv_dir_, ec);
}

void WriteMixSim::arm_poll() {
  events_.schedule_in(flow_server_->config().poll_interval, [this] {
    rec_->set_job(-1);
    {
      ScopedSpan span(*rec_, poll_span_);
      flow_server_->collect_stats();
    }
    ++poll_ticks_;
    arm_poll();
  });
}

void WriteMixSim::on_arrival(std::size_t job, std::size_t host_index,
                             bool wants_write) {
  rec_->set_job(static_cast<std::int64_t>(job));
  const double start = events_.now().seconds();
  fs::Client& client = *clients_[host_index];
  const auto bytes = static_cast<std::uint64_t>(cfg_.block_bytes);
  // Read half: read back a finished write, if one exists yet.
  if (!wants_write && !live_.empty()) {
    const std::size_t pick = mix_.next_below(live_.size());
    const std::uint64_t writer = live_writer_[pick];
    ScopedSpan span(*rec_, read_span_);
    client.read_file(live_[pick], [this, job, start, writer, bytes](
                                      fs::Status s, fs::ReadResult r) {
      finish(job, start,
             s == fs::Status::kOk && content_matches(r.data, writer, bytes));
    });
    return;
  }
  states_[job].write = true;
  std::string name = strfmt("w-%04zu", job);
  ScopedSpan span(*rec_, create_span_);
  client.create(name, [this, job, name, start, bytes, &client](
                          fs::Status s, const fs::FileInfo&) {
    if (s != fs::Status::kOk) {
      finish(job, start, false);
      return;
    }
    rec_->set_job(static_cast<std::int64_t>(job));
    ScopedSpan append(*rec_, append_span_);
    client.append(
        name, fs::ExtentList(fs::Extent::pattern(job, bytes)),
        [this, job, name, start, bytes](fs::Status as,
                                        const fs::AppendResp& resp) {
          const bool ok = as == fs::Status::kOk && resp.offset == 0 &&
                          resp.new_size == bytes;
          if (ok) {
            live_.push_back(name);
            live_writer_.push_back(job);
          }
          finish(job, start, ok);
        });
  });
}

void WriteMixSim::finish(std::size_t job, double start_sec, bool ok) {
  JobState& st = states_[job];
  if (++st.fired > 1) {
    ++callback_errors_;
    return;
  }
  st.duration = events_.now().seconds() - start_sec;
  st.failed = !ok;
  ++done_;
}

void WriteMixSim::run() {
  const auto cap = sim::SimTime::from_seconds(cfg_.sim_time_cap_sec);
  if (!rec_->enabled()) {
    while (done_ < states_.size() && !events_.empty() &&
           events_.now() < cap) {
      events_.step();
    }
    return;
  }
  while (done_ < states_.size() && !events_.empty() && events_.now() < cap) {
    rec_->set_job(-1);
    {
      ScopedSpan span(*rec_, step_span_);
      events_.step();
    }
    ++steps_;
    const std::size_t active = fabric_->flow_sim().active_flow_count();
    active_sum_ += static_cast<double>(active);
    active_max_ = std::max<std::uint64_t>(active_max_, active);
  }
}

SimOutcome WriteMixSim::outcome() const {
  SimOutcome o;
  o.attempted = states_.size();
  o.sim_end_sec = events_.now().seconds();
  for (std::size_t j = 0; j < states_.size(); ++j) {
    const JobState& st = states_[j];
    if (st.failed || st.duration < 0.0) ++o.failed;
    if (st.fired != 1) ++o.callback_errors;
    if (j < cfg_.warmup_jobs) continue;
    if (st.duration < 0.0) {
      ++o.incomplete;
      continue;
    }
    (st.write ? o.appends : o.reads).push_back(st.duration);
    o.jobs.push_back(st.duration);
  }
  o.callback_errors += callback_errors_;
  o.selections = flow_server_->selections();
  o.split_reads = flow_server_->split_reads();
  o.write_chains = flow_server_->write_chains();
  for (const auto& ds : dataservers_) {
    o.chain_appends += ds->chain_appends();
    o.relay_failures += ds->relay_failures();
  }
  return o;
}

LayerCounts WriteMixSim::counts() const {
  LayerCounts c;
  c.jobs = states_.size();
  c.decisions = transport_->decide_us().size();
  c.view_rebuilds = flow_server_->view_rebuilds();
  c.shard_reloads = flow_server_->shard_reloads();
  c.selections = flow_server_->selections();
  c.split_reads = flow_server_->split_reads();
  c.poll_ticks = poll_ticks_;
  c.poll_samples = flow_server_->stats_samples();
  c.events = steps_;
  c.active_flows_sum = active_sum_;
  c.active_flows_max = active_max_;
  c.flowserver_rpcs = transport_->flowserver_calls();
  c.placement_calls = placement_calls_;
  c.placement_candidates = placement_candidates_;
  c.rpc_calls = transport_->calls();
  c.rpc_bytes = transport_->bytes();
  for (const auto& client : clients_) {
    c.cache_hits += client->cache_hits();
    c.lookups += client->lookups_sent();
  }
  for (const JobState& st : states_) c.writes += st.write ? 1 : 0;
  for (const auto& ds : dataservers_) {
    c.chain_appends += ds->chain_appends();
    c.relay_failures += ds->relay_failures();
  }
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
