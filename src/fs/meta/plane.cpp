#include "fs/meta/plane.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace mayflower::fs::meta {

MetaPlane::MetaPlane(Transport& transport, sim::EventQueue& events,
                     const net::ThreeTier& tree, net::NodeId coordinator,
                     std::vector<net::NodeId> shard_nodes,
                     MetaPlaneConfig config, std::uint64_t seed)
    : transport_(&transport),
      events_(&events),
      coordinator_(coordinator),
      shard_nodes_(std::move(shard_nodes)),
      config_(std::move(config)),
      alive_(std::make_shared<bool>(true)) {
  MAYFLOWER_ASSERT(!shard_nodes_.empty());
  MAYFLOWER_ASSERT(config_.domains.empty() ||
                   config_.domains.size() == shard_nodes_.size());
  MAYFLOWER_ASSERT(!config_.shard_base.kv_dir.empty());

  map_.mode = config_.partition;
  map_.epoch = 1;
  map_.owners = shard_nodes_;  // shard i starts on server i

  servers_.reserve(shard_nodes_.size());
  for (std::size_t i = 0; i < shard_nodes_.size(); ++i) {
    NameserverConfig shard = config_.shard_base;
    shard.kv_dir = config_.shard_base.kv_dir / strfmt("shard%zu", i);
    shard.events = events_;
    shard.metric_scope = strfmt("meta.shard.%zu", i);
    servers_.push_back(std::make_unique<Nameserver>(
        *transport_, shard_nodes_[i], tree, std::move(shard),
        splitmix64(seed ^ (0x5a17ULL + i))));
    servers_.back()->set_shard_map(&map_);
  }

  transport_->bind(coordinator_, [this](net::NodeId /*from*/, Method method,
                                        const Bytes& /*request*/,
                                        ResponseFn reply) {
    switch (method) {
      case Method::kGetShardMap:
        reply(Status::kOk, encode(ShardMapResp{map_}));
        return;
      case Method::kPing:
        reply(Status::kOk, {});
        return;
      default:
        reply(Status::kBadRequest, {});
    }
  });
}

MetaPlane::~MetaPlane() {
  *alive_ = false;
  stop_monitoring();
  transport_->unbind(coordinator_);
}

void MetaPlane::set_obs(obs::Observability* hub) {
  for (auto& server : servers_) server->set_obs(hub);
  if (hub == nullptr) {
    failovers_metric_ = obs::Counter{};
    return;
  }
  hub->metrics.gauge("meta.shard.count")
      .set(static_cast<double>(servers_.size()));
  failovers_metric_ = hub->metrics.counter("meta.plane.failovers");
}

void MetaPlane::start_monitoring(sim::SimTime interval) {
  MAYFLOWER_ASSERT(interval > sim::SimTime{});
  stop_monitoring();
  probe_interval_ = interval;
  probe_event_ =
      events_->schedule_in(probe_interval_, [this] { probe_cycle(); });
}

void MetaPlane::stop_monitoring() {
  if (probe_event_.valid()) events_->cancel(probe_event_);
  probe_event_ = {};
}

void MetaPlane::probe_cycle() {
  probe_event_ =
      events_->schedule_in(probe_interval_, [this] { probe_cycle(); });
  auto pending = std::make_shared<std::size_t>(servers_.size());
  auto dead = std::make_shared<std::set<std::size_t>>();
  auto alive = alive_;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    transport_->call(coordinator_, shard_nodes_[i], Method::kPing, Bytes{},
                     [this, alive, i, pending, dead](Status status, Bytes) {
                       if (!*alive) return;
                       if (status != Status::kOk) dead->insert(i);
                       if (--*pending == 0 && !dead->empty()) {
                         fail_over(*dead);
                       }
                     });
  }
}

void MetaPlane::fail_over(const std::set<std::size_t>& dead_servers) {
  // Survivor pool, and how many shards each already owns (for balance).
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (dead_servers.count(i) == 0) survivors.push_back(i);
  }
  if (survivors.empty()) {
    MAYFLOWER_LOG_ERROR("meta: every shard server is dead; no failover");
    return;
  }
  const auto domain_of = [this](std::size_t server) {
    return config_.domains.empty() ? static_cast<int>(server)
                                   : config_.domains[server];
  };
  const auto server_of_node = [this](net::NodeId node) {
    for (std::size_t i = 0; i < shard_nodes_.size(); ++i) {
      if (shard_nodes_[i] == node) return i;
    }
    MAYFLOWER_ASSERT_MSG(false, "shard owner is not a known server");
    __builtin_unreachable();
  };
  std::vector<std::size_t> owned(servers_.size(), 0);
  for (const net::NodeId owner : map_.owners) ++owned[server_of_node(owner)];

  // Reassign every shard whose owner is dead: balance by current ownership,
  // preferring survivors outside the dead owner's fault domain.
  // adopted[s] collects the shard indices server s takes over.
  std::vector<std::set<std::size_t>> adopted(servers_.size());
  bool moved = false;
  for (std::size_t shard = 0; shard < map_.owners.size(); ++shard) {
    const std::size_t owner = server_of_node(map_.owners[shard]);
    if (dead_servers.count(owner) == 0) continue;
    std::size_t best = survivors.front();
    bool best_cross = false;
    for (const std::size_t s : survivors) {
      const bool cross = domain_of(s) != domain_of(owner);
      if ((cross && !best_cross) ||
          (cross == best_cross && owned[s] < owned[best])) {
        best = s;
        best_cross = cross;
      }
    }
    map_.owners[shard] = shard_nodes_[best];
    ++owned[best];
    adopted[best].insert(shard);
    moved = true;
  }
  if (!moved) return;  // dead servers owned nothing (already failed over)

  ++map_.epoch;
  ++failovers_;
  failovers_metric_.inc();
  MAYFLOWER_LOG_WARN("meta: failover #%llu, shard map epoch now %llu",
                     static_cast<unsigned long long>(failovers_),
                     static_cast<unsigned long long>(map_.epoch));

  if (config_.dataservers.empty()) return;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (adopted[s].empty()) continue;
    auto ranges = std::make_shared<std::set<std::size_t>>(
        std::move(adopted[s]));
    auto alive = alive_;
    servers_[s]->adopt_from_dataservers(
        [this, ranges](const std::string& name) {
          return ranges->count(map_.shard_of_path(name)) != 0;
        },
        config_.dataservers, [this, alive, s] {
          if (!*alive) return;
          ++adoptions_completed_;
          MAYFLOWER_LOG_INFO(
              "meta: server %zu finished adopting failed shard ranges "
              "(%llu files recovered so far)",
              s,
              static_cast<unsigned long long>(
                  servers_[s]->adopted_files()));
        });
  }
}

}  // namespace mayflower::fs::meta
