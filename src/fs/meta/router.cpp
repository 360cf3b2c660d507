#include "fs/meta/router.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace mayflower::fs::meta {

MetaRouter::MetaRouter(Transport& transport, sim::EventQueue& events,
                       net::NodeId self, MetaRouterConfig config)
    : transport_(&transport),
      events_(&events),
      self_(self),
      config_(config),
      alive_(std::make_shared<bool>(true)) {
  MAYFLOWER_ASSERT(config_.coordinator != net::kInvalidNode);
  MAYFLOWER_ASSERT(config_.max_attempts >= 1);
}

MetaRouter::~MetaRouter() { *alive_ = false; }

void MetaRouter::set_obs(obs::Observability* hub) {
  if (hub == nullptr) {
    map_fetches_metric_ = wrong_shard_metric_ = obs::Counter{};
    lookup_latency_hist_ = obs::Histogram{};
    return;
  }
  map_fetches_metric_ = hub->metrics.counter("meta.router.map_fetches");
  wrong_shard_metric_ =
      hub->metrics.counter("meta.router.wrong_shard_retries");
  // Edges in seconds: one RPC round trip is 400 us, so the ladder spans
  // "served instantly" through "queued behind a busy shard / retried".
  lookup_latency_hist_ = hub->metrics.histogram(
      "meta.lookup_latency_sec", {0.0005, 0.001, 0.002, 0.005, 0.02, 0.1});
}

void MetaRouter::with_map(std::function<void(Status)> fn) {
  if (map_.has_value()) {
    fn(Status::kOk);
    return;
  }
  fetch_waiters_.push_back(std::move(fn));
  if (fetch_inflight_) return;
  fetch_inflight_ = true;
  ++map_fetches_;
  map_fetches_metric_.inc();
  auto alive = alive_;
  transport_->call(
      self_, config_.coordinator, Method::kGetShardMap, Bytes{},
      [this, alive](Status status, Bytes payload) {
        if (!*alive) return;
        fetch_inflight_ = false;
        if (status == Status::kOk) {
          const auto resp = decode<ShardMapResp>(payload);
          if (resp && !resp->map.owners.empty()) {
            map_ = resp->map;
          } else {
            status = Status::kBadRequest;
          }
        }
        std::vector<std::function<void(Status)>> waiters;
        waiters.swap(fetch_waiters_);
        for (auto& w : waiters) w(status);
      });
}

void MetaRouter::call(const std::string& path, Method method, Bytes request,
                      ResponseFn done) {
  do_call(path, method, std::move(request), 0, std::move(done));
}

void MetaRouter::do_call(const std::string& path, Method method,
                         Bytes request, std::uint32_t attempt,
                         ResponseFn done) {
  with_map([this, path, method, request = std::move(request), attempt,
            done = std::move(done)](Status map_status) mutable {
    if (map_status != Status::kOk) {
      done(Status::kUnavailable, {});
      return;
    }
    const net::NodeId shard = map_->owner_of_path(path);
    const sim::SimTime issued = events_->now();
    auto alive = alive_;
    transport_->call(
        self_, shard, method, request,
        [this, alive, path, method, request, attempt, issued,
         done = std::move(done)](Status status, Bytes payload) mutable {
          if (!*alive) return;
          if (method == Method::kLookupFile) {
            lookup_latency_hist_.observe(
                (events_->now() - issued).seconds());
          }
          if ((status == Status::kWrongShard ||
               status == Status::kUnavailable) &&
              attempt + 1 < config_.max_attempts) {
            // Stale map (shard moved) or a shard mid-failover: drop the
            // cached epoch, wait out the backoff, refetch and retry.
            ++wrong_shard_retries_;
            wrong_shard_metric_.inc();
            invalidate_map();
            events_->schedule_in(
                config_.retry_backoff,
                [this, alive, path, method, request = std::move(request),
                 attempt, done = std::move(done)]() mutable {
                  if (!*alive) return;
                  do_call(path, method, std::move(request), attempt + 1,
                          std::move(done));
                });
            return;
          }
          done(status, std::move(payload));
        });
  });
}

void MetaRouter::list(const std::string& prefix, ListFn done) {
  with_map([this, prefix, done = std::move(done)](Status map_status) mutable {
    if (map_status != Status::kOk) {
      done(Status::kUnavailable, {});
      return;
    }
    // Deduplicated target shards, in shard order for determinism. In
    // subtree mode a prefix that crosses the first '/' fully names its
    // top-level directory, so the whole subtree lives on one shard; a bare
    // partial name could still match several directories and must fan out.
    std::vector<net::NodeId> targets;
    const bool single_shard = map_->mode == Partition::kSubtree &&
                              prefix.find('/') != std::string::npos;
    if (single_shard) {
      targets.push_back(map_->owner_of_path(prefix));
    } else {
      for (const net::NodeId owner : map_->owners) {
        if (std::find(targets.begin(), targets.end(), owner) ==
            targets.end()) {
          targets.push_back(owner);
        }
      }
    }
    struct Merge {
      Status status = Status::kOk;
      std::vector<std::string> names;
      std::size_t outstanding = 0;
    };
    auto st = std::make_shared<Merge>();
    st->outstanding = targets.size();
    auto shared_done = std::make_shared<ListFn>(std::move(done));
    auto alive = alive_;
    for (const net::NodeId shard : targets) {
      transport_->call(
          self_, shard, Method::kListFiles, Bytes{},
          [alive, st, prefix, shared_done](Status status, Bytes payload) {
            if (!*alive) return;
            if (status == Status::kOk) {
              auto resp = decode<ListFilesResp>(payload);
              if (resp) {
                for (std::string& name : resp->names) {
                  if (prefix.empty() || name.rfind(prefix, 0) == 0) {
                    st->names.push_back(std::move(name));
                  }
                }
              } else if (st->status == Status::kOk) {
                st->status = Status::kBadRequest;
              }
            } else if (st->status == Status::kOk) {
              st->status = status;
            }
            if (--st->outstanding > 0) return;
            std::sort(st->names.begin(), st->names.end());
            (*shared_done)(st->status, std::move(st->names));
          });
    }
  });
}

}  // namespace mayflower::fs::meta
