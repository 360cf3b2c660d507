#include "fs/client.hpp"

#include <algorithm>
#include <memory>

#include "common/logging.hpp"

namespace mayflower::fs {

Client::Client(Transport& transport, sdn::SdnFabric& fabric,
               ReadPlanner& planner, net::NodeId node, net::NodeId nameserver,
               ClientConfig config)
    : transport_(&transport),
      fabric_(&fabric),
      planner_(&planner),
      node_(node),
      nameserver_(nameserver),
      config_(config),
      paths_(fabric.topology()),
      ecmp_(node) {}

sim::SimTime Client::retry_backoff(std::uint32_t attempt) const {
  // Capped exponential: 1x, 2x, 4x, ... up to 8x the base backoff.
  const std::int64_t mult = std::int64_t{1} << std::min(attempt, 3u);
  return sim::SimTime::from_nanos(config_.read_retry_backoff.nanos() * mult);
}

sim::SimTime Client::count_retry_backoff(std::uint32_t attempt) {
  const sim::SimTime backoff = retry_backoff(attempt);
  read_retries_metric_.inc();
  retry_backoff_hist_.observe(backoff.seconds());
  return backoff;
}

void Client::set_obs(obs::Observability* hub) {
  if (hub == nullptr) {
    lookups_metric_ = cache_hits_metric_ = read_retries_metric_ =
        obs::Counter{};
    retry_backoff_hist_ = obs::Histogram{};
    return;
  }
  lookups_metric_ = hub->metrics.counter("fs.client.lookups");
  cache_hits_metric_ = hub->metrics.counter("fs.client.cache_hits");
  read_retries_metric_ = hub->metrics.counter("fs.client.read_retries");
  // Edges cover the capped-exponential ladder (base 20 ms, cap 8x).
  retry_backoff_hist_ = hub->metrics.histogram(
      "fs.client.retry_backoff_sec", {0.02, 0.04, 0.08, 0.16, 0.32});
}

void Client::cache_put(const FileInfo& info) {
  cache_[info.name] =
      CachedMeta{info, fabric_->events().now() + config_.meta_cache_ttl};
}

void Client::ns_call(const std::string& path, Method method, Bytes request,
                     ResponseFn done) {
  if (router_ != nullptr) {
    router_->call(path, method, std::move(request), std::move(done));
    return;
  }
  transport_->call(node_, nameserver_, method, std::move(request),
                   std::move(done));
}

void Client::with_meta(const std::string& name, bool allow_cache,
                       std::function<void(Status, const FileInfo&)> fn) {
  if (allow_cache) {
    const auto it = cache_.find(name);
    if (it != cache_.end() && fabric_->events().now() < it->second.expires) {
      ++cache_hits_;
      cache_hits_metric_.inc();
      fn(Status::kOk, it->second.info);
      return;
    }
  }
  ++lookups_sent_;
  lookups_metric_.inc();
  // Snapshot the invalidation generation at issue time: a delete (or any
  // other invalidation) racing this lookup bumps it, and the stale response
  // must then not repopulate the cache.
  const std::uint64_t gen = cache_gen(name);
  ns_call(name, Method::kLookupFile, encode(NameReq{name}),
          [this, name, gen, fn = std::move(fn)](Status status,
                                                Bytes payload) {
            if (status != Status::kOk) {
              fn(status, FileInfo{});
              return;
            }
            const auto resp = decode<FileInfoResp>(payload);
            if (!resp) {
              fn(Status::kBadRequest, FileInfo{});
              return;
            }
            if (gen == cache_gen(name)) cache_put(resp->info);
            fn(Status::kOk, resp->info);
          });
}

void Client::create(const std::string& name, CreateFn done) {
  CreateFileReq req;
  req.name = name;
  req.replication = config_.replication;
  req.client = node_;
  const std::uint64_t gen = cache_gen(name);
  ns_call(name, Method::kCreateFile, encode(req),
          [this, name, gen, done = std::move(done)](Status status,
                                                    Bytes payload) {
            if (status != Status::kOk) {
              done(status, FileInfo{});
              return;
            }
            const auto resp = decode<FileInfoResp>(payload);
            if (!resp) {
              done(Status::kBadRequest, FileInfo{});
              return;
            }
            if (gen == cache_gen(name)) cache_put(resp->info);
            done(Status::kOk, resp->info);
          });
}

void Client::remove(const std::string& name, SimpleFn done) {
  invalidate_cache(name);
  ns_call(name, Method::kDeleteFile, encode(NameReq{name}),
          [done = std::move(done)](Status status, Bytes) { done(status); });
}

void Client::stat(const std::string& name, StatFn done) {
  with_meta(name, /*allow_cache=*/true, std::move(done));
}

void Client::list(ListFn done) {
  if (router_ != nullptr) {
    router_->list("", std::move(done));
    return;
  }
  transport_->call(node_, nameserver_, Method::kListFiles, Bytes{},
                   [done = std::move(done)](Status status, Bytes payload) {
                     if (status != Status::kOk) {
                       done(status, {});
                       return;
                     }
                     auto resp = decode<ListFilesResp>(payload);
                     if (!resp) {
                       done(Status::kBadRequest, {});
                       return;
                     }
                     done(Status::kOk, std::move(resp->names));
                   });
}

// --- append ------------------------------------------------------------

void Client::append(const std::string& name, ExtentList data, AppendFn done) {
  if (data.empty()) {
    done(Status::kBadRequest, AppendResp{});
    return;
  }
  with_meta(name, /*allow_cache=*/true,
            [this, data = std::move(data), done = std::move(done)](
                Status status, const FileInfo& info) mutable {
              if (status != Status::kOk) {
                done(status, AppendResp{});
                return;
              }
              do_append(info, std::move(data), false, std::move(done));
            });
}

void Client::send_append_rpc(const FileInfo& info, ExtentList data,
                             std::vector<ReadAssignment> chain, bool retried,
                             AppendFn done) {
  AppendReq req;
  req.file = info.uuid;
  req.data = data;
  req.chain = std::move(chain);
  Bytes wire = encode(req);
  transport_->call(
      node_, info.primary(), Method::kAppend, std::move(wire),
      [this, info, data = std::move(data), relay = std::move(req.chain),
       retried, done = std::move(done)](Status status,
                                        Bytes payload) mutable {
        if (status != Status::kOk) {
          // No relay hop runs past a failed append: hand them back before
          // the retry plans a fresh chain.
          release_relay(relay);
          retry_append(info, std::move(data), status, retried,
                       std::move(done));
          return;
        }
        const auto resp = decode<AppendResp>(payload);
        if (!resp) {
          done(Status::kBadRequest, AppendResp{});
          return;
        }
        // The primary started a prefix of the chain; the hops it cut (its
        // replica view disagreed with the plan, or a hop failed its checks)
        // will never run.
        release_relay(relay, resp->hops_started);
        // Keep the cached size fresh.
        const auto it = cache_.find(info.name);
        if (it != cache_.end()) it->second.info.size = resp->new_size;
        done(Status::kOk, *resp);
      });
}

void Client::retry_append(const FileInfo& info, ExtentList data,
                          Status status, bool retried, AppendFn done) {
  if ((status != Status::kNotFound && status != Status::kNotPrimary &&
       status != Status::kUnavailable) ||
      retried) {
    done(status, AppendResp{});
    return;
  }
  // Stale mapping (file moved/recreated, primary unreachable): refresh and
  // retry once. The retry re-plans from scratch — a fresh replica set needs
  // a fresh chain.
  invalidate_cache(info.name);
  with_meta(info.name, false,
            [this, data = std::move(data), done = std::move(done)](
                Status s2, const FileInfo& fresh) mutable {
              if (s2 != Status::kOk) {
                done(s2, AppendResp{});
                return;
              }
              do_append(fresh, std::move(data), true, std::move(done));
            });
}

void Client::release_relay(const std::vector<ReadAssignment>& relay,
                           std::size_t from) {
  for (std::size_t i = from; i < relay.size(); ++i) {
    write_planner_->flow_complete(node_, relay[i].cookie);
    fabric_->remove_path(relay[i].cookie);
  }
}

void Client::upload(const FileInfo& info, ExtentList data, sdn::Cookie cookie,
                    const net::Path& path, bool planned,
                    std::vector<ReadAssignment> relay, bool retried,
                    AppendFn done) {
  // Exactly one of the completion and failure callbacks consumes this.
  struct Pending {
    FileInfo info;
    ExtentList data;
    std::vector<ReadAssignment> relay;
    AppendFn done;
  };
  auto p = std::make_shared<Pending>(
      Pending{info, std::move(data), std::move(relay), std::move(done)});
  const double bytes = static_cast<double>(p->data.size());
  fabric_->start_flow(
      cookie, path, bytes,
      [this, p, planned, retried](sdn::Cookie c, sim::SimTime) {
        if (planned) write_planner_->flow_complete(node_, c);
        send_append_rpc(p->info, std::move(p->data), std::move(p->relay),
                        retried, std::move(p->done));
      },
      [this, p, retried](sdn::Cookie, const net::FlowRecord&) {
        // The bytes never reached the primary: its relay hops will never
        // run, and the append fails as if the primary were unreachable.
        release_relay(p->relay);
        retry_append(p->info, std::move(p->data), Status::kUnavailable,
                     retried, std::move(p->done));
      });
}

void Client::do_append(const FileInfo& info, ExtentList data, bool retried,
                       AppendFn done) {
  if (config_.write_pipeline && write_planner_ != nullptr &&
      info.replicas.size() > 1) {
    do_append_pipelined(info, std::move(data), retried, std::move(done));
    return;
  }
  if (info.primary() == node_) {
    // Node-local write: no network hop for the bytes.
    send_append_rpc(info, std::move(data), {}, retried, std::move(done));
    return;
  }
  do_append_ecmp(info, std::move(data), retried, std::move(done));
}

void Client::do_append_ecmp(const FileInfo& info, ExtentList data,
                            bool retried, AppendFn done) {
  // The paper's system ships append bytes over ECMP (the co-design
  // optimizes reads, §3.3).
  const net::NodeId primary = info.primary();
  const auto& candidates = paths_.get(node_, primary);
  MAYFLOWER_ASSERT(!candidates.empty());
  const sdn::Cookie cookie = fabric_->new_cookie();
  const net::Path& path = ecmp_.choose(candidates, node_, primary, cookie);
  fabric_->install_path(cookie, path);
  upload(info, std::move(data), cookie, path, /*planned=*/false, {}, retried,
         std::move(done));
}

void Client::do_append_pipelined(const FileInfo& info, ExtentList data,
                                 bool retried, AppendFn done) {
  const net::NodeId primary = info.primary();
  // The chain the bytes traverse: the upload hop (skipped when the writer
  // IS the primary), then the relay legs in replica order.
  std::vector<net::NodeId> chain;
  if (primary != node_) chain.push_back(node_);
  chain.insert(chain.end(), info.replicas.begin(), info.replicas.end());
  write_planner_->plan_write(
      node_, chain, static_cast<double>(data.size()),
      [this, info, primary, data = std::move(data), retried,
       done = std::move(done)](
          Status pstatus, std::vector<ReadAssignment> plan) mutable {
        if (pstatus != Status::kOk || plan.empty()) {
          // Chain unroutable from its very first hop: degrade to the
          // unplanned upload + fan-out path (the next append re-plans).
          if (primary == node_) {
            send_append_rpc(info, std::move(data), {}, retried,
                            std::move(done));
          } else {
            do_append_ecmp(info, std::move(data), retried, std::move(done));
          }
          return;
        }
        if (primary == node_) {
          // Writer-local primary: no upload leg, every hop is a relay hop
          // and the RPC goes straight out.
          send_append_rpc(info, std::move(data), std::move(plan), retried,
                          std::move(done));
          return;
        }
        // Hop 0 is the upload leg; everything after it rides to the primary
        // as the relay chain.
        const ReadAssignment leg = std::move(plan.front());
        plan.erase(plan.begin());
        upload(info, std::move(data), leg.cookie, leg.path,
               /*planned=*/true, std::move(plan), retried, std::move(done));
      });
}

// --- read --------------------------------------------------------------

void Client::read_file(const std::string& name, ReadFn done) {
  read_file_from(name, 0, /*retried=*/false, /*rounds=*/0,
                 std::make_shared<ExtentList>(), std::move(done));
}

void Client::read_file_from(const std::string& name, std::uint64_t offset,
                            bool retried, int rounds,
                            std::shared_ptr<ExtentList> acc, ReadFn done) {
  // A file can keep growing while we chase its tail; bound the pursuit.
  constexpr int kMaxRounds = 32;
  with_meta(
      name, /*allow_cache=*/!retried,
      [this, name, offset, retried, rounds, acc, done = std::move(done)](
          Status status, const FileInfo& info) mutable {
        if (status != Status::kOk) {
          done(status, ReadResult{});
          return;
        }
        if (info.size <= offset) {
          // Metadata claims nothing (more) to read: confirm against the
          // primary, whose reply carries the authoritative size.
          ReadReq probe;
          probe.file = info.uuid;
          probe.offset = offset;
          transport_->call(
              node_, info.primary(), Method::kReadFile, encode(probe),
              [this, name, offset, retried, rounds, acc, info,
               done = std::move(done)](Status pstatus,
                                       Bytes payload) mutable {
                if ((pstatus == Status::kNotFound ||
                     pstatus == Status::kUnavailable) &&
                    !retried) {
                  // Stale mapping (file recreated / replica moved).
                  invalidate_cache(name);
                  read_file_from(name, offset, true, rounds, acc,
                                 std::move(done));
                  return;
                }
                if (pstatus != Status::kOk) {
                  done(pstatus, ReadResult{});
                  return;
                }
                const auto resp = decode<ReadResp>(payload);
                if (!resp) {
                  done(Status::kBadRequest, ReadResult{});
                  return;
                }
                if (resp->file_size > offset && rounds < kMaxRounds) {
                  FileInfo fresh = info;
                  fresh.size = resp->file_size;
                  const auto it = cache_.find(name);
                  if (it != cache_.end() &&
                      it->second.info.uuid == fresh.uuid) {
                    it->second.info.size = fresh.size;
                  }
                  read_file_from(name, offset, retried, rounds + 1, acc,
                                 std::move(done));
                  return;
                }
                done(Status::kOk, ReadResult{std::move(*acc), offset});
              });
          return;
        }
        const std::uint64_t target = info.size;
        do_read(info, offset, target - offset, retried,
                [this, name, target, rounds, acc, done = std::move(done)](
                    Status rstatus, ReadResult result) mutable {
                  if (rstatus != Status::kOk) {
                    done(rstatus, ReadResult{});
                    return;
                  }
                  acc->append(result.data);
                  if (result.file_size > target && rounds < kMaxRounds) {
                    // More appended while we were reading: keep going.
                    read_file_from(name, target, false, rounds + 1, acc,
                                   std::move(done));
                    return;
                  }
                  done(Status::kOk,
                       ReadResult{std::move(*acc),
                                  std::max(result.file_size, target)});
                });
      });
}

void Client::read(const std::string& name, std::uint64_t offset,
                  std::uint64_t length, ReadFn done) {
  with_meta(name, /*allow_cache=*/true,
            [this, offset, length, done = std::move(done)](
                Status status, const FileInfo& info) mutable {
              if (status != Status::kOk) {
                done(status, ReadResult{});
                return;
              }
              do_read(info, offset, length, false, std::move(done));
            });
}

void Client::do_read(const FileInfo& info, std::uint64_t offset,
                     std::uint64_t length, bool retried, ReadFn done) {
  if (length == 0) {
    done(Status::kOk, ReadResult{{}, info.size});
    return;
  }
  // Split per the consistency mode: in strong mode the range overlapping
  // the last chunk (per our view of the size) must be served by the primary;
  // everything before it is immutable (§3.4).
  struct Piece {
    std::uint64_t offset;
    std::uint64_t length;
    std::vector<net::NodeId> replicas;
  };
  std::vector<Piece> pieces;
  if (config_.consistency == Consistency::kStrong) {
    const std::uint64_t boundary = info.last_chunk_offset();
    if (offset < boundary) {
      const std::uint64_t head = std::min(length, boundary - offset);
      pieces.push_back(Piece{offset, head, info.replicas});
      if (length > head) {
        pieces.push_back(Piece{boundary, length - head, {info.primary()}});
      }
    } else {
      pieces.push_back(Piece{offset, length, {info.primary()}});
    }
  } else {
    pieces.push_back(Piece{offset, length, info.replicas});
  }

  struct Collected {
    Status status = Status::kOk;
    std::vector<ExtentList> parts;  // indexed by global part order
    std::size_t outstanding = 0;
    std::uint64_t file_size = 0;
    bool failed_not_found = false;
  };
  auto state = std::make_shared<Collected>();
  auto finish = [this, info, offset, length, retried,
                 done](std::shared_ptr<Collected> st) mutable {
    // kNotFound and kUnavailable both point at stale metadata: the file may
    // have been recreated, or its replicas re-homed after a crash. Refetch
    // the mapping and retry the whole read once.
    if ((st->failed_not_found || st->status == Status::kUnavailable) &&
        !retried) {
      invalidate_cache(info.name);
      with_meta(info.name, false,
                [this, offset, length, done](Status s2,
                                             const FileInfo& fresh) mutable {
                  if (s2 != Status::kOk) {
                    done(s2, ReadResult{});
                    return;
                  }
                  do_read(fresh, offset, length, true, std::move(done));
                });
      return;
    }
    if (st->status != Status::kOk) {
      // Terminal failure: whatever mapping we used did not work — never
      // serve it from cache again.
      invalidate_cache(info.name);
      done(st->status, ReadResult{});
      return;
    }
    ReadResult result;
    for (ExtentList& part : st->parts) result.data.append(part);
    result.file_size = st->file_size;
    // Piggybacked size: how clients discover appends (§3.3).
    const auto cit = cache_.find(info.name);
    if (cit != cache_.end() && result.file_size > cit->second.info.size) {
      cit->second.info.size = result.file_size;
    }
    done(Status::kOk, std::move(result));
  };

  // Launch every piece; each may fan out into multiple subflows.
  std::size_t part_index = 0;
  struct Launch {
    Piece piece;
    std::size_t first_part;
  };
  std::vector<Launch> launches;
  for (const Piece& piece : pieces) {
    launches.push_back(Launch{piece, part_index});
    // Reserve at most 2 parts per piece (single or split read).
    part_index += 2;
  }
  state->parts.resize(part_index);
  state->outstanding = launches.size();

  for (const Launch& launch : launches) {
    read_piece(info, launch.piece.offset, launch.piece.length,
               launch.piece.replicas, /*attempt=*/0,
               [state, first = launch.first_part, finish](
                   Status status, ExtentList data, std::uint64_t fsize) mutable {
                 if (status == Status::kNotFound) {
                   state->failed_not_found = true;
                 } else if (status != Status::kOk &&
                            state->status == Status::kOk) {
                   state->status = status;
                 }
                 state->parts[first] = std::move(data);
                 state->file_size = std::max(state->file_size, fsize);
                 if (--state->outstanding == 0) finish(state);
               });
  }
}

void Client::read_piece(
    const FileInfo& info, std::uint64_t offset, std::uint64_t length,
    const std::vector<net::NodeId>& replicas, std::uint32_t attempt,
    std::function<void(Status, ExtentList, std::uint64_t)> done) {
  planner_->plan(node_, replicas, static_cast<double>(length),
                 [this, info, offset, length, replicas, attempt,
                  done = std::move(done)](
                     Status status,
                     std::vector<ReadAssignment> plan) mutable {
                   if (status == Status::kUnavailable &&
                       attempt + 1 < config_.max_read_attempts) {
                     // No replica reachable right now (failed links or
                     // switches). Links come back and mappings get repaired;
                     // wait out the backoff and ask again.
                     fabric_->events().schedule_in(
                         count_retry_backoff(attempt),
                         [this, info, offset, length, replicas, attempt,
                          done = std::move(done)]() mutable {
                           read_piece(info, offset, length, replicas,
                                      attempt + 1, std::move(done));
                         });
                     return;
                   }
                   if (status != Status::kOk) {
                     done(status, ExtentList{}, 0);
                     return;
                   }
                   execute_plan(info, offset, length, replicas,
                                std::move(plan), attempt, std::move(done));
                 });
}

void Client::execute_plan(
    const FileInfo& info, std::uint64_t offset, std::uint64_t length,
    const std::vector<net::NodeId>& replicas,
    std::vector<ReadAssignment> plan, std::uint32_t attempt,
    std::function<void(Status, ExtentList, std::uint64_t)> done) {
  MAYFLOWER_ASSERT(!plan.empty());

  struct PieceState {
    Status status = Status::kOk;
    std::vector<ExtentList> parts;
    std::size_t outstanding = 0;
    std::uint64_t file_size = 0;
  };
  auto st = std::make_shared<PieceState>();
  st->parts.resize(plan.size());
  st->outstanding = plan.size();
  auto shared_done = std::make_shared<decltype(done)>(std::move(done));

  std::uint64_t sub_offset = offset;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const ReadAssignment& a = plan[i];
    // The planner sized subflows in fractional bytes; round so the ranges
    // tile [offset, offset+length) exactly.
    const std::uint64_t sub_len =
        i + 1 == plan.size()
            ? offset + length - sub_offset
            : std::min<std::uint64_t>(static_cast<std::uint64_t>(a.bytes),
                                      offset + length - sub_offset);
    ReadReq req;
    req.file = info.uuid;
    req.offset = sub_offset;
    req.length = sub_len;
    sub_offset += sub_len;

    // Shared: exactly one of the transfer-complete / transfer-failed /
    // RPC-error continuations delivers this part.
    using PartFn = std::function<void(Status, ExtentList, std::uint64_t)>;
    auto on_part_done = std::make_shared<PartFn>(
        [this, st, i, shared_done](Status status, ExtentList data,
                                   std::uint64_t fsize) {
          if (status != Status::kOk && st->status == Status::kOk) {
            st->status = status;
          }
          st->parts[i] = std::move(data);
          st->file_size = std::max(st->file_size, fsize);
          if (--st->outstanding == 0) {
            ExtentList all;
            for (ExtentList& part : st->parts) all.append(part);
            (*shared_done)(st->status, std::move(all), st->file_size);
          }
        });

    // Retry engine for this subrange: back off, then re-plan against the
    // replicas other than the one that just failed (all of them when no
    // alternative exists — a restored link may make it reachable again).
    auto retry_elsewhere = [this, info, replicas, attempt, on_part_done](
                               net::NodeId failed_replica,
                               std::uint64_t piece_offset,
                               std::uint64_t piece_len) {
      if (attempt + 1 >= config_.max_read_attempts) {
        (*on_part_done)(Status::kUnavailable, ExtentList{}, 0);
        return;
      }
      std::vector<net::NodeId> rest;
      for (const net::NodeId r : replicas) {
        if (r != failed_replica) rest.push_back(r);
      }
      if (rest.empty()) rest = replicas;
      fabric_->events().schedule_in(
          count_retry_backoff(attempt),
          [this, info, piece_offset, piece_len, rest = std::move(rest),
           attempt, on_part_done]() mutable {
            read_piece(info, piece_offset, piece_len, rest, attempt + 1,
                       [on_part_done](Status s, ExtentList data,
                                      std::uint64_t fsize) {
                         (*on_part_done)(s, std::move(data), fsize);
                       });
          });
    };

    transport_->call(
        node_, a.replica, Method::kReadFile, encode(req),
        [this, a, info, replicas, sub_len, req_offset = req.offset,
         on_part_done, retry_elsewhere](Status status, Bytes payload) mutable {
          if (status == Status::kUnavailable && replicas.size() > 1) {
            // Replica host unreachable: fail over to the remaining replicas
            // for this subrange (replica redundancy is the whole point).
            planner_->flow_complete(node_, a.cookie);
            fabric_->remove_path(a.cookie);
            std::vector<net::NodeId> rest;
            for (const net::NodeId r : replicas) {
              if (r != a.replica) rest.push_back(r);
            }
            read_piece(info, req_offset, sub_len, rest, /*attempt=*/0,
                       [on_part_done](Status s, ExtentList data,
                                      std::uint64_t fsize) {
                         (*on_part_done)(s, std::move(data), fsize);
                       });
            return;
          }
          if (status != Status::kOk) {
            planner_->flow_complete(node_, a.cookie);
            fabric_->remove_path(a.cookie);
            (*on_part_done)(status, ExtentList{}, 0);
            return;
          }
          auto resp = decode<ReadResp>(payload);
          if (!resp) {
            planner_->flow_complete(node_, a.cookie);
            fabric_->remove_path(a.cookie);
            (*on_part_done)(Status::kBadRequest, ExtentList{}, 0);
            return;
          }
          const double bulk_bytes = static_cast<double>(resp->data.size());
          if (bulk_bytes <= 0.0) {
            planner_->flow_complete(node_, a.cookie);
            fabric_->remove_path(a.cookie);
            (*on_part_done)(Status::kOk, std::move(resp->data),
                            resp->file_size);
            return;
          }
          // The payload leaves the dataserver as a fabric flow along the
          // installed path; completion hands the extents to the caller. A
          // failure (link/switch death mid-transfer, or a path that died
          // since planning) re-reads this subrange from the survivors.
          fabric_->start_flow(
              a.cookie, a.path, bulk_bytes,
              [this, resp = std::move(*resp), on_part_done](
                  sdn::Cookie cookie, sim::SimTime) mutable {
                planner_->flow_complete(node_, cookie);
                (*on_part_done)(Status::kOk, std::move(resp.data),
                                resp.file_size);
              },
              [replica = a.replica, req_offset, sub_len, retry_elsewhere](
                  sdn::Cookie, const net::FlowRecord&) {
                retry_elsewhere(replica, req_offset, sub_len);
              });
        });
  }
}

}  // namespace mayflower::fs
