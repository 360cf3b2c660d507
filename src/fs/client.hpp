// The Mayflower client library (§3.3, §5): an HDFS-like interface
// (create / append / read / delete) with client-side metadata caching and
// Flowserver-assisted replica selection on reads.
//
// Read anatomy (Figure 1): lookup replica locations (cached when possible)
// -> ask the read scheme (Flowserver for Mayflower; Nearest/Sinbad-R/HDFS +
// ECMP for baselines) for replica+path assignments -> ReadFile RPC to each
// chosen dataserver -> bulk bytes arrive as fabric flows -> reassemble.
//
// Consistency (§3.4): sequential mode reads any replica. Strong mode routes
// the portion overlapping the (possibly still growing) last chunk to the
// file's primary; all earlier chunks are immutable and read anywhere.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "fs/meta/router.hpp"
#include "fs/planner.hpp"
#include "fs/rpc/transport.hpp"
#include "obs/observability.hpp"

namespace mayflower::fs {

enum class Consistency { kSequential, kStrong };

struct ClientConfig {
  Consistency consistency = Consistency::kSequential;
  // File-to-dataservers mappings expire after this long (§3.3: "cache
  // expiry times that depend on the mean time between replica migration and
  // node failure").
  sim::SimTime meta_cache_ttl = sim::SimTime::from_seconds(60.0);
  std::uint32_t replication = 3;
  // Extension: plan the WHOLE replication chain with the Flowserver
  // (kPlanWrite) as one jointly-scheduled unit and carry the relay hops in
  // the append RPC, so the primary pipelines the relay instead of fanning
  // out. Requires a write planner (set_write_planner); degrades to the
  // unplanned upload path when the chain is unroutable.
  bool write_pipeline = false;
  // Read fault tolerance: a subrange whose transfer fails (killed flow, no
  // reachable replica) is retried against the surviving replicas after a
  // capped-exponential backoff, at most this many attempts in total.
  std::uint32_t max_read_attempts = 4;
  sim::SimTime read_retry_backoff = sim::SimTime::from_millis(20.0);
};

struct ReadResult {
  ExtentList data;
  std::uint64_t file_size = 0;  // size observed at the serving replica
};

class Client {
 public:
  using CreateFn = std::function<void(Status, const FileInfo&)>;
  using AppendFn = std::function<void(Status, const AppendResp&)>;
  using ReadFn = std::function<void(Status, ReadResult)>;
  using SimpleFn = std::function<void(Status)>;

  Client(Transport& transport, sdn::SdnFabric& fabric, ReadPlanner& planner,
         net::NodeId node, net::NodeId nameserver, ClientConfig config);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  net::NodeId node() const { return node_; }

  using StatFn = std::function<void(Status, const FileInfo&)>;
  using ListFn = std::function<void(Status, std::vector<std::string>)>;

  void create(const std::string& name, CreateFn done);
  void remove(const std::string& name, SimpleFn done);
  // File metadata as the nameserver sees it (size may trail recent appends;
  // reads piggyback the authoritative size). Served from cache when fresh.
  void stat(const std::string& name, StatFn done);
  // All file names known to the nameserver.
  void list(ListFn done);
  void append(const std::string& name, ExtentList data, AppendFn done);
  void read(const std::string& name, std::uint64_t offset,
            std::uint64_t length, ReadFn done);
  // Reads the entire file (at its size as of the lookup).
  void read_file(const std::string& name, ReadFn done);

  // Drops any cached mapping for `name` and bumps its invalidation
  // generation, so an already in-flight lookup response cannot repopulate
  // the cache with the pre-invalidation replica set (a deleted-then-
  // recreated path would otherwise serve stale replicas until the TTL).
  void invalidate_cache(const std::string& name) {
    cache_.erase(name);
    ++cache_gen_[name];
  }

  // Sharded metadata plane: when set, nameserver RPCs are routed per path
  // through the shard map instead of the single `nameserver` node. Not
  // owned; must outlive the client.
  void set_meta_router(meta::MetaRouter* router) { router_ = router; }

  // Write-chain planner for the write_pipeline extension. Not owned; null
  // keeps appends on the ECMP upload + fan-out path.
  void set_write_planner(RpcPlanner* planner) { write_planner_ = planner; }

  // Telemetry.
  std::uint64_t lookups_sent() const { return lookups_sent_; }
  std::uint64_t cache_hits() const { return cache_hits_; }

  // Publishes client counters (fs.client.lookups / cache_hits /
  // read_retries) and the retry-backoff histogram, whose sum is the total
  // simulated seconds spent backing off. Null detaches.
  void set_obs(obs::Observability* hub);

 private:
  struct CachedMeta {
    FileInfo info;
    sim::SimTime expires;
  };

  void with_meta(const std::string& name, bool allow_cache,
                 std::function<void(Status, const FileInfo&)> fn);
  void cache_put(const FileInfo& info);
  std::uint64_t cache_gen(const std::string& name) const {
    const auto it = cache_gen_.find(name);
    return it == cache_gen_.end() ? 0 : it->second;
  }
  // Issues a path-keyed nameserver RPC — through the shard router when one
  // is set, straight to the single nameserver otherwise.
  void ns_call(const std::string& path, Method method, Bytes request,
               ResponseFn done);
  void do_read(const FileInfo& info, std::uint64_t offset,
               std::uint64_t length, bool retried, ReadFn done);
  // read_file engine: reads [offset, size) per the current metadata, then
  // keeps going while the piggybacked size reveals further appends (§3.3).
  void read_file_from(const std::string& name, std::uint64_t offset,
                      bool retried, int rounds,
                      std::shared_ptr<ExtentList> acc, ReadFn done);
  void read_piece(const FileInfo& info, std::uint64_t offset,
                  std::uint64_t length,
                  const std::vector<net::NodeId>& replicas,
                  std::uint32_t attempt,
                  std::function<void(Status, ExtentList, std::uint64_t)> done);
  void execute_plan(const FileInfo& info, std::uint64_t offset,
                    std::uint64_t length,
                    const std::vector<net::NodeId>& replicas,
                    std::vector<ReadAssignment> plan,
                    std::uint32_t attempt,
                    std::function<void(Status, ExtentList, std::uint64_t)> done);
  void do_append(const FileInfo& info, ExtentList data, bool retried,
                 AppendFn done);
  // Chain-planned append (write_pipeline): plans writer -> primary ->
  // secondaries as one kPlanWrite chain, ships the bytes over the planned
  // upload hop and carries the relay hops in the append RPC.
  void do_append_pipelined(const FileInfo& info, ExtentList data,
                           bool retried, AppendFn done);
  // Ships the bytes over an ECMP-hashed path, then issues the append RPC
  // (the paper's unplanned upload, also the degraded path when chain
  // planning finds no route).
  void do_append_ecmp(const FileInfo& info, ExtentList data, bool retried,
                      AppendFn done);
  // Ships the bytes to the primary over `path` (already installed) under
  // `cookie`, then sends the append RPC carrying `relay`. A `planned` upload
  // is reported to the write planner when it lands. A dead upload hands
  // `relay` back and counts as an append answered kUnavailable.
  void upload(const FileInfo& info, ExtentList data, sdn::Cookie cookie,
              const net::Path& path, bool planned,
              std::vector<ReadAssignment> relay, bool retried, AppendFn done);
  // The append RPC itself: `chain` carries the planned relay hops (empty =
  // ECMP fan-out at the primary). A failed append hands the hops back and
  // goes through retry_append; a successful one hands back the hops the
  // primary did not start.
  void send_append_rpc(const FileInfo& info, ExtentList data,
                       std::vector<ReadAssignment> chain, bool retried,
                       AppendFn done);
  // A failed append attempt: a stale-mapping status (kNotFound,
  // kNotPrimary, kUnavailable) refreshes the mapping and retries once;
  // anything else, or a second failure, answers `done` with `status`.
  void retry_append(const FileInfo& info, ExtentList data, Status status,
                    bool retried, AppendFn done);
  // Hands planned relay hops relay[from..] back: the write planner drops
  // them from its table and their switch entries are removed.
  void release_relay(const std::vector<ReadAssignment>& relay,
                     std::size_t from = 0);
  sim::SimTime retry_backoff(std::uint32_t attempt) const;
  // retry_backoff + observability: counts the retry and records the wait.
  sim::SimTime count_retry_backoff(std::uint32_t attempt);

  Transport* transport_;
  sdn::SdnFabric* fabric_;
  ReadPlanner* planner_;
  net::NodeId node_;
  net::NodeId nameserver_;
  ClientConfig config_;
  meta::MetaRouter* router_ = nullptr;
  RpcPlanner* write_planner_ = nullptr;
  net::PathCache paths_;
  net::EcmpHasher ecmp_;
  std::unordered_map<std::string, CachedMeta> cache_;
  // Per-name invalidation generation (see invalidate_cache()).
  std::unordered_map<std::string, std::uint64_t> cache_gen_;
  std::uint64_t lookups_sent_ = 0;
  std::uint64_t cache_hits_ = 0;

  // Observability (no-ops until set_obs()).
  obs::Counter lookups_metric_;
  obs::Counter cache_hits_metric_;
  obs::Counter read_retries_metric_;
  obs::Histogram retry_backoff_hist_;  // per-retry wait; sum = total backoff
};

}  // namespace mayflower::fs
