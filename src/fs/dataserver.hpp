// The Mayflower dataserver (§3.3.2): stores file chunks, serves reads, and —
// when it is a file's primary — orders append requests, applying them
// locally while relaying to the other replica hosts. Appends to one file are
// serviced one at a time; reads proceed concurrently (the last-chunk
// restriction is enforced client-side by the consistency mode).
//
// On-disk layout (when a disk root is configured), mirroring §3.3.2: one
// directory per file named by its UUID, a `meta` file with name/size, and
// numbered chunk files `1`, `2`, ... each holding the encoded extents of
// that chunk. In-memory mode keeps the same structures without the I/O.
#pragma once

#include <deque>
#include <filesystem>
#include <unordered_map>

#include "fs/rpc/transport.hpp"
#include "net/ecmp.hpp"
#include "obs/observability.hpp"
#include "sdn/fabric.hpp"

namespace mayflower::fs {

struct DataserverConfig {
  std::filesystem::path disk_root;  // empty => in-memory only
  // When set, the primary reports new file sizes here (fire-and-forget)
  // after each append, keeping nameserver lookups fresh.
  net::NodeId nameserver = net::kInvalidNode;
  // Sharded metadata plane: when set, size reports are routed per file name
  // to the nameserver shard owning the path (overrides `nameserver`).
  std::function<net::NodeId(const std::string& name)> nameserver_resolver;
};

class Dataserver {
 public:
  Dataserver(Transport& transport, sdn::SdnFabric& fabric, net::NodeId node,
             DataserverConfig config, std::uint64_t seed);
  ~Dataserver();

  Dataserver(const Dataserver&) = delete;
  Dataserver& operator=(const Dataserver&) = delete;

  net::NodeId node() const { return node_; }
  std::size_t file_count() const { return files_.size(); }

  // Inspection for tests.
  const ExtentList* file_data(const Uuid& uuid) const;
  std::uint64_t file_size(const Uuid& uuid) const;

  // Simulates a crash + restart: drops all volatile state and reloads from
  // disk (no-op reload when running in-memory — everything is lost, as a
  // real memory-only server would).
  void restart();

  // Fault injection: detach() makes the server unreachable (RPCs to it fail
  // with kUnavailable) without losing state; attach() brings it back.
  void detach();
  void attach();
  bool attached() const { return attached_; }

  // Telemetry.
  std::uint64_t appends_served() const { return appends_served_; }
  std::uint64_t reads_served() const { return reads_served_; }
  // Relays that never reached their secondary (stillborn — no route — or
  // killed mid-flight) and were settled as degraded instead of acked.
  std::uint64_t relay_failures() const { return relay_failures_; }
  // Appends relayed over a client-carried planned chain (vs legacy fan-out).
  std::uint64_t chain_appends() const { return chain_appends_; }

  // Publishes fs.ds.relay_failed / fs.ds.chain_appends. Null detaches.
  void set_obs(obs::Observability* hub);

 private:
  struct PendingAppend {
    ExtentList data;
    // Flowserver-planned relay hops carried by the client (empty: fan-out).
    std::vector<ReadAssignment> chain;
    ResponseFn reply;
  };

  // Shared orchestration state of one pipelined relay chain: hop j ships the
  // bytes secondaries[j-1] -> secondaries[j] (hop 0 leaves this primary).
  // All hop flows run concurrently (cut-through); relay RPC j is sent once
  // hop j's flow completed AND relay j-1 was acked, so a failure at hop k
  // degrades exactly the suffix k..end to the settled-relay contract.
  struct ChainRelay {
    Uuid uuid;
    std::uint64_t offset = 0;
    std::shared_ptr<const Bytes> wire;      // encoded AppendRelayReq, shared
    std::vector<ReadAssignment> hops;       // validated prefix of the plan
    std::vector<net::NodeId> targets;       // targets[j] receives relay j
    std::vector<bool> flow_done;
    std::vector<bool> rpc_sent;
    // 0 = pending, 1 = acked, 2 = settled-degraded.
    std::vector<std::uint8_t> state;
    std::size_t settled = 0;
    std::size_t total = 0;  // all secondaries, including uncovered tail
    std::function<void()> finish;
  };
  // Acks the append once every relay settled; `hops_started` is how many
  // planned relay hops ran (the client hands the rest back).
  using FinishFn = std::function<void(std::uint32_t hops_started)>;

  struct Stored {
    FileInfo info;
    ExtentList data;
    bool append_in_progress = false;
    std::deque<PendingAppend> queue;
  };

  void handle(net::NodeId from, Method method, const Bytes& request,
              ResponseFn reply);
  void handle_append(const Bytes& request, ResponseFn reply);
  void handle_append_relay(const Bytes& request, ResponseFn reply);
  void handle_read(const Bytes& request, ResponseFn reply);
  void handle_replicate_to(const Bytes& request, ResponseFn reply);
  void pump_appends(Stored& file);
  void apply_append(Stored& file, std::uint64_t offset, const ExtentList& data);
  // Unplanned relay (the paper's system): one ECMP flow + RPC per
  // secondary, every flow leaving this primary's uplink.
  void relay_fanout(const Uuid& uuid, std::shared_ptr<const Bytes> wire,
                    double bytes,
                    const std::vector<net::NodeId>& secondaries,
                    FinishFn finish);
  // Planned pipelined relay over the client-carried chain. Starts the
  // longest prefix of `hops` that passes startable_hop(); the secondaries
  // after it settle degraded.
  void relay_pipelined(const Uuid& uuid, std::uint64_t offset,
                       std::shared_ptr<const Bytes> wire, double bytes,
                       std::vector<ReadAssignment> hops,
                       const std::vector<net::NodeId>& secondaries,
                       FinishFn finish);
  // Whether hop `j` of `hops` can run as the relay src -> dst moving
  // `bytes`. The client carried it, so nothing in it is trusted: its path
  // must be well formed against the topology and run src -> dst, its
  // entries must be installed under a cookie no flow or earlier hop uses,
  // and it must move exactly the append's bytes.
  bool startable_hop(const std::vector<ReadAssignment>& hops, std::size_t j,
                     net::NodeId src, net::NodeId dst, double bytes) const;
  // Sends the next eligible relay RPC of the chain, if any.
  void chain_advance(const std::shared_ptr<ChainRelay>& st);
  // Settles hops [k, hops.size()) of the chain as degraded.
  void chain_fail_from(const std::shared_ptr<ChainRelay>& st, std::size_t k);
  void chain_settle(const std::shared_ptr<ChainRelay>& st, std::size_t j,
                    bool ok);
  // One relay gave up before reaching its secondary: count it, log it.
  void count_relay_failure(const Uuid& uuid, net::NodeId secondary);

  // The nameserver's node ids and chunk sizes are checked like a client's:
  // relaying to a node that is not a host this server has a path to aborts
  // path enumeration, and a chunk size of 0 divides by zero on disk.
  bool reachable_host(net::NodeId n) const {
    return n < reachable_hosts_.size() && reachable_hosts_[n] != 0;
  }
  // A non-empty list of reachable hosts.
  bool valid_replicas(const std::vector<net::NodeId>& replicas) const;
  // A non-nil uuid, a chunk size > 0 and valid replicas.
  bool valid_info(const FileInfo& info) const;

  // Persistence helpers (no-ops in memory mode).
  void persist_meta(const Stored& file);
  void persist_chunks(const Stored& file, std::uint64_t offset,
                      std::uint64_t length);
  void remove_dir(const Uuid& uuid);
  void load_from_disk();
  std::filesystem::path dir_of(const Uuid& uuid) const;

  Transport* transport_;
  sdn::SdnFabric* fabric_;
  net::NodeId node_;
  DataserverConfig config_;
  net::PathCache paths_;
  std::vector<char> reachable_hosts_;  // node id -> host with a path to it
  net::EcmpHasher ecmp_;
  std::unordered_map<Uuid, Stored, UuidHash> files_;
  bool attached_ = true;
  std::uint64_t appends_served_ = 0;
  std::uint64_t reads_served_ = 0;
  std::uint64_t relay_failures_ = 0;
  std::uint64_t chain_appends_ = 0;

  // Observability (no-ops until set_obs()).
  obs::Counter relay_failed_metric_;
  obs::Counter chain_appends_metric_;
};

}  // namespace mayflower::fs
