// Tests for the sharded metadata plane (src/fs/meta/): shard map
// partitioning, the async commit engine, client-side routing, end-to-end
// sharded clusters, and shard failover with adoption-based recovery.
#include "fs/meta/plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "fs/cluster.hpp"
#include "fs/meta/async_commit.hpp"
#include "fs/meta/shard_map.hpp"

namespace mayflower::fs {
namespace {

using meta::Partition;
using meta::ShardMap;

// Runs the cluster until `flag` is set (callbacks set flags synchronously
// from the event loop).
void run_until_done(Cluster& cluster, const bool& flag,
                    double timeout_sec = 300.0) {
  while (!flag && !cluster.events().empty() &&
         cluster.events().now() < sim::SimTime::from_seconds(timeout_sec)) {
    cluster.events().step();
  }
  ASSERT_TRUE(flag) << "operation did not complete";
}

ClusterConfig sharded_config(std::size_t shards,
                             Partition partition = Partition::kHash) {
  ClusterConfig cfg;
  cfg.scheme = FsScheme::kNearestEcmp;
  cfg.meta_shards = shards;
  cfg.meta_partition = partition;
  cfg.client.replication = 3;
  cfg.seed = 7;
  return cfg;
}

// --- shard map ----------------------------------------------------------

TEST(ShardMapMeta, HashModeIsDeterministicAndSpreads) {
  ShardMap map;
  map.mode = Partition::kHash;
  map.owners = {101, 102, 103, 104};
  std::set<std::size_t> used;
  for (int i = 0; i < 200; ++i) {
    const std::string path = strfmt("d%03d/f%07d", i % 8, i);
    const std::size_t shard = map.shard_of_path(path);
    EXPECT_EQ(shard, map.shard_of_path(path));  // stable
    EXPECT_LT(shard, map.owners.size());
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), 4u);  // 200 paths cover every shard
}

TEST(ShardMapMeta, SubtreeModeKeepsDirectoriesTogether) {
  ShardMap map;
  map.mode = Partition::kSubtree;
  map.owners = {11, 12, 13};
  for (int d = 0; d < 16; ++d) {
    const std::size_t shard =
        map.shard_of_path(strfmt("d%03d/f0000000", d));
    for (int f = 1; f < 10; ++f) {
      EXPECT_EQ(map.shard_of_path(strfmt("d%03d/f%07d", d, f)), shard)
          << "directory d" << d << " split across shards";
    }
  }
}

TEST(ShardMapMeta, EncodeDecodeRoundTrips) {
  ShardMap map;
  map.mode = Partition::kSubtree;
  map.epoch = 42;
  map.owners = {5, 9, 13};
  const auto back = decode<ShardMap>(encode(map));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mode, Partition::kSubtree);
  EXPECT_EQ(back->epoch, 42u);
  EXPECT_EQ(back->owners, map.owners);
}

TEST(ShardMapMeta, UnknownPartitionFailsToDecode) {
  Writer w;
  w.u32(2);  // neither kHash (0) nor kSubtree (1)
  w.u64(1);
  w.varint(1);
  w.u32(5);
  EXPECT_FALSE(decode<ShardMap>(w.bytes()).has_value());
}

// --- async commit engine ------------------------------------------------

TEST(AsyncCommitMeta, RetriesThenCommits) {
  sim::EventQueue events;
  meta::AsyncCommitConfig cfg;
  cfg.enabled = true;
  cfg.max_attempts = 3;
  meta::AsyncCommitter committer(events, cfg);
  int attempts = 0;
  bool committed = false;
  bool reconciled = false;
  committer.launch(
      "create x",
      [&](std::function<void(bool)> done) { done(++attempts >= 2); },
      [&] { committed = true; }, [&] { reconciled = true; });
  events.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_TRUE(committed);
  EXPECT_FALSE(reconciled);
  EXPECT_EQ(committer.committed(), 1u);
  EXPECT_EQ(committer.inflight(), 0u);
}

TEST(AsyncCommitMeta, ExhaustedAttemptsReconcile) {
  sim::EventQueue events;
  meta::AsyncCommitConfig cfg;
  cfg.enabled = true;
  cfg.max_attempts = 3;
  meta::AsyncCommitter committer(events, cfg);
  int attempts = 0;
  bool committed = false;
  bool reconciled = false;
  committer.launch(
      "create y",
      [&](std::function<void(bool)> done) {
        ++attempts;
        done(false);
      },
      [&] { committed = true; }, [&] { reconciled = true; });
  events.run();
  EXPECT_EQ(attempts, 3);
  EXPECT_FALSE(committed);
  EXPECT_TRUE(reconciled);
  EXPECT_EQ(committer.failed(), 1u);
}

// --- sharded cluster end-to-end -----------------------------------------

TEST(MetaPlaneCluster, OpsSpreadAcrossShardsAndRoundTrip) {
  Cluster cluster(sharded_config(4));
  ASSERT_NE(cluster.meta_plane(), nullptr);
  Client& client = cluster.client_at(cluster.tree().hosts[2]);

  std::vector<std::string> names;
  for (int i = 0; i < 24; ++i) names.push_back(strfmt("d%02d/f%05d", i % 6, i));

  std::size_t created = 0;
  bool all_created = false;
  for (const std::string& name : names) {
    client.create(name, [&](Status status, const FileInfo& info) {
      ASSERT_EQ(status, Status::kOk);
      EXPECT_EQ(info.replicas.size(), 3u);
      if (++created == names.size()) all_created = true;
    });
  }
  run_until_done(cluster, all_created);

  // Every shard served some traffic, and each name landed on the shard the
  // map says owns it.
  meta::MetaPlane& plane = *cluster.meta_plane();
  for (std::size_t i = 0; i < plane.server_count(); ++i) {
    EXPECT_GT(plane.shard_server(i).ops_served(), 0u) << "shard " << i;
  }
  std::size_t total_files = 0;
  for (std::size_t i = 0; i < plane.server_count(); ++i) {
    total_files += plane.shard_server(i).file_count();
  }
  EXPECT_EQ(total_files, names.size());
  for (const std::string& name : names) {
    const std::size_t shard = plane.shard_map().shard_of_path(name);
    bool found = false;
    client.stat(name, [&](Status status, const FileInfo& info) {
      EXPECT_EQ(status, Status::kOk);
      EXPECT_EQ(info.name, name);
      found = true;
    });
    run_until_done(cluster, found);
    EXPECT_GT(plane.shard_server(shard).file_count(), 0u);
  }

  // Merged listing sees the union, sorted.
  bool listed = false;
  client.list([&](Status status, std::vector<std::string> listing) {
    EXPECT_EQ(status, Status::kOk);
    EXPECT_EQ(listing.size(), names.size());
    EXPECT_TRUE(std::is_sorted(listing.begin(), listing.end()));
    listed = true;
  });
  run_until_done(cluster, listed);
}

TEST(MetaPlaneCluster, SubtreePartitionKeepsDirectoryOnOneShard) {
  Cluster cluster(sharded_config(3, Partition::kSubtree));
  Client& client = cluster.client_at(cluster.tree().hosts[0]);
  std::size_t created = 0;
  bool all_created = false;
  for (int i = 0; i < 9; ++i) {
    client.create(strfmt("logs/f%04d", i), [&](Status status,
                                               const FileInfo&) {
      ASSERT_EQ(status, Status::kOk);
      if (++created == 9) all_created = true;
    });
  }
  run_until_done(cluster, all_created);
  meta::MetaPlane& plane = *cluster.meta_plane();
  const std::size_t owner = plane.shard_map().shard_of_path("logs/f0000");
  EXPECT_EQ(plane.shard_server(owner).file_count(), 9u);
  for (std::size_t i = 0; i < plane.server_count(); ++i) {
    if (i != owner) {
      EXPECT_EQ(plane.shard_server(i).file_count(), 0u);
    }
  }
}

TEST(MetaPlaneCluster, DeleteAndRecreateOnShardedPlane) {
  Cluster cluster(sharded_config(2));
  Client& client = cluster.client_at(cluster.tree().hosts[1]);
  Uuid first_uuid;
  bool cycled = false;
  client.create("dir/a", [&](Status status, const FileInfo& info) {
    ASSERT_EQ(status, Status::kOk);
    first_uuid = info.uuid;
    client.remove("dir/a", [&](Status rm_status) {
      ASSERT_EQ(rm_status, Status::kOk);
      client.create("dir/a", [&](Status cr_status, const FileInfo& fresh) {
        ASSERT_EQ(cr_status, Status::kOk);
        EXPECT_NE(fresh.uuid, first_uuid);
        cycled = true;
      });
    });
  });
  run_until_done(cluster, cycled);
}

TEST(MetaPlaneCluster, AsyncCommitAcksBeforeSyncAndStaysDurable) {
  // Same create on two clusters differing only in the commit mode: the
  // async ack must come strictly earlier (it skips the provisioning round
  // trips), and the file must still be fully readable afterwards.
  sim::SimTime acks[2];
  for (const bool async : {false, true}) {
    ClusterConfig cfg = sharded_config(2);
    cfg.meta_async = async;
    Cluster cluster(cfg);
    Client& client = cluster.client_at(cluster.tree().hosts[3]);
    bool done = false;
    client.create("d/file", [&](Status status, const FileInfo& info) {
      ASSERT_EQ(status, Status::kOk);
      EXPECT_EQ(info.replicas.size(), 3u);  // placement decided up front
      acks[async ? 1 : 0] = cluster.events().now();
      done = true;
    });
    run_until_done(cluster, done);
    cluster.run();  // drain the background commit

    // Append + read back through the committed replica set.
    bool verified = false;
    client.append("d/file", ExtentList(Extent::from_bytes("payload")),
                  [&](Status status, const AppendResp&) {
                    ASSERT_EQ(status, Status::kOk);
                    client.read_file("d/file", [&](Status rstatus,
                                                   ReadResult result) {
                      ASSERT_EQ(rstatus, Status::kOk);
                      EXPECT_EQ(result.data.size(), 7u);
                      verified = true;
                    });
                  });
    run_until_done(cluster, verified);
  }
  EXPECT_LT(acks[1], acks[0]);
}

TEST(MetaPlaneCluster, AsyncCommitReconcilesWhenProvisioningCannotFinish) {
  // Kill every dataserver replica target before the background commit can
  // provision: the committer must retry, then reconcile by erasing the
  // provisional mapping (loudly, via meta.async.failed).
  ClusterConfig cfg = sharded_config(2);
  cfg.meta_async = true;
  Cluster cluster(cfg);
  Client& client = cluster.client_at(cluster.tree().hosts[0]);

  // Crash every host's dataserver so no kCreateReplica can land.
  for (const net::NodeId host : cluster.tree().hosts) {
    fault::FaultEvent crash;
    crash.kind = fault::FaultKind::kDataserverCrash;
    crash.node = host;
    cluster.fault_injector().apply(crash);
  }
  bool acked = false;
  client.create("d/ghost", [&](Status status, const FileInfo&) {
    // The provisional ack still succeeds: that is the async contract.
    EXPECT_EQ(status, Status::kOk);
    acked = true;
  });
  run_until_done(cluster, acked);
  cluster.run();  // let retries exhaust and reconciliation run

  meta::MetaPlane& plane = *cluster.meta_plane();
  std::uint64_t failed = 0;
  std::size_t files = 0;
  for (std::size_t i = 0; i < plane.server_count(); ++i) {
    const meta::AsyncCommitter* committer =
        plane.shard_server(i).async_committer();
    ASSERT_NE(committer, nullptr);
    failed += committer->failed();
    files += plane.shard_server(i).file_count();
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(files, 0u);  // the provisional mapping was reconciled away
}

// --- shard failover (satellite: kill one shard mid-workload) ------------

TEST(MetaPlaneCluster, ShardFailoverKeepsSurvivorsServingAndRecoversKeys) {
  ClusterConfig cfg = sharded_config(3);
  cfg.heartbeat_interval = sim::SimTime::from_millis(50.0);
  // No client-side metadata cache: every stat must reach the plane, so the
  // test exercises the shard servers and not a warm cache.
  cfg.client.meta_cache_ttl = sim::SimTime{};
  Cluster cluster(cfg);
  meta::MetaPlane& plane = *cluster.meta_plane();
  Client& client = cluster.client_at(cluster.tree().hosts[4]);

  // Create files until every shard owns at least one, and append a body so
  // the dataservers hold recoverable state.
  std::vector<std::string> names;
  for (int i = 0; i < 18; ++i) names.push_back(strfmt("d%02d/f%05d", i % 9, i));
  std::size_t created = 0;
  bool seeded = false;
  for (const std::string& name : names) {
    client.create(name, [&](Status status, const FileInfo&) {
      ASSERT_EQ(status, Status::kOk);
      client.append(name, ExtentList(Extent::from_bytes("0123456789")),
                    [&](Status astatus, const AppendResp&) {
                      ASSERT_EQ(astatus, Status::kOk);
                      if (++created == names.size()) seeded = true;
                    });
    });
  }
  run_until_done(cluster, seeded);
  for (std::size_t i = 0; i < plane.server_count(); ++i) {
    ASSERT_GT(plane.shard_server(i).file_count(), 0u) << "shard " << i;
  }

  // Victim: the shard owning names[0]. Partition the names by owner now,
  // while the map still has its pre-failover assignment.
  const std::size_t victim = plane.shard_map().shard_of_path(names[0]);
  std::vector<std::string> victim_names, survivor_names;
  for (const std::string& name : names) {
    (plane.shard_map().shard_of_path(name) == victim ? victim_names
                                                     : survivor_names)
        .push_back(name);
  }
  ASSERT_FALSE(victim_names.empty());
  ASSERT_FALSE(survivor_names.empty());
  const net::NodeId old_owner_node =
      plane.shard_map().owner_of_path(victim_names[0]);
  plane.crash_server(victim);

  // Survivor shards keep serving immediately (no failover needed).
  bool survivor_ok = false;
  client.stat(survivor_names[0], [&](Status status, const FileInfo&) {
    EXPECT_EQ(status, Status::kOk);
    survivor_ok = true;
  });
  run_until_done(cluster, survivor_ok);

  // Let the heartbeat detect the dead server, reassign its shards, and let
  // the adopting server finish rescanning the dataservers.
  while (plane.adoptions_completed() == 0 && !cluster.events().empty() &&
         cluster.events().now() < sim::SimTime::from_seconds(300.0)) {
    cluster.events().step();
  }
  ASSERT_GE(plane.adoptions_completed(), 1u) << "adoption never completed";

  // A victim-owned key: the client's router still holds the pre-failover
  // map, gets kUnavailable from the dead owner, refetches, and lands on the
  // adopting shard.
  bool recovered = false;
  client.stat(victim_names[0], [&](Status status, const FileInfo& info) {
    EXPECT_EQ(status, Status::kOk);
    EXPECT_EQ(info.name, victim_names[0]);
    recovered = true;
  });
  run_until_done(cluster, recovered);
  EXPECT_GE(plane.failovers(), 1u);
  EXPECT_NE(plane.shard_map().owner_of_path(victim_names[0]),
            old_owner_node);
  EXPECT_GT(plane.shard_map().epoch, 1u);

  // Every victim-owned file is reachable again, and writes to adopted keys
  // work (the adopting shard is a full owner, not a read-only cache).
  std::size_t checked = 0;
  bool all_recovered = false;
  for (const std::string& name : victim_names) {
    client.stat(name, [&](Status status, const FileInfo&) {
      EXPECT_EQ(status, Status::kOk) << "lost " << name;
      if (++checked == victim_names.size()) all_recovered = true;
    });
  }
  run_until_done(cluster, all_recovered);
  bool appended = false;
  client.append(victim_names[0], ExtentList(Extent::from_bytes("more")),
                [&](Status status, const AppendResp&) {
                  EXPECT_EQ(status, Status::kOk);
                  appended = true;
                });
  run_until_done(cluster, appended);
}

// --- dataserver regression ----------------------------------------------

TEST(MetaPlaneCluster, DeleteWithQueuedAppendsStillAnswersEveryClient) {
  // A delete racing queued appends used to erase the dataserver's pending
  // queue without replying, stranding the appending clients forever.
  Cluster cluster(sharded_config(2));
  Client& writer_a = cluster.client_at(cluster.tree().hosts[0]);
  Client& writer_b = cluster.client_at(cluster.tree().hosts[1]);
  Client& remover = cluster.client_at(cluster.tree().hosts[2]);

  int outcomes = 0;
  bool all_done = false;
  const auto track = [&](Status) {
    if (++outcomes == 3) all_done = true;
  };
  writer_a.create("d/contended", [&](Status status, const FileInfo&) {
    ASSERT_EQ(status, Status::kOk);
    // Two bulk appends pile into the primary's per-file queue; the delete
    // lands while they are queued/in flight.
    writer_a.append("d/contended",
                    ExtentList(Extent::pattern(1, 2'000'000)),
                    [&](Status s, const AppendResp&) { track(s); });
    writer_b.append("d/contended",
                    ExtentList(Extent::pattern(2, 2'000'000)),
                    [&](Status s, const AppendResp&) { track(s); });
    remover.remove("d/contended", [&](Status s) { track(s); });
  });
  // The only assertion that matters: every callback fired.
  run_until_done(cluster, all_done);
}

}  // namespace
}  // namespace mayflower::fs
