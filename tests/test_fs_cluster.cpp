// End-to-end tests of the full filesystem stack over the simulated fabric:
// create/append/read/delete through real RPC encode/decode, bulk bytes as
// network flows, replica relays, consistency modes, cache behavior, and
// nameserver recovery.
#include "fs/cluster.hpp"

#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace mayflower::fs {
namespace {

ClusterConfig small_config(FsScheme scheme = FsScheme::kMayflower) {
  ClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.nameserver.chunk_size = 1000;  // small chunks exercise boundaries
  cfg.client.replication = 3;
  cfg.seed = 5;
  return cfg;
}

// Runs the cluster until `flag` is set (all callbacks in these tests set
// their flag synchronously from the event loop).
void run_until_done(Cluster& cluster, const bool& flag,
                    double timeout_sec = 300.0) {
  while (!flag && !cluster.events().empty() &&
         cluster.events().now() < sim::SimTime::from_seconds(timeout_sec)) {
    cluster.events().step();
  }
  ASSERT_TRUE(flag) << "operation did not complete";
}

TEST(Cluster, CreateLookupAndPlacement) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[3]);
  bool done = false;
  client.create("alpha", [&](Status status, const FileInfo& info) {
    EXPECT_EQ(status, Status::kOk);
    EXPECT_FALSE(info.uuid.is_nil());
    ASSERT_EQ(info.replicas.size(), 3u);
    // Placement constraints (§6.1.1): distinct racks; second replica in the
    // primary's pod; third in another pod.
    const auto& tree = cluster.tree();
    EXPECT_NE(tree.rack_of(info.replicas[0]), tree.rack_of(info.replicas[1]));
    EXPECT_EQ(tree.pod_of(info.replicas[0]), tree.pod_of(info.replicas[1]));
    EXPECT_NE(tree.pod_of(info.replicas[0]), tree.pod_of(info.replicas[2]));
    done = true;
  });
  run_until_done(cluster, done);
  EXPECT_EQ(cluster.nameserver().file_count(), 1u);
}

TEST(Cluster, DuplicateCreateRejected) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[0]);
  bool done = false;
  client.create("dup", [&](Status s1, const FileInfo&) {
    EXPECT_EQ(s1, Status::kOk);
    client.create("dup", [&](Status s2, const FileInfo&) {
      EXPECT_EQ(s2, Status::kAlreadyExists);
      done = true;
    });
  });
  run_until_done(cluster, done);
}

TEST(Cluster, AppendReplicatesToAllHosts) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[7]);
  bool done = false;
  FileInfo created;
  client.create("log", [&](Status status, const FileInfo& info) {
    ASSERT_EQ(status, Status::kOk);
    created = info;
    client.append("log", ExtentList(Extent::pattern(1, 2500)),
                  [&](Status astatus, const AppendResp& resp) {
                    EXPECT_EQ(astatus, Status::kOk);
                    EXPECT_EQ(resp.offset, 0u);
                    EXPECT_EQ(resp.new_size, 2500u);
                    done = true;
                  });
  });
  run_until_done(cluster, done);
  // Every replica host holds the full, identical content.
  for (const net::NodeId rep : created.replicas) {
    const Dataserver& ds = cluster.dataserver_at(rep);
    EXPECT_EQ(ds.file_size(created.uuid), 2500u);
    const ExtentList* data = ds.file_data(created.uuid);
    ASSERT_NE(data, nullptr);
    EXPECT_TRUE(data->content_equals(ExtentList(Extent::pattern(1, 2500))));
  }
}

TEST(Cluster, ConcurrentAppendsAreOrderedByPrimary) {
  Cluster cluster(small_config());
  const auto& hosts = cluster.tree().hosts;
  Client& c1 = cluster.client_at(hosts[1]);
  Client& c2 = cluster.client_at(hosts[33]);
  bool created = false;
  FileInfo info;
  c1.create("shared", [&](Status s, const FileInfo& i) {
    ASSERT_EQ(s, Status::kOk);
    info = i;
    created = true;
  });
  run_until_done(cluster, created);

  int acks = 0;
  std::vector<std::uint64_t> offsets;
  auto on_append = [&](Status s, const AppendResp& resp) {
    EXPECT_EQ(s, Status::kOk);
    offsets.push_back(resp.offset);
    ++acks;
  };
  c1.append("shared", ExtentList(Extent::pattern(10, 700)), on_append);
  c2.append("shared", ExtentList(Extent::pattern(11, 800)), on_append);
  bool both = false;
  cluster.events().schedule_in(sim::SimTime::from_seconds(0), [&] {});
  while (acks < 2 && !cluster.events().empty()) cluster.events().step();
  both = acks == 2;
  ASSERT_TRUE(both);
  // Atomic appends: offsets are distinct and tile [0, 1500).
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_TRUE(offsets[1] == 700u || offsets[1] == 800u);
  // All replicas converge to the same 1500-byte content.
  const auto* primary_data =
      cluster.dataserver_at(info.primary()).file_data(info.uuid);
  ASSERT_NE(primary_data, nullptr);
  EXPECT_EQ(primary_data->size(), 1500u);
  for (const net::NodeId rep : info.replicas) {
    const auto* data = cluster.dataserver_at(rep).file_data(info.uuid);
    ASSERT_NE(data, nullptr);
    EXPECT_TRUE(data->content_equals(*primary_data));
  }
}

TEST(Cluster, ReadBackMatchesAppendedContent) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[12]);
  bool done = false;
  const ExtentList payload(Extent::pattern(42, 5000));  // 5 chunks
  client.create("blob", [&](Status s, const FileInfo&) {
    ASSERT_EQ(s, Status::kOk);
    client.append("blob", payload, [&](Status as, const AppendResp&) {
      ASSERT_EQ(as, Status::kOk);
      client.read_file("blob", [&](Status rs, ReadResult result) {
        EXPECT_EQ(rs, Status::kOk);
        EXPECT_EQ(result.file_size, 5000u);
        EXPECT_TRUE(result.data.content_equals(payload));
        done = true;
      });
    });
  });
  run_until_done(cluster, done);
}

TEST(Cluster, RangedReadReturnsExactSlice) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[20]);
  bool done = false;
  const ExtentList payload(Extent::pattern(7, 3000));
  client.create("ranged", [&](Status, const FileInfo&) {
    client.append("ranged", payload, [&](Status, const AppendResp&) {
      client.read("ranged", 1234, 777, [&](Status rs, ReadResult result) {
        EXPECT_EQ(rs, Status::kOk);
        EXPECT_EQ(result.data.size(), 777u);
        EXPECT_TRUE(result.data.content_equals(payload.slice(1234, 777)));
        done = true;
      });
    });
  });
  run_until_done(cluster, done);
}

TEST(Cluster, ReadPastEofReturnsAvailableBytes) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[2]);
  bool done = false;
  client.create("short", [&](Status, const FileInfo&) {
    client.append("short", ExtentList(Extent::pattern(3, 100)),
                  [&](Status, const AppendResp&) {
                    client.read("short", 50, 500,
                                [&](Status rs, ReadResult result) {
                                  EXPECT_EQ(rs, Status::kOk);
                                  EXPECT_EQ(result.data.size(), 50u);
                                  done = true;
                                });
                  });
  });
  run_until_done(cluster, done);
}

TEST(Cluster, EverySchemeServesReads) {
  for (const FsScheme scheme :
       {FsScheme::kMayflower, FsScheme::kHdfsMayflower, FsScheme::kHdfsEcmp,
        FsScheme::kNearestEcmp}) {
    Cluster cluster(small_config(scheme));
    Client& client = cluster.client_at(cluster.tree().hosts[9]);
    bool done = false;
    const ExtentList payload(Extent::pattern(9, 2000));
    client.create("f", [&](Status s, const FileInfo&) {
      ASSERT_EQ(s, Status::kOk);
      client.append("f", payload, [&](Status, const AppendResp&) {
        client.read_file("f", [&](Status rs, ReadResult result) {
          EXPECT_EQ(rs, Status::kOk) << to_string(scheme);
          EXPECT_TRUE(result.data.content_equals(payload));
          done = true;
        });
      });
    });
    run_until_done(cluster, done);
  }
}

TEST(Cluster, MetadataCacheAvoidsSecondLookup) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[4]);
  bool done = false;
  client.create("cached", [&](Status, const FileInfo&) {
    client.append("cached", ExtentList(Extent::pattern(1, 10)),
                  [&](Status, const AppendResp&) {
                    client.read_file("cached", [&](Status, ReadResult) {
                      client.read_file("cached", [&](Status, ReadResult) {
                        done = true;
                      });
                    });
                  });
  });
  run_until_done(cluster, done);
  // create caches the meta; append + both reads hit the cache.
  EXPECT_EQ(client.lookups_sent(), 0u);
  EXPECT_GE(client.cache_hits(), 3u);
}

TEST(Cluster, ExpiredCacheTriggersFreshLookup) {
  ClusterConfig cfg = small_config();
  cfg.client.meta_cache_ttl = sim::SimTime::from_seconds(1.0);
  Cluster cluster(cfg);
  Client& client = cluster.client_at(cluster.tree().hosts[4]);
  bool done = false;
  client.create("ttl", [&](Status, const FileInfo&) {
    // Wait out the TTL before touching the file again.
    cluster.events().schedule_in(sim::SimTime::from_seconds(5.0), [&] {
      client.append("ttl", ExtentList(Extent::pattern(1, 10)),
                    [&](Status, const AppendResp&) { done = true; });
    });
  });
  run_until_done(cluster, done);
  EXPECT_GE(client.lookups_sent(), 1u);  // TTL expired between create/append
}

TEST(Cluster, DeleteRemovesEverywhereAndStaleCacheRecovers) {
  Cluster cluster(small_config());
  const auto& hosts = cluster.tree().hosts;
  Client& writer = cluster.client_at(hosts[1]);
  Client& reader = cluster.client_at(hosts[50]);
  bool done = false;
  FileInfo created;
  writer.create("victim", [&](Status, const FileInfo& info) {
    created = info;
    writer.append("victim", ExtentList(Extent::pattern(2, 500)),
                  [&](Status, const AppendResp&) {
                    // Prime the reader's cache, then delete.
                    reader.read_file("victim", [&](Status rs, ReadResult) {
                      ASSERT_EQ(rs, Status::kOk);
                      writer.remove("victim", [&](Status ds) {
                        ASSERT_EQ(ds, Status::kOk);
                        // Reader retries with a fresh lookup, which fails:
                        // deletes win eventually (§3.4's concession).
                        reader.read_file("victim",
                                         [&](Status rs2, ReadResult) {
                                           EXPECT_EQ(rs2, Status::kNotFound);
                                           done = true;
                                         });
                      });
                    });
                  });
  });
  run_until_done(cluster, done);
  for (const net::NodeId rep : created.replicas) {
    EXPECT_EQ(cluster.dataserver_at(rep).file_data(created.uuid), nullptr);
  }
  EXPECT_EQ(cluster.nameserver().file_count(), 0u);
}

TEST(Cluster, StrongConsistencyReadsLastChunkFromPrimary) {
  ClusterConfig cfg = small_config();
  cfg.client.consistency = Consistency::kStrong;
  Cluster cluster(cfg);
  Client& client = cluster.client_at(cluster.tree().hosts[18]);
  bool done = false;
  FileInfo created;
  const ExtentList payload(Extent::pattern(6, 3500));  // chunks of 1000
  client.create("strong", [&](Status, const FileInfo& info) {
    created = info;
    client.append("strong", payload, [&](Status, const AppendResp&) {
      client.read_file("strong", [&](Status rs, ReadResult result) {
        EXPECT_EQ(rs, Status::kOk);
        EXPECT_TRUE(result.data.content_equals(payload));
        done = true;
      });
    });
  });
  run_until_done(cluster, done);
  // The primary must have served at least one read RPC (the tail piece).
  EXPECT_GE(cluster.dataserver_at(created.primary()).reads_served(), 1u);
}

TEST(Cluster, NameserverRebuildRecoversMappingsFromDataservers) {
  ClusterConfig cfg = small_config();
  Cluster cluster(cfg);
  Client& client = cluster.client_at(cluster.tree().hosts[6]);
  bool wrote = false;
  client.create("persisted", [&](Status, const FileInfo&) {
    client.append("persisted", ExtentList(Extent::pattern(4, 1200)),
                  [&](Status, const AppendResp&) { wrote = true; });
  });
  run_until_done(cluster, wrote);

  // Unclean restart: discard the KV state and rebuild from dataservers.
  bool rebuilt = false;
  std::vector<net::NodeId> all_ds(cluster.tree().hosts.begin(),
                                  cluster.tree().hosts.end());
  cluster.nameserver().rebuild_from_dataservers(all_ds,
                                                [&] { rebuilt = true; });
  run_until_done(cluster, rebuilt);

  const auto info = cluster.nameserver().lookup("persisted");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 1200u);
  EXPECT_EQ(info->replicas.size(), 3u);

  // The file remains readable through a fresh client.
  bool read_ok = false;
  Client& fresh = cluster.client_at(cluster.tree().hosts[40]);
  fresh.read_file("persisted", [&](Status rs, ReadResult result) {
    EXPECT_EQ(rs, Status::kOk);
    EXPECT_EQ(result.data.size(), 1200u);
    read_ok = true;
  });
  run_until_done(cluster, read_ok);
}

TEST(Cluster, MissingFileLookupFails) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[0]);
  bool done = false;
  client.read_file("ghost", [&](Status status, ReadResult) {
    EXPECT_EQ(status, Status::kNotFound);
    done = true;
  });
  run_until_done(cluster, done);
}

TEST(Cluster, LargePatternFileRoundTripsWithoutMaterializing) {
  ClusterConfig cfg = small_config();
  cfg.nameserver.chunk_size = 256'000'000;
  Cluster cluster(cfg);
  Client& client = cluster.client_at(cluster.tree().hosts[25]);
  bool done = false;
  // A full 256 MB block, as in the paper's experiments.
  const ExtentList payload(Extent::pattern(123, 256'000'000));
  double finished_at = -1.0;
  client.create("block", [&](Status, const FileInfo&) {
    client.append("block", payload, [&](Status as, const AppendResp& resp) {
      ASSERT_EQ(as, Status::kOk);
      EXPECT_EQ(resp.new_size, 256'000'000u);
      client.read_file("block", [&](Status rs, ReadResult result) {
        EXPECT_EQ(rs, Status::kOk);
        EXPECT_EQ(result.data.size(), 256'000'000u);
        EXPECT_TRUE(result.data.content_equals(payload));
        finished_at = cluster.events().now().seconds();
        done = true;
      });
    });
  });
  run_until_done(cluster, done);
  // Sanity: moving 256 MB twice (append + read) through 125 MB/s edges
  // takes simulated seconds, not microseconds.
  EXPECT_GT(finished_at, 2.0);
}


TEST(Cluster, ReadFailsOverToSurvivingReplica) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[11]);
  bool wrote = false;
  FileInfo created;
  client.create("resilient", [&](Status, const FileInfo& info) {
    created = info;
    client.append("resilient", ExtentList(Extent::pattern(8, 1800)),
                  [&](Status, const AppendResp&) { wrote = true; });
  });
  run_until_done(cluster, wrote);

  // Kill all but one replica host; the read must still succeed.
  for (std::size_t i = 0; i + 1 < created.replicas.size(); ++i) {
    cluster.dataserver_at(created.replicas[i]).detach();
  }
  bool read_ok = false;
  client.read_file("resilient", [&](Status rs, ReadResult result) {
    EXPECT_EQ(rs, Status::kOk);
    EXPECT_EQ(result.data.size(), 1800u);
    EXPECT_TRUE(
        result.data.content_equals(ExtentList(Extent::pattern(8, 1800))));
    read_ok = true;
  });
  run_until_done(cluster, read_ok);
  EXPECT_GE(cluster.dataserver_at(created.replicas.back()).reads_served(),
            1u);
}

TEST(Cluster, AppendFailsWhilePrimaryDownThenRecovers) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[11]);
  bool created = false;
  FileInfo info;
  client.create("flaky", [&](Status, const FileInfo& i) {
    info = i;
    created = true;
  });
  run_until_done(cluster, created);

  cluster.dataserver_at(info.primary()).detach();
  bool failed = false;
  client.append("flaky", ExtentList(Extent::pattern(1, 100)),
                [&](Status s, const AppendResp&) {
                  EXPECT_EQ(s, Status::kUnavailable);
                  failed = true;
                });
  run_until_done(cluster, failed);

  cluster.dataserver_at(info.primary()).attach();
  bool ok = false;
  client.append("flaky", ExtentList(Extent::pattern(1, 100)),
                [&](Status s, const AppendResp& resp) {
                  EXPECT_EQ(s, Status::kOk);
                  EXPECT_EQ(resp.new_size, 100u);
                  ok = true;
                });
  run_until_done(cluster, ok);
}

TEST(Cluster, CollaborativePlacementKeepsFaultDomains) {
  ClusterConfig cfg = small_config();
  cfg.write_placement = policy::WritePlacementKind::kModel;
  Cluster cluster(cfg);
  Client& client = cluster.client_at(cluster.tree().hosts[22]);
  bool done = false;
  client.create("placed", [&](Status status, const FileInfo& info) {
    EXPECT_EQ(status, Status::kOk);
    const auto& tree = cluster.tree();
    std::set<int> racks;
    for (const net::NodeId r : info.replicas) racks.insert(tree.rack_of(r));
    EXPECT_EQ(racks.size(), 3u);
    EXPECT_EQ(tree.pod_of(info.replicas[1]), tree.pod_of(info.replicas[0]));
    EXPECT_NE(tree.pod_of(info.replicas[2]), tree.pod_of(info.replicas[0]));
    done = true;
  });
  run_until_done(cluster, done);
}

TEST(Cluster, CoDesignedWritesRoundTrip) {
  ClusterConfig cfg = small_config();
  cfg.write_pipeline = true;
  Cluster cluster(cfg);
  Client& client = cluster.client_at(cluster.tree().hosts[3]);
  bool done = false;
  const ExtentList payload(Extent::pattern(77, 4200));
  client.create("codesigned", [&](Status, const FileInfo&) {
    client.append("codesigned", payload, [&](Status as, const AppendResp&) {
      ASSERT_EQ(as, Status::kOk);
      client.read_file("codesigned", [&](Status rs, ReadResult result) {
        EXPECT_EQ(rs, Status::kOk);
        EXPECT_TRUE(result.data.content_equals(payload));
        done = true;
      });
    });
  });
  run_until_done(cluster, done);
  // The append travelled a Flowserver-planned chain.
  EXPECT_GE(cluster.flow_server()->write_chains(), 1u);
}


TEST(Cluster, StatAndListApis) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[5]);
  bool done = false;
  client.create("x/one", [&](Status, const FileInfo&) {
    client.create("x/two", [&](Status, const FileInfo&) {
      client.append("x/one", ExtentList(Extent::pattern(1, 750)),
                    [&](Status, const AppendResp&) {
        client.invalidate_cache("x/one");
        client.stat("x/one", [&](Status ss, const FileInfo& info) {
          EXPECT_EQ(ss, Status::kOk);
          EXPECT_EQ(info.name, "x/one");
          // Size reported via the primary's async ReportSize.
          EXPECT_EQ(info.size, 750u);
          client.list([&](Status ls, std::vector<std::string> names) {
            EXPECT_EQ(ls, Status::kOk);
            ASSERT_EQ(names.size(), 2u);
            EXPECT_EQ(names[0], "x/one");
            EXPECT_EQ(names[1], "x/two");
            done = true;
          });
        });
      });
    });
  });
  run_until_done(cluster, done);
  bool missing = false;
  client.stat("ghost", [&](Status s, const FileInfo&) {
    EXPECT_EQ(s, Status::kNotFound);
    missing = true;
  });
  run_until_done(cluster, missing);
}


TEST(Cluster, FlowserverRpcServiceHandlesSelections) {
  // Default mode: selections travel as RPCs to the controller node (§5).
  Cluster cluster(small_config());
  ASSERT_NE(cluster.flowserver_service(), nullptr);
  Client& client = cluster.client_at(cluster.tree().hosts[8]);
  bool done = false;
  client.create("rpc-file", [&](Status, const FileInfo&) {
    client.append("rpc-file", ExtentList(Extent::pattern(4, 1500)),
                  [&](Status, const AppendResp&) {
                    client.read_file("rpc-file", [&](Status rs, ReadResult) {
                      EXPECT_EQ(rs, Status::kOk);
                      done = true;
                    });
                  });
  });
  run_until_done(cluster, done);
  EXPECT_GE(cluster.flowserver_service()->requests_served(), 1u);
  // Drops arrive over RPC too: eventually the table empties.
  bool drained = false;
  cluster.events().schedule_in(sim::SimTime::from_seconds(1.0), [&] {
    drained = cluster.flow_server()->table().size() == 0;
  });
  run_until_done(cluster, drained);
}

TEST(Cluster, StrongReadsSeePrefixesUnderConcurrentAppends) {
  // Writers keep appending while a strong-consistency reader polls: every
  // read must return a prefix of the final content with a consistent size.
  ClusterConfig cfg = small_config();
  cfg.client.consistency = Consistency::kStrong;
  Cluster cluster(cfg);
  Client& writer = cluster.client_at(cluster.tree().hosts[1]);
  Client& reader = cluster.client_at(cluster.tree().hosts[44]);

  const Extent full = Extent::pattern(31, 8000);
  bool created = false;
  writer.create("growing", [&](Status s, const FileInfo&) {
    ASSERT_EQ(s, Status::kOk);
    created = true;
  });
  run_until_done(cluster, created);

  // 8 appends of 1000 bytes each, spaced 0.5s apart.
  for (int i = 0; i < 8; ++i) {
    cluster.events().schedule_in(
        sim::SimTime::from_seconds(0.5 * i), [&, i] {
          writer.append(
              "growing",
              ExtentList(full.slice(static_cast<std::uint64_t>(i) * 1000,
                                    1000)),
              [](Status s, const AppendResp&) {
                ASSERT_EQ(s, Status::kOk);
              });
        });
  }
  // Reader polls every 0.7s; sizes must be multiples of the append unit
  // (atomic appends) and non-decreasing, content always a prefix.
  auto last_size = std::make_shared<std::uint64_t>(0);
  int reads_done = 0;
  for (int i = 0; i < 6; ++i) {
    cluster.events().schedule_in(
        sim::SimTime::from_seconds(0.2 + 0.7 * i), [&, last_size] {
          reader.invalidate_cache("growing");
          reader.read_file("growing", [&, last_size](Status s,
                                                     ReadResult result) {
            ASSERT_EQ(s, Status::kOk);
            EXPECT_EQ(result.data.size() % 1000, 0u);
            EXPECT_GE(result.data.size(), *last_size);
            *last_size = result.data.size();
            EXPECT_TRUE(result.data.content_equals(
                ExtentList(full.slice(0, result.data.size()))));
            ++reads_done;
          });
        });
  }
  bool all = false;
  while (!all && !cluster.events().empty() &&
         cluster.events().now() < sim::SimTime::from_seconds(300)) {
    cluster.events().step();
    all = reads_done == 6;
  }
  EXPECT_TRUE(all);
}

TEST(Cluster, ScalesToLargerFabrics) {
  // 8 pods x 6 racks x 6 hosts = 288 hosts; exercise generality end to end.
  ClusterConfig cfg = small_config();
  cfg.fabric.pods = 8;
  cfg.fabric.racks_per_pod = 6;
  cfg.fabric.hosts_per_rack = 6;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.tree().hosts.size(), 288u);
  Client& client = cluster.client_at(cluster.tree().hosts[200]);
  bool done = false;
  const ExtentList payload(Extent::pattern(3, 2500));
  client.create("big-fabric", [&](Status s, const FileInfo&) {
    ASSERT_EQ(s, Status::kOk);
    client.append("big-fabric", payload, [&](Status, const AppendResp&) {
      client.read_file("big-fabric", [&](Status rs, ReadResult r) {
        EXPECT_EQ(rs, Status::kOk);
        EXPECT_TRUE(r.data.content_equals(payload));
        done = true;
      });
    });
  });
  run_until_done(cluster, done);
}

// Model-checking chaos test: a random interleaving of create / append /
// read / delete across many clients, validated against an in-memory
// reference model of expected contents.
class ClusterChaos : public ::testing::TestWithParam<int> {};

TEST_P(ClusterChaos, MatchesReferenceModel) {
  ClusterConfig cfg;
  cfg.nameserver.chunk_size = 700;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  Cluster cluster(cfg);
  Rng rng(cfg.seed * 101 + 7);

  struct RefFile {
    ExtentList content;
    bool exists = false;
  };
  std::map<std::string, RefFile> reference;
  int pending = 0;

  // Sequential op driver: each op completes before the next is issued, so
  // the reference model is exact (concurrency is exercised elsewhere).
  std::function<void(int)> next_op = [&](int remaining) {
    if (remaining == 0) return;
    const std::string name = strfmt("chaos-%llu",
        static_cast<unsigned long long>(rng.next_below(6)));
    Client& client = cluster.client_at(
        cluster.tree().hosts[rng.next_below(cluster.tree().hosts.size())]);
    const auto continue_next = [&next_op, remaining] {
      next_op(remaining - 1);
    };
    switch (rng.next_below(4)) {
      case 0:  // create
        client.create(name, [&, name, continue_next](Status s,
                                                     const FileInfo&) {
          if (reference[name].exists) {
            EXPECT_EQ(s, Status::kAlreadyExists) << name;
          } else {
            ASSERT_EQ(s, Status::kOk) << name;
            reference[name].exists = true;
            reference[name].content = ExtentList{};
          }
          continue_next();
        });
        break;
      case 1: {  // append
        const std::uint64_t n = 1 + rng.next_below(2000);
        const ExtentList data(Extent::pattern(rng.next_u64(), n));
        client.append(name, data,
                      [&, name, data, continue_next](Status s,
                                                     const AppendResp&) {
          if (!reference[name].exists) {
            EXPECT_EQ(s, Status::kNotFound) << name;
          } else {
            ASSERT_EQ(s, Status::kOk) << name;
            reference[name].content.append(data);
          }
          continue_next();
        });
        break;
      }
      case 2:  // read
        client.read_file(name, [&, name, continue_next](Status s,
                                                        ReadResult r) {
          if (!reference[name].exists) {
            EXPECT_EQ(s, Status::kNotFound) << name;
          } else {
            ASSERT_EQ(s, Status::kOk) << name;
            EXPECT_TRUE(r.data.content_equals(reference[name].content))
                << name;
          }
          continue_next();
        });
        break;
      default:  // delete
        client.remove(name, [&, name, continue_next](Status s) {
          if (!reference[name].exists) {
            EXPECT_EQ(s, Status::kNotFound) << name;
          } else {
            EXPECT_EQ(s, Status::kOk) << name;
            reference[name].exists = false;
          }
          continue_next();
        });
        break;
    }
  };
  pending = 60;
  next_op(pending);
  cluster.run_until(sim::SimTime::from_seconds(5000));

  // Final audit: every existing file reads back exactly its reference.
  int audits = 0;
  int expected_audits = 0;
  for (const auto& [name, ref] : reference) {
    if (!ref.exists) continue;
    ++expected_audits;
    cluster.client_at(cluster.tree().hosts[0])
        .read_file(name, [&, name](Status s, ReadResult r) {
          EXPECT_EQ(s, Status::kOk) << name;
          EXPECT_TRUE(r.data.content_equals(reference[name].content)) << name;
          ++audits;
        });
  }
  cluster.run_until(sim::SimTime::from_seconds(10000));
  EXPECT_EQ(audits, expected_audits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterChaos, ::testing::Range(1, 7));

// Unclean nameserver restart while one dataserver is also gone: the rebuild
// must skip the unreachable server and still recover every mapping from the
// survivors (each replica stores the full FileInfo, including the replica
// list, so two of three reporters suffice).
TEST(Cluster, RebuildToleratesMissingDataserver) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[6]);
  bool wrote = false;
  client.create("sturdy", [&](Status, const FileInfo&) {
    client.append("sturdy", ExtentList(Extent::pattern(4, 1200)),
                  [&](Status, const AppendResp&) { wrote = true; });
  });
  run_until_done(cluster, wrote);

  const auto before = cluster.nameserver().lookup("sturdy");
  ASSERT_TRUE(before.has_value());
  cluster.dataserver_at(before->replicas[0]).detach();  // primary, no less

  bool rebuilt = false;
  std::vector<net::NodeId> all_ds(cluster.tree().hosts.begin(),
                                  cluster.tree().hosts.end());
  cluster.nameserver().rebuild_from_dataservers(all_ds,
                                                [&] { rebuilt = true; });
  run_until_done(cluster, rebuilt);

  const auto info = cluster.nameserver().lookup("sturdy");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 1200u);
  EXPECT_EQ(info->replicas, before->replicas);

  // Still readable: plans that land on the dead primary fail over.
  bool read_ok = false;
  Client& fresh = cluster.client_at(cluster.tree().hosts[40]);
  fresh.read_file("sturdy", [&](Status rs, ReadResult result) {
    EXPECT_EQ(rs, Status::kOk);
    EXPECT_EQ(result.data.size(), 1200u);
    read_ok = true;
  });
  run_until_done(cluster, read_ok);
}

// A crashed dataserver is detected by the heartbeat monitor and every file
// it held is re-replicated back to full strength on surviving servers.
TEST(Cluster, CrashedDataserverTriggersRereplication) {
  ClusterConfig cfg = small_config();
  cfg.heartbeat_interval = sim::SimTime::from_seconds(1.0);
  Cluster cluster(cfg);
  Client& client = cluster.client_at(cluster.tree().hosts[10]);
  bool wrote = false;
  client.create("precious", [&](Status, const FileInfo&) {
    client.append("precious", ExtentList(Extent::pattern(9, 5000)),
                  [&](Status, const AppendResp&) { wrote = true; });
  });
  run_until_done(cluster, wrote);

  const auto before = cluster.nameserver().lookup("precious");
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->replicas.size(), 3u);
  const net::NodeId victim = before->replicas[1];

  fault::FaultPlan plan;
  plan.events.push_back({cluster.events().now() + sim::SimTime::from_millis(500.0),
                         fault::FaultKind::kDataserverCrash, net::kInvalidLink,
                         victim});
  cluster.fault_injector().arm(plan);
  cluster.run_until(cluster.events().now() + sim::SimTime::from_seconds(30.0));

  EXPECT_FALSE(cluster.nameserver().dataserver_alive(victim));
  EXPECT_GE(cluster.nameserver().rereplications(), 1u);
  const auto after = cluster.nameserver().lookup("precious");
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->replicas.size(), 3u);
  EXPECT_EQ(std::find(after->replicas.begin(), after->replicas.end(), victim),
            after->replicas.end());
  EXPECT_EQ(after->replicas[0], before->replicas[0]);  // primary survives
  // Replacement respects the fault-domain spread: still three distinct racks.
  std::set<int> racks;
  for (const net::NodeId r : after->replicas) {
    racks.insert(cluster.tree().rack_of(r));
  }
  EXPECT_EQ(racks.size(), 3u);

  // The re-replicated copy holds the bytes: read via the replacement only.
  const net::NodeId replacement = after->replicas[2];
  bool read_ok = false;
  bool probe_done = false;
  ReadReq req;
  req.file = after->uuid;
  req.offset = 0;
  req.length = 5000;
  cluster.transport().call(
      cluster.tree().hosts[0], replacement, Method::kReadFile, req.encode(),
      [&](Status s, Bytes payload) {
        EXPECT_EQ(s, Status::kOk);
        Reader r(payload);
        const ReadResp resp = ReadResp::decode(r);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(resp.data.size(), 5000u);
        read_ok = true;
        probe_done = true;
      });
  run_until_done(cluster, probe_done);
  EXPECT_TRUE(read_ok);
}

// Reads keep succeeding when replicas die under the client: failed plans are
// retried against survivors and stale cached metadata is invalidated.
TEST(Cluster, ClientReadsSurviveReplicaCrashes) {
  Cluster cluster(small_config());
  Client& client = cluster.client_at(cluster.tree().hosts[22]);
  bool wrote = false;
  client.create("durable", [&](Status, const FileInfo&) {
    client.append("durable", ExtentList(Extent::pattern(7, 3000)),
                  [&](Status, const AppendResp&) { wrote = true; });
  });
  run_until_done(cluster, wrote);
  // Warm the metadata cache so the failure path also exercises
  // invalidate-on-error + refetch.
  bool warm = false;
  client.read_file("durable", [&](Status s, ReadResult) {
    EXPECT_EQ(s, Status::kOk);
    warm = true;
  });
  run_until_done(cluster, warm);

  const auto info = cluster.nameserver().lookup("durable");
  ASSERT_TRUE(info.has_value());
  // Kill two of the three replicas outright (RPC servers gone; links still
  // up, so plans keep nominating them until the failures teach the client).
  cluster.dataserver_at(info->replicas[0]).detach();
  cluster.dataserver_at(info->replicas[1]).detach();

  bool read_ok = false;
  client.read_file("durable", [&](Status s, ReadResult result) {
    EXPECT_EQ(s, Status::kOk);
    EXPECT_EQ(result.data.size(), 3000u);
    EXPECT_TRUE(result.data.content_equals(ExtentList(Extent::pattern(7, 3000))));
    read_ok = true;
  });
  run_until_done(cluster, read_ok);
}

TEST(Cluster, InFlightLookupCannotRepopulateCacheAfterDelete) {
  // Regression: a lookup reply that was already in flight when the same
  // client deleted the file must not repopulate the metadata cache. A
  // delete-then-recreate would otherwise serve the pre-delete replica set
  // from cache until the TTL expired.
  Cluster cluster(small_config());
  Client& writer = cluster.client_at(cluster.tree().hosts[0]);
  Client& racer = cluster.client_at(cluster.tree().hosts[1]);

  bool created = false;
  writer.create("phoenix", [&](Status status, const FileInfo&) {
    ASSERT_EQ(status, Status::kOk);
    created = true;
  });
  run_until_done(cluster, created);

  // Same tick: the stat's lookup RPC goes out first, then the delete. The
  // lookup reply (carrying the old mapping) lands after the delete already
  // bumped the invalidation generation.
  bool stat_done = false;
  bool removed = false;
  racer.stat("phoenix", [&](Status, const FileInfo&) { stat_done = true; });
  racer.remove("phoenix", [&](Status status) {
    EXPECT_EQ(status, Status::kOk);
    removed = true;
  });
  run_until_done(cluster, stat_done);
  run_until_done(cluster, removed);

  Uuid fresh_uuid;
  bool recreated = false;
  writer.create("phoenix", [&](Status status, const FileInfo& info) {
    ASSERT_EQ(status, Status::kOk);
    fresh_uuid = info.uuid;
    recreated = true;
  });
  run_until_done(cluster, recreated);

  // The racer must see the recreated file, not a cached pre-delete mapping.
  bool verified = false;
  racer.stat("phoenix", [&](Status status, const FileInfo& info) {
    EXPECT_EQ(status, Status::kOk);
    EXPECT_EQ(info.uuid, fresh_uuid);
    verified = true;
  });
  run_until_done(cluster, verified);
}

}  // namespace
}  // namespace mayflower::fs
