// Wire coverage driven by the method table (MAYFLOWER_RPC_METHODS in
// src/fs/rpc/messages.hpp), so a new method is covered the moment it has a
// row. For a populated instance of every request and response type:
//  - it round-trips: decode<T>() accepts its bytes and re-encoding them
//    reproduces them byte for byte;
//  - every strict prefix and the one-byte extension of its bytes fails:
//    responses at decode<T>(), requests through the owning server's
//    dispatch, which must answer kBadRequest.
// The hand-written wire tests with interesting payloads stay in
// test_rpc.cpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "flowserver/flowserver.hpp"
#include "fs/dataserver.hpp"
#include "fs/flowserver_service.hpp"
#include "fs/nameserver.hpp"

namespace mayflower::fs {
namespace {

// Gives every field a distinct nonzero value (two elements per list), so
// each field adds bytes to the encoding.
template <typename T>
void populate(T& v, std::uint64_t& n) {
  if constexpr (std::is_arithmetic_v<T>) {
    v = static_cast<T>(++n);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = "field-" + std::to_string(++n);
  } else if constexpr (std::is_same_v<T, Uuid>) {
    Rng rng(++n);
    v = Uuid::generate(rng);
  } else if constexpr (kIsVector<T>) {
    v.resize(2);
    for (auto& item : v) populate(item, n);
  } else if constexpr (std::is_same_v<T, ExtentList>) {
    v.append(Extent::from_bytes("inline-" + std::to_string(++n)));
    v.append(Extent::pattern(++n, 4096, 512));
  } else if constexpr (std::is_same_v<T, meta::Partition>) {
    v = meta::Partition::kSubtree;
  } else {
    std::apply([&n](auto&... f) { (populate(f, n), ...); }, T::fields(v));
  }
}

template <typename T>
Bytes populated_wire() {
  T v{};
  std::uint64_t n = 0;
  populate(v, n);
  return encode(v);
}

// Every strict prefix of `wire`, then `wire` with one trailing byte.
std::vector<Bytes> malformed(const Bytes& wire) {
  std::vector<Bytes> out;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    out.push_back(wire.substr(0, len));
  }
  out.push_back(wire + '\0');
  return out;
}

template <typename T>
void expect_round_trip(const char* method) {
  const Bytes wire = populated_wire<T>();
  const auto back = decode<T>(wire);
  ASSERT_TRUE(back.has_value()) << method << ": decode failed";
  EXPECT_EQ(encode(*back), wire)
      << method << ": re-encode is not byte-identical";
}

template <typename T>
void expect_malformed_fail(const char* method) {
  for (const Bytes& bad : malformed(populated_wire<T>())) {
    EXPECT_FALSE(decode<T>(bad).has_value())
        << method << " response of " << bad.size() << " bytes decoded";
  }
}

TEST(RpcRoundtripGenerated, EveryMethodRoundTrips) {
#define ROUND_TRIP(method, id, Req, Resp, owners) \
  expect_round_trip<Req>(#method);                \
  expect_round_trip<Resp>(#method);
  MAYFLOWER_RPC_METHODS(ROUND_TRIP)
#undef ROUND_TRIP
}

TEST(RpcRoundtripGenerated, TruncatedOrExtendedResponsesFailToDecode) {
#define RESPONSE_SWEEP(method, id, Req, Resp, owners) \
  expect_malformed_fail<Resp>(#method);
  MAYFLOWER_RPC_METHODS(RESPONSE_SWEEP)
#undef RESPONSE_SWEEP
}

// One server of each family that answers requests with a body.
class RequestSweep : public ::testing::Test {
 protected:
  RequestSweep()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        fabric_(events_, tree_.topo),
        transport_(events_, sim::SimTime::from_micros(100)),
        kv_dir_(std::filesystem::temp_directory_path() /
                strfmt("mayflower-rpc-sweep-%d",
                       static_cast<int>(::getpid()))),
        dataserver_(transport_, fabric_, tree_.hosts[0], {}, 1),
        flowserver_(fabric_, {}),
        service_(transport_, tree_.hosts[47], flowserver_),
        owner_node_{{"nameserver", tree_.hosts[1]},
                    {"dataserver", tree_.hosts[0]},
                    {"flowserver", tree_.hosts[47]}} {
    std::filesystem::remove_all(kv_dir_);
    NameserverConfig cfg;
    cfg.kv_dir = kv_dir_;
    nameserver_ = std::make_unique<Nameserver>(transport_, tree_.hosts[1],
                                               tree_, cfg, 7);
  }
  ~RequestSweep() override {
    nameserver_.reset();
    std::filesystem::remove_all(kv_dir_);
  }

  // Methods whose request has no body are exempt: nothing to truncate.
  template <typename Req>
  void sweep(Method method, const std::string& owners) {
    if constexpr (!std::is_same_v<Req, NoBody>) {
      const net::NodeId server = owner_node_.at(owners);
      for (const Bytes& bad : malformed(populated_wire<Req>())) {
        std::vector<Status> seen;
        transport_.call(tree_.hosts[2], server, method, bad,
                        [&seen](Status s, Bytes) { seen.push_back(s); });
        events_.run();
        ASSERT_EQ(seen.size(), 1u) << to_string(method);
        EXPECT_EQ(seen[0], Status::kBadRequest)
            << to_string(method) << " request of " << bad.size() << " bytes";
      }
    }
  }

  sim::EventQueue events_;
  net::ThreeTier tree_;
  sdn::SdnFabric fabric_;
  SimTransport transport_;
  std::filesystem::path kv_dir_;
  Dataserver dataserver_;
  flowserver::Flowserver flowserver_;
  FlowserverService service_;
  std::unique_ptr<Nameserver> nameserver_;
  std::map<std::string, net::NodeId> owner_node_;
};

TEST_F(RequestSweep, TruncatedOrExtendedRequestsAreBadRequests) {
#define REQUEST_SWEEP(method, id, Req, Resp, owners) \
  sweep<Req>(Method::method, owners);
  MAYFLOWER_RPC_METHODS(REQUEST_SWEEP)
#undef REQUEST_SWEEP
  EXPECT_EQ(nameserver_->file_count(), 0u);
  EXPECT_EQ(flowserver_.table().size(), 0u);
}

}  // namespace
}  // namespace mayflower::fs
