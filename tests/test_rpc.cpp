#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fs/rpc/messages.hpp"
#include "fs/rpc/transport.hpp"

namespace mayflower::fs {
namespace {

TEST(Serializer, ScalarRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.boolean(true);
  const Bytes bytes = w.bytes();
  Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serializer, VarintBoundaries) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
        0xffffffffULL, 0xffffffffffffffffULL}) {
    Writer w;
    w.varint(v);
    const Bytes bytes = w.bytes();
    Reader r(bytes);
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(Serializer, StringsWithEmbeddedNul) {
  Writer w;
  w.str(std::string("a\0b", 3));
  w.str("");
  const Bytes bytes = w.bytes();
  Reader r(bytes);
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.ok());
}

TEST(Serializer, TruncatedInputFailsSticky) {
  Writer w;
  w.u64(42);
  Bytes bytes = w.bytes();
  bytes.resize(3);  // truncate
  Reader r(bytes);
  r.u64();
  EXPECT_FALSE(r.ok());
  // Sticky: further reads stay failed and return zeroes.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Serializer, CorruptListCountDoesNotOverAllocate) {
  Writer w;
  w.varint(0xffffffffffULL);  // absurd element count, no elements
  const Bytes bytes = w.bytes();
  Reader r(bytes);
  std::vector<std::uint32_t> items;
  decode_into(r, items);
  EXPECT_FALSE(r.ok());
  EXPECT_LT(items.size(), 4097u);
}

TEST(Serializer, WrappedStringLengthFails) {
  // A length of 2^64 - 1: pos + length wraps to just before the cursor.
  Writer w;
  w.varint(~0ULL);
  w.str("tail");
  const Bytes bytes = w.bytes();
  Reader r(bytes);
  r.str();
  EXPECT_FALSE(r.ok());
}

TEST(Messages, FileInfoRoundTrip) {
  Rng rng(1);
  FileInfo info;
  info.uuid = Uuid::generate(rng);
  info.name = "dataset/part-00042";
  info.size = 1234567890123ULL;
  info.chunk_size = 256'000'000;
  info.replicas = {7, 21, 42};
  const FileInfo back = decode<FileInfo>(encode(info)).value();
  EXPECT_EQ(back.uuid, info.uuid);
  EXPECT_EQ(back.name, info.name);
  EXPECT_EQ(back.size, info.size);
  EXPECT_EQ(back.replicas, info.replicas);
  EXPECT_EQ(back.primary(), 7u);
}

TEST(Messages, FileInfoChunkArithmetic) {
  FileInfo info;
  info.chunk_size = 100;
  info.size = 0;
  EXPECT_EQ(info.last_chunk_index(), 0u);
  info.size = 100;
  EXPECT_EQ(info.last_chunk_index(), 0u);  // exactly one full chunk
  info.size = 101;
  EXPECT_EQ(info.last_chunk_index(), 1u);
  EXPECT_EQ(info.last_chunk_offset(), 100u);
  info.size = 250;
  EXPECT_EQ(info.last_chunk_index(), 2u);
  EXPECT_EQ(info.last_chunk_offset(), 200u);
}

TEST(Messages, RequestResponsePairsRoundTrip) {
  Rng rng(2);
  const Uuid uuid = Uuid::generate(rng);
  {
    const auto back =
        decode<CreateFileReq>(encode(CreateFileReq{"x", 3})).value();
    EXPECT_EQ(back.name, "x");
    EXPECT_EQ(back.replication, 3u);
  }
  {
    AppendReq req;
    req.file = uuid;
    req.data.append(Extent::pattern(5, 1000));
    const auto back = decode<AppendReq>(encode(req)).value();
    EXPECT_EQ(back.file, uuid);
    EXPECT_EQ(back.data.size(), 1000u);
  }
  {
    ReadReq req;
    req.file = uuid;
    req.offset = 128;
    req.length = 256;
    const auto back = decode<ReadReq>(encode(req)).value();
    EXPECT_EQ(back.offset, 128u);
    EXPECT_EQ(back.length, 256u);
  }
  {
    ReadResp resp;
    resp.data.append(Extent::from_bytes("abc"));
    resp.file_size = 999;
    const auto back = decode<ReadResp>(encode(resp)).value();
    EXPECT_EQ(back.file_size, 999u);
    EXPECT_EQ(back.data.materialize(), "abc");
  }
}

TEST(Messages, WrappedNameLengthFailsAListFilesResp) {
  // A count of 1000 names whose first length wraps the cursor back onto
  // itself: each "name" would re-read the same varint.
  Writer w;
  w.varint(1000);
  w.varint(~0ULL - 9);  // read up to byte 12, and 12 + length wraps to 2
  const Bytes bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 12u);
  Reader r(bytes);
  ListFilesResp resp;
  decode_into(r, resp);
  EXPECT_FALSE(r.ok());
  EXPECT_LT(resp.names.size(), 1000u);
}

TEST(Messages, UuidFieldOfTheWrongLengthFails) {
  Writer w;
  w.str(std::string(15, 'u'));
  EXPECT_FALSE(decode<DropReplicaReq>(w.bytes()).has_value());
}

TEST(SimTransport, DeliversWithRoundTripLatency) {
  sim::EventQueue events;
  SimTransport transport(events, sim::SimTime::from_millis(1.0));
  transport.bind(2, [](net::NodeId from, Method method, const Bytes& req,
                       ResponseFn reply) {
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(method, Method::kLookupFile);
    EXPECT_EQ(req, "ping");
    reply(Status::kOk, "pong");
  });
  double replied_at = -1.0;
  transport.call(1, 2, Method::kLookupFile, "ping",
                 [&](Status status, Bytes payload) {
                   EXPECT_EQ(status, Status::kOk);
                   EXPECT_EQ(payload, "pong");
                   replied_at = events.now().seconds();
                 });
  events.run();
  EXPECT_NEAR(replied_at, 0.002, 1e-9);  // two one-way legs
}

TEST(SimTransport, UnboundDestinationIsUnavailable) {
  sim::EventQueue events;
  SimTransport transport(events, sim::SimTime::from_millis(1.0));
  Status seen = Status::kOk;
  transport.call(1, 99, Method::kLookupFile, "x",
                 [&](Status status, Bytes) { seen = status; });
  events.run();
  EXPECT_EQ(seen, Status::kUnavailable);
}

TEST(SimTransport, UnbindStopsDelivery) {
  sim::EventQueue events;
  SimTransport transport(events, sim::SimTime::from_millis(1.0));
  transport.bind(2, [](net::NodeId, Method, const Bytes&, ResponseFn reply) {
    reply(Status::kOk, {});
  });
  transport.unbind(2);
  Status seen = Status::kOk;
  transport.call(1, 2, Method::kLookupFile, "x",
                 [&](Status status, Bytes) { seen = status; });
  events.run();
  EXPECT_EQ(seen, Status::kUnavailable);
}

TEST(SimTransport, AsynchronousServerReply) {
  // A handler may hold the reply and fire it later; latency still applies.
  sim::EventQueue events;
  SimTransport transport(events, sim::SimTime::from_millis(1.0));
  transport.bind(2, [&events](net::NodeId, Method, const Bytes&,
                              ResponseFn reply) {
    events.schedule_in(sim::SimTime::from_millis(5.0),
                       [reply = std::move(reply)] {
                         reply(Status::kOk, "late");
                       });
  });
  double replied_at = -1.0;
  transport.call(1, 2, Method::kReadFile, "x", [&](Status, Bytes payload) {
    EXPECT_EQ(payload, "late");
    replied_at = events.now().seconds();
  });
  events.run();
  EXPECT_NEAR(replied_at, 0.007, 1e-9);
}

TEST(LoopbackTransport, SynchronousDelivery) {
  LoopbackTransport transport;
  transport.bind(5, [](net::NodeId, Method, const Bytes& req,
                       ResponseFn reply) { reply(Status::kOk, req + "!"); });
  Bytes got;
  transport.call(1, 5, Method::kListFiles, "hi",
                 [&](Status, Bytes payload) { got = std::move(payload); });
  EXPECT_EQ(got, "hi!");
}

}  // namespace
}  // namespace mayflower::fs
