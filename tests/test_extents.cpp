#include "fs/data.hpp"

#include <gtest/gtest.h>

#include "common/crc32.hpp"

namespace mayflower::fs {
namespace {

TEST(Extent, InlineBasics) {
  const Extent e = Extent::from_bytes("hello world");
  EXPECT_EQ(e.size(), 11u);
  EXPECT_EQ(e.materialize(), "hello world");
  EXPECT_EQ(e.byte_at(0), 'h');
  EXPECT_EQ(e.byte_at(10), 'd');
}

TEST(Extent, InlineSlice) {
  const Extent e = Extent::from_bytes("hello world");
  EXPECT_EQ(e.slice(6, 5).materialize(), "world");
  EXPECT_EQ(e.slice(6, 100).materialize(), "world");  // clamped
  EXPECT_EQ(e.slice(11, 5).size(), 0u);
}

TEST(Extent, PatternIsDeterministic) {
  const Extent a = Extent::pattern(42, 1000);
  const Extent b = Extent::pattern(42, 1000);
  EXPECT_EQ(a.materialize(), b.materialize());
  EXPECT_NE(Extent::pattern(43, 1000).checksum(), a.checksum());
}

TEST(Extent, PatternSliceMatchesMaterializedSlice) {
  const Extent whole = Extent::pattern(7, 4096);
  const std::string bytes = whole.materialize();
  for (const auto& [off, len] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {0, 100}, {1, 7}, {4000, 96}, {1023, 1}, {512, 2048}}) {
    const Extent s = whole.slice(off, len);
    EXPECT_EQ(s.materialize(), bytes.substr(off, len)) << off << "," << len;
  }
}

TEST(Extent, ChecksumMatchesMaterializedCrcWithoutMaterializing) {
  const Extent p = Extent::pattern(99, 100000);
  const std::string bytes = p.materialize(1u << 20);
  EXPECT_EQ(p.checksum(), crc32(bytes));
  // Huge pattern: checksum works where materialize refuses. The constant is
  // what the byte-at-a-time stream computed for these 8 GiB.
  const Extent huge = Extent::pattern(1, 1ull << 33);
  EXPECT_TRUE(huge.materialize(1u << 20).empty());
  EXPECT_EQ(huge.checksum(), 0xa4adcc48U);  // computed, streaming
}

// checksum() fills whole 8-byte pattern words at once and folds them
// 8 bytes per CRC step; materialize() still builds one byte at a time.
// Offsets and sizes straddle word and 4 KiB chunk boundaries.
TEST(Extent, ChecksumMatchesMaterializedCrcAtUnalignedSlices) {
  const Extent stream = Extent::pattern(99, 1u << 20);
  for (const std::uint64_t offset : {0u, 3u, 4093u}) {
    for (const std::uint64_t size : {0u, 1u, 7u, 8u, 9u, 4095u, 4097u}) {
      const Extent e = stream.slice(offset, size);
      EXPECT_EQ(e.checksum(), crc32(e.materialize()))
          << "offset=" << offset << " size=" << size;
      ExtentList list;
      list.append(Extent::from_bytes("abc"));
      list.append(e);
      list.append(Extent::from_bytes("de"));
      list.append(Extent::pattern(7, 13, offset + 5));
      list.append(e);
      EXPECT_EQ(list.checksum(), crc32(list.materialize()))
          << "offset=" << offset << " size=" << size;
    }
  }
}

TEST(Extent, ContentEqualsAcrossKinds) {
  const Extent p = Extent::pattern(11, 500);
  const Extent inl = Extent::from_bytes(p.materialize());
  EXPECT_TRUE(p.content_equals(inl));
  EXPECT_TRUE(inl.content_equals(p));
  EXPECT_FALSE(p.content_equals(Extent::pattern(12, 500)));
}

TEST(Extent, EncodeDecodeRoundTrip) {
  for (const Extent& e :
       {Extent::from_bytes("binary\x00payload"), Extent::pattern(5, 123, 45)}) {
    const auto back = decode<Extent>(encode(e));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(e.content_equals(*back));
    EXPECT_EQ(e.kind(), back->kind());
  }
}

TEST(Extent, UnknownKindFailsToDecode) {
  Writer w;
  w.u8(3);  // neither kInline (1) nor kPattern (2)
  EXPECT_FALSE(decode<Extent>(w.bytes()).has_value());
}

TEST(ExtentList, AppendAndSize) {
  ExtentList list;
  EXPECT_TRUE(list.empty());
  list.append(Extent::from_bytes("abc"));
  list.append(Extent::pattern(1, 10));
  list.append(Extent::from_bytes(""));  // dropped
  EXPECT_EQ(list.size(), 13u);
  EXPECT_EQ(list.extents().size(), 2u);
}

TEST(ExtentList, SliceSpansExtentBoundaries) {
  ExtentList list;
  list.append(Extent::from_bytes("0123456789"));
  list.append(Extent::from_bytes("abcdefghij"));
  list.append(Extent::from_bytes("ABCDEFGHIJ"));
  EXPECT_EQ(list.slice(8, 4).materialize(), "89ab");
  EXPECT_EQ(list.slice(0, 30).materialize(),
            "0123456789abcdefghijABCDEFGHIJ");
  EXPECT_EQ(list.slice(19, 2).materialize(), "jA");
  EXPECT_EQ(list.slice(30, 5).size(), 0u);
  EXPECT_EQ(list.slice(25, 100).materialize(), "FGHIJ");
}

TEST(ExtentList, ChecksumIsLayoutIndependent) {
  // Same logical bytes, different extent splits => same checksum.
  ExtentList a;
  a.append(Extent::from_bytes("hello "));
  a.append(Extent::from_bytes("world"));
  ExtentList b;
  b.append(Extent::from_bytes("hello world"));
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_TRUE(a.content_equals(b));
}

TEST(ExtentList, PatternSplitEqualsWhole) {
  const Extent whole = Extent::pattern(77, 1000);
  ExtentList parts;
  parts.append(whole.slice(0, 400));
  parts.append(whole.slice(400, 600));
  ExtentList one(whole);
  EXPECT_TRUE(parts.content_equals(one));
}

TEST(ExtentList, EncodeDecodeRoundTrip) {
  ExtentList list;
  list.append(Extent::from_bytes("xyz"));
  list.append(Extent::pattern(3, 50, 10));
  const auto back = decode<ExtentList>(encode(list));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(list.content_equals(*back));
}

TEST(ExtentList, SliceOfSliceComposes) {
  ExtentList list;
  list.append(Extent::pattern(9, 1000));
  list.append(Extent::pattern(10, 1000));
  const ExtentList outer = list.slice(500, 1000);
  const ExtentList inner = outer.slice(250, 500);
  EXPECT_TRUE(inner.content_equals(list.slice(750, 500)));
}

}  // namespace
}  // namespace mayflower::fs
