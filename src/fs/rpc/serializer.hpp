// Compact binary serialization for RPC messages — the project's stand-in
// for Apache Thrift (§5). Everything crossing the simulated wire is really
// encoded to bytes and decoded back, so message-shape bugs surface in tests
// exactly as they would in a deployment.
//
// Encoding: little-endian fixed-width scalars, LEB128 varints for lengths,
// length-prefixed strings/blobs. Readers are bounds-checked and never throw;
// failure is sticky (ok() goes false and stays false).
//
// Like Thrift's IDL, a message states its fields once, in wire order:
//   static auto fields(auto& m) { return std::tie(m.a, m.b); }
// and encode()/decode<T>() below derive both directions from that list.
// Field types: arithmetic scalars (fixed width), std::string, Uuid,
// std::vector (varint count, then the elements), nested records (their
// fields inline), and types with a hand codec — encode_into/decode_into
// overloads declared next to the type, which the generic ones find by
// argument-dependent lookup (fs::Extent, fs::ExtentList, meta::Partition).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/uuid.hpp"

namespace mayflower::fs {

using Bytes = std::string;

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void u16(std::uint16_t v) { fixed(&v, sizeof v); }
  void u32(std::uint32_t v) { fixed(&v, sizeof v); }
  void u64(std::uint64_t v) { fixed(&v, sizeof v); }
  void f64(double v) { fixed(&v, sizeof v); }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(v));
  }

  void str(const std::string& s) {
    varint(s.size());
    out_.append(s);
  }

  void boolean(bool b) { u8(b ? 1 : 0); }

  void fixed(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  const Bytes& bytes() const& { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(&data) {}

  bool ok() const { return ok_; }
  bool at_end() const { return pos_ == data_->size(); }
  // Marks the input malformed: a value the wire cannot represent.
  void fail() { ok_ = false; }

  std::uint8_t u8() {
    std::uint8_t v = 0;
    fixed(&v, sizeof v);
    return v;
  }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    fixed(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    fixed(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    fixed(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    fixed(&v, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (ok_ && shift <= 63) {
      if (pos_ >= data_->size()) {
        ok_ = false;
        return 0;
      }
      const auto byte = static_cast<std::uint8_t>((*data_)[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
    ok_ = false;
    return 0;
  }

  std::string str() {
    const std::uint64_t n = varint();
    // Compared against the bytes left, not as pos_ + n: a length near 2^64
    // would wrap the sum and move the cursor backwards.
    if (!ok_ || n > data_->size() - pos_) {
      ok_ = false;
      return {};
    }
    std::string s = data_->substr(pos_, n);
    pos_ += n;
    return s;
  }

  bool boolean() { return u8() != 0; }

  void fixed(void* p, std::size_t n) {
    if (!ok_ || n > data_->size() - pos_) {
      ok_ = false;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, data_->data() + pos_, n);
    pos_ += n;
  }

 private:
  const Bytes* data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- the generic codec -------------------------------------------------------

template <typename T>
concept Record = requires(T& m) { T::fields(m); };

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
void encode_into(Writer& w, const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    w.fixed(&v, sizeof v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, Uuid>) {
    w.varint(v.bytes().size());
    w.fixed(v.bytes().data(), v.bytes().size());
  } else if constexpr (kIsVector<T>) {
    w.varint(v.size());
    for (const auto& item : v) encode_into(w, item);
  } else {
    static_assert(Record<T>, "no wire encoding for this type");
    std::apply([&w](const auto&... f) { (encode_into(w, f), ...); },
               T::fields(v));
  }
}

template <typename T>
void decode_into(Reader& r, T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    r.fixed(&v, sizeof v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, Uuid>) {
    std::array<std::uint8_t, 16> bytes{};
    if (r.varint() != bytes.size()) {
      r.fail();
      return;
    }
    r.fixed(bytes.data(), bytes.size());
    v = Uuid(bytes);
  } else if constexpr (kIsVector<T>) {
    const std::uint64_t n = r.varint();
    v.clear();
    // Cap reservation: a corrupt count must not allocate unbounded memory.
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 4096)));
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      decode_into(r, v.emplace_back());
    }
  } else {
    static_assert(Record<T>, "no wire decoding for this type");
    std::apply([&r](auto&... f) { (decode_into(r, f), ...); }, T::fields(v));
  }
}

template <typename T>
Bytes encode(const T& msg) {
  Writer w;
  encode_into(w, msg);
  return w.take();
}

// Empty unless `bytes` hold exactly one well-formed T: a short input, a
// value the type cannot represent and trailing bytes all fail.
template <typename T>
std::optional<T> decode(const Bytes& bytes) {
  Reader r(bytes);
  T msg{};
  decode_into(r, msg);
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return msg;
}

}  // namespace mayflower::fs
