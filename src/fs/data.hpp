// File content representation.
//
// The paper moves multi-hundred-megabyte blocks with sendfile; materializing
// those payloads in a simulation would swamp memory for zero fidelity gain
// (completion time is network-bound by assumption, §3.1). Content is instead
// an *extent*: either real inline bytes (tests, examples, small files) or a
// deterministic pattern (seed + absolute offset + length) whose bytes are
// generated on demand. Both kinds slice, checksum and round-trip through the
// serializer; the full read/append paths work identically for either.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fs/rpc/serializer.hpp"

namespace mayflower::fs {

class Extent {
 public:
  enum class Kind : std::uint8_t { kInline = 1, kPattern = 2 };

  Extent() = default;

  static Extent from_bytes(std::string bytes);
  static Extent pattern(std::uint64_t seed, std::uint64_t size,
                        std::uint64_t offset = 0);

  Kind kind() const { return kind_; }
  std::uint64_t size() const;

  // Sub-range [offset, offset + len) of this extent.
  Extent slice(std::uint64_t offset, std::uint64_t len) const;

  // Byte at position i (0-based within the extent).
  std::uint8_t byte_at(std::uint64_t i) const;

  // Materializes real bytes. Guarded: refuses (returns empty) beyond
  // `limit` to keep simulations from accidentally allocating gigabytes.
  std::string materialize(std::uint64_t limit = 64u << 20) const;

  // CRC-32 of the content, computed without materializing patterns.
  std::uint32_t checksum() const;

  bool content_equals(const Extent& other) const;

  // Hand codec (the layout depends on the kind byte); any other kind fails
  // the decode.
  friend void encode_into(Writer& w, const Extent& e);
  friend void decode_into(Reader& r, Extent& e);

 private:
  Kind kind_ = Kind::kInline;
  std::string inline_bytes_;
  std::uint64_t seed_ = 0;
  std::uint64_t offset_ = 0;   // absolute offset into the pattern stream
  std::uint64_t size_ = 0;     // pattern length
};

// An ordered run of extents — the unit the read path returns and the append
// path accepts. Total size is the sum of extent sizes.
class ExtentList {
 public:
  ExtentList() = default;
  explicit ExtentList(Extent e) { append(std::move(e)); }

  void append(Extent e);
  void append(const ExtentList& other);

  std::uint64_t size() const { return size_; }
  bool empty() const { return extents_.empty(); }
  const std::vector<Extent>& extents() const { return extents_; }

  // Sub-range [offset, offset + len); len is clamped to the available data.
  ExtentList slice(std::uint64_t offset, std::uint64_t len) const;

  std::uint32_t checksum() const;
  std::string materialize(std::uint64_t limit = 64u << 20) const;
  bool content_equals(const ExtentList& other) const;

  // On the wire: the extent list. Decoding appends each extent, so the
  // total size is recomputed, never trusted.
  friend void encode_into(Writer& w, const ExtentList& list) {
    encode_into(w, list.extents_);
  }
  friend void decode_into(Reader& r, ExtentList& list) {
    std::vector<Extent> extents;
    decode_into(r, extents);
    for (Extent& e : extents) list.append(std::move(e));
  }

 private:
  std::vector<Extent> extents_;
  std::uint64_t size_ = 0;
};

}  // namespace mayflower::fs
