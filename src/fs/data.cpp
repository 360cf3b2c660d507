#include "fs/data.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace mayflower::fs {
namespace {

// Pattern byte at absolute stream position i: cheap, stateless, and stable
// across slicing (the property appends/reads rely on for verification).
std::uint8_t pattern_byte(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t word = splitmix64(seed ^ (i >> 3));
  return static_cast<std::uint8_t>(word >> ((i & 7) * 8));
}

}  // namespace

Extent Extent::from_bytes(std::string bytes) {
  Extent e;
  e.kind_ = Kind::kInline;
  e.inline_bytes_ = std::move(bytes);
  return e;
}

Extent Extent::pattern(std::uint64_t seed, std::uint64_t size,
                       std::uint64_t offset) {
  Extent e;
  e.kind_ = Kind::kPattern;
  e.seed_ = seed;
  e.offset_ = offset;
  e.size_ = size;
  return e;
}

std::uint64_t Extent::size() const {
  return kind_ == Kind::kInline ? inline_bytes_.size() : size_;
}

Extent Extent::slice(std::uint64_t offset, std::uint64_t len) const {
  MAYFLOWER_ASSERT(offset <= size());
  len = std::min(len, size() - offset);
  if (kind_ == Kind::kInline) {
    return from_bytes(inline_bytes_.substr(offset, len));
  }
  return pattern(seed_, len, offset_ + offset);
}

std::uint8_t Extent::byte_at(std::uint64_t i) const {
  MAYFLOWER_ASSERT(i < size());
  if (kind_ == Kind::kInline) {
    return static_cast<std::uint8_t>(inline_bytes_[i]);
  }
  return pattern_byte(seed_, offset_ + i);
}

std::string Extent::materialize(std::uint64_t limit) const {
  if (size() > limit) return {};
  if (kind_ == Kind::kInline) return inline_bytes_;
  std::string out(size_, '\0');
  for (std::uint64_t i = 0; i < size_; ++i) {
    out[i] = static_cast<char>(pattern_byte(seed_, offset_ + i));
  }
  return out;
}

std::uint32_t Extent::checksum() const {
  if (kind_ == Kind::kInline) return crc32(inline_bytes_);
  // Stream in 4 KiB chunks so huge patterns never materialize.
  std::uint32_t crc = 0;
  std::uint8_t buf[4096];
  std::uint64_t done = 0;
  while (done < size_) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(sizeof buf,
                                                         size_ - done));
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = pattern_byte(seed_, offset_ + done + i);
    }
    crc = crc32(buf, n, crc);
    done += n;
  }
  return crc;
}

bool Extent::content_equals(const Extent& other) const {
  if (size() != other.size()) return false;
  if (kind_ == Kind::kPattern && other.kind_ == Kind::kPattern) {
    if (seed_ == other.seed_ && offset_ == other.offset_) return true;
  }
  return checksum() == other.checksum();
}

void encode_into(Writer& w, const Extent& e) {
  w.u8(static_cast<std::uint8_t>(e.kind_));
  if (e.kind_ == Extent::Kind::kInline) {
    w.str(e.inline_bytes_);
  } else {
    w.u64(e.seed_);
    w.u64(e.offset_);
    w.u64(e.size_);
  }
}

void decode_into(Reader& r, Extent& e) {
  const auto kind = r.u8();
  if (kind == static_cast<std::uint8_t>(Extent::Kind::kInline)) {
    e = Extent::from_bytes(r.str());
  } else if (kind == static_cast<std::uint8_t>(Extent::Kind::kPattern)) {
    const std::uint64_t seed = r.u64();
    const std::uint64_t offset = r.u64();
    const std::uint64_t size = r.u64();
    e = Extent::pattern(seed, size, offset);
  } else {
    r.fail();
  }
}

void ExtentList::append(Extent e) {
  if (e.size() == 0) return;
  size_ += e.size();
  extents_.push_back(std::move(e));
}

void ExtentList::append(const ExtentList& other) {
  for (const Extent& e : other.extents_) append(e);
}

ExtentList ExtentList::slice(std::uint64_t offset, std::uint64_t len) const {
  ExtentList out;
  if (offset >= size_) return out;
  len = std::min(len, size_ - offset);
  std::uint64_t pos = 0;
  for (const Extent& e : extents_) {
    if (len == 0) break;
    const std::uint64_t end = pos + e.size();
    if (end <= offset) {
      pos = end;
      continue;
    }
    const std::uint64_t local = offset > pos ? offset - pos : 0;
    const std::uint64_t take = std::min(len, e.size() - local);
    out.append(e.slice(local, take));
    offset += take;
    len -= take;
    pos = end;
  }
  return out;
}

std::uint32_t ExtentList::checksum() const {
  // Chain per-byte CRC to be layout-independent: the same logical content
  // split into different extents yields the same checksum.
  std::uint32_t crc = 0;
  std::uint8_t buf[4096];
  for (const Extent& e : extents_) {
    std::uint64_t done = 0;
    while (done < e.size()) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(sizeof buf, e.size() - done));
      for (std::size_t i = 0; i < n; ++i) {
        buf[i] = e.byte_at(done + i);
      }
      crc = crc32(buf, n, crc);
      done += n;
    }
  }
  return crc;
}

std::string ExtentList::materialize(std::uint64_t limit) const {
  if (size_ > limit) return {};
  std::string out;
  out.reserve(size_);
  for (const Extent& e : extents_) {
    out += e.materialize(limit);
  }
  return out;
}

bool ExtentList::content_equals(const ExtentList& other) const {
  return size_ == other.size_ && checksum() == other.checksum();
}

}  // namespace mayflower::fs
