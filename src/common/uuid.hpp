// RFC 4122 version-4 UUIDs. The dataserver names on-disk file directories by
// the file's UUID (§3.3.2 of the paper).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

namespace mayflower {

class Rng;

class Uuid {
 public:
  Uuid() = default;  // nil UUID
  explicit Uuid(const std::array<std::uint8_t, 16>& bytes) : bytes_(bytes) {}

  static Uuid generate(Rng& rng);

  // Parses the canonical 8-4-4-4-12 hex form; returns nil UUID on failure
  // (check with is_nil(); nil never round-trips from generate()).
  static Uuid parse(const std::string& text);

  std::string to_string() const;
  bool is_nil() const;

  const std::array<std::uint8_t, 16>& bytes() const { return bytes_; }

  friend auto operator<=>(const Uuid&, const Uuid&) = default;

 private:
  std::array<std::uint8_t, 16> bytes_{};
};

struct UuidHash {
  std::size_t operator()(const Uuid& u) const;
};

}  // namespace mayflower
