#include "common/crc32.hpp"

#include <array>

namespace mayflower {
namespace {

// Slicing-by-8 tables: kTables[0] is the classic byte table; kTables[k][b]
// is the CRC of byte b followed by k zero bytes, so one step folds 8 input
// bytes with 8 independent lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffU];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load, whatever the host byte order.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffU;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xffU] ^ kTables[6][(lo >> 8) & 0xffU] ^
        kTables[5][(lo >> 16) & 0xffU] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffU] ^ kTables[2][(hi >> 8) & 0xffU] ^
        kTables[1][(hi >> 16) & 0xffU] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

}  // namespace mayflower
