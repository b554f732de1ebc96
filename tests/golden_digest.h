#ifndef GANNS_TESTS_GOLDEN_DIGEST_H_
#define GANNS_TESTS_GOLDEN_DIGEST_H_

// FNV-1a digest over 64-bit words, for golden tests that pin large outputs
// (result rows, adjacency rows, per-query cycle counts) to one recorded
// number. Doubles enter by bit pattern, so the digest is exact.

#include <bit>
#include <cstdint>

namespace ganns {

class GoldenDigest {
 public:
  void Add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  void AddFloat(float value) { Add(std::bit_cast<std::uint32_t>(value)); }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace ganns

#endif  // GANNS_TESTS_GOLDEN_DIGEST_H_
