#ifndef FIELDSWAP_UTIL_HASH_H_
#define FIELDSWAP_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fieldswap {

/// FNV-1a 64-bit offset basis: the hash of zero bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit over `size` bytes at `data`, continuing from `hash`.
/// Hashing a byte string in chunks, feeding each result back in as the next
/// chunk's `hash`, equals hashing it in one pass — so the corpus and flat
/// snapshot formats checksum streamed bodies with it.
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t hash = kFnv1a64Basis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a 64-bit hash of a byte string. Used for deterministic vocabulary
/// hashing (feature hashing of token text) and for string-keyed RNG splits.
inline uint64_t Fnv1a64(std::string_view bytes) {
  return Fnv1a64(bytes.data(), bytes.size());
}

/// Stable bucket id in [0, num_buckets) for feature-hashed embeddings.
inline uint32_t HashBucket(std::string_view text, uint32_t num_buckets) {
  return static_cast<uint32_t>(Fnv1a64(text) % num_buckets);
}

}  // namespace fieldswap

#endif  // FIELDSWAP_UTIL_HASH_H_
