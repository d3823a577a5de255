// Byte-buffer primitives shared by every codec: the Bytes container,
// LEB128 varints, fixed-width little-endian scalar I/O, and FNV-1a hashing.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace cqs {

// put_scalar/get_scalar memcpy host-order scalars into byte streams that
// checkpoints and golden-blob hashes treat as little-endian. A big-endian
// host would silently produce incompatible containers, so refuse to build
// there until an explicit byteswap path exists.
static_assert(std::endian::native == std::endian::little,
              "cqs: scalar byte I/O assumes a little-endian host; "
              "port put_scalar/get_scalar before building on this target");

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;

/// Appends `value` to `out` as little-endian raw bytes.
template <typename T>
inline void put_scalar(Bytes& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

/// Reads a little-endian scalar at `offset`, advancing it. Throws on overrun.
template <typename T>
inline T get_scalar(ByteSpan in, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (offset + sizeof(T) > in.size()) {
    throw std::out_of_range("cqs: byte stream truncated");
  }
  T value;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

/// LEB128 unsigned varint append.
inline void put_varint(Bytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::byte>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::byte>(value));
}

/// LEB128 unsigned varint read; advances `offset`. Throws on overrun.
inline std::uint64_t get_varint(ByteSpan in, std::size_t& offset) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (offset >= in.size()) throw std::out_of_range("cqs: varint truncated");
    const auto b = static_cast<std::uint8_t>(in[offset++]);
    value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) throw std::runtime_error("cqs: varint too long");
  }
  return value;
}

/// ZigZag mapping of signed to unsigned (small magnitudes -> small codes).
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

/// FNV-1a 64-bit hash; used for wire-frame checksums and fault-plan draws.
inline std::uint64_t fnv1a(ByteSpan data,
                           std::uint64_t seed = 0xcbf29ce484222325ull) {
  std::uint64_t h = seed;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t seed) {
  std::byte buf[8];
  std::memcpy(buf, &value, 8);
  return fnv1a(ByteSpan(buf, 8), seed);
}

/// Views any trivially copyable array as bytes.
template <typename T>
inline ByteSpan as_bytes_span(std::span<const T> data) {
  return ByteSpan(reinterpret_cast<const std::byte*>(data.data()),
                  data.size_bytes());
}

}  // namespace cqs
