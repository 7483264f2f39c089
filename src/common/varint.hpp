#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace textmr {

/// LEB128-style varint encoding, the record framing used by the spill-run
/// file format and by typed app values. Varints keep intermediate data
/// compact, which is exactly the kind of serialization cost the paper's
/// Table I "emit" operation accounts for.
inline void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

/// Decode a varint starting at `pos` in `in`; advances `pos` past it.
inline std::uint64_t get_varint(std::string_view in, std::size_t& pos) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (pos >= in.size()) throw FormatError("truncated varint");
    if (shift >= 64) throw FormatError("varint overflow");
    const auto byte = static_cast<std::uint8_t>(in[pos++]);
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

/// Fixed-width little-endian u32/u64, for formats where
/// random access matters more than size.
inline void put_fixed32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
}

inline std::uint32_t get_fixed32(std::string_view in, std::size_t& pos) {
  if (pos + 4 > in.size()) throw FormatError("truncated fixed32");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[pos + i]))
             << (8 * i);
  }
  pos += 4;
  return value;
}

inline void put_fixed64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
}

inline std::uint64_t get_fixed64(std::string_view in, std::size_t& pos) {
  if (pos + 8 > in.size()) throw FormatError("truncated fixed64");
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in[pos + i]))
             << (8 * i);
  }
  pos += 8;
  return value;
}

/// Length-prefixed byte string.
inline void put_length_prefixed(std::string& out, std::string_view bytes) {
  put_varint(out, bytes.size());
  out.append(bytes.data(), bytes.size());
}

inline std::string_view get_length_prefixed(std::string_view in,
                                            std::size_t& pos) {
  const std::uint64_t len = get_varint(in, pos);
  if (pos + len > in.size()) throw FormatError("truncated length-prefixed bytes");
  std::string_view view = in.substr(pos, len);
  pos += len;
  return view;
}

}  // namespace textmr
