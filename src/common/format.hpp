#pragma once

#include <cstdint>
#include <string>

namespace textmr {

/// printf into the end of `out`. A line longer than the internal stack
/// buffer is rendered again straight into `out`, never truncated (long
/// counter names reach report lines).
void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

/// Nanoseconds as seconds, for report lines.
inline double seconds(std::uint64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace textmr
