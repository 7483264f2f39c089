#include "common/format.hpp"

#include <cstdarg>
#include <cstdio>

namespace textmr {

void appendf(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n < 0) {
    va_end(args_copy);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof(buffer)) {
    out.append(buffer, static_cast<std::size_t>(n));
  } else {
    // Longer than the stack buffer: render again into `out` itself.
    const std::size_t old_size = out.size();
    out.resize(old_size + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old_size, static_cast<std::size_t>(n) + 1,
                   format, args_copy);
    out.resize(old_size + static_cast<std::size_t>(n));
  }
  va_end(args_copy);
}

}  // namespace textmr
