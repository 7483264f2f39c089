#include "io/dfs.hpp"

#include <fstream>

#include "common/error.hpp"

namespace textmr::io {

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot open " + tmp.string() + " for writing");
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) throw IoError("short write to " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm_ec;
    std::filesystem::remove(tmp, rm_ec);
    throw IoError("cannot rename " + tmp.string() + " -> " + path.string() +
                  ": " + ec.message());
  }
}

}  // namespace textmr::io
