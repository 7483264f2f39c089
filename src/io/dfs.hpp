#pragma once

#include <filesystem>
#include <string_view>

namespace textmr::io {

/// Atomically replaces `path` with `contents`: writes `path` + ".tmp" and
/// renames it into place, so readers never observe a partial file. Its
/// one caller is NodeKeyCache::put, which persists a node's frozen
/// frequent-key set (DESIGN.md §10). Throws IoError on failure.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents);

}  // namespace textmr::io
