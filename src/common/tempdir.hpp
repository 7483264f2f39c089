#pragma once

#include <filesystem>
#include <string>

namespace textmr {

/// RAII temporary directory; removed (recursively) on destruction.
/// Used by tests and examples.
class TempDir {
 public:
  /// Creates a fresh unique directory under the system temp path,
  /// prefixed with `prefix`.
  explicit TempDir(const std::string& prefix = "textmr");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  TempDir(TempDir&& other) noexcept;
  TempDir& operator=(TempDir&& other) noexcept;

  const std::filesystem::path& path() const { return path_; }

  /// Path of a file or subdirectory inside this directory.
  std::filesystem::path file(const std::string& name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace textmr
