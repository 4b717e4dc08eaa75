// A fresh directory under the system temp dir, removed with its contents
// when the object goes out of scope; for tests that write bundles and
// config trees.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace netfail::io {

class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("netfail_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

}  // namespace netfail::io
