// Per-test scratch directory for decision-store round trips.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace sapp {

/// `<temp>/sapp_test.<pid>.<suite>.<test>`, emptied on construction and
/// removed on destruction. The PID and test name keep concurrent test
/// processes (`ctest -j`, two checkouts on one host) off each other's
/// shard files.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = (std::filesystem::temp_directory_path() /
             ("sapp_test." + std::to_string(::getpid()) + "." +
              info->test_suite_name() + "." + info->name()))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace sapp
