// Driver-level tests: directory scanning and the output formats, run
// against a scratch source tree on disk.
#include "dglint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

namespace dg::lint {
namespace {

namespace fs = std::filesystem;

class DglintDriver : public ::testing::Test {
 protected:
  DglintDriver() {
    // The pid keeps concurrent ctest shards (one process per test) from
    // sharing -- and tearing down -- each other's scratch tree.
    root_ = fs::temp_directory_path() /
            ("dglint_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter()++));
    fs::create_directories(root_ / "src" / "util");
    fs::create_directories(root_ / "src" / "telemetry");
  }
  ~DglintDriver() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  static int& counter() {
    static int n = 0;
    return n;
  }

  void write(const std::string& rel, const std::string& content) {
    std::ofstream out(root_ / rel, std::ios::binary);
    out << content;
  }

  LintResult lintSrc() { return runLint(root_.string(), {"src"}); }

  fs::path root_;
};

TEST_F(DglintDriver, WalksTreeDeterministically) {
  write("src/util/a.cpp", "#include <cstdlib>\nint f() { return std::rand(); }\n");
  write("src/telemetry/b.cpp",
        "#include <cstdlib>\nint g() { return std::rand(); }\n");
  write("src/util/note.md", "not scanned\n");

  const LintResult result = lintSrc();
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.filesScanned, 2u);
  // Sorted path order: telemetry before util.
  EXPECT_EQ(result.findings[0].path, "src/telemetry/b.cpp");
  EXPECT_EQ(result.findings[1].path, "src/util/a.cpp");

  const LintResult again = lintSrc();
  EXPECT_EQ(formatFindings(again.findings, "text"),
            formatFindings(result.findings, "text"));
}

TEST_F(DglintDriver, TextFormat) {
  write("src/util/a.cpp", "#include <cstdlib>\nint f() { return std::rand(); }\n");
  const LintResult result = lintSrc();
  const std::string text = formatFindings(result.findings, "text");
  EXPECT_NE(text.find("src/util/a.cpp:2: [R1]"), std::string::npos) << text;
}

TEST_F(DglintDriver, GithubFormat) {
  write("src/util/a.cpp", "#include <cstdlib>\nint f() { return std::rand(); }\n");
  const LintResult result = lintSrc();
  const std::string gh = formatFindings(result.findings, "github");
  EXPECT_NE(gh.find("::error file=src/util/a.cpp,line=2,title=dglint R1::"),
            std::string::npos)
      << gh;
}

TEST_F(DglintDriver, CleanTreeIsClean) {
  write("src/util/clean.hpp",
        "#pragma once\nnamespace x {\nconstexpr int kOne = 1;\n}\n");
  const LintResult result = lintSrc();
  EXPECT_TRUE(result.findings.empty())
      << formatFindings(result.findings, "text");
}

TEST_F(DglintDriver, BuildDirectoriesSkipped) {
  fs::create_directories(root_ / "src" / "build-foo");
  write("src/build-foo/bad.cpp",
        "#include <cstdlib>\nint f() { return std::rand(); }\n");
  const LintResult result = lintSrc();
  EXPECT_TRUE(result.findings.empty());
}

}  // namespace
}  // namespace dg::lint
