#include "core/atomic_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>

namespace ceal {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

bool exists(const std::string& path) {
  std::ifstream is(path);
  return static_cast<bool>(is);
}

class AtomicFileTest : public ::testing::Test {
 protected:
  AtomicFileTest()
      : path_(::testing::TempDir() + "ceal_atomic_test." +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".txt") {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
};

TEST_F(AtomicFileTest, CommitPublishesTheFileAndRemovesTheTemp) {
  {
    AtomicFile file(path_);
    file.stream() << "hello\n";
    file.commit();
  }
  EXPECT_EQ(slurp(path_), "hello\n");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicFileTest, DestructionWithoutCommitLeavesNothing) {
  {
    AtomicFile file(path_);
    file.stream() << "half-written";
    // no commit: the error path / exception path
  }
  EXPECT_FALSE(exists(path_));
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicFileTest, AbortedRewriteKeepsTheOldContents) {
  atomic_write_file(path_, "original");
  {
    AtomicFile file(path_);
    file.stream() << "replacement that never lands";
  }
  EXPECT_EQ(slurp(path_), "original");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(AtomicFileTest, CommitReplacesExistingContents) {
  atomic_write_file(path_, "old");
  atomic_write_file(path_, "new");
  EXPECT_EQ(slurp(path_), "new");
}

TEST_F(AtomicFileTest, CommitTwiceIsRejected) {
  AtomicFile file(path_);
  file.stream() << "x";
  file.commit();
  EXPECT_THROW(file.commit(), std::runtime_error);
}

TEST_F(AtomicFileTest, UnwritableDirectoryThrowsOnOpen) {
  EXPECT_THROW(AtomicFile("/nonexistent-dir/file.txt"), std::runtime_error);
}

}  // namespace
}  // namespace ceal
