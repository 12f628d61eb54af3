#include "core/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/error.h"

namespace ceal {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_back() const {
    std::ifstream in(path_);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  std::string path_ =
      ::testing::TempDir() + "ceal_csv_test." +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    csv.add_row({"1", "2"});
    csv.add_row({"3", "4"});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  EXPECT_EQ(read_back(), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvTest, EscapesCommasQuotesAndNewlines) {
  {
    CsvWriter csv(path_, {"x"});
    csv.add_row({"a,b"});
    csv.add_row({"quote\"inside"});
    csv.add_row({"line\nbreak"});
  }
  EXPECT_EQ(read_back(),
            "x\n\"a,b\"\n\"quote\"\"inside\"\n\"line\nbreak\"\n");
}

TEST_F(CsvTest, RejectsWidthMismatch) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), PreconditionError);
}

TEST_F(CsvTest, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(path_, {}), PreconditionError);
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/foo.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace ceal
