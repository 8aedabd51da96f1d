#include "crf/util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace crf {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("crf_csv_test_" + name)).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  const std::string path = TempPath("basic.csv");
  {
    CsvWriter writer(path, {"a", "b"});
    writer.WriteRow({std::string("1"), std::string("x")});
    writer.WriteRow(std::vector<double>{2.5, 3.0});
  }
  EXPECT_EQ(ReadAll(path), "a,b\n1,x\n2.5,3\n");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, CreatesParentDirectories) {
  const std::string dir = TempPath("nested_dir");
  const std::string path = dir + "/deep/file.csv";
  std::filesystem::remove_all(dir);
  {
    CsvWriter writer(path, {"x"});
    writer.WriteRow(std::vector<double>{1.0});
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(CsvWriterDeathTest, RowWidthMismatchAborts) {
  const std::string path = TempPath("mismatch.csv");
  CsvWriter writer(path, {"a", "b"});
  EXPECT_DEATH(writer.WriteRow(std::vector<double>{1.0}), "row width mismatch");
  std::remove(path.c_str());
}

TEST(FormatDoubleTest, RoundTripsTypicalValues) {
  for (const double v : {0.0, 1.0, -2.5, 0.1234567891, 1e-9, 12345678.9}) {
    EXPECT_DOUBLE_EQ(std::stod(FormatDouble(v)), v) << v;
  }
}

TEST(EnsureDirectoryTest, CreatesAndIsIdempotent) {
  const std::string dir = TempPath("ensure_dir") + "/a/b";
  std::filesystem::remove_all(TempPath("ensure_dir"));
  EXPECT_TRUE(EnsureDirectory(dir));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_TRUE(EnsureDirectory(dir));
  std::filesystem::remove_all(TempPath("ensure_dir"));
}

TEST(EnsureDirectoryTest, EmptyPathIsTrue) { EXPECT_TRUE(EnsureDirectory("")); }

}  // namespace
}  // namespace crf
