#include "crf/util/csv.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "crf/util/check.h"

namespace crf {

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : path_(path), num_columns_(header.size()) {
  CRF_CHECK_GT(num_columns_, 0u);
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    EnsureDirectory(fs_path.parent_path().string());
  }
  out_.open(path);
  CRF_CHECK(out_.is_open()) << "cannot open " << path;
  WriteRow(header);
}

CsvWriter::~CsvWriter() = default;

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  CRF_CHECK_EQ(fields.size(), num_columns_) << "row width mismatch in " << path_;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      out_ << ',';
    }
    out_ << fields[i];
  }
  out_ << '\n';
}

void CsvWriter::WriteRow(const std::vector<double>& values) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (const double value : values) {
    fields.push_back(FormatDouble(value));
  }
  WriteRow(fields);
}

std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

bool EnsureDirectory(const std::string& dir) {
  if (dir.empty()) {
    return true;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec || std::filesystem::exists(dir);
}

}  // namespace crf
