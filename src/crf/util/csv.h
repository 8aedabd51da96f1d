// Minimal CSV writing for bench output.

#ifndef CRF_UTIL_CSV_H_
#define CRF_UTIL_CSV_H_

#include <fstream>
#include <string>
#include <vector>

namespace crf {

// Writes one CSV file. Values are formatted with enough precision to
// round-trip doubles. The writer creates parent directories as needed.
class CsvWriter {
 public:
  // Opens `path` for writing and emits the header row. Aborts on I/O failure
  // (bench output paths are operator-controlled).
  CsvWriter(const std::string& path, const std::vector<std::string>& header);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  // Appends a row; the number of fields must match the header.
  void WriteRow(const std::vector<std::string>& fields);
  void WriteRow(const std::vector<double>& values);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  size_t num_columns_;
};

// Formats a double compactly but losslessly enough for analysis (%.10g).
std::string FormatDouble(double value);

// Creates `dir` (and parents). Returns true on success or if it exists.
bool EnsureDirectory(const std::string& dir);

}  // namespace crf

#endif  // CRF_UTIL_CSV_H_
