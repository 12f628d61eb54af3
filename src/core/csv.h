// Minimal RFC-4180-ish CSV writer so bench binaries can dump machine-
// readable series next to their human-readable tables. Rows go to a temp
// file that commit() renames onto the target (core/atomic_file.h), so an
// interrupted bench leaves the previous CSV, never a truncated one.
#pragma once

#include <string>
#include <vector>

#include "core/atomic_file.h"

namespace ceal {

class CsvWriter {
 public:
  /// Opens "<path>.tmp" and writes the header row immediately. Throws
  /// std::runtime_error if the temp file cannot be created.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Writes one data row; must match the header width.
  void add_row(const std::vector<std::string>& cells);

  /// Atomically replaces `path` with the rows written so far. A writer
  /// destroyed without commit() leaves any existing file untouched.
  /// Throws std::runtime_error on any write, fsync or rename failure.
  void commit() { file_.commit(); }

  std::size_t rows_written() const { return rows_; }

 private:
  static std::string escape(const std::string& cell);
  void write_row(const std::vector<std::string>& cells);

  AtomicFile file_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

}  // namespace ceal
