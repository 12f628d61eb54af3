#include "core/csv.h"

#include "core/error.h"

namespace ceal {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : file_(path), columns_(header.size()) {
  CEAL_EXPECT(!header.empty());
  write_row(header);
  rows_ = 0;  // header does not count as a data row
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  CEAL_EXPECT_MSG(cells.size() == columns_, "CSV row width mismatch");
  write_row(cells);
  ++rows_;
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  std::ostream& out = file_.stream();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out << ',';
    out << escape(cells[i]);
  }
  out << '\n';
}

}  // namespace ceal
