#include "exp/figures.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/csv.h"
#include "util/string_util.h"

namespace ses::exp {

std::string RenderFigure(const std::string& title, const std::string& x_label,
                         const std::vector<std::string>& solver_order,
                         const std::vector<RunRecord>& records,
                         Metric metric) {
  // x -> solver -> value
  std::map<int64_t, std::map<std::string, double>> grid;
  for (const RunRecord& record : records) {
    const double value = metric == Metric::kUtility
                             ? record.utility
                             : record.measurement.seconds;
    grid[record.x][record.solver] = value;
  }

  std::string out;
  out += "=== " + title + " ===\n";
  out += util::StrFormat("%10s", x_label.c_str());
  for (const std::string& solver : solver_order) {
    out += util::StrFormat(" %12s", solver.c_str());
  }
  out += "\n";
  for (const auto& [x, row] : grid) {
    out += util::StrFormat("%10lld", static_cast<long long>(x));
    for (const std::string& solver : solver_order) {
      auto it = row.find(solver);
      if (it == row.end()) {
        out += util::StrFormat(" %12s", "-");
      } else if (metric == Metric::kUtility) {
        out += util::StrFormat(" %12.2f", it->second);
      } else {
        out += util::StrFormat(" %12.4f", it->second);
      }
    }
    out += "\n";
  }
  return out;
}

util::Status WriteRecordsCsv(const std::string& path,
                             const std::vector<RunRecord>& records,
                             CsvTiming timing) {
  util::CsvRow header{"x", "solver", "utility", "gain_evaluations",
                      "assignments"};
  if (timing == CsvTiming::kAppend) header.push_back("seconds");
  std::vector<util::CsvRow> rows;
  rows.reserve(records.size());
  for (const RunRecord& record : records) {
    util::CsvRow row{std::to_string(record.x), record.solver,
                     util::StrFormat("%.17g", record.utility),
                     std::to_string(record.gain_evaluations),
                     std::to_string(record.assignments)};
    if (timing == CsvTiming::kAppend) {
      row.push_back(util::StrFormat("%.6f", record.measurement.seconds));
    }
    rows.push_back(std::move(row));
  }
  return util::WriteCsvFile(path, header, rows);
}

}  // namespace ses::exp
