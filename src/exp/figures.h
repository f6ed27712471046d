#ifndef SES_EXP_FIGURES_H_
#define SES_EXP_FIGURES_H_

/// \file
/// Rendering of experiment series in the layout of the paper's figures:
/// one row per sweep coordinate, one column per method, for a chosen
/// metric (utility or time). Also writes CSV for external plotting.

#include <string>
#include <vector>

#include "exp/sweep.h"
#include "util/status.h"

namespace ses::exp {

/// Which measurement a figure plots.
enum class Metric {
  kUtility,
  kSeconds,
};

/// Renders \p records as an aligned text table: rows keyed by the sweep
/// coordinate (labelled \p x_label), one column per solver in
/// \p solver_order, values from \p metric. Includes a title line.
std::string RenderFigure(const std::string& title, const std::string& x_label,
                         const std::vector<std::string>& solver_order,
                         const std::vector<RunRecord>& records,
                         Metric metric);

/// Whether a records CSV includes the wall-clock column group.
enum class CsvTiming {
  /// Deterministic columns only — two runs of the same sweep produce
  /// byte-identical files regardless of worker count.
  kOmit,
  /// Appends the `seconds` column after the comparable columns.
  kAppend,
};

/// Writes the records to CSV. The comparable column group
/// (x,solver,utility,gain_evaluations,assignments) always comes first,
/// with the utility in 17 significant digits so that it parses back to
/// the same double; with CsvTiming::kAppend the non-deterministic
/// `seconds` measurement is appended as the trailing column.
[[nodiscard]] util::Status WriteRecordsCsv(const std::string& path,
                             const std::vector<RunRecord>& records,
                             CsvTiming timing = CsvTiming::kAppend);

}  // namespace ses::exp

#endif  // SES_EXP_FIGURES_H_
