#ifndef SES_TESTS_MKPI_H_
#define SES_TESTS_MKPI_H_

/// \file
/// Multiple Knapsack with Identical capacities (MKPI) — the strongly
/// NP-hard problem the paper reduces from in Theorem 1 (Martello & Toth,
/// "Knapsack Problems", 1990).
///
/// Items with weights and profits must be packed into a number of bins of
/// equal capacity; the goal is to maximize the packed profit. The exact
/// solver here is a plain branch-and-bound intended for the small
/// instances used to verify the reduction numerically.

#include <cstdint>
#include <optional>
#include <vector>

#include "util/status.h"

namespace ses::core {

/// An MKPI instance.
struct MkpiInstance {
  /// Identical capacity of every bin.
  double capacity = 0.0;
  /// Number of bins.
  int num_bins = 0;
  /// Item weights; weights[i] >= 0.
  std::vector<double> weights;
  /// Item profits, parallel to weights; profits[i] > 0.
  std::vector<double> profits;

  /// Structural validation.
  [[nodiscard]] util::Status Validate() const;
};

/// A packing: bin_of_item[i] in [0, num_bins) or -1 when unpacked.
struct MkpiSolution {
  std::vector<int> bin_of_item;
  double profit = 0.0;
};

/// Exact MKPI via branch-and-bound with bin-symmetry breaking.
///
/// \param exactly_k_items when set, only packings with exactly that many
///        items are admissible (this matches SES's |S| = k constraint and
///        is what the reduction test needs).
/// Returns Infeasible when no admissible packing exists.
[[nodiscard]] util::Result<MkpiSolution> SolveMkpiExact(
    const MkpiInstance& instance,
    std::optional<int> exactly_k_items = std::nullopt);

}  // namespace ses::core

#endif  // SES_TESTS_MKPI_H_
