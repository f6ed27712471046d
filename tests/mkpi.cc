#include "tests/mkpi.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace ses::core {

util::Status MkpiInstance::Validate() const {
  if (capacity < 0.0) {
    return util::Status::InvalidArgument("capacity must be non-negative");
  }
  if (num_bins <= 0) {
    return util::Status::InvalidArgument("num_bins must be positive");
  }
  if (weights.size() != profits.size()) {
    return util::Status::InvalidArgument(
        "weights/profits size mismatch");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0) {
      return util::Status::InvalidArgument(
          util::StrFormat("item %zu: negative weight", i));
    }
    if (profits[i] <= 0.0) {
      return util::Status::InvalidArgument(
          util::StrFormat("item %zu: profit must be positive", i));
    }
  }
  return util::Status::Ok();
}

namespace {

struct MkpiSearch {
  const MkpiInstance* instance;
  std::optional<int> exactly_k;
  std::vector<double> bin_load;
  std::vector<int> assignment;
  std::vector<double> suffix_profit;  // sum of profits of items >= i
  double current_profit = 0.0;
  int packed = 0;

  double best_profit = -1.0;
  std::vector<int> best_assignment;

  void Dfs(size_t item) {
    const size_t n = instance->weights.size();
    if (item == n) {
      if (exactly_k.has_value() && packed != *exactly_k) return;
      if (current_profit > best_profit) {
        best_profit = current_profit;
        best_assignment = assignment;
      }
      return;
    }
    // Bound: even packing every remaining item cannot beat the incumbent.
    if (current_profit + suffix_profit[item] <= best_profit) return;
    // Cardinality pruning.
    if (exactly_k.has_value()) {
      const int remaining = static_cast<int>(n - item);
      if (packed + remaining < *exactly_k) return;
      if (packed > *exactly_k) return;
    }

    // Try each bin; identical capacities make bins interchangeable, so an
    // item may only open the single next empty bin (symmetry breaking).
    bool tried_empty = false;
    for (int b = 0; b < instance->num_bins; ++b) {
      const bool empty = bin_load[b] == 0.0;
      if (empty && tried_empty) break;
      if (empty) tried_empty = true;
      if (bin_load[b] + instance->weights[item] > instance->capacity + 1e-12) {
        continue;
      }
      bin_load[b] += instance->weights[item];
      assignment[item] = b;
      current_profit += instance->profits[item];
      ++packed;
      Dfs(item + 1);
      --packed;
      current_profit -= instance->profits[item];
      assignment[item] = -1;
      bin_load[b] -= instance->weights[item];
    }

    // Skip the item.
    Dfs(item + 1);
  }
};

}  // namespace

util::Result<MkpiSolution> SolveMkpiExact(
    const MkpiInstance& instance, std::optional<int> exactly_k_items) {
  SES_RETURN_IF_ERROR(instance.Validate());
  const size_t n = instance.weights.size();

  MkpiSearch search;
  search.instance = &instance;
  search.exactly_k = exactly_k_items;
  search.bin_load.assign(static_cast<size_t>(instance.num_bins), 0.0);
  search.assignment.assign(n, -1);
  search.suffix_profit.assign(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    search.suffix_profit[i] =
        search.suffix_profit[i + 1] + instance.profits[i];
  }
  search.Dfs(0);

  if (search.best_profit < 0.0) {
    return util::Status::Infeasible("no admissible MKPI packing");
  }
  MkpiSolution solution;
  solution.bin_of_item = std::move(search.best_assignment);
  solution.profit = search.best_profit;
  return solution;
}

}  // namespace ses::core
