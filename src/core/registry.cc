#include "core/registry.h"

#include "core/best_fit.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/random_schedule.h"
#include "core/top_k.h"

namespace ses::core {

util::Result<std::unique_ptr<Solver>> MakeSolver(std::string_view name) {
  if (name == "grd") return std::unique_ptr<Solver>(new GreedySolver());
  if (name == "lazy") return std::unique_ptr<Solver>(new GreedySolver("lazy"));
  if (name == "bestfit") {
    return std::unique_ptr<Solver>(new BestFitSolver());
  }
  if (name == "top") return std::unique_ptr<Solver>(new TopKSolver());
  if (name == "rand") return std::unique_ptr<Solver>(new RandomSolver());
  if (name == "exact") return std::unique_ptr<Solver>(new ExactSolver());
  return util::Status::NotFound("unknown solver: " + std::string(name));
}

std::vector<std::string> ListSolvers() {
  return {"grd", "lazy", "bestfit", "top", "rand", "exact"};
}

}  // namespace ses::core
