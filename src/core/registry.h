#ifndef SES_CORE_REGISTRY_H_
#define SES_CORE_REGISTRY_H_

/// \file
/// Name-based solver factory used by benches, examples and tests.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.h"
#include "util/status.h"

namespace ses::core {

/// Creates a solver by name: "grd", "lazy", "bestfit", "top", "rand",
/// "exact". NotFound for anything else.
[[nodiscard]] util::Result<std::unique_ptr<Solver>> MakeSolver(
    std::string_view name);

/// All registered solver names, in presentation order.
std::vector<std::string> ListSolvers();

}  // namespace ses::core

#endif  // SES_CORE_REGISTRY_H_
