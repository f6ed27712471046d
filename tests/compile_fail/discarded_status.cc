// Compile-fail pin for the Status contract. util::Status and
// util::Result<T> are [[nodiscard]] at class level and every build runs
// with -Werror, so dropping either one is a compile error; that is the
// only layer enforcing the contract. CMakeLists.txt registers one ctest
// entry per type: each compiles this file with -fsyntax-only and one of
// the SES_DROP_* macros, and passes only when the compiler's output
// names `nodiscard`.

#include "util/status.h"

namespace {

ses::util::Status Save() { return ses::util::Status::Ok(); }
ses::util::Result<int> Load() { return 7; }

}  // namespace

int main() {
#ifdef SES_DROP_STATUS
  Save();
#endif
#ifdef SES_DROP_RESULT
  Load();
#endif
  return 0;
}
