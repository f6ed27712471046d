#ifndef SES_UTIL_HOT_ANNOTATIONS_H_
#define SES_UTIL_HOT_ANNOTATIONS_H_

/// \file
/// SES_HOT: the hot-path purity contract.
///
/// Marking a function `SES_HOT` declares that it — and everything it
/// can transitively reach — is free of
///
///   (a) heap allocation (`new`, `make_unique`/`make_shared`,
///       `push_back`/`emplace`/`insert`/`append`/`resize`/`reserve`,
///       string construction): hot scratch is sized by its owner,
///       outside the hot path;
///   (b) mutex acquisition (scoped locks, manual `Lock()`, calls into
///       `SES_ACQUIRE`-declared functions) and condition-variable
///       waits;
///   (c) logging, IO, and clock reads (`SES_LOG`, printf/fopen family,
///       `std::chrono::*_clock::now`);
///   (d) map-shaped lookups (`.at`/`.find`/`operator[]` on
///       `std::map`/`std::unordered_map` receivers) — hot state lives
///       in dense, index-addressed scratch;
///   (e) virtual dispatch through a receiver whose static class is not
///       `final`.
///
/// The contract is checked twice, so the claim and the behavior cannot
/// drift apart:
///
///   - statically by `tools/ses_lint.py` (`hot-path` rule): every
///     `SES_HOT` function is a root of a transitive call-graph walk;
///     violations are reported with the full witness call chain, and
///     calls to functions the analysis cannot see are errors unless
///     listed in `tools/hot_whitelist.txt` (pure leaves: span/container
///     reads, `<algorithm>` scans, math);
///   - dynamically by the tests' counting allocator
///     (`tests/alloc_guard.h`): `tests/core_hot_path_alloc_test.cc`
///     asserts zero allocations inside the annotated kernels on a
///     medium instance.
///
/// `SES_CHECK` is explicitly permitted in hot regions: a passing check
/// costs one predictable branch, and the failure path aborts the
/// process — it never returns to the hot loop.
///
/// Deliberate, justified exceptions (a cold-path call that runs at
/// most twice per interval, a single virtual bulk fill amortized over
/// |U| entries of work) are suppressed at the witness edge with a
/// same-line `// ses-lint: allow(hot-path) <justification>`.
///
/// Place the macro before the return type, on the declaration:
///
///   SES_HOT double MarginalGain(EventIndex e, IntervalIndex t);
///
/// To the compiler it is `[[gnu::hot]]` (optimize-for-speed hint)
/// where supported and a no-op elsewhere; ses_lint recognizes the
/// token syntactically.

#if defined(__GNUC__) || defined(__clang__)
#define SES_HOT __attribute__((hot))
#else
#define SES_HOT
#endif

#endif  // SES_UTIL_HOT_ANNOTATIONS_H_
