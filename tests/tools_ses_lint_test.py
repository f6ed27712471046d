#!/usr/bin/env python3
"""Fixture suite for tools/ses_lint.py, registered with ctest.

Each rule gets a good and a bad snippet (run against a synthetic repo
tree in a temp directory, so the fixtures cannot drift into the real
src/), plus suppression-comment behavior, the full layering matrix, and
docs lockstep checks: every rule id must appear in
docs/ARCHITECTURE.md's static-analysis section, and the capability and
SES_HOT tables embedded there must match the linter's dumps. The real
repository lint is the separate `ses_lint_repo` ctest entry.
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SES_LINT = os.path.join(REPO_ROOT, "tools", "ses_lint.py")


def run_lint(root, paths=("src",)):
    """Runs ses_lint over a tree; returns (exit_code, stderr_text)."""
    proc = subprocess.run(
        [sys.executable, SES_LINT, "--root", root, *paths],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stderr


def run_lint_argv(root, *argv):
    """Runs ses_lint with explicit extra flags; returns the process."""
    return subprocess.run(
        [sys.executable, SES_LINT, "--root", root, *argv],
        capture_output=True, text=True, check=False)


class LintFixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)

    def assert_clean(self, paths=("src",)):
        code, err = run_lint(self.root, paths)
        self.assertEqual(code, 0, f"expected clean, got:\n{err}")

    def assert_flags(self, rule, paths=("src",)):
        code, err = run_lint(self.root, paths)
        self.assertEqual(code, 1, f"expected a {rule} problem, got clean")
        self.assertIn(f" {rule}: ", err,
                      f"expected rule {rule} in:\n{err}")


class LayeringTest(LintFixture):
    # layer -> (one allowed include, one forbidden include)
    MATRIX = {
        "util": ("util/status.h", "core/instance.h"),
        "core": ("util/status.h", "ebsn/types.h"),
        "ebsn": ("core/types.h", "api/scheduler.h"),
        "api": ("core/solver.h", "ebsn/dataset.h"),
        "exp": ("ebsn/dataset.h", "api/scheduler.h"),
    }

    def test_allowed_includes_pass(self):
        for layer, (ok_include, _) in self.MATRIX.items():
            self.write(f"src/{layer}/a.h",
                       f'#include "{ok_include}"\n')
        self.assert_clean()

    def test_forbidden_includes_flagged(self):
        for layer, (_, bad_include) in self.MATRIX.items():
            with self.subTest(layer=layer):
                self.write(f"src/{layer}/a.h",
                           f'#include "{bad_include}"\n')
                self.assert_flags("layering")
                os.remove(os.path.join(self.root, f"src/{layer}/a.h"))

    def test_core_must_not_include_api(self):
        self.write("src/core/a.cc", '#include "api/scheduler.h"\n')
        self.assert_flags("layering")

    def test_nonlayer_includes_ignored(self):
        self.write("src/util/a.cc", '#include "vendor/header.h"\n')
        self.assert_clean()


class DeterminismClockTest(LintFixture):
    def test_clock_in_core_flagged(self):
        self.write("src/core/a.cc",
                   "auto t = std::chrono::steady_clock::now();\n")
        self.assert_flags("determinism-clock")

    def test_time_call_in_ebsn_flagged(self):
        self.write("src/ebsn/a.cc", "long t = time(nullptr);\n")
        self.assert_flags("determinism-clock")

    def test_solve_context_exempt(self):
        self.write("src/core/solve_context.h",
                   "using Clock = std::chrono::steady_clock;\n")
        self.assert_clean()

    def test_identifier_containing_time_ok(self):
        self.write("src/core/a.cc",
                   "double wall_time(int x);\nrecord.set_time(3);\n")
        self.assert_clean()

    def test_clock_outside_deterministic_layers_ok(self):
        self.write("src/api/a.cc",
                   "auto t = std::chrono::steady_clock::now();\n")
        self.assert_clean()


class DeterminismRandomTest(LintFixture):
    def test_random_device_flagged(self):
        self.write("src/ebsn/a.cc", "std::random_device rd;\n")
        self.assert_flags("determinism-random")

    def test_std_rand_flagged(self):
        self.write("src/core/a.cc", "int r = std::rand();\n")
        self.assert_flags("determinism-random")

    def test_seeded_rng_ok(self):
        self.write("src/core/a.cc",
                   "util::Rng rng(options.seed);\nint r = rng.Next();\n")
        self.assert_clean()


class UnorderedAccumulateTest(LintFixture):
    def test_accumulating_iteration_flagged(self):
        self.write("src/core/a.cc",
                   "std::unordered_map<int, double> weights;\n"
                   "double total = 0.0;\n"
                   "for (const auto& [k, v] : weights) {\n"
                   "  total += v;\n"
                   "}\n")
        self.assert_flags("unordered-accumulate")

    def test_lookup_only_iteration_ok(self):
        self.write("src/core/a.cc",
                   "std::unordered_map<int, double> weights;\n"
                   "for (const auto& [k, v] : weights) {\n"
                   "  if (v < 0.0) return false;\n"
                   "}\n")
        self.assert_clean()

    def test_ordered_map_accumulation_ok(self):
        self.write("src/core/a.cc",
                   "std::map<int, double> weights;\n"
                   "double total = 0.0;\n"
                   "for (const auto& [k, v] : weights) {\n"
                   "  total += v;\n"
                   "}\n")
        self.assert_clean()

    def test_vector_accumulation_ok(self):
        self.write("src/core/a.cc",
                   "std::unordered_set<int> seen;\n"
                   "std::vector<double> values;\n"
                   "double total = 0.0;\n"
                   "for (double v : values) {\n"
                   "  total += v;\n"
                   "}\n")
        self.assert_clean()


class RawMutexTest(LintFixture):
    def test_std_mutex_in_src_flagged(self):
        self.write("src/api/a.h", "  std::mutex mutex_;\n")
        self.assert_flags("raw-mutex")

    def test_lock_guard_flagged(self):
        self.write("src/core/a.cc",
                   "std::lock_guard<std::mutex> lock(mu);\n")
        self.assert_flags("raw-mutex")

    def test_wrapper_file_exempt(self):
        self.write("src/util/mutex.h", "  std::mutex mutex_;\n")
        self.assert_clean()

    def test_wrapper_usage_ok(self):
        self.write("src/api/a.h",
                   "  util::Mutex mutex_;\n  util::CondVar cv_;\n")
        self.assert_clean()

    def test_tests_may_use_std_mutex(self):
        self.write("tests/a_test.cc", "std::mutex mu;\n")
        self.assert_clean(paths=("tests",))


class TsaEscapeTest(LintFixture):
    def test_escape_outside_wrappers_flagged(self):
        self.write("src/api/a.h",
                   "void Touch() SES_NO_THREAD_SAFETY_ANALYSIS;\n")
        self.assert_flags("tsa-escape")

    def test_escape_in_wrapper_ok(self):
        self.write("src/util/mutex.h",
                   "void Lock() SES_NO_THREAD_SAFETY_ANALYSIS;\n")
        self.assert_clean()


class NakedNewTest(LintFixture):
    def test_naked_new_flagged(self):
        self.write("src/core/a.cc", "int* p = new int[4];\n")
        self.assert_flags("naked-new")

    def test_smart_pointer_wrap_ok(self):
        self.write("src/core/a.cc",
                   "auto p = std::unique_ptr<Solver>(new GreedySolver());\n")
        self.assert_clean()

    def test_word_containing_new_ok(self):
        self.write("src/core/a.cc",
                   "bool renewed = Renew(news_count);\n")
        self.assert_clean()


class UsingNamespaceHeaderTest(LintFixture):
    def test_using_namespace_in_header_flagged(self):
        self.write("src/core/a.h", "using namespace std;\n")
        self.assert_flags("using-namespace-header")

    def test_using_namespace_in_cc_ok(self):
        self.write("src/core/a.cc", "using namespace std::chrono;\n")
        self.assert_clean()

    def test_using_declaration_ok(self):
        self.write("src/core/a.h", "using std::vector;\n")
        self.assert_clean()


class SuppressionTest(LintFixture):
    def test_same_line_allow(self):
        self.write("src/core/a.cc",
                   "int* p = new int;  // ses-lint: allow(naked-new)\n")
        self.assert_clean()

    def test_allow_lists_several_rules(self):
        # Both listed rules fire on the line (the stale audit would
        # reject a list padded with rules that do not).
        self.write(
            "src/core/a.h",
            "using namespace std; std::mutex m;  "
            "// ses-lint: allow(using-namespace-header, raw-mutex)\n")
        self.assert_clean()

    def test_allow_for_other_rule_does_not_suppress(self):
        self.write("src/core/a.cc",
                   "int* p = new int;  // ses-lint: allow(raw-mutex)\n")
        self.assert_flags("naked-new")


class CommentAndStringStrippingTest(LintFixture):
    def test_patterns_in_comments_ignored(self):
        self.write("src/core/a.cc",
                   "// std::rand() would break determinism here\n"
                   "/* std::mutex is banned: use util::Mutex */\n"
                   "int x = 0;\n")
        self.assert_clean()

    def test_patterns_in_strings_ignored(self):
        self.write("src/core/a.cc",
                   'const char* kMsg = "never call std::rand()";\n')
        self.assert_clean()

    def test_code_after_comment_still_checked(self):
        self.write("src/core/a.cc",
                   "/* prose */ std::random_device rd;\n")
        self.assert_flags("determinism-random")


class LockLeafTest(LintFixture):
    """Flow rule: no capability is taken while a different one is held —
    directly, through a callee that may acquire, or by an SES_REQUIRES
    naming two."""

    TWO_LOCK_CYCLE = (
        "namespace ses::api {\n"
        "util::Mutex a_mu;\n"
        "util::Mutex b_mu;\n"
        "void F() {\n"
        "  util::MutexLock la(a_mu);\n"
        "  util::MutexLock lb(b_mu);\n"
        "}\n"
        "void G() {\n"
        "  util::MutexLock lb(b_mu);\n"
        "  util::MutexLock la(a_mu);\n"
        "}\n"
        "}  // namespace ses::api\n")

    def test_two_lock_cycle_flagged_at_each_nesting(self):
        self.write("src/api/ab.cc", self.TWO_LOCK_CYCLE)
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        # Each message names the function, the taken and held
        # capabilities, and where the acquisition happens.
        self.assertIn("src/api/ab.cc:6: lock-leaf: api::F acquires "
                      "api::b_mu at src/api/ab.cc:6 while holding "
                      "api::a_mu", err)
        self.assertIn("src/api/ab.cc:10: lock-leaf: api::G acquires "
                      "api::a_mu at src/api/ab.cc:10 while holding "
                      "api::b_mu", err)

    def test_consistent_order_is_flagged(self):
        # Every path agrees a_mu comes first — acyclic, but still a
        # nesting, and capabilities are leaves by policy.
        self.write("src/api/ab.cc",
                   "namespace ses::api {\n"
                   "util::Mutex a_mu;\n"
                   "util::Mutex b_mu;\n"
                   "void F() {\n"
                   "  util::MutexLock la(a_mu);\n"
                   "  util::MutexLock lb(b_mu);\n"
                   "}\n"
                   "void G() {\n"
                   "  util::MutexLock la(a_mu);\n"
                   "  util::MutexLock lb(b_mu);\n"
                   "}\n"
                   "}  // namespace ses::api\n")
        self.assert_flags("lock-leaf")

    def test_release_before_second_lock_is_clean(self):
        # Scoped blocks that end before the next acquisition never hold
        # two locks at once — the DispatchQueue::TryDispatch idiom.
        self.write("src/api/ab.cc",
                   "namespace ses::api {\n"
                   "util::Mutex a_mu;\n"
                   "util::Mutex b_mu;\n"
                   "void F() {\n"
                   "  {\n"
                   "    util::MutexLock la(a_mu);\n"
                   "  }\n"
                   "  util::MutexLock lb(b_mu);\n"
                   "}\n"
                   "void G() {\n"
                   "  util::MutexLock lb(b_mu);\n"
                   "}\n"
                   "}  // namespace ses::api\n")
        self.assert_clean()

    def test_three_tu_cycle_through_header_acquire(self):
        # Neither TU nests two scoped locks: f.cc holds a_mu and calls a
        # header-declared SES_ACQUIRE(b_mu) function; g.cc does the
        # reverse. The call graph carries the acquisition to the caller.
        self.write("src/api/locks.h",
                   "namespace ses::api {\n"
                   "extern util::Mutex a_mu;\n"
                   "extern util::Mutex b_mu;\n"
                   "void TakeA() SES_ACQUIRE(a_mu);\n"
                   "void TakeB() SES_ACQUIRE(b_mu);\n"
                   "}  // namespace ses::api\n")
        self.write("src/api/f.cc",
                   "namespace ses::api {\n"
                   "void F() {\n"
                   "  util::MutexLock la(a_mu);\n"
                   "  TakeB();\n"
                   "}\n"
                   "}  // namespace ses::api\n")
        self.write("src/api/g.cc",
                   "namespace ses::api {\n"
                   "void G() {\n"
                   "  util::MutexLock lb(b_mu);\n"
                   "  TakeA();\n"
                   "}\n"
                   "}  // namespace ses::api\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("src/api/f.cc:4: lock-leaf: api::F calls TakeB, "
                      "which may acquire api::b_mu at src/api/f.cc:4 "
                      "while holding api::a_mu", err)
        self.assertIn("src/api/g.cc:4: lock-leaf: api::G calls TakeA, ",
                      err)

    def test_wait_under_second_lock_flagged(self):
        # The wait releases only b_mu; a_mu, taken first, is what
        # starves the notifier — flagged where b_mu is taken under it.
        self.write("src/api/a.cc",
                   "namespace ses::api {\n"
                   "util::Mutex a_mu;\n"
                   "util::Mutex b_mu;\n"
                   "util::CondVar cv;\n"
                   "void W() {\n"
                   "  util::MutexLock la(a_mu);\n"
                   "  util::MutexLock lb(b_mu);\n"
                   "  while (true) cv.Wait(b_mu);\n"
                   "}\n"
                   "}  // namespace ses::api\n")
        self.assert_flags("lock-leaf")

    def test_wait_under_own_mutex_only_is_clean(self):
        self.write("src/api/a.cc",
                   "namespace ses::api {\n"
                   "util::Mutex a_mu;\n"
                   "util::CondVar cv;\n"
                   "void W() {\n"
                   "  util::MutexLock la(a_mu);\n"
                   "  while (true) cv.Wait(a_mu);\n"
                   "}\n"
                   "}  // namespace ses::api\n")
        self.assert_clean()

    def test_requires_two_capabilities_flagged(self):
        self.write("src/api/a.cc",
                   "namespace ses::api {\n"
                   "util::Mutex a_mu;\n"
                   "util::Mutex b_mu;\n"
                   "void R() SES_REQUIRES(a_mu, b_mu) {\n"
                   "}\n"
                   "}  // namespace ses::api\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("src/api/a.cc:4: lock-leaf: api::R requires "
                      "api::b_mu at src/api/a.cc:4 while holding "
                      "api::a_mu", err)

    def test_allow_on_acquisition_line_suppresses(self):
        suppressed = self.TWO_LOCK_CYCLE.replace(
            "  util::MutexLock lb(b_mu);\n}",
            "  util::MutexLock lb(b_mu);  // ses-lint: allow(lock-leaf)\n}"
        ).replace(
            "  util::MutexLock la(a_mu);\n}",
            "  util::MutexLock la(a_mu);  // ses-lint: allow(lock-leaf)\n}")
        self.assertEqual(suppressed.count("allow(lock-leaf)"), 2)
        self.write("src/api/ab.cc", suppressed)
        self.assert_clean()

    def test_allow_on_outer_acquisition_is_stale(self):
        # The outer lock is taken with nothing held: no finding there,
        # so the allow() is dead and the inner nesting still fires.
        self.write("src/api/ab.cc", self.TWO_LOCK_CYCLE.replace(
            "void F() {\n  util::MutexLock la(a_mu);\n",
            "void F() {\n  util::MutexLock la(a_mu);"
            "  // ses-lint: allow(lock-leaf)\n", 1))
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("src/api/ab.cc:5: stale-suppression: "
                      "allow(lock-leaf)", err)
        self.assertIn("src/api/ab.cc:6: lock-leaf: ", err)


class CapabilitiesTest(LintFixture):
    def test_table_lists_mutexes(self):
        self.write("src/api/ab.cc", LockLeafTest.TWO_LOCK_CYCLE)
        proc = run_lint_argv(self.root, "--capabilities", "src")
        self.assertEqual(proc.returncode, 0)
        lines = proc.stdout.splitlines()
        self.assertEqual(lines[0].split(), ["capability", "kind",
                                            "declared-in"])
        self.assertEqual(lines[2].split(), ["api::a_mu", "mutex",
                                            "src/api/ab.cc"])
        self.assertEqual(lines[3].split(), ["api::b_mu", "mutex",
                                            "src/api/ab.cc"])


class HotPathTest(LintFixture):
    """Transitive purity walk from SES_HOT roots: allocation, locking,
    IO, map lookups, and virtual dispatch anywhere in the reachable
    call tree are findings with full witness chains."""

    # An allocation three calls below the annotated root.
    DEEP_ALLOC = (
        "namespace ses::core {\n"
        "void Sink(std::vector<int>& out, int v) {\n"
        "  out.push_back(v);\n"
        "}\n"
        "void Mid(std::vector<int>& out, int v) {\n"
        "  Sink(out, v + 1);\n"
        "}\n"
        "SES_HOT void Root(std::vector<int>& out) {\n"
        "  Mid(out, 2);\n"
        "}\n"
        "}  // namespace ses::core\n")

    def test_clean_kernel_with_ses_check(self):
        # Pure arithmetic through an analyzable helper; SES_CHECK is the
        # sanctioned exception (one predictable branch, aborting path).
        self.write("src/core/k.cc",
                   "namespace ses::core {\n"
                   "double Leaf(double x) {\n"
                   "  SES_CHECK(x >= 0.0);\n"
                   "  return x * 2.0;\n"
                   "}\n"
                   "SES_HOT double Kernel(const std::vector<double>& v) {\n"
                   "  return Leaf(v[0]) + 1.0;\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        self.assert_clean()

    def test_allocation_three_calls_deep_reports_witness_chain(self):
        self.write("src/core/deep.cc", self.DEEP_ALLOC)
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn(" hot-path: ", err)
        self.assertIn("reachable from SES_HOT core::Root", err)
        self.assertIn("container growth 'out.push_back'", err)
        # The full chain, root to sink, with an edge location per hop.
        self.assertIn("core::Root -> core::Mid (at src/core/deep.cc:9)",
                      err)
        self.assertIn("-> core::Sink (at src/core/deep.cc:6)", err)

    def test_direct_allocation_flagged(self):
        self.write("src/core/a.cc",
                   "namespace ses::core {\n"
                   "SES_HOT int Hot() {\n"
                   "  auto p = std::make_unique<int>(3);\n"
                   "  return *p;\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        self.assert_flags("hot-path")

    def test_mutex_acquisition_flagged(self):
        self.write("src/core/l.cc",
                   "namespace ses::core {\n"
                   "util::Mutex mu;\n"
                   "SES_HOT void Hot() {\n"
                   "  util::MutexLock lock(mu);\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        self.assert_flags("hot-path")

    def test_acquire_declared_callee_flagged(self):
        # Bodyless, but the header annotation says it locks.
        self.write("src/core/l.cc",
                   "namespace ses::core {\n"
                   "util::Mutex mu;\n"
                   "void LockIt() SES_ACQUIRE(mu);\n"
                   "SES_HOT void Hot() { LockIt(); }\n"
                   "}  // namespace ses::core\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn(" hot-path: ", err)
        self.assertIn("SES_ACQUIRE-declared 'LockIt'", err)

    def test_logging_flagged(self):
        self.write("src/core/g.cc",
                   "namespace ses::core {\n"
                   "SES_HOT void Hot(int x) {\n"
                   "  SES_LOG(INFO) << x;\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        self.assert_flags("hot-path")

    def test_map_method_lookup_flagged(self):
        self.write("src/core/m.cc",
                   "namespace ses::core {\n"
                   "SES_HOT int Hot(const std::unordered_map<int, int>& m,\n"
                   "                int k) {\n"
                   "  return m.count(k);\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        self.assert_flags("hot-path")

    def test_map_subscript_flagged_vector_subscript_clean(self):
        self.write("src/core/m.cc",
                   "namespace ses::core {\n"
                   "SES_HOT int Hot(std::map<int, int>& table, int k) {\n"
                   "  return table[k];\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        self.assert_flags("hot-path")
        self.write("src/core/m.cc",
                   "namespace ses::core {\n"
                   "SES_HOT int Hot(const std::vector<int>& v, int i) {\n"
                   "  return v[i];\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        self.assert_clean()

    def test_virtual_dispatch_through_non_final_flagged(self):
        self.write("src/core/v.cc",
                   "namespace ses::core {\n"
                   "class Base {\n"
                   " public:\n"
                   "  virtual double At(int u) const = 0;\n"
                   "};\n"
                   "SES_HOT double Hot(const Base& b) { return b.At(3); }\n"
                   "}  // namespace ses::core\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn(" hot-path: ", err)
        self.assertIn("virtual dispatch 'b.At'", err)
        self.assertIn("non-final core::Base", err)

    def test_final_receiver_is_clean(self):
        self.write("src/core/v.cc",
                   "namespace ses::core {\n"
                   "class Base {\n"
                   " public:\n"
                   "  virtual double At(int u) const = 0;\n"
                   "};\n"
                   "class Impl final : public Base {\n"
                   " public:\n"
                   "  double At(int u) const override { return u * 0.5; }\n"
                   "};\n"
                   "SES_HOT double Hot(const Impl& b) { return b.At(3); }\n"
                   "}  // namespace ses::core\n")
        self.assert_clean()

    def test_unknown_callee_flagged_until_whitelisted(self):
        self.write("src/core/u.cc",
                   "namespace ses::core {\n"
                   "SES_HOT double Hot(double x) {\n"
                   "  return Mystery(x);\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn(" hot-path: ", err)
        self.assertIn("tools/hot_whitelist.txt", err)
        # The checked-in whitelist is the escape hatch for pure leaves.
        self.write("tools/hot_whitelist.txt", "# trusted\nMystery\n")
        self.assert_clean()

    def test_reserve_in_same_body_is_flagged(self):
        # A reserve buys no escape: both it and the growth it pays for
        # are findings.
        self.write("src/core/r.cc",
                   "namespace ses::core {\n"
                   "SES_HOT void Hot(std::vector<int>& out, int n) {\n"
                   "  out.reserve(n);\n"
                   "  for (int i = 0; i < n; ++i) out.push_back(i);\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("r.cc:3: hot-path: ", err)
        self.assertIn("container growth 'out.reserve'", err)
        self.assertIn("container growth 'out.push_back'", err)

    def test_constructor_reserve_does_not_cover_other_members(self):
        # A reserve in the cold constructor does not license a push in
        # the hot member.
        self.write("src/core/r.cc",
                   "namespace ses::core {\n"
                   "class Buf {\n"
                   " public:\n"
                   "  Buf() { data_.reserve(64); }\n"
                   "  SES_HOT void Add(int v) { data_.push_back(v); }\n"
                   " private:\n"
                   "  std::vector<int> data_;\n"
                   "};\n"
                   "}  // namespace ses::core\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("container growth 'data_.push_back'", err)
        self.assertNotIn("data_.reserve", err)  # the cold constructor

    def test_resize_flagged_despite_reserve(self):
        # resize writes elements; a reserve before it changes nothing.
        self.write("src/core/r.cc",
                   "namespace ses::core {\n"
                   "SES_HOT void Hot(std::vector<int>& out, int n) {\n"
                   "  out.reserve(n);\n"
                   "  out.resize(n);\n"
                   "}\n"
                   "}  // namespace ses::core\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn("container growth 'out.resize'", err)

    def test_suppression_at_witness_edge_cuts_subtree_and_is_not_stale(self):
        # Allowing the Root -> Mid edge hides everything below it, and
        # the stale audit must see that suppression as load-bearing.
        suppressed = self.DEEP_ALLOC.replace(
            "  Mid(out, 2);\n",
            "  Mid(out, 2);  // ses-lint: allow(hot-path) cold edge\n")
        self.assertNotEqual(suppressed, self.DEEP_ALLOC)
        self.write("src/core/deep.cc", suppressed)
        self.assert_clean()

    def test_hot_functions_inventory(self):
        self.write("src/core/deep.cc", self.DEEP_ALLOC)
        proc = run_lint_argv(self.root, "--hot-functions", "src")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("core::Root", proc.stdout)
        self.assertIn("src/core/deep.cc", proc.stdout)
        self.assertNotIn("core::Mid", proc.stdout)  # reachable, not a root


class StaleSuppressionTest(LintFixture):
    """Every allow() must still suppress a finding on its line."""

    def test_live_allow_is_clean(self):
        self.write("src/core/a.cc",
                   "int* p = new int(3);  // ses-lint: allow(naked-new)\n")
        self.assert_clean()

    def test_dead_allow_flagged(self):
        self.write("src/core/a.cc",
                   "int x = 3;  // ses-lint: allow(naked-new)\n")
        self.assert_flags("stale-suppression")

    def test_unknown_rule_id_flagged(self):
        self.write("src/core/a.cc",
                   "int x = 3;  // ses-lint: allow(no-such-rule)\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn(" stale-suppression: ", err)
        self.assertIn("unknown rule id", err)

    def test_partially_dead_list_flags_only_the_dead_rule(self):
        self.write("src/core/a.cc",
                   "int* p = new int(3);"
                   "  // ses-lint: allow(naked-new, raw-mutex)\n")
        code, err = run_lint(self.root)
        self.assertEqual(code, 1)
        self.assertIn(" stale-suppression: ", err)
        self.assertIn("allow(raw-mutex)", err)
        self.assertNotIn("allow(naked-new)", err)

    def test_allow_in_doc_comment_prose_is_ignored(self):
        # Docs quoting the syntax on a comment-only line never
        # suppressed anything, so they are prose, not stale.
        self.write("src/core/a.cc",
                   "/// Suppress with `// ses-lint: allow(naked-new)`.\n"
                   "int x = 3;\n")
        self.assert_clean()


class PathArgumentTest(LintFixture):
    """Every PATH must hold a source file the scan reads."""

    def test_cpp_files_are_scanned(self):
        self.write("examples/demo.cpp",
                   "int x = 3;  // ses-lint: allow(naked-new)\n")
        self.assert_flags("stale-suppression", paths=("examples",))

    def test_path_without_sources_is_an_error(self):
        self.write("src/core/a.cc", "int x = 3;\n")
        self.write("examples/README.md", "No sources here.\n")
        for path in ("examples", "missing"):
            proc = run_lint_argv(self.root, "src", path)
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertIn(f"ses_lint: {path}: no *.h, *.cc or *.cpp file",
                          proc.stderr)


class GithubFormatTest(LintFixture):
    def test_error_annotations_on_stdout(self):
        self.write("src/core/a.cc", "int* p = new int(3);\n")
        proc = run_lint_argv(self.root, "--format=github", "src")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("::error file=src/core/a.cc,line=1,"
                      "title=ses_lint naked-new::", proc.stdout)

    def test_clean_tree_emits_no_commands(self):
        self.write("src/core/a.cc", "int x = 3;\n")
        proc = run_lint_argv(self.root, "--format=github", "src")
        self.assertEqual(proc.returncode, 0)
        self.assertNotIn("::error", proc.stdout)


class DocLockstepTest(unittest.TestCase):
    """Every rule id and both inventory tables must match
    docs/ARCHITECTURE.md, so the docs cannot rot behind the linter."""

    def test_every_rule_documented_in_architecture_md(self):
        proc = subprocess.run(
            [sys.executable, SES_LINT, "--list-rules"],
            capture_output=True, text=True, check=True)
        rules = [line.split(":")[0] for line in
                 proc.stdout.strip().splitlines()]
        self.assertGreaterEqual(len(rules), 8)
        doc_path = os.path.join(REPO_ROOT, "docs", "ARCHITECTURE.md")
        with open(doc_path, encoding="utf-8") as fh:
            doc = fh.read()
        for rule in rules:
            self.assertIn(f"`{rule}`", doc,
                          f"rule '{rule}' missing from docs/ARCHITECTURE.md")

    def test_capabilities_table_matches_architecture_md(self):
        """docs/ARCHITECTURE.md embeds `ses_lint --capabilities` output
        verbatim in the fenced block after the
        `<!-- ses-lint-capabilities -->` marker; regenerate the block
        when the lock landscape changes."""
        proc = subprocess.run(
            [sys.executable, SES_LINT, "--root", REPO_ROOT,
             "--capabilities", "src"],
            capture_output=True, text=True, check=True)
        table = proc.stdout.strip()
        doc_path = os.path.join(REPO_ROOT, "docs", "ARCHITECTURE.md")
        with open(doc_path, encoding="utf-8") as fh:
            doc = fh.read()
        marker = "<!-- ses-lint-capabilities -->"
        self.assertIn(marker, doc)
        after = doc.split(marker, 1)[1]
        fence_start = after.index("```") + 3
        fence_end = after.index("```", fence_start)
        documented = after[fence_start:fence_end].strip()
        self.assertEqual(
            documented, table,
            "docs/ARCHITECTURE.md capability table is stale — paste the "
            "current `tools/ses_lint.py --capabilities` output into the "
            "fenced block")

    def test_hot_functions_table_matches_architecture_md(self):
        """docs/ARCHITECTURE.md embeds `ses_lint --hot-functions` output
        verbatim in the fenced block after the
        `<!-- ses-lint-hot-functions -->` marker; regenerate the block
        when annotations change."""
        proc = subprocess.run(
            [sys.executable, SES_LINT, "--root", REPO_ROOT,
             "--hot-functions", "src"],
            capture_output=True, text=True, check=True)
        table = proc.stdout.strip()
        doc_path = os.path.join(REPO_ROOT, "docs", "ARCHITECTURE.md")
        with open(doc_path, encoding="utf-8") as fh:
            doc = fh.read()
        marker = "<!-- ses-lint-hot-functions -->"
        self.assertIn(marker, doc)
        after = doc.split(marker, 1)[1]
        fence_start = after.index("```") + 3
        fence_end = after.index("```", fence_start)
        documented = after[fence_start:fence_end].strip()
        self.assertEqual(
            documented, table,
            "docs/ARCHITECTURE.md SES_HOT inventory is stale — paste the "
            "current `tools/ses_lint.py --hot-functions` output into the "
            "fenced block")


if __name__ == "__main__":
    unittest.main()
