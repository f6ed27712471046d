#!/usr/bin/env python3
"""ses_lint — project-invariant linter and flow-aware analyzer.

Usage: ses_lint.py [--root DIR] [--list-rules] [--capabilities]
                   [--hot-functions] [--format {text,github}] [PATH ...]

Enforces, with nothing beyond the Python standard library, the
invariants the compiler cannot see (and that `clang -Wthread-safety`
does not cover). PATHs default to `src tools tests bench examples`
under --root (default: the repository root, i.e. the parent of this
script's directory); directories are walked for *.h / *.cc / *.cpp
files, and a PATH that holds none is an error. Each rule applies only
inside its scope — listed below and documented in docs/ARCHITECTURE.md
("Concurrency invariants & static analysis").

Token rules:
  layering              src/ include-layering matrix: util includes
                        nothing above it, core -> util only, ebsn ->
                        core/util, api -> core/util, exp ->
                        ebsn/core/util (api and exp never include each
                        other).
  determinism-clock     no wall-clock reads (std::chrono clocks,
                        time()/clock()/gettimeofday) in src/core or
                        src/ebsn outside core/solve_context.h — solver
                        results must not depend on when they run.
  determinism-random    no nondeterministic randomness (std::rand,
                        srand, std::random_device) in src/core or
                        src/ebsn — all randomness flows through seeded
                        util RNGs.
  unordered-accumulate  no range-for over a std::unordered_map/set
                        whose body accumulates (+=, push_back, insert,
                        ...) in src/core or src/ebsn — hash iteration
                        order is implementation-defined, so such loops
                        break bit-identical reproducibility.
  raw-mutex             no raw std synchronization primitives
                        (std::mutex, std::shared_mutex,
                        std::condition_variable, std::*_lock) in src/
                        outside util/mutex.h — use the annotated
                        util::Mutex wrappers so clang's Thread Safety
                        Analysis sees every lock.
  tsa-escape            SES_NO_THREAD_SAFETY_ANALYSIS is reserved for
                        util/mutex.h itself; anywhere else in src/ the
                        annotation must be fixed, not muted.
  naked-new             no naked `new` in src/ — wrap allocations in
                        unique_ptr/shared_ptr (or suppress with a
                        justification for intentional leaks).
  using-namespace-header no `using namespace` in any header — it leaks
                        into every includer.

Flow rules (a per-TU scan of the SES_* annotation surface plus scoped
MutexLock/ReaderMutexLock/WriterMutexLock constructions and manual
Lock/Unlock calls, linked into a global call graph):
  lock-leaf             every util::Mutex/SharedMutex capability is a
                        leaf: none is acquired — directly, or through a
                        callee that may acquire it — while a different
                        one is held, and no SES_REQUIRES names two.
                        Leaves cannot form an acquisition-order cycle,
                        and a CondVar wait under a second lock is
                        already a finding where that lock was taken.
                        `--capabilities` dumps the derived inventory.
  hot-path              every SES_HOT-annotated function
                        (util/hot_annotations.h) is the root of a
                        transitive call-graph walk that must reach no
                        allocation (container growth or reserve
                        included), no mutex acquisition or CondVar
                        wait, no logging/IO/clock read, no map-shaped
                        lookup, and no virtual dispatch through a
                        non-final receiver. Calls the analysis cannot
                        see are errors unless the simple name is
                        listed in tools/hot_whitelist.txt. Violations
                        carry the full witness call chain from the
                        SES_HOT root. `--hot-functions` dumps the
                        annotated inventory.
  stale-suppression     every `// ses-lint: allow(rule)` comment must
                        actually suppress a finding the current run
                        produced on that line; dead
                        suppressions rot into false documentation.

Suppressions: append `// ses-lint: allow(<rule>)` to the offending
line (comma-separate several rule ids). Comments, string literals, and
character literals are stripped before matching, so prose never trips
a rule. For lock-leaf the suppression goes on the acquisition or call
line (or, for a two-capability SES_REQUIRES, the function's line); for
hot-path it goes on the violation line or on the witness call edge
(cutting the whole subtree behind that call).

The Status contract (util::Status / util::Result<T> returns are never
dropped) is the compiler's: both classes are [[nodiscard]] and every
build runs with -Werror, so this linter does not re-check it.

--format=github prints GitHub Actions `::error file=...,line=...::`
workflow commands so findings annotate PR diffs inline.

Exit status: 0 when clean, 1 with one "file:line: rule: message" per
problem otherwise, or when a PATH holds no source file.
"""

import argparse
import bisect
import os
import re
import sys

# Layer -> layers it may include (by the first path component of a
# quoted include). tests/bench/tools/examples may use everything and are
# exempt.
LAYERS = ("util", "core", "ebsn", "exp", "api")
ALLOWED_INCLUDES = {
    "util": {"util"},
    "core": {"core", "util"},
    "ebsn": {"ebsn", "core", "util"},
    "api": {"api", "core", "util"},
    "exp": {"exp", "ebsn", "core", "util"},
}

# Files (repo-relative, forward slashes) exempt from the determinism
# clock rule: the two sanctioned wall-clock surfaces.
CLOCK_EXEMPT = {"src/core/solve_context.h", "src/util/timer.h"}

# Files allowed to touch raw std synchronization primitives and the
# analysis escape hatch: the annotated wrappers themselves.
MUTEX_EXEMPT = {"src/util/mutex.h"}
TSA_ESCAPE_EXEMPT = {"src/util/mutex.h", "src/util/thread_annotations.h"}

# The lock wrappers themselves look like nested acquisitions from the
# outside (Lock() "acquires while holding" in every combination); the
# flow analysis models their call sites, not their internals.
FLOW_EXEMPT = {"src/util/mutex.h", "src/util/thread_annotations.h"}

CLOCK_RE = re.compile(
    r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)"
    r"|(?<![\w:])(?:time|clock|gettimeofday|localtime|mktime)\s*\(")
RANDOM_RE = re.compile(r"std::rand\b|(?<![\w:])srand\s*\(|random_device")
RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|shared_)?mutex\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b")
TSA_ESCAPE_RE = re.compile(r"\bSES_NO_THREAD_SAFETY_ANALYSIS\b")
NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")  # `new (addr)` placement ok
SMART_WRAP_RE = re.compile(
    r"unique_ptr|shared_ptr|make_unique|make_shared|weak_ptr")
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*[^;:)])\s:\s([^)]+)\)")
ACCUMULATE_RE = re.compile(
    r"\+=|-=|\*=|/=|\|=|&=|\^=|\+\+|--"
    r"|push_back|emplace_back|emplace\(|insert\(|append\(")
ALLOW_RE = re.compile(r"//\s*ses-lint:\s*allow\(([^)]*)\)")

RULE_DOCS = {
    "layering": "src/ include-layering matrix (util < core < ebsn < exp; "
                "core < api)",
    "determinism-clock":
        "no wall-clock reads in src/core|src/ebsn outside solve_context.h",
    "determinism-random":
        "no std::rand/srand/random_device in src/core|src/ebsn",
    "unordered-accumulate":
        "no accumulating range-for over unordered containers in core/ebsn",
    "raw-mutex":
        "annotated util::Mutex wrappers, not raw std primitives, in src/",
    "tsa-escape":
        "SES_NO_THREAD_SAFETY_ANALYSIS only inside util/mutex.h",
    "naked-new": "allocations in src/ go through smart pointers",
    "using-namespace-header": "no `using namespace` in headers",
    "lock-leaf":
        "no util::Mutex capability is taken while another is held "
        "(--capabilities for the table)",
    "hot-path":
        "SES_HOT call trees are allocation- (container growth and reserve "
        "included), lock-, IO-, map-lookup-, and virtual-dispatch-free "
        "(witness chains; tools/hot_whitelist.txt for trusted leaves; "
        "--hot-functions for the inventory)",
    "stale-suppression":
        "every ses-lint allow() suppresses a real finding on its line",
}


def strip_code(text):
    """Blanks comments and string/char literals, preserving line
    structure, and returns (code_lines, raw_lines). Rules match on
    code_lines; suppression comments are read from raw_lines."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string or char
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if (state == "string" and c == '"') or (
                    state == "char" and c == "'"):
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out).split("\n"), text.split("\n")


def blank_preprocessor(code_lines):
    """Blanks preprocessor directives (and their backslash-continuation
    lines) so macro bodies never confuse brace/paren tracking."""
    out = []
    in_directive = False
    for line in code_lines:
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            in_directive = False
            out.append(line)
    return out


# (rel, lineno, rule) triples whose allow() comment suppressed a
# finding this run — the evidence base for the stale-suppression
# audit. Every code path that honors a suppression goes through
# use_suppression(), which registers it here.
USED_SUPPRESSIONS = set()


def use_suppression(rel, lineno, raw_line, rule):
    """True when `raw_line` carries an allow() naming `rule`; records
    the use for the stale audit."""
    match = ALLOW_RE.search(raw_line)
    if match and rule in {r.strip() for r in match.group(1).split(",")}:
        USED_SUPPRESSIONS.add((rel, lineno, rule))
        return True
    return False


# Every rule reports a finding as a (file, line, rule, message) tuple;
# main() sorts and de-duplicates them before rendering.


class Linter:
    """The token rules: per-line regex invariants."""

    def __init__(self):
        self.problems = []

    def report(self, rel, lineno, rule, message, raw_lines):
        if use_suppression(rel, lineno, raw_lines[lineno - 1], rule):
            return
        self.problems.append((rel, lineno, rule, message))

    def lint_file(self, rel, code, raw):
        in_src = rel.startswith("src/")
        layer = rel.split("/")[1] if in_src and rel.count("/") >= 2 else None
        deterministic = layer in ("core", "ebsn")
        is_header = rel.endswith(".h")

        if layer in ALLOWED_INCLUDES:
            self.check_layering(rel, layer, raw)
        if deterministic:
            if rel not in CLOCK_EXEMPT:
                self.check_pattern(rel, code, raw, CLOCK_RE,
                                   "determinism-clock",
                                   "wall-clock read in a deterministic "
                                   "layer (use core::SolveContext / "
                                   "util::WallTimer at the call site)")
            self.check_pattern(rel, code, raw, RANDOM_RE,
                               "determinism-random",
                               "nondeterministic randomness (seeded util "
                               "RNGs only)")
            self.check_unordered_accumulate(rel, code, raw)
        if in_src and rel not in MUTEX_EXEMPT:
            self.check_pattern(rel, code, raw, RAW_MUTEX_RE, "raw-mutex",
                               "raw std synchronization primitive (use "
                               "the annotated util::Mutex wrappers)")
        if in_src and rel not in TSA_ESCAPE_EXEMPT:
            self.check_pattern(rel, code, raw, TSA_ESCAPE_RE, "tsa-escape",
                               "thread-safety-analysis escape hatch "
                               "outside util/mutex.h (fix the "
                               "annotation instead)")
        if in_src:
            self.check_naked_new(rel, code, raw)
        if is_header:
            self.check_pattern(rel, code, raw, USING_NAMESPACE_RE,
                               "using-namespace-header",
                               "`using namespace` in a header leaks "
                               "into every includer")

    def check_pattern(self, rel, code, raw, pattern, rule, message):
        for lineno, line in enumerate(code, start=1):
            if pattern.search(line):
                self.report(rel, lineno, rule, message, raw)

    def check_layering(self, rel, layer, raw):
        allowed = ALLOWED_INCLUDES[layer]
        for lineno, line in enumerate(raw, start=1):
            match = INCLUDE_RE.match(line)
            if not match:
                continue
            target = match.group(1).split("/")[0]
            if target in LAYERS and target not in allowed:
                self.report(
                    rel, lineno, "layering",
                    f"src/{layer} must not include \"{match.group(1)}\" "
                    f"(allowed layers: {', '.join(sorted(allowed))})", raw)

    def check_naked_new(self, rel, code, raw):
        for lineno, line in enumerate(code, start=1):
            if NEW_RE.search(line) and not SMART_WRAP_RE.search(line):
                self.report(rel, lineno, "naked-new",
                            "naked `new` (wrap in unique_ptr/shared_ptr, "
                            "or justify with a suppression)", raw)

    def check_unordered_accumulate(self, rel, code, raw):
        unordered_names = set()
        for line in code:
            match = UNORDERED_DECL_RE.search(line)
            if not match:
                continue
            # The declared name: last identifier before ; = { ( on the
            # line, after the closing template bracket. Heuristic, but
            # the fixture suite pins the cases that matter.
            tail = line[match.end():]
            for name_match in re.finditer(r"(\w+)\s*(?:;|=|\{|\()", tail):
                unordered_names.add(name_match.group(1))
        if not unordered_names:
            return
        for lineno, line in enumerate(code, start=1):
            match = RANGE_FOR_RE.search(line)
            if not match:
                continue
            range_ids = set(re.findall(r"\w+", match.group(2)))
            if not (range_ids & unordered_names):
                continue
            if self.body_accumulates(code, lineno - 1):
                self.report(
                    rel, lineno, "unordered-accumulate",
                    "range-for over an unordered container whose body "
                    "accumulates — hash order is not deterministic "
                    "(iterate a sorted view, or suppress if the "
                    "accumulation is order-insensitive and exact)", raw)

    @staticmethod
    def body_accumulates(code, for_line_index):
        """Scans the brace-matched loop body (or the single statement up
        to the next ';') following the range-for for accumulation."""
        depth = 0
        opened = False
        for lineno in range(for_line_index, min(for_line_index + 200,
                                                len(code))):
            line = code[lineno]
            start = 0
            if lineno == for_line_index:
                close = line.find(")")
                start = close + 1 if close >= 0 else 0
            body = line[start:]
            if ACCUMULATE_RE.search(body):
                return True
            depth += body.count("{") - body.count("}")
            opened = opened or "{" in body
            if opened and depth <= 0:
                return False
            if not opened and ";" in body:
                return False
        return False


# ---------------------------------------------------------------------------
# Flow-aware analysis: a scanner over the SES_* annotation surface
# ---------------------------------------------------------------------------

CPP_KEYWORDS = {
    "if", "while", "for", "switch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "new", "delete", "catch", "throw", "case",
    "default", "do", "else", "operator", "static_assert", "assert",
    "void", "int", "bool", "auto", "char", "co_await", "co_return",
    "co_yield", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "typeid", "alignas", "template", "typename", "using",
    "explicit", "requires",
}

MEMBER_MUTEX_RE = re.compile(
    r"\b(?:ses::)?(?:util::)?(Mutex|SharedMutex)\s+(\w+)\b")
SCOPED_LOCK_RE = re.compile(
    r"\b(?:ses::)?(?:util::)?(MutexLock|ReaderMutexLock|WriterMutexLock)"
    r"\s+\w+\s*\(([^()]+)\)")
MANUAL_LOCK_RE = re.compile(
    r"((?:\w+(?:\.|->))*\w+)\s*\.\s*"
    r"(Lock|LockShared|Unlock|UnlockShared)\s*\(\s*\)")
WAIT_RE = re.compile(
    r"((?:\w+(?:\.|->))*\w+)\s*\.\s*Wait\s*\(\s*([^()]+?)\s*\)")
CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*(?:\.|->))*)((?:[A-Za-z_]\w*::)*)([A-Za-z_]\w*)\s*\(")
ANNOT_RE = re.compile(
    r"\bSES_(REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED)\s*\(([^()]*)\)")
MAKE_SMART_RE = re.compile(
    r"(\w+)\s*=\s*std::make_(?:shared|unique)<\s*((?:\w+::)*\w+)")
LOCAL_DECL_RE = re.compile(
    r"^((?:\w+::)*\w+)(?:\s*<[^;=]*>)?\s*[&*]*\s+(\w+)\s*(?:=|\(|$)")
QUALIFIER_RE = re.compile(
    r"^(?:(?:mutable|static|const|constexpr|inline|extern|friend|"
    r"virtual|thread_local)\b\s*)+")
FUNC_NAME_RE = re.compile(r"([~\w:]+)\s*\($")
HOT_RE = re.compile(r"\bSES_HOT\b")
VIRTUAL_RE = re.compile(r"\bvirtual\b|\boverride\b|\)\s*[\w\s]*=\s*0\s*$")
FINAL_CLASS_RE = re.compile(r"\bfinal\b")
# Allocation sources that are not method calls on a receiver (those —
# push_back/emplace/resize/insert/append/reserve — arrive as ordinary
# call events and are classified during the hot walk, where the
# receiver is known).
HOT_ALLOC_RE = re.compile(
    r"(?<![\w.])new\b|\bmake_unique\s*<|\bmake_shared\s*<"
    r"|\bstd::string\s*[({]|\bto_string\s*\(|\bStrCat\s*\(|\bStrFormat\s*\(")
# Logging, stream IO, file IO, and clock reads. SES_CHECK is absent by
# policy: a passing check is one branch, and its failure path aborts.
HOT_IO_RE = re.compile(
    r"\bSES_LOG\s*\(|\bSES_LOG_IS_ON\b"
    r"|(?<![\w:])f?printf\s*\(|\bfopen\s*\(|\bfputs\s*\(|\bfwrite\s*\("
    r"|\bfread\s*\(|\bfflush\s*\(|\bstd::c(?:out|err|log)\b"
    r"|\bstd::(?:i|o)?f?stream\b|\bostringstream\b"
    r"|::now\s*\(|\bgettimeofday\s*\(|(?<![\w:])time\s*\(")
HOT_SUBSCRIPT_RE = re.compile(r"\b(\w+)\s*\[")
HOT_GROW_METHODS = {"push_back", "emplace_back", "emplace", "insert",
                    "append", "resize", "reserve"}
HOT_MAP_METHODS = {"at", "find", "count"}
HOT_MAP_TYPES = {"map", "unordered_map", "multimap", "unordered_multimap",
                 "set", "unordered_set"}


class Scope:
    __slots__ = ("kind", "name", "releases", "func", "body")

    def __init__(self, kind, name=None, func=None, body=None):
        self.kind = kind        # namespace | class | enum | function | block
        self.name = name        # namespace parts / class simple name
        self.releases = []      # cap exprs to release when this scope pops
        self.func = func        # Func record for function scopes
        self.body = body        # Body dict for function scopes


def new_body():
    return {"events": [], "param_types": {}, "local_types": {}}


class Func:
    __slots__ = ("raw_name", "ns", "lexical_class", "file", "line",
                 "bodies", "requires_exprs", "acquire_exprs",
                 "qname", "cls", "simple", "hot", "virt")

    def __init__(self, raw_name, ns, lexical_class, file, line):
        self.raw_name = raw_name          # possibly qualified (A::B)
        self.ns = ns                      # namespace parts at decl site
        self.lexical_class = lexical_class  # enclosing class qname or None
        self.file = file
        self.line = line
        self.bodies = []                  # one Body dict per definition
        self.requires_exprs = []          # (expr, ns, lexical_class)
        self.acquire_exprs = []
        self.qname = None
        self.cls = None
        self.simple = raw_name.split("::")[-1]
        self.hot = False                  # SES_HOT on decl or definition
        self.virt = False                 # virtual / override / pure


class CppModel:
    """Global registries built from scanning every src/ file, then the
    lock-leaf and hot-path walks over the merged call graph."""

    def __init__(self):
        self.caps = {}          # qname -> {kind, file, line}
        self.classes = {}       # qname -> {simple, members{}, member_types{}}
        self.raw_funcs = []     # Func records, pre-merge
        self.raw_lines = {}     # rel -> raw lines (suppression lookups)
        # Populated by finalize():
        self.funcs = {}         # qname -> merged func dict
        self.funcs_by_simple = {}
        self.caps_by_simple = {}
        self.classes_by_simple = {}

    # -- scanning -----------------------------------------------------------

    def scan_file(self, rel, code_lines, raw_lines):
        self.raw_lines[rel] = raw_lines
        code_lines = blank_preprocessor(code_lines)
        text = "\n".join(code_lines)
        line_starts = [0]
        for idx, ch in enumerate(text):
            if ch == "\n":
                line_starts.append(idx + 1)
        self._line_starts = line_starts
        self._rel = rel

        scopes = [Scope("namespace", name=[])]
        paren = 0
        chunk_start = 0
        last_popped_class = None
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c == "(":
                paren += 1
            elif c == ")":
                paren = max(0, paren - 1)
            elif paren == 0 and c in ";{}":
                chunk = text[chunk_start:i]
                if c == "{":
                    self._open_scope(scopes, chunk, chunk_start)
                    last_popped_class = None
                elif c == "}":
                    self._flush_chunk(scopes, chunk, chunk_start,
                                      last_popped_class)
                    last_popped_class = self._close_scope(scopes, i)
                else:
                    self._flush_chunk(scopes, chunk, chunk_start,
                                      last_popped_class)
                    last_popped_class = None
                chunk_start = i + 1
            i += 1

    def _lineno(self, pos):
        return bisect.bisect_right(self._line_starts, pos)

    def _ns_parts(self, scopes):
        parts = []
        for s in scopes:
            if s.kind == "namespace" and s.name:
                parts.extend(s.name)
        if parts and parts[0] == "ses":
            parts = parts[1:]
        return parts

    def _class_parts(self, scopes):
        return [s.name for s in scopes if s.kind == "class"]

    def _enclosing_func_scope(self, scopes):
        for s in reversed(scopes):
            if s.kind == "function":
                return s
        return None

    def _open_scope(self, scopes, head, head_start):
        h = re.sub(r"\btemplate\s*<[^<>{}]*>", " ", head).strip()
        # Initializer lists / trailing annotations keep parens in the
        # head; classification looks at keywords and the first
        # top-level '(' only.
        if re.search(r"\benum\b", h):
            scopes.append(Scope("enum"))
            return
        ns = re.match(r"^(?:inline\s+)?namespace\b\s*([\w:]*)", h)
        if ns:
            name = [p for p in ns.group(1).split("::") if p]
            scopes.append(Scope("namespace", name=name))
            return
        cls = None
        for m in re.finditer(r"\b(?:class|struct)\s+"
                             r"(?:SES_\w+\s*(?:\([^()]*\))?\s*)*"
                             r"([A-Za-z_]\w*)", h):
            cls = m.group(1)
        if cls is not None and "=" not in h.split(cls)[0]:
            qname = "::".join(self._ns_parts(scopes) +
                              self._class_parts(scopes) + [cls])
            entry = self.classes.setdefault(qname, {
                "simple": cls, "members": {}, "member_types": {},
                "file": self._rel, "final": False})
            if FINAL_CLASS_RE.search(h):
                entry["final"] = True
            scopes.append(Scope("class", name=cls))
            return
        if self._enclosing_func_scope(scopes) is not None:
            scopes.append(Scope("block"))
            return
        func = self._match_function(h)
        if func is None or "=" in h.split("(")[0]:
            scopes.append(Scope("block"))
            return
        first_token = head_start + len(head) - len(head.lstrip())
        record = Func(func, self._ns_parts(scopes),
                      "::".join(self._ns_parts(scopes) +
                                self._class_parts(scopes))
                      if self._class_parts(scopes) else None,
                      self._rel, self._lineno(first_token))
        record.hot = HOT_RE.search(h) is not None
        record.virt = VIRTUAL_RE.search(h) is not None
        body = new_body()
        self._parse_annotations(h, record)
        self._parse_params(h, body)
        record.bodies.append(body)
        self.raw_funcs.append(record)
        scopes.append(Scope("function", func=record, body=body))

    @staticmethod
    def _match_function(head):
        idx = head.find("(")
        if idx < 0:
            return None
        m = FUNC_NAME_RE.search(head[:idx + 1])
        if not m:
            return None
        name = m.group(1).strip(":")
        simple = name.split("::")[-1].lstrip("~")
        if simple in CPP_KEYWORDS or simple.startswith("SES_"):
            return None
        return name

    def _parse_annotations(self, text, record):
        for m in ANNOT_RE.finditer(text):
            kind = m.group(1)
            exprs = [e.strip() for e in m.group(2).split(",") if e.strip()]
            if kind.startswith("REQUIRES"):
                record.requires_exprs.extend(exprs)
            else:
                record.acquire_exprs.extend(exprs)

    @staticmethod
    def _parse_params(head, body):
        idx = head.find("(")
        if idx < 0:
            return
        depth = 0
        end = idx
        for j in range(idx, len(head)):
            if head[j] == "(":
                depth += 1
            elif head[j] == ")":
                depth -= 1
                if depth == 0:
                    end = j
                    break
        params = head[idx + 1:end]
        for part in re.split(r",(?![^<(]*[>)])", params):
            part = part.split("=")[0].strip()
            part = QUALIFIER_RE.sub("", part)
            m = re.match(r"((?:\w+::)*\w+)(?:\s*<.*>)?\s*[&*]*\s+(\w+)\s*$",
                         part)
            if m:
                body["param_types"][m.group(2)] = m.group(1).split("::")[-1]

    def _close_scope(self, scopes, pos):
        if len(scopes) <= 1:
            return None
        scope = scopes.pop()
        func_scope = self._enclosing_func_scope(scopes + [scope])
        if func_scope is not None and scope.releases:
            for expr in scope.releases:
                func_scope.body["events"].append(
                    ("release", expr, self._rel, self._lineno(pos)))
        return scope.name if scope.kind == "class" else None

    def _flush_chunk(self, scopes, chunk, chunk_start, last_popped_class):
        s = chunk.strip()
        if not s:
            return
        scope = scopes[-1]
        func_scope = self._enclosing_func_scope(scopes)
        if scope.kind == "enum":
            return
        if scope.kind in ("namespace", "class"):
            self._flush_declaration(
                scopes, scope, s,
                chunk_start + len(chunk) - len(chunk.lstrip()))
            return
        if func_scope is None:
            return
        body = func_scope.body
        if last_popped_class and re.fullmatch(r"\w+", s):
            # `struct S { ... } var;` — the variable is typed by the
            # class that just closed (score_gen's StopState pattern).
            body["local_types"][s] = last_popped_class
            return
        self._extract_events(scopes, body, chunk, chunk_start)

    def _flush_declaration(self, scopes, scope, s, chunk_start):
        stripped = QUALIFIER_RE.sub("", s)
        mm = MEMBER_MUTEX_RE.search(stripped)
        lineno = self._lineno(chunk_start)
        owner = "::".join(self._ns_parts(scopes) + self._class_parts(scopes))
        if mm:
            qname = (owner + "::" + mm.group(2)) if owner else mm.group(2)
            kind = "mutex" if mm.group(1) == "Mutex" else "shared_mutex"
            if qname not in self.caps:
                self.caps[qname] = {"kind": kind, "file": self._rel,
                                    "line": lineno}
            if scope.kind == "class":
                cls = self._current_class_qname(scopes)
                self.classes[cls]["members"][mm.group(2)] = qname
            return
        # Method / free-function declaration (no body): keep the SES_*
        # annotations — a header-declared SES_ACQUIRE function is a real
        # node in the call graph even if its definition lives elsewhere.
        name = self._match_function(stripped)
        if name is not None and ANNOT_RE.search(stripped) or (
                name is not None and "(" in stripped):
            record = Func(name, self._ns_parts(scopes),
                          self._current_class_qname(scopes)
                          if scope.kind == "class" else None,
                          self._rel, lineno)
            # QUALIFIER_RE strips leading `virtual`, so hot/virtual
            # detection reads the unstripped declaration.
            record.hot = HOT_RE.search(s) is not None
            record.virt = VIRTUAL_RE.search(s) is not None
            self._parse_annotations(stripped, record)
            self.raw_funcs.append(record)
            return
        if scope.kind == "class":
            m = re.match(
                r"^((?:\w+::)*\w+)(?:\s*<[^;]*>)?\s*[&*]*\s+(\w+)", stripped)
            if m:
                cls = self._current_class_qname(scopes)
                self.classes[cls]["member_types"][m.group(2)] = \
                    m.group(1).split("::")[-1]

    def _current_class_qname(self, scopes):
        return "::".join(self._ns_parts(scopes) + self._class_parts(scopes))

    def _extract_events(self, scopes, body, chunk, chunk_start):
        # Local variable typing (for obj.method call resolution).
        stripped = QUALIFIER_RE.sub("", chunk.strip())
        m = MAKE_SMART_RE.search(stripped)
        if m:
            body["local_types"][m.group(1)] = m.group(2).split("::")[-1]
        else:
            m = LOCAL_DECL_RE.match(stripped)
            if m and m.group(1).split("::")[-1] not in CPP_KEYWORDS:
                body["local_types"][m.group(2)] = m.group(1).split("::")[-1]

        # Brace depth inside the chunk (braces here are always inside
        # parens — lambdas passed as call arguments).
        depth_at = []
        d = 0
        for ch in chunk:
            depth_at.append(d)
            if ch == "{":
                d += 1
            elif ch == "}":
                d = max(0, d - 1)

        events = []  # (pos, tuple)
        spans = []

        def in_span(pos):
            return any(a <= pos < b for a, b in spans)

        for m in SCOPED_LOCK_RE.finditer(chunk):
            kind, arg = m.group(1), m.group(2).strip()
            shared = kind == "ReaderMutexLock"
            line = self._lineno(chunk_start + m.start())
            events.append((m.start(),
                           ("acquire", arg, shared, self._rel, line)))
            spans.append(m.span())
            d0 = depth_at[m.start()]
            if d0 > 0:
                # Lambda-internal scoped lock: released where its
                # enclosing lambda block closes inside this chunk.
                rel_pos = len(chunk)
                dd = d0
                for j in range(m.end(), len(chunk)):
                    if chunk[j] == "{":
                        dd += 1
                    elif chunk[j] == "}":
                        dd -= 1
                        if dd < d0:
                            rel_pos = j
                            break
                events.append((rel_pos, ("release", arg, self._rel,
                                         self._lineno(chunk_start + rel_pos))))
            else:
                scopes[-1].releases.append(arg)
        for m in MANUAL_LOCK_RE.finditer(chunk):
            obj, op = m.group(1), m.group(2)
            line = self._lineno(chunk_start + m.start())
            if op in ("Lock", "LockShared"):
                events.append((m.start(), ("acquire", obj,
                                           op == "LockShared",
                                           self._rel, line)))
            else:
                events.append((m.start(), ("release", obj, self._rel, line)))
            spans.append(m.span())
        for m in WAIT_RE.finditer(chunk):
            if in_span(m.start()):
                continue
            line = self._lineno(chunk_start + m.start())
            events.append((m.start(), ("wait", m.group(2).strip(),
                                       self._rel, line)))
            spans.append(m.span())
        for m in CALL_RE.finditer(chunk):
            name = m.group(3)
            if name in CPP_KEYWORDS or name.startswith("SES_"):
                continue
            if in_span(m.start()):
                continue
            obj = m.group(1).rstrip(".").rstrip("->").rstrip(".")
            line = self._lineno(chunk_start + m.start())
            events.append((m.start(), ("call", obj, name, self._rel, line)))

        # Hot-path raw material; consulted only for SES_HOT-reachable
        # bodies, so the extra events are inert everywhere else.
        for m in HOT_ALLOC_RE.finditer(chunk):
            line = self._lineno(chunk_start + m.start())
            events.append((m.start(), ("hotalloc", m.group(0).strip(),
                                       self._rel, line)))
        for m in HOT_IO_RE.finditer(chunk):
            line = self._lineno(chunk_start + m.start())
            events.append((m.start(), ("hotio", m.group(0).strip(),
                                       self._rel, line)))
        for m in HOT_SUBSCRIPT_RE.finditer(chunk):
            line = self._lineno(chunk_start + m.start())
            events.append((m.start(), ("hotsub", m.group(1),
                                       self._rel, line)))

        events.sort(key=lambda e: e[0])
        body["events"].extend(ev for _, ev in events)

    # -- resolution ---------------------------------------------------------

    def finalize(self):
        self.caps_by_simple = {}
        for qname in self.caps:
            self.caps_by_simple.setdefault(qname.split("::")[-1],
                                           []).append(qname)
        self.classes_by_simple = {}
        for qname, cls in self.classes.items():
            self.classes_by_simple.setdefault(cls["simple"],
                                              []).append(qname)

        # Merge declarations and definitions by resolved qname.
        self.funcs = {}
        for rec in self.raw_funcs:
            qname = self._resolve_func_qname(rec)
            merged = self.funcs.setdefault(qname, {
                "qname": qname, "simple": rec.simple.lstrip("~"),
                "cls": None, "file": rec.file, "line": rec.line,
                "bodies": [], "requires_exprs": [], "acquire_exprs": [],
                "ns": rec.ns, "hot": False, "virt": False, "files": set()})
            cls = self._resolve_func_class(rec)
            if cls is not None:
                merged["cls"] = cls
            merged["bodies"].extend(rec.bodies)
            merged["requires_exprs"].extend(rec.requires_exprs)
            merged["acquire_exprs"].extend(rec.acquire_exprs)
            merged["hot"] = merged["hot"] or rec.hot
            merged["virt"] = merged["virt"] or rec.virt
            merged["files"].add(rec.file)
        self.funcs_by_simple = {}
        for qname, f in self.funcs.items():
            self.funcs_by_simple.setdefault(f["simple"], []).append(qname)

    def _resolve_func_class(self, rec):
        if rec.lexical_class:
            return rec.lexical_class
        name = rec.raw_name
        if "::" in name:
            prefix = name.split("::")[-2]
            cands = self.classes_by_simple.get(prefix, [])
            if len(cands) == 1:
                return cands[0]
            for cand in cands:
                if cand.startswith("::".join(rec.ns)):
                    return cand
        return None

    def _resolve_func_qname(self, rec):
        cls = self._resolve_func_class(rec)
        simple = rec.simple
        if cls is not None:
            return cls + "::" + simple
        return "::".join(rec.ns + [simple]) if rec.ns else simple

    def resolve_cap(self, expr, func, body):
        """Maps a capability expression (bare member, namespace-scope
        name, or dotted path) to a capability id. Unresolvable
        expressions get a per-function-local id — correct for locals,
        and incapable of forming false cross-function aliases."""
        expr = expr.strip().lstrip("&").strip()
        expr = expr.replace("->", ".")
        expr = re.sub(r"^this\.", "", expr)
        if not expr or not re.fullmatch(r"[\w.]+", expr):
            return None
        parts = expr.split(".")
        cls = self.classes.get(func["cls"]) if func["cls"] else None
        if len(parts) == 1:
            name = parts[0]
            if cls and name in cls["members"]:
                return cls["members"][name]
            cands = self.caps_by_simple.get(name, [])
            if len(cands) == 1:
                return cands[0]
            return f"<local {func['qname']}::{expr}>"
        obj, field = ".".join(parts[:-1]), parts[-1]
        obj_simple = parts[0]
        obj_type = (body["local_types"].get(obj_simple) or
                    body["param_types"].get(obj_simple) or
                    (cls["member_types"].get(obj_simple) if cls else None))
        if obj_type:
            tcands = self.classes_by_simple.get(obj_type, [])
            if len(tcands) == 1:
                members = self.classes[tcands[0]]["members"]
                if field in members:
                    return members[field]
        cands = self.caps_by_simple.get(field, [])
        if len(cands) == 1:
            return cands[0]
        return f"<local {func['qname']}::{obj}.{field}>"

    def resolve_call(self, obj, name, func, body):
        """Returns the qnames a call may dispatch to. Typed objects
        narrow to the exact class; everything else unions over all
        same-named functions (conservative)."""
        cands = self.funcs_by_simple.get(name, [])
        if not cands:
            return []
        if obj and obj not in ("this",):
            obj_simple = obj.replace("->", ".").split(".")[0]
            cls = self.classes.get(func["cls"]) if func["cls"] else None
            obj_type = (body["local_types"].get(obj_simple) or
                        body["param_types"].get(obj_simple) or
                        (cls["member_types"].get(obj_simple)
                         if cls else None))
            if obj_type:
                tcands = self.classes_by_simple.get(obj_type, [])
                if len(tcands) == 1:
                    narrowed = [q for q in cands
                                if self.funcs[q]["cls"] == tcands[0]]
                    if narrowed:
                        return narrowed
                    return []
        elif func["cls"]:
            # Unqualified call inside a member function: C++ name
            # lookup finds the member first, so a same-class candidate
            # beats the cross-class union.
            own = [q for q in cands if self.funcs[q]["cls"] == func["cls"]]
            if own:
                return own
        return cands

    # -- analysis -----------------------------------------------------------

    def analyze(self):
        """Runs the lock-leaf walk over every body; returns its
        findings."""
        # Transitive acquire summaries, to a fixpoint over the call
        # graph: tacq(F) = direct acquires ∪ tacq(resolved callees).
        tacq = {}
        call_edges = {}
        for qname, f in self.funcs.items():
            direct = set()
            for expr in f["acquire_exprs"]:
                body = f["bodies"][0] if f["bodies"] else new_body()
                cap = self.resolve_cap(expr, f, body)
                if cap:
                    direct.add(cap)
            callees = set()
            for body in f["bodies"]:
                for ev in body["events"]:
                    if ev[0] == "acquire":
                        cap = self.resolve_cap(ev[1], f, body)
                        if cap:
                            direct.add(cap)
                    elif ev[0] == "call":
                        callees.update(self.resolve_call(ev[1], ev[2],
                                                         f, body))
            tacq[qname] = direct
            call_edges[qname] = callees
        changed = True
        while changed:
            changed = False
            for qname in self.funcs:
                before = len(tacq[qname])
                for callee in call_edges[qname]:
                    tacq[qname] |= tacq.get(callee, set())
                if len(tacq[qname]) != before:
                    changed = True

        findings = []
        for qname in sorted(self.funcs):
            f = self.funcs[qname]
            for body in f["bodies"]:
                findings.extend(self._walk_body(f, body, tacq))
        return findings

    def _allowed(self, rel, line, rule):
        raw = self.raw_lines.get(rel)
        if raw is None or not 1 <= line <= len(raw):
            return False
        return use_suppression(rel, line, raw[line - 1], rule)

    def _walk_body(self, f, body, tacq):
        """lock-leaf over one body, in event order: reports (a) an
        acquisition and (b) a call to a callee that may acquire, made
        while a different capability is held, and (c) an SES_REQUIRES
        naming two capabilities."""
        findings = []
        held = []

        def take(caps, rel, line, how):
            """Reports `caps` not already held as taken while `held` is
            held; returns them."""
            taken = sorted(set(caps) - set(held))
            if held and taken and not self._allowed(rel, line, "lock-leaf"):
                findings.append((
                    rel, line, "lock-leaf",
                    f"{f['qname']} {how} {', '.join(taken)} at {rel}:{line} "
                    f"while holding {', '.join(held)} — capabilities are "
                    "leaves: release the held lock before taking another"))
            return taken

        for expr in f["requires_exprs"]:
            cap = self.resolve_cap(expr, f, body)
            if cap:
                held.extend(take([cap], f["file"], f["line"], "requires"))
        for ev in body["events"]:
            kind = ev[0]
            if kind == "acquire":
                cap = self.resolve_cap(ev[1], f, body)
                if cap:
                    held.extend(take([cap], ev[3], ev[4], "acquires"))
            elif kind == "release":
                cap = self.resolve_cap(ev[1], f, body)
                if cap in held:
                    held.remove(cap)
            elif kind == "call" and held:
                targets = set()
                for callee in self.resolve_call(ev[1], ev[2], f, body):
                    targets |= tacq.get(callee, set())
                take(targets, ev[3], ev[4],
                     f"calls {ev[2]}, which may acquire")
        return findings

    # -- hot-path purity ----------------------------------------------------

    def _object_type(self, obj, func, body):
        """Simple type name of a dotted receiver's first component, via
        the same local/param/member maps resolve_call uses."""
        obj_simple = obj.replace("->", ".").replace("this.", "").split(".")[0]
        cls = self.classes.get(func["cls"]) if func["cls"] else None
        return (body["local_types"].get(obj_simple) or
                body["param_types"].get(obj_simple) or
                (cls["member_types"].get(obj_simple) if cls else None))

    def hot_findings(self, whitelist):
        """Transitive purity walk from every SES_HOT root. Reports each
        violating site once, with the witness call chain from the first
        (alphabetically) root that reaches it."""
        roots = sorted(q for q, f in self.funcs.items() if f["hot"])
        findings = []
        if not roots:
            return findings
        reported_lines = set()   # (rel, line): one finding per site
        for root in roots:
            seen = {root}
            queue = [(root, [])]
            while queue:
                qname, chain = queue.pop(0)
                f = self.funcs[qname]
                for body in f["bodies"]:
                    self._hot_walk_body(root, f, body, chain, whitelist,
                                        seen, queue, reported_lines,
                                        findings)
        return findings

    def _hot_violation(self, findings, reported_lines, root, chain,
                       rel, line, detail):
        if self._allowed(rel, line, "hot-path"):
            return
        if (rel, line) in reported_lines:
            return
        reported_lines.add((rel, line))
        via = (f" [witness: {' -> '.join([root] + chain)}]" if chain else "")
        findings.append((rel, line, "hot-path",
                         f"reachable from SES_HOT {root}: {detail}{via}"))

    def _hot_walk_body(self, root, f, body, chain, whitelist, seen, queue,
                       reported_lines, findings):
        flag = self._hot_violation
        for ev in body["events"]:
            kind = ev[0]
            if kind == "acquire":
                flag(findings, reported_lines, root, chain, ev[3], ev[4],
                     f"mutex acquisition of '{ev[1]}' in {f['qname']} — "
                     "hot kernels must run lock-free; hoist the lock to "
                     "the cold caller")
            elif kind == "wait":
                flag(findings, reported_lines, root, chain, ev[2], ev[3],
                     f"CondVar wait on '{ev[1]}' in {f['qname']} — "
                     "blocking on the hot path")
            elif kind == "hotalloc":
                flag(findings, reported_lines, root, chain, ev[2], ev[3],
                     f"allocation '{ev[1]}' in {f['qname']} — preallocate "
                     "in the owner or move this to a cold path")
            elif kind == "hotio":
                flag(findings, reported_lines, root, chain, ev[2], ev[3],
                     f"logging/IO/clock read '{ev[1]}' in {f['qname']} — "
                     "hot kernels must not log, stream, or read clocks "
                     "(SES_CHECK is the sanctioned exception)")
            elif kind == "hotsub":
                recv_type = self._object_type(ev[1], f, body)
                if recv_type in HOT_MAP_TYPES:
                    flag(findings, reported_lines, root, chain, ev[2], ev[3],
                         f"map-shaped lookup '{ev[1]}[...]' in "
                         f"{f['qname']} — hoist into dense, "
                         "index-addressed scratch")
            elif kind == "call":
                obj, name, rel, line = ev[1], ev[2], ev[3], ev[4]
                if self._allowed(rel, line, "hot-path"):
                    continue  # witness-edge suppression cuts the subtree
                if name in HOT_GROW_METHODS:
                    flag(findings, reported_lines, root, chain, rel, line,
                         f"container growth '{obj}.{name}' in {f['qname']} "
                         "— size the container in the owner, outside the "
                         "hot path")
                    continue
                if name in HOT_MAP_METHODS:
                    recv_type = self._object_type(obj, f, body) if obj else None
                    if recv_type in HOT_MAP_TYPES:
                        flag(findings, reported_lines, root, chain, rel, line,
                             f"map-shaped lookup '{obj}.{name}' in "
                             f"{f['qname']} — hoist into dense, "
                             "index-addressed scratch")
                        continue
                if name in whitelist:
                    continue  # trusted pure leaf (tools/hot_whitelist.txt)
                cands = self.resolve_call(obj, name, f, body)
                if not cands:
                    flag(findings, reported_lines, root, chain, rel, line,
                         f"call to '{name}' in {f['qname']} that the "
                         "analysis cannot see — add it to "
                         "tools/hot_whitelist.txt if it is a pure leaf, "
                         "or suppress this edge with a justification")
                    continue
                virt = [q for q in cands
                        if self.funcs[q]["virt"] and
                        not self._final_class(self.funcs[q]["cls"])]
                if virt:
                    flag(findings, reported_lines, root, chain, rel, line,
                         f"virtual dispatch '{obj + '.' if obj else ''}"
                         f"{name}' in {f['qname']} through non-final "
                         f"{self.funcs[virt[0]]['cls'] or '?'} — devirtualize "
                         "(final receiver) or suppress with a justification")
                    continue
                walkable = [q for q in cands if self.funcs[q]["bodies"]]
                declared_acquire = [q for q in cands
                                    if self.funcs[q]["acquire_exprs"]]
                if declared_acquire and not walkable:
                    flag(findings, reported_lines, root, chain, rel, line,
                         f"call to SES_ACQUIRE-declared '{name}' in "
                         f"{f['qname']} — hot kernels must run lock-free")
                    continue
                if not walkable:
                    flag(findings, reported_lines, root, chain, rel, line,
                         f"call to '{name}' in {f['qname']} with no "
                         "analyzable body — add it to "
                         "tools/hot_whitelist.txt if it is a pure leaf, "
                         "or suppress this edge with a justification")
                    continue
                for cand in walkable:
                    if cand not in seen:
                        seen.add(cand)
                        queue.append(
                            (cand, chain + [f"{cand} (at {rel}:{line})"]))

    def _final_class(self, cls_qname):
        if not cls_qname:
            return False
        entry = self.classes.get(cls_qname)
        return bool(entry and entry.get("final"))

    def hot_table(self):
        """The SES_HOT inventory — every annotated root the hot-path
        walk proves pure, as docs/ARCHITECTURE.md embeds it verbatim
        (pinned by the docs-lockstep test)."""
        rows = [("hot function", "declared-in")]
        for qname in sorted(self.funcs):
            f = self.funcs[qname]
            if not f["hot"]:
                continue
            declared = min(f["files"],
                           key=lambda p: (not p.endswith(".h"), p))
            rows.append((qname, declared))
        return render_table(rows)

    def capabilities_table(self):
        """The derived mutex inventory, as docs/ARCHITECTURE.md embeds
        it verbatim (pinned by the docs-lockstep test). lock-leaf makes
        every entry a leaf, so no acquisition order needs listing."""
        return render_table([("capability", "kind", "declared-in")] + [
            (qname, cap["kind"], cap["file"])
            for qname, cap in sorted(self.caps.items())])


def render_table(rows):
    """Left-aligned columns, a dashed rule under the header row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    rule = tuple("-" * w for w in widths)
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     .rstrip() for row in [rows[0], rule] + rows[1:])


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

SOURCE_SUFFIXES = (".h", ".cc", ".cpp")


def collect(path):
    """The source files at `path`: the file itself, or every
    *.h / *.cc / *.cpp below a directory."""
    if not os.path.isdir(path):
        return [path] if path.endswith(SOURCE_SUFFIXES) else []
    return [os.path.join(root, name)
            for root, _, names in os.walk(path)
            for name in sorted(names) if name.endswith(SOURCE_SUFFIXES)]


def load_hot_whitelist(root):
    """Simple callee names the hot-path walk trusts as pure leaves —
    checked in at tools/hot_whitelist.txt, one name per line, `#`
    comments. Missing file means an empty whitelist (fixture trees)."""
    names = set()
    try:
        with open(os.path.join(root, "tools", "hot_whitelist.txt"),
                  encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    names.add(line)
    except OSError:
        pass
    return names


def stale_suppressions(raws, contents):
    """Every allow() whose (file, line, rule) never landed in
    USED_SUPPRESSIONS this run. Only lines that carry code are audited:
    an allow() on a pure comment line is prose (docs quoting the
    syntax), not a suppression — rules match stripped code, so it never
    suppressed anything in the first place."""
    findings = []
    for rel in sorted(raws):
        code = contents.get(rel, [])
        for lineno, line in enumerate(raws[rel], start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            if lineno <= len(code) and not code[lineno - 1].strip():
                continue
            for r in (r.strip() for r in m.group(1).split(",")):
                if not r or (rel, lineno, r) in USED_SUPPRESSIONS:
                    continue
                unknown = "" if r in RULE_DOCS else " (unknown rule id)"
                findings.append((
                    rel, lineno, "stale-suppression",
                    f"allow({r}) suppresses no finding on this "
                    f"line{unknown} — the code it excused is gone; "
                    "delete it"))
    return findings


def render(problems, checked, github):
    """One line per finding, then a summary. Text goes to stderr as
    `file:line: rule: message`; --format=github prints GitHub Actions
    `::error` workflow commands to stdout instead, so the lint job
    annotates the offending lines inline on the PR diff
    (percent-encoding per the workflow-command spec)."""
    def esc(s):
        return (s.replace("%", "%25").replace("\r", "%0D")
                .replace("\n", "%0A"))

    for rel, line, rule, message in problems:
        if github:
            print(f"::error file={esc(rel)},line={line},"
                  f"title=ses_lint {esc(rule)}::{esc(message)}")
        else:
            print(f"{rel}:{line}: {rule}: {message}", file=sys.stderr)
    print(f"ses_lint: checked {checked} file(s): "
          f"{len(problems)} problem(s)")


def main(argv):
    parser = argparse.ArgumentParser(
        description="ses project-invariant linter and flow analyzer")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and one-line descriptions")
    parser.add_argument("--capabilities", action="store_true",
                        help="dump the derived mutex inventory and exit")
    parser.add_argument("--hot-functions", action="store_true",
                        help="dump the SES_HOT function inventory and exit")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text",
                        help="finding output format (default: text)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tools "
                             "tests bench examples under --root)")
    args = parser.parse_args(argv[1:])

    if args.list_rules:
        for rule in sorted(RULE_DOCS):
            print(f"{rule}: {RULE_DOCS[rule]}")
        return 0

    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    files = []
    for path in (args.paths or
                 ["src", "tools", "tests", "bench", "examples"]):
        found = collect(os.path.join(root, path))
        if not found:
            # A typo'd or emptied PATH must not pass as a clean scan.
            print(f"ses_lint: {path}: no *.h, *.cc or *.cpp file",
                  file=sys.stderr)
            return 1
        files.extend(found)
    # Deterministic scan order: merged-function metadata (e.g. which
    # file "declares" a hot function) must not depend on readdir order.
    files.sort()

    USED_SUPPRESSIONS.clear()
    linter = Linter()
    model = CppModel()
    contents = {}   # rel -> code_lines (for the stale audit)
    raws = {}
    for path in files:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            linter.problems.append((rel, 0, "unreadable", str(err)))
            continue
        code, raw = strip_code(text)
        linter.lint_file(rel, code, raw)
        contents[rel] = code
        raws[rel] = raw
        if rel.startswith("src/") and rel not in FLOW_EXEMPT:
            model.scan_file(rel, code, raw)

    model.finalize()
    if args.capabilities:
        print(model.capabilities_table())
        return 0
    if args.hot_functions:
        print(model.hot_table())
        return 0

    problems = linter.problems + model.analyze()
    problems.extend(model.hot_findings(load_hot_whitelist(root)))

    # Last, after every rule has had its chance to register the
    # suppressions it honored: the stale audit.
    problems.extend(stale_suppressions(raws, contents))

    problems = sorted(set(problems))
    render(problems, len(files), args.format == "github")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
