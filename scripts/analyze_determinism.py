#!/usr/bin/env python3
"""Determinism analyzer: static rules over the result-affecting layers.

Everything under src/core, src/sim, src/tcp, src/traffic, src/measure,
src/probes and src/scenarios feeds the numbers that reach result files and the
run-state hash chain (DESIGN.md §14).  These rules ban the constructs that make
such code depend on process layout, wall time, or library hash ordering — the
classic sources of "same seed, different answer":

  no-unordered-container   std::unordered_{map,set,multimap,multiset} iterate
                           in hash/bucket order, which varies across libstdc++
                           versions and even across processes.  Use std::map /
                           std::set or a sorted vector (see src/sim/demux.h).
  no-pointer-key           pointer values as ordering keys or digest input:
                           std::hash of a pointer, reinterpret_cast to
                           [u]intptr_t, or a map/set keyed by a pointer type.
                           Allocation addresses differ run to run (ASLR), so
                           any pointer-derived order or value is nondeterminism.
  no-time-seed             wall time reaching results: <chrono> clocks,
                           time()/gettimeofday()/clock().  Seeds and results
                           must be pure functions of the spec; wall timing is
                           tools/progress-display business only.
  no-mutable-static        mutable namespace-scope / function-local static /
                           thread_local state.  Cross-replica shared state
                           makes results depend on which replicas ran before
                           (and on which thread); obs registry caches are the
                           sanctioned exception (waive with a justification —
                           telemetry never reaches results).
  no-unordered-float-reduction
                           std::reduce and std::execution::{par,unseq,...}
                           reassociate floating-point sums nondeterministically;
                           reductions here are sequential std::accumulate or an
                           explicit loop, in container order.

Waivers, for the rare justified exception (justify in a trailing comment):

  // bb-det: allow(<rule-id>)        waives the rule on this and the next line
  // bb-det: allow-file(<rule-id>)   waives the rule for the whole file

Usage:
  scripts/analyze_determinism.py              # analyze the result-affecting dirs
  scripts/analyze_determinism.py PATH...      # analyze specific files or dirs
  scripts/analyze_determinism.py --self-test  # run the table-driven self-test

Exit status: 0 clean, 1 findings, 2 self-test failure or bad usage.
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The layers whose computation reaches result files / the hash chain.  util,
# obs and the tools/bench layers are deliberately out of scope: wall timing
# and process-global telemetry are legal there.
DEFAULT_SCAN = ["src/core", "src/sim", "src/tcp", "src/traffic", "src/measure",
                "src/probes", "src/scenarios"]
CXX_EXTENSIONS = (".cpp", ".h")


# --------------------------------------------------------------------------
# Source mangling (same discipline as scripts/lint_bb.py): blank out comments
# and string/char literals, preserving line structure, so rule patterns only
# see code.  Waivers are read from the raw text before stripping.

def strip_comments_and_literals(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        elif c == "'":
            # C++14 digit separator (1'000'000): an apostrophe directly after
            # an alphanumeric character is not a char literal.
            if out and (out[-1].isalnum() or out[-1] == "_"):
                out.append(" ")
                i += 1
            else:
                i += 1
                while i < n and text[i] != "'":
                    if text[i] == "\\":
                        i += 1
                    i += 1
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


WAIVE_LINE = re.compile(r"bb-det:\s*allow\(([a-z0-9-]+)\)")
WAIVE_FILE = re.compile(r"bb-det:\s*allow-file\(([a-z0-9-]+)\)")


def collect_waivers(raw_lines):
    """Return (file_waivers: set, line_waivers: dict lineno -> set)."""
    file_waivers = set()
    line_waivers = {}
    for idx, line in enumerate(raw_lines, start=1):
        for m in WAIVE_FILE.finditer(line):
            file_waivers.add(m.group(1))
        for m in WAIVE_LINE.finditer(line):
            line_waivers.setdefault(idx, set()).add(m.group(1))
            line_waivers.setdefault(idx + 1, set()).add(m.group(1))
    return file_waivers, line_waivers


# --------------------------------------------------------------------------
# Rules.

def in_dirs(path, *dirs):
    return any(path == d or path.startswith(d + "/") for d in dirs)


def grep_rule(pattern, message):
    rx = re.compile(pattern)

    def check(path, code_lines):
        del path
        for idx, line in enumerate(code_lines, start=1):
            if rx.search(line):
                yield idx, message
    return check


# A static/thread_local declaration line; `static_cast`/`static_assert` never
# match because the pattern requires whitespace after the keyword.  const and
# constexpr statics are immutable, hence fine.
STATIC_DECL = re.compile(
    r"^\s*(?:\[\[[^\]]*\]\]\s*)*(?:inline\s+)?"
    r"(?:static\s+thread_local\s+|thread_local\s+(?:static\s+)?|static\s+)"
    r"(?!const\b|constexpr\b|inline\s+const)")
# Function declaration heuristic: the line's first '(' opens a parameter list
# (no '=' before it).  `static int x(5);` direct-init would slip through this
# heuristic; the codebase uses brace-init, which is caught.
def _is_function_decl(line: str) -> bool:
    paren = line.find("(")
    if paren < 0:
        return False
    eq = line.find("=")
    return eq < 0 or eq > paren


def check_mutable_static(path, code_lines):
    del path
    for idx, line in enumerate(code_lines, start=1):
        if STATIC_DECL.search(line) and not _is_function_decl(line):
            yield idx, ("mutable static/thread_local state in a result-affecting "
                        "layer; thread results must be pure functions of the plan")


RULES = [
    {
        "id": "no-unordered-container",
        "scope": lambda p: in_dirs(p, *DEFAULT_SCAN),
        "check": grep_rule(
            r"\bstd::unordered_(?:map|set|multimap|multiset)\b",
            "hash-ordered container; iterate order varies across stdlibs — use "
            "std::map/std::set or a sorted vector"),
    },
    {
        "id": "no-pointer-key",
        "scope": lambda p: in_dirs(p, *DEFAULT_SCAN),
        "check": grep_rule(
            r"\bstd::hash\s*<[^>]*\*"
            r"|\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"
            r"|\bstd::(?:map|set|multimap|multiset)\s*<[^,>]*\*\s*[,>]",
            "pointer value used as key/order/digest input; allocation addresses "
            "differ run to run"),
    },
    {
        "id": "no-time-seed",
        "scope": lambda p: in_dirs(p, *DEFAULT_SCAN),
        "check": grep_rule(
            r"\bstd::chrono\b|#\s*include\s*<chrono>"
            r"|\btime\s*\(\s*(?:nullptr|NULL|0|&)"
            r"|\bgettimeofday\s*\(|\bclock\s*\(\s*\)",
            "wall time in a result-affecting layer; results and seeds must be "
            "pure functions of the spec"),
    },
    {
        "id": "no-mutable-static",
        "scope": lambda p: in_dirs(p, *DEFAULT_SCAN),
        "check": check_mutable_static,
    },
    {
        "id": "no-unordered-float-reduction",
        "scope": lambda p: in_dirs(p, *DEFAULT_SCAN),
        "check": grep_rule(
            r"\bstd::reduce\s*\(|\bstd::execution::",
            "unordered floating-point reduction; sums must fold in container "
            "order (sequential accumulate or a loop)"),
    },
]


def analyze_text(path, text):
    """Analyze one file's contents; returns a list of (path, lineno, rule, msg)."""
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_literals(text).splitlines()
    file_waivers, line_waivers = collect_waivers(raw_lines)
    findings = []
    for rule in RULES:
        if not rule["scope"](path):
            continue
        if rule["id"] in file_waivers:
            continue
        for lineno, msg in rule["check"](path, code_lines):
            if rule["id"] in line_waivers.get(lineno, set()):
                continue
            findings.append((path, lineno, rule["id"], msg))
    return findings


def iter_files(args):
    roots = args if args else DEFAULT_SCAN
    for root in roots:
        full = os.path.join(REPO_ROOT, root) if not os.path.isabs(root) else root
        if os.path.isfile(full):
            yield os.path.relpath(full, REPO_ROOT)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), REPO_ROOT)


def run_analysis(args):
    findings = []
    for rel in iter_files(args):
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
            findings.extend(analyze_text(rel, f.read()))
    for path, lineno, rule, msg in findings:
        print(f"{path}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"analyze_determinism: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"analyze_determinism: clean ({sum(1 for _ in iter_files(args))} files)")
    return 0


# --------------------------------------------------------------------------
# Table-driven self-test: (rule, path, snippet, flagged?)

SELF_TEST_TABLE = [
    ("no-unordered-container", "src/sim/x.h", "std::unordered_map<int, int> m;", True),
    ("no-unordered-container", "src/sim/x.h", "std::unordered_set<int> s;", True),
    ("no-unordered-container", "src/core/x.cpp", "std::unordered_multiset<int> s;", True),
    ("no-unordered-container", "src/sim/x.h", "std::map<int, int> m;", False),
    ("no-unordered-container", "src/obs/x.h", "std::unordered_map<int, int> m;", False),  # out of scope
    ("no-unordered-container", "src/sim/x.h", "// std::unordered_map in prose", False),
    ("no-unordered-container", "src/sim/x.h",
     "std::unordered_map<int, int> m;  // bb-det: allow(no-unordered-container)", False),
    ("no-pointer-key", "src/sim/x.h", "std::map<PacketSink*, int> owners;", True),
    ("no-pointer-key", "src/sim/x.h", "std::set<const Node*> seen;", True),
    ("no-pointer-key", "src/core/x.cpp", "auto k = reinterpret_cast<std::uintptr_t>(p);", True),
    ("no-pointer-key", "src/core/x.cpp", "auto k = reinterpret_cast<intptr_t>(p);", True),
    ("no-pointer-key", "src/core/x.cpp", "std::hash<void*>{}(p);", True),
    ("no-pointer-key", "src/sim/x.h", "std::map<FlowId, PacketSink*> routes;", False),  # value, not key
    ("no-pointer-key", "src/sim/x.h", "std::vector<std::pair<FlowId, PacketSink*>> v;", False),
    ("no-pointer-key", "src/sim/x.h", "std::hash<std::string>{}(s);", False),
    ("no-time-seed", "src/core/x.cpp", "auto t0 = std::chrono::steady_clock::now();", True),
    ("no-time-seed", "src/core/x.cpp", "#include <chrono>", True),
    ("no-time-seed", "src/probes/x.cpp", "seed = time(nullptr);", True),
    ("no-time-seed", "src/probes/x.cpp", "gettimeofday(&tv, nullptr);", True),
    ("no-time-seed", "src/probes/x.cpp", "auto c = clock();", True),
    ("no-time-seed", "src/core/x.cpp", "TimeNs now = sched.now();", False),  # sim time is fine
    ("no-time-seed", "src/core/x.cpp", "double run_time(int x);", False),  # substring trap
    ("no-time-seed", "tools/x.cpp", "auto t0 = std::chrono::steady_clock::now();", False),  # out of scope
    ("no-time-seed", "src/scenarios/x.cpp",
     "auto t0 = std::chrono::steady_clock::now();  // bb-det: allow(no-time-seed)", False),
    ("no-mutable-static", "src/sim/x.cpp", "static int call_count = 0;", True),
    ("no-mutable-static", "src/sim/x.cpp", "static std::atomic<std::int64_t> mx{0};", True),
    ("no-mutable-static", "src/core/x.cpp", "static obs::Counter& c = obs::counter(x);", True),
    ("no-mutable-static", "src/core/x.cpp", "thread_local int depth = 0;", True),
    ("no-mutable-static", "src/core/x.cpp", "static const int kTableSize = 8;", False),  # immutable
    ("no-mutable-static", "src/core/x.cpp", "static constexpr double kEps = 1e-9;", False),
    ("no-mutable-static", "src/core/x.h", "static std::string hex(std::uint64_t d);", False),  # function
    ("no-mutable-static", "src/core/x.h",
     "[[nodiscard]] static bool earlier(const Ticket& a, const Ticket& b) noexcept {", False),
    ("no-mutable-static", "src/core/x.cpp", "auto v = static_cast<int>(x);", False),
    ("no-mutable-static", "src/core/x.cpp", "static_assert(sizeof(int) == 4);", False),
    ("no-mutable-static", "src/tcp/x.cpp", "static std::uint64_t next_id = 0;", True),
    ("no-mutable-static", "src/tcp/x.cpp",
     "void on_ack() {\n    static int dup_acks = 0;\n    ++dup_acks;\n}", True),  # function-local
    ("no-mutable-static", "src/traffic/x.cpp", "thread_local Rng jitter{1};", True),
    ("no-mutable-static", "src/tcp/x.cpp", "static constexpr int kInitialCwnd = 2;", False),
    ("no-unordered-container", "src/traffic/x.h", "std::unordered_map<FlowId, int> m;", True),
    ("no-time-seed", "src/tcp/x.cpp", "auto t0 = std::chrono::steady_clock::now();", True),
    ("no-mutable-static", "src/obs/x.cpp", "static int registry_epoch = 0;", False),  # out of scope
    ("no-mutable-static", "src/sim/x.cpp",
     "static int cached = 0;  // bb-det: allow(no-mutable-static)", False),
    ("no-mutable-static", "src/sim/x.cpp",
     "// bb-det: allow-file(no-mutable-static)\nstatic int a = 0;\nstatic int b = 0;", False),
    ("no-unordered-float-reduction", "src/measure/x.cpp",
     "double s = std::reduce(v.begin(), v.end());", True),
    ("no-unordered-float-reduction", "src/measure/x.cpp",
     "std::sort(std::execution::par, v.begin(), v.end());", True),
    ("no-unordered-float-reduction", "src/measure/x.cpp",
     "double s = std::accumulate(v.begin(), v.end(), 0.0);", False),  # sequential, ordered
    ("no-unordered-float-reduction", "bench/x.cpp",
     "double s = std::reduce(v.begin(), v.end());", False),  # out of scope
]


def self_test():
    failures = []
    for idx, (rule, path, snippet, expect_flag) in enumerate(SELF_TEST_TABLE):
        findings = [f for f in analyze_text(path, snippet + "\n") if f[2] == rule]
        if bool(findings) != expect_flag:
            failures.append(
                f"case {idx} [{rule}] {path!r}: expected "
                f"{'a finding' if expect_flag else 'clean'}, got {findings!r}")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 2
    print(f"analyze_determinism: self-test ok ({len(SELF_TEST_TABLE)} cases)")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    if any(a.startswith("--") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    return run_analysis(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
