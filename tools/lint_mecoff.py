#!/usr/bin/env python3
"""mecoff project linter: concurrency & determinism conventions.

Enforces repo-specific rules that clang-tidy cannot express:

  raw-sync          std::mutex / std::condition_variable / std::lock_guard
                    and friends are banned in src/, tools/ and bench/ — use
                    the annotated wrappers in
                    src/common/thread_annotations.hpp so clang's
                    -Wthread-safety analysis sees every lock site.
  float-format      floating-point serialization must go through
                    format_fixed/format_general (std::to_chars): no
                    std::to_string on float/double, no printf-style %f/%g/%e
                    conversions. to_string and printf follow LC_NUMERIC and
                    produce locale-dependent bytes, breaking golden files.
  nondeterminism    rand()/srand()/std::random_device/time()-seeding are
                    banned in solver/simulation code — all randomness flows
                    through the seeded mecoff::Rng so runs replay exactly.
  no-endl           std::endl is a flush in disguise; use '\n'.
  obs-facade        outside src/obs/, observability is reached through the
                    MECOFF_* macros (src/obs/obs.hpp), never by naming
                    TraceSpan / MetricsRegistry::global directly. Two
                    reasons: tools/check_consistency.py sees only metric
                    keys recorded through the macros, so a direct call
                    escapes the metrics<->docs check; and the macros cache
                    the instrument in a function-local static, while a
                    direct call takes the registry mutex and a map lookup
                    on every call. Files that deliberately embed the obs
                    stack (the CLI's serve modes, the bench metrics
                    reporter) are listed in OBS_FACADE_ALLOWLIST.
  reinterpret-cast  reinterpret_cast appears only at audited sites listed
                    in CAST_ALLOWLIST (currently the sockaddr helper in
                    http_server.cpp), each confined to a named helper.
  result-contract   Result<T> is [[nodiscard]] (common/result.hpp); this
                    rule adds what the compiler cannot see: (a) naked
                    .value() chained directly onto a call — the error
                    message is thrown away untested; check ok() first or
                    bind the Result (std::move(r).value() after an ok()
                    check is the sanctioned unwrap spelling and is exempt);
                    (b) a statement-position call to a function declared
                    `Result<...> name(...)` whose return value is
                    discarded. Deliberate discards go in
                    RESULT_DISCARD_ALLOWLIST with a justification.

Rules raw-sync, float-format, nondeterminism, reinterpret-cast and
result-contract scan src/, tools/ and bench/; no-endl scans every tree
(including examples/); obs-facade scans the same trees minus src/obs/
and the allowlisted embedders.

Usage:
  lint_mecoff.py [--json] [--root DIR]          # scan the source tree
  lint_mecoff.py [--json] FILE [FILE...]        # scan explicit files
                                                #  (all rules, any path —
                                                #   used by test fixtures)

Exit codes: 0 clean, 1 findings, 2 usage/IO error.

stdlib-only; runs as a ctest (label: lint) and a CI step.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

SCHEMA = "mecoff.lint.v1"

# Directories scanned in tree mode, relative to the repo root.
TREE_DIRS = ("src", "tools", "bench", "examples")
CXX_EXTENSIONS = (".cpp", ".hpp", ".cc", ".h")

# The one file allowed to name raw std synchronization primitives: it
# wraps them.
SYNC_WRAPPER = "src/common/thread_annotations.hpp"

# reinterpret_cast budget per file: path -> max occurrences. Anything
# not listed gets 0.
CAST_ALLOWLIST = {
    # POSIX sockaddr ABI cast, confined to the as_sockaddr() helper.
    "src/obs/serve/http_server.cpp": 1,
}

# Files that deliberately embed the obs stack instead of going through
# the MECOFF_* macros. Both are tools that EXIST to surface telemetry:
# they read the whole registry (no metric key of their own for the
# consistency check to miss) and run once per command, not per solve.
OBS_FACADE_ALLOWLIST = {
    # The CLI's serve/serve-solve modes mount the telemetry server and
    # print registry summaries; reading the registry directly is the
    # feature.
    "tools/mecoff_cli.cpp",
    # The bench metrics reporter dumps the registry as JSON for
    # tools/bench_gate.py, once per bench run.
    "bench/support/reporting.cpp",
}

# (path, function) pairs whose discarded Result return is deliberate.
# Every entry needs a comment saying why ignoring the error is correct.
RESULT_DISCARD_ALLOWLIST = set()

RAW_SYNC_PATTERN = re.compile(
    r"std::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|scoped_lock|unique_lock|shared_lock)\b"
)

# printf-style floating-point conversions inside string literals:
# %[flags][width][.precision][length]{f,F,e,E,g,G,a,A}
PRINTF_FLOAT_PATTERN = re.compile(
    r"%[-+ #0]*(?:\d+|\*)?(?:\.(?:\d+|\*))?[lL]?[fFeEgGaA]"
)

TO_STRING_CALL_PATTERN = re.compile(r"std::to_string\s*\(\s*([^()]*?)\s*\)")
FLOAT_LITERAL_PATTERN = re.compile(
    r"^(?:\d+\.\d*|\.\d+|\d+[eE][-+]?\d+)[fF]?$|^\d+\.\d*[fF]$"
)
FLOAT_CAST_PATTERN = re.compile(r"^static_cast<\s*(?:double|float|long double)\s*>")
FLOAT_DECL_PATTERN = re.compile(
    r"\b(?:double|float|long double)\s+(\w+)\s*[=;,)({]"
)

NONDET_PATTERNS = (
    (re.compile(r"(?<![\w:])(?:std::)?rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w:])(?:std::)?srand\s*\("), "srand()"),
    (re.compile(r"std::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time() seeding"),
)

ENDL_PATTERN = re.compile(r"std::endl\b")

OBS_DIRECT_PATTERNS = (
    (re.compile(r"\bobs::TraceSpan\b|(?<![\w:])TraceSpan\b"),
     "TraceSpan (use MECOFF_TRACE_SPAN)"),
    (re.compile(r"\bMetricsRegistry::global\b"),
     "MetricsRegistry::global (use MECOFF_COUNTER / MECOFF_GAUGE)"),
)

CAST_PATTERN = re.compile(r"\breinterpret_cast\b")

# Function (or method) names declared as `Result<...> name(...)`.
# Harvested from EVERY scanned file before the per-file checks run, so
# a call site in one file sees declarations from another.
RESULT_DECL_PATTERN = re.compile(
    r"\bResult<[^;{}()]*>\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")

# `...).value(` — .value() chained directly onto a call result.
NAKED_VALUE_PATTERN = re.compile(r"\)\s*\.\s*value\s*\(")
# The sanctioned unwrap: std::move(<already-checked lvalue>).value().
STD_MOVE_TAIL_PATTERN = re.compile(r"(?:std\s*::\s*)?move\s*$")


def find_matching_paren(code, open_idx):
    """Index of the ')' matching code[open_idx] == '(', or None."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return None


def find_open_paren(code, close_idx):
    """Index of the '(' matching code[close_idx] == ')', or None."""
    depth = 0
    for i in range(close_idx, -1, -1):
        if code[i] == ")":
            depth += 1
        elif code[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return None


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def to_json(self):
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text, keep_literals):
    """Blank out comments (and optionally string/char literals) while
    preserving line structure, so regex rules don't fire on prose and
    reported line numbers stay exact."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_terminator = ""
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
                # Raw string literal R"delim( ... )delim"
                if text[i - 1 : i] == "R" or text[i - 2 : i] in ('uR', 'UR'):
                    match = re.match(r'"([^ ()\\\t\n]{0,16})\(', text[i:])
                    if match:
                        raw_terminator = ")" + match.group(1) + '"'
                        state = "raw"
                        out.append(c)
                        i += 1
                        continue
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(c + nxt if keep_literals else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(c if keep_literals else (c if c == "\n" else " "))
            i += 1
        else:  # raw
            if text.startswith(raw_terminator, i):
                out.append(raw_terminator)
                i += len(raw_terminator)
                state = "code"
                continue
            out.append(c if (keep_literals or c == "\n") else " ")
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def is_float_expression(arg, float_vars):
    """Heuristic: does this std::to_string argument look floating-point?"""
    arg = arg.strip()
    if not arg:
        return False
    if FLOAT_LITERAL_PATTERN.match(arg):
        return True
    if FLOAT_CAST_PATTERN.match(arg):
        return True
    # A bare identifier (optionally member access) declared as a float
    # type earlier in the file.
    tail = arg.split(".")[-1].split("->")[-1].strip()
    return tail in float_vars


def in_tree_scope(rel, *prefixes):
    rel = rel.replace(os.sep, "/")
    return any(rel == p or rel.startswith(p + "/") for p in prefixes)


def check_file(rel, code, code_with_literals, findings, tree_mode,
               result_names):
    """Run every applicable rule over one pre-stripped file.

    In tree mode rules apply only to their designated subtrees; with
    explicit file arguments (fixture mode) every rule applies.
    `result_names` is the cross-file harvest of functions declared to
    return Result<...> (see RESULT_DECL_PATTERN).
    """
    apply_src_rules = (not tree_mode) or in_tree_scope(
        rel, "src", "tools", "bench")

    # raw-sync: wrapper-only synchronization.
    if apply_src_rules and rel != SYNC_WRAPPER:
        for match in RAW_SYNC_PATTERN.finditer(code):
            findings.append(Finding(
                "raw-sync", rel, line_of(code, match.start()),
                f"raw {match.group(0)} — use mecoff::Mutex / MutexLock / "
                f"CondVar from common/thread_annotations.hpp so the clang "
                f"thread-safety analysis sees this lock site"))

    # float-format: locale-dependent float serialization.
    if apply_src_rules:
        float_vars = set(FLOAT_DECL_PATTERN.findall(code))
        for match in TO_STRING_CALL_PATTERN.finditer(code):
            if is_float_expression(match.group(1), float_vars):
                findings.append(Finding(
                    "float-format", rel, line_of(code, match.start()),
                    f"std::to_string({match.group(1).strip()}) on a "
                    f"floating-point value — use format_fixed/format_general "
                    f"(common/strings.hpp); to_string follows LC_NUMERIC"))
        for match in PRINTF_FLOAT_PATTERN.finditer(code_with_literals):
            # Only flag conversions inside string literals; the stripped
            # view keeps literals, so confirm a quote opens this line
            # before the match (cheap and good enough for our tree).
            line_start = code_with_literals.rfind("\n", 0, match.start()) + 1
            prefix = code_with_literals[line_start:match.start()]
            if prefix.count('"') % 2 == 1:
                findings.append(Finding(
                    "float-format", rel,
                    line_of(code_with_literals, match.start()),
                    f"printf float conversion '{match.group(0)}' — use "
                    f"format_fixed/format_general (common/strings.hpp); "
                    f"printf follows LC_NUMERIC"))

    # nondeterminism: unseeded/wall-clock randomness in solver/sim code.
    if apply_src_rules:
        for pattern, name in NONDET_PATTERNS:
            for match in pattern.finditer(code):
                findings.append(Finding(
                    "nondeterminism", rel, line_of(code, match.start()),
                    f"{name} — all randomness must flow through the seeded "
                    f"mecoff::Rng (common/rng.hpp) so runs replay exactly"))

    # no-endl: applies to every scanned tree (src, tools, bench, examples).
    for match in ENDL_PATTERN.finditer(code):
        findings.append(Finding(
            "no-endl", rel, line_of(code, match.start()),
            "std::endl flushes on every use — write '\\n'"))

    # obs-facade: direct obs types outside src/obs/, except the listed
    # deliberate embedders.
    obs_scope = (not tree_mode) or (
        in_tree_scope(rel, "src", "tools", "bench")
        and not in_tree_scope(rel, "src/obs")
        and rel not in OBS_FACADE_ALLOWLIST)
    if obs_scope:
        for pattern, name in OBS_DIRECT_PATTERNS:
            for match in pattern.finditer(code):
                findings.append(Finding(
                    "obs-facade", rel, line_of(code, match.start()),
                    f"direct use of {name} outside src/obs/ — use the "
                    f"MECOFF_* macros: check_consistency.py sees only keys "
                    f"recorded through them, and they cache the instrument "
                    f"instead of locking the registry on every call"))

    # reinterpret-cast: audited-sites-only.
    if apply_src_rules:
        budget = CAST_ALLOWLIST.get(rel, 0)
        matches = list(CAST_PATTERN.finditer(code))
        if len(matches) > budget:
            for match in matches[budget:]:
                findings.append(Finding(
                    "reinterpret-cast", rel, line_of(code, match.start()),
                    f"reinterpret_cast beyond this file's audited budget "
                    f"({budget}) — confine the cast to a named, commented "
                    f"helper and extend CAST_ALLOWLIST in tools/"
                    f"lint_mecoff.py with the justification"))

    # result-contract (a): naked .value() chained onto a call.
    if apply_src_rules:
        for match in NAKED_VALUE_PATTERN.finditer(code):
            open_idx = find_open_paren(code, match.start())
            if open_idx is not None and STD_MOVE_TAIL_PATTERN.search(
                    code[:open_idx]):
                continue  # std::move(checked).value() — sanctioned unwrap
            findings.append(Finding(
                "result-contract", rel, line_of(code, match.start()),
                "naked .value() on a call result — the error path is "
                "untested; bind the Result, check ok(), then unwrap with "
                "std::move(r).value()"))

    # result-contract (b): statement-position call to a Result-returning
    # function with the return value discarded.
    if apply_src_rules and result_names:
        check_discarded_results(code, rel, result_names, findings)
    return 0


def check_discarded_results(code, rel, result_names, findings):
    """Flag `f(...);` statements where f is declared to return Result."""
    name_alt = "|".join(sorted(re.escape(n) for n in result_names))
    call_pattern = re.compile(
        r"(?:[A-Za-z_]\w*\s*(?:\.|->)\s*|(?:[A-Za-z_]\w*\s*::\s*)+)?"
        r"\b(" + name_alt + r")\s*\(")
    for match in call_pattern.finditer(code):
        start = match.start()
        # Statement position: the previous non-whitespace character ends
        # a statement or opens a block (or this is the file start).
        j = start - 1
        while j >= 0 and code[j] in " \t\n":
            j -= 1
        if j >= 0 and code[j] not in ";{}":
            continue
        open_idx = code.index("(", match.end(1))
        close_idx = find_matching_paren(code, open_idx)
        if close_idx is None:
            continue
        k = close_idx + 1
        while k < len(code) and code[k] in " \t\n":
            k += 1
        if k >= len(code) or code[k] != ";":
            continue  # chained / compared / part of a larger expression
        name = match.group(1)
        if (rel, name) in RESULT_DISCARD_ALLOWLIST:
            continue
        findings.append(Finding(
            "result-contract", rel, line_of(code, start),
            f"discarded Result from {name}(...) — handle or propagate the "
            f"error (or add ({rel!r}, {name!r}) to RESULT_DISCARD_ALLOWLIST "
            f"with a justification)"))


def collect_tree_files(root):
    files = []
    for tree_dir in TREE_DIRS:
        base = os.path.join(root, tree_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        description="mecoff concurrency & determinism linter")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--root", default=None,
                        help="repo root for tree mode (default: the "
                             "directory containing tools/)")
    parser.add_argument("files", nargs="*",
                        help="explicit files to lint (fixture mode: every "
                             "rule applies regardless of path)")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(root)

    tree_mode = not args.files
    if args.files:
        paths = []
        for path in args.files:
            abspath = os.path.abspath(path)
            rel = os.path.relpath(abspath, root)
            if rel.startswith(".."):
                rel = os.path.basename(abspath)
            paths.append((abspath, rel))
    else:
        tree_files = collect_tree_files(root)
        if not tree_files:
            print(f"lint_mecoff: no sources found under {root}",
                  file=sys.stderr)
            return 2
        paths = [(p, os.path.relpath(p, root)) for p in tree_files]

    # Phase 1: read + strip every file once, harvesting Result-returning
    # function names across the whole scan set.
    records = []
    result_names = set()
    for abspath, rel in paths:
        try:
            with open(abspath, "r", encoding="utf-8",
                      errors="replace") as handle:
                raw = handle.read()
        except OSError as err:
            print(f"lint_mecoff: cannot read {abspath}: {err}",
                  file=sys.stderr)
            return 2
        rel = rel.replace(os.sep, "/")
        code = strip_comments(raw, keep_literals=False)
        code_with_literals = strip_comments(raw, keep_literals=True)
        result_names.update(RESULT_DECL_PATTERN.findall(code))
        records.append((rel, code, code_with_literals))

    # Phase 2: the per-file rules.
    findings = []
    status = 0
    for rel, code, code_with_literals in records:
        status = max(status, check_file(rel, code, code_with_literals,
                                        findings, tree_mode, result_names))

    if status == 2:
        return 2

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    if args.json:
        print(json.dumps({
            "schema": SCHEMA,
            "findings": [f.to_json() for f in findings],
            "count": len(findings),
        }, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"lint_mecoff: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
