#!/usr/bin/env python3
"""Cross-artifact consistency checker for the mecoff tree (stdlib only).

Two passes, both bidirectional:

  metrics  Every metric key recorded through the MECOFF_* macros in
           `src/` must appear in the canonical instrument table in
           docs/observability.md (between the `<!-- metrics-table:
           begin/end -->` markers) with the right kind -- and every
           documented key must still exist in the source. Catches
           silently renamed/retired instruments and doc rot in both
           directions.

  labels   Every ctest label declared in a CMakeLists.txt (`LABELS
           foo`) must have a CI workflow step that runs `ctest -L foo`
           -- and every `-L foo` in a workflow must reference a label
           that still exists. A label without a CI step is a test
           suite that can rot unnoticed; a stale `-L` is a CI step
           that silently runs zero tests.

Rules emitted:
  metric-undocumented   key recorded in src/ but absent from the table
  metric-unknown        key documented but never recorded in src/
  metric-kind-mismatch  documented kind != recorded kind
  label-missing-ci-step ctest label with no `ctest -L <label>` CI step
  label-unknown         CI `-L <label>` with no such ctest label

Usage:
  check_consistency.py [--json] [--root DIR]

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
JSON schema: mecoff.consistency.v1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lint_mecoff import strip_comments  # noqa: E402  (same-dir tool import)

SCHEMA = "mecoff.consistency.v1"

MACRO_KINDS = {
    "MECOFF_COUNTER_ADD": "counter",
    "MECOFF_GAUGE_ADD": "gauge",
    "MECOFF_GAUGE_SET": "gauge",
    "MECOFF_QUANTILES_RECORD_ID": "quantiles",
}
MACRO_PATTERN = re.compile(
    r"\b(" + "|".join(MACRO_KINDS) + r")\s*\(\s*\"([^\"]+)\"")
TABLE_BEGIN = "<!-- metrics-table:begin -->"
TABLE_END = "<!-- metrics-table:end -->"
TABLE_ROW_PATTERN = re.compile(
    r"^\|\s*`([^`]+)`\s*\|\s*(\w+)\s*\|")
LABEL_PATTERN = re.compile(r"\bLABELS\s+\"?([A-Za-z_][\w-]*)\"?")
CI_STEP_PATTERN = re.compile(r"\bctest\b[^\n]*?-L\s+([A-Za-z_][\w-]*)")


def iter_files(base, extensions):
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(extensions):
                yield os.path.join(dirpath, name)


def read(path):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


class Checker:
    def __init__(self, root):
        self.root = root
        self.findings = []
        self.recorded = {}    # key -> {"kind", "file", "line"}
        self.documented = {}  # key -> {"kind", "line"}
        self.labels = {}      # label -> (rel, line) of first declaration
        self.ci_steps = {}    # label -> (rel, line) of first `-L` use

    def finding(self, rule, rel, line, message):
        self.findings.append(
            {"rule": rule, "file": rel, "line": line, "message": message})

    def rel(self, path):
        return os.path.relpath(path, self.root)

    # -- metrics pass --------------------------------------------------

    def harvest_recorded(self):
        src = os.path.join(self.root, "src")
        if not os.path.isdir(src):
            raise SystemExit(f"check_consistency: no src/ under {self.root}")
        for path in iter_files(src, (".cpp", ".cc", ".hpp", ".h")):
            code = strip_comments(read(path), True)
            for match in MACRO_PATTERN.finditer(code):
                line_start = code.rfind("\n", 0, match.start()) + 1
                if code[line_start:match.start()].lstrip().startswith("#"):
                    continue  # the macro definitions themselves
                key = match.group(2)
                kind = MACRO_KINDS[match.group(1)]
                entry = self.recorded.get(key)
                if entry is None:
                    self.recorded[key] = {
                        "kind": kind, "file": self.rel(path),
                        "line": line_of(code, match.start())}
                elif entry["kind"] != kind:
                    self.finding(
                        "metric-kind-mismatch", self.rel(path),
                        line_of(code, match.start()),
                        f"'{key}' recorded as {kind} here but as "
                        f"{entry['kind']} at {entry['file']}:"
                        f"{entry['line']} -- a name must map to one "
                        "instrument kind")

    def harvest_documented(self):
        doc_path = os.path.join(self.root, "docs", "observability.md")
        doc_rel = self.rel(doc_path)
        if not os.path.isfile(doc_path):
            self.finding("metric-undocumented", doc_rel, 0,
                         "docs/observability.md is missing")
            return
        text = read(doc_path)
        begin = text.find(TABLE_BEGIN)
        end = text.find(TABLE_END)
        if begin < 0 or end < 0 or end < begin:
            self.finding(
                "metric-undocumented", doc_rel, 0,
                f"no `{TABLE_BEGIN}` .. `{TABLE_END}` table in "
                "docs/observability.md")
            return
        base_line = line_of(text, begin)
        for offset, row in enumerate(text[begin:end].splitlines()):
            match = TABLE_ROW_PATTERN.match(row.strip())
            if not match:
                continue
            key, kind = match.group(1), match.group(2).lower()
            if key in self.documented:
                self.finding(
                    "metric-unknown", doc_rel, base_line + offset,
                    f"'{key}' documented twice")
                continue
            self.documented[key] = {"kind": kind, "line": base_line + offset}
        self.doc_rel = doc_rel

    def check_metrics(self):
        self.harvest_recorded()
        self.harvest_documented()
        for key, entry in sorted(self.recorded.items()):
            doc = self.documented.get(key)
            if doc is None:
                self.finding(
                    "metric-undocumented", entry["file"], entry["line"],
                    f"'{key}' ({entry['kind']}) is recorded here but "
                    "missing from the docs/observability.md instrument "
                    "table")
            elif doc["kind"] != entry["kind"]:
                self.finding(
                    "metric-kind-mismatch", self.doc_rel, doc["line"],
                    f"'{key}' documented as {doc['kind']} but recorded "
                    f"as {entry['kind']} at {entry['file']}:"
                    f"{entry['line']}")
        for key, doc in sorted(self.documented.items()):
            if key not in self.recorded:
                self.finding(
                    "metric-unknown", self.doc_rel, doc["line"],
                    f"'{key}' is documented but no MECOFF_* macro in "
                    "src/ records it -- retired instrument?")

    # -- labels pass ---------------------------------------------------

    def check_labels(self):
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in ("build", ".git", "fixtures")
                and not d.startswith("build"))
            for name in sorted(filenames):
                if name != "CMakeLists.txt":
                    continue
                path = os.path.join(dirpath, name)
                text = read(path)
                for match in LABEL_PATTERN.finditer(text):
                    label = match.group(1)
                    self.labels.setdefault(
                        label, (self.rel(path), line_of(text, match.start())))

        workflows = os.path.join(self.root, ".github", "workflows")
        if os.path.isdir(workflows):
            for path in iter_files(workflows, (".yml", ".yaml")):
                text = read(path)
                for match in CI_STEP_PATTERN.finditer(text):
                    label = match.group(1)
                    self.ci_steps.setdefault(
                        label, (self.rel(path), line_of(text, match.start())))

        for label, (rel, line) in sorted(self.labels.items()):
            if label not in self.ci_steps:
                self.finding(
                    "label-missing-ci-step", rel, line,
                    f"ctest label '{label}' has no `ctest -L {label}` "
                    "step in any .github/workflows/*.yml -- the suite "
                    "can rot without CI noticing")
        for label, (rel, line) in sorted(self.ci_steps.items()):
            if label not in self.labels:
                self.finding(
                    "label-unknown", rel, line,
                    f"CI runs `ctest -L {label}` but no CMakeLists.txt "
                    "declares that label -- the step runs zero tests")

    def report(self):
        self.findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))
        return {
            "schema": SCHEMA,
            "recorded_keys": {
                k: v["kind"] for k, v in sorted(self.recorded.items())},
            "documented_keys": {
                k: v["kind"] for k, v in sorted(self.documented.items())},
            "labels": sorted(self.labels),
            "ci_labels": sorted(self.ci_steps),
            "count": len(self.findings),
            "findings": self.findings,
        }


def main(argv):
    parser = argparse.ArgumentParser(
        description="mecoff metric/CI consistency checker")
    parser.add_argument("--json", action="store_true",
                        help="emit a mecoff.consistency.v1 JSON report")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the repo containing "
                             "this script); fixtures pass a mini-tree")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    checker = Checker(os.path.abspath(root))
    checker.check_metrics()
    checker.check_labels()
    payload = checker.report()

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for finding in payload["findings"]:
            print(f"{finding['file']}:{finding['line']}: "
                  f"[{finding['rule']}] {finding['message']}")
        print(f"check_consistency: {payload['count']} finding(s), "
              f"{len(payload['recorded_keys'])} recorded / "
              f"{len(payload['documented_keys'])} documented key(s), "
              f"{len(payload['labels'])} label(s) / "
              f"{len(payload['ci_labels'])} CI step label(s)")
    return 1 if payload["count"] else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except SystemExit:
        raise
    except Exception as err:  # noqa: BLE001 -- tool boundary
        print(f"check_consistency: internal error: {err}", file=sys.stderr)
        sys.exit(2)
