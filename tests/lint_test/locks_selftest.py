#!/usr/bin/env python3
"""Self-test for tools/analyze_locks.py.

Runs the lock-order analyzer over each seeded-violation fixture and
asserts the exact rule/finding counts and the seeded inversion's
location, then runs it over the real source tree and asserts a clean
exit with every observed nesting covered by a documented edge.
Registered as the `locks_selftest` ctest (label: lint); stdlib only.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ANALYZER = os.path.join(ROOT, "tools", "analyze_locks.py")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture file -> {rule: expected finding count}
EXPECTED = {
    "locks_clean.cpp": {},
    "locks_cycle.cpp": {"lock-order-cycle": 1},
    "locks_inversion.cpp": {"lock-order-inversion": 1,
                            "lock-order-cycle": 1},
    "locks_self_deadlock.cpp": {"self-deadlock": 2},
    "locks_undocumented.cpp": {"undocumented-lock-nesting": 1},
    "locks_unknown.cpp": {"unknown-mutex": 2},
}

# The tree's ground-truth nestings: every one of these pairs must stay
# both observed and documented (see the `// lock-order:` comments the
# paths below point at).
TREE_EDGES = {
    ("FlightRecorder::mutex_", "Quantiles::mutex_"),
    ("MetricsRegistry::mutex_", "Quantiles::mutex_"),
    ("Timeline::mutex_", "MetricsRegistry::mutex_"),
    ("TraceCollector::registry_mutex_", "TraceCollector::ThreadLog::mutex"),
}


def run_analyzer(args):
    proc = subprocess.run(
        [sys.executable, ANALYZER, "--json"] + args,
        capture_output=True, text=True, check=False)
    if proc.returncode == 2:
        raise AssertionError(
            f"analyzer usage/IO error on {args}: {proc.stderr}")
    payload = json.loads(proc.stdout)
    assert payload.get("schema") == "mecoff.locks.v1", payload.get("schema")
    return proc.returncode, payload


def main():
    failures = []

    for fixture, expected in sorted(EXPECTED.items()):
        path = os.path.join(FIXTURES, fixture)
        code, payload = run_analyzer([path])
        by_rule = collections.Counter(
            finding["rule"] for finding in payload["findings"])
        if dict(by_rule) != expected:
            failures.append(
                f"{fixture}: expected {expected}, got {dict(by_rule)}: "
                + "; ".join(
                    f"{f['file']}:{f['line']} [{f['rule']}] {f['message']}"
                    for f in payload["findings"]))
        want_code = 1 if expected else 0
        if code != want_code:
            failures.append(
                f"{fixture}: expected exit {want_code}, got {code}")

    # The seeded inversion must be pinned to the inner acquisition.
    _, payload = run_analyzer(
        [os.path.join(FIXTURES, "locks_inversion.cpp")])
    inversions = [f for f in payload["findings"]
                  if f["rule"] == "lock-order-inversion"]
    if not inversions or inversions[0]["line"] != 20:
        failures.append(
            "locks_inversion.cpp: expected the inversion at line 20, got "
            + json.dumps(inversions))

    # The real tree must be clean, with every observed nesting covered
    # by a documented `// lock-order:` edge -- the gate CI relies on.
    code, payload = run_analyzer(["--root", ROOT])
    if code != 0 or payload["count"] != 0:
        failures.append(
            f"source tree not clean (exit {code}): " + "; ".join(
                f"{f['file']}:{f['line']} [{f['rule']}]"
                for f in payload["findings"]))
    documented = {(e["from"], e["to"]) for e in payload["documented_edges"]}
    observed = {(e["from"], e["to"]) for e in payload["observed_edges"]}
    missing = TREE_EDGES - documented
    if missing:
        failures.append(f"documented edges lost from the tree: {missing}")
    unseen = TREE_EDGES - observed
    if unseen:
        failures.append(f"tree nestings no longer observed: {unseen}")

    if failures:
        print("locks_selftest: FAIL", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    print(f"locks_selftest: OK ({len(EXPECTED)} fixtures, "
          f"{len(observed)} tree edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
