#!/usr/bin/env python3
"""Self-test for tools/bench_gate.py.

Exercises the gate's full contract against synthetic fixtures: the
metrics path (regression), the soak-trajectory path (exact vs
presence-only tolerance assignment, zero-invariant and percentile-order
enforcement even under --update), and the actionable exit-2 diagnostics for missing or
unparseable baselines. Registered as the `bench_gate_selftest` ctest
(label: lint); stdlib only, all fixtures built in a temp dir.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GATE = os.path.join(ROOT, "tools", "bench_gate.py")

METRICS_STDOUT = """some human table
[metrics] {"counters":{"mec.solve.count":7},\
"gauges":{"mec.solve.total_seconds":0.25}}
"""

def trajectory_stdout(requests=100, mismatches=0, wall=0.5, hits=90,
                      sample_requests=50, p50=0.0004):
    doc = {
        "schema": "mecoff.soak_trajectory.v1",
        "title": "bench_soak",
        "phases": [
            {"name": "steady", "clients": 4, "requests": requests,
             "errors": 0, "mismatches": mismatches, "wedged": 0,
             "hits": hits, "wall_seconds": wall, "p50_seconds": p50,
             "p95_seconds": 0.0009, "p99_seconds": 0.001,
             "samples": [
                 {"segment": 1, "requests": sample_requests,
                  "hits": hits // 2, "wall_seconds": wall / 2},
                 {"segment": 2, "requests": requests, "hits": hits,
                  "wall_seconds": wall},
             ]},
        ],
        "totals": {"requests": requests, "errors": 0,
                   "mismatches": mismatches, "wedged": 0,
                   "unanswered": 0, "wall_seconds": wall},
        "invariants_zero": ["totals.errors", "totals.mismatches",
                            "totals.wedged", "totals.unanswered"],
    }
    return ("shape checks...\n[metrics] {\"counters\":{}}\n"
            "[trajectory] " + json.dumps(doc) + "\n")


def run_gate(args):
    return subprocess.run([sys.executable, GATE] + args,
                          capture_output=True, text=True, check=False)


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}" + (f": {detail}" if detail and not ok
                                    else ""))
    return ok


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        def write(rel, text):
            path = os.path.join(tmp, rel)
            with open(path, "w") as out:
                out.write(text)
            return path

        # -- metrics path (regression) --------------------------------
        cand = write("metrics.out", METRICS_STDOUT)
        base = os.path.join(tmp, "baseline.json")
        p = run_gate(["--update", cand, base])
        failures += not check("metrics --update exits 0", p.returncode == 0,
                              p.stderr)
        spec = json.load(open(base))
        failures += not check(
            "metrics tolerances: counter exact, seconds presence-only",
            spec["metrics"]["counters.mec.solve.count"]["tol"] == 0.0 and
            spec["metrics"]["gauges.mec.solve.total_seconds"]["tol"] is None)
        p = run_gate([cand, base])
        failures += not check("metrics gate passes against itself",
                              p.returncode == 0, p.stdout + p.stderr)

        # -- missing baseline: exit 2 with the --update hint ----------
        p = run_gate([cand, os.path.join(tmp, "nonexistent.json")])
        failures += not check("missing baseline exits 2", p.returncode == 2)
        failures += not check("missing baseline names --update",
                              "--update" in p.stderr, p.stderr)

        # -- unparseable baseline: exit 2 with the --update hint ------
        broken = write("broken.json", "{not json")
        p = run_gate([cand, broken])
        failures += not check("unparseable baseline exits 2",
                              p.returncode == 2)
        failures += not check("unparseable baseline names --update",
                              "--update" in p.stderr, p.stderr)
        wrong = write("wrong_schema.json", json.dumps({"schema": "nope"}))
        p = run_gate([cand, wrong])
        failures += not check("wrong-schema baseline exits 2",
                              p.returncode == 2)
        failures += not check("wrong-schema baseline names --update",
                              "--update" in p.stderr, p.stderr)

        # -- trajectory path ------------------------------------------
        soak = write("soak.out", trajectory_stdout())
        soak_base = os.path.join(tmp, "soak_baseline.json")
        p = run_gate(["--update", soak, soak_base])
        failures += not check("trajectory --update exits 0",
                              p.returncode == 0, p.stderr)
        spec = json.load(open(soak_base))
        failures += not check(
            "trajectory tolerances: requests exact, hits/wall presence-only",
            spec["metrics"]["phases.steady.requests"]["tol"] == 0.0 and
            spec["metrics"]["totals.requests"]["tol"] == 0.0 and
            spec["metrics"]["phases.steady.hits"]["tol"] is None and
            spec["metrics"]["totals.wall_seconds"]["tol"] is None)
        failures += not check(
            "curve samples flatten: .requests exact, rest presence-only",
            spec["metrics"]["phases.steady.samples.0.requests"]["tol"]
            == 0.0 and
            spec["metrics"]["phases.steady.samples.1.requests"]["tol"]
            == 0.0 and
            spec["metrics"]["phases.steady.samples.0.hits"]["tol"] is None
            and
            spec["metrics"]["phases.steady.samples.0.wall_seconds"]["tol"]
            is None)
        p = run_gate([soak, soak_base])
        failures += not check("trajectory gate passes against itself",
                              p.returncode == 0, p.stdout + p.stderr)

        # Timing/provenance drift passes; load-shape drift fails.
        drift_ok = write("soak_timing.out",
                         trajectory_stdout(wall=9.9, hits=42))
        p = run_gate([drift_ok, soak_base])
        failures += not check("timing/provenance drift passes",
                              p.returncode == 0, p.stdout + p.stderr)
        drift_bad = write("soak_shape.out", trajectory_stdout(requests=99))
        p = run_gate([drift_bad, soak_base])
        failures += not check("load-shape drift fails", p.returncode == 1,
                              p.stdout)
        curve_bad = write("soak_curve.out",
                          trajectory_stdout(sample_requests=49))
        p = run_gate([curve_bad, soak_base])
        failures += not check("curve sample-position drift fails",
                              p.returncode == 1, p.stdout)

        # Zero-invariant violations fail, even under --update.
        broken_soak = write("soak_broken.out",
                            trajectory_stdout(mismatches=3))
        p = run_gate([broken_soak, soak_base])
        failures += not check("invariant violation fails the gate",
                              p.returncode == 1 and
                              "invariant violated" in p.stdout, p.stdout)
        p = run_gate(["--update", broken_soak,
                      os.path.join(tmp, "never_written.json")])
        failures += not check(
            "invariant violation blocks --update",
            p.returncode == 1 and
            not os.path.exists(os.path.join(tmp, "never_written.json")),
            p.stdout)

        # Percentiles out of order (p50 > p95) fail, even under
        # --update, for trajectory phases and quantile instruments.
        unsorted_soak = write("soak_unsorted.out",
                              trajectory_stdout(p50=0.002))
        p = run_gate([unsorted_soak, soak_base])
        failures += not check("phase p50 > p95 fails the gate",
                              p.returncode == 1 and
                              "phases.steady: percentiles out of order"
                              in p.stdout, p.stdout)
        p = run_gate(["--update", unsorted_soak,
                      os.path.join(tmp, "never_written.json")])
        failures += not check(
            "phase p50 > p95 blocks --update",
            p.returncode == 1 and
            not os.path.exists(os.path.join(tmp, "never_written.json")),
            p.stdout)
        unsorted_metrics = write(
            "metrics_unsorted.out",
            '[metrics] {"quantiles":{"serve.solve.latency":{"count":9,'
            '"sum":0.1,"window":9,"p50":0.01,"p95":0.03,"p99":0.02}}}\n')
        p = run_gate(["--update", unsorted_metrics,
                      os.path.join(tmp, "never_written.json")])
        failures += not check(
            "quantile p95 > p99 blocks --update",
            p.returncode == 1 and
            "quantiles.serve.solve.latency: percentiles out of order"
            in p.stdout and
            not os.path.exists(os.path.join(tmp, "never_written.json")),
            p.stdout)

    if failures:
        print(f"bench_gate_selftest: {failures} checks FAILED")
        return 1
    print("bench_gate_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
