#!/usr/bin/env python3
"""bench_gate.py — regression gate over a bench's machine-readable line.

The benches print one machine-readable line per run — either a metrics
registry dump or (bench_soak) a chaos-soak trajectory:

    [metrics] {"counters":{...},"gauges":{...},"histograms":{...},...}
    [trajectory] {"schema":"mecoff.soak_trajectory.v1","phases":[...],
                  "totals":{...},"invariants_zero":[...]}

This gate flattens the document into dotted scalars (`kind.name[.field]`
for metrics, `phases.<name>.<field>` / `totals.<field>` for a
trajectory, `phases.<name>.samples.<i>.<field>` for a phase's
segment-curve samples) and compares them against a committed baseline with
per-metric tolerance bands, so structural drift (a counter that should
be bit-stable across machines changing value, an instrument or phase
disappearing) fails CI while wall-clock noise does not.

Usage:
    bench_gate.py <bench-output-or-json> <baseline.json>
    bench_gate.py --update <bench-output-or-json> <baseline.json>

The first positional argument is either a file containing raw bench
stdout (the LAST `[trajectory]` line wins when present, else the LAST
`[metrics]` line) or a bare JSON document (a `*.metrics.json` written
via MECOFF_BENCH_CSV_DIR, or a trajectory written via `out=`). `-`
reads stdin.

Baseline schema (mecoff.bench_gate.v1):

    {"schema": "mecoff.bench_gate.v1",
     "metrics": {"counters.mec.solve.runs": {"value": 15, "tol": 0.0},
                 "gauges.mec.solve.total_seconds": {"value": 0.1,
                                                     "tol": null}}}

Per metric: relative error |cand - base| / max(|base|, 1e-12) must stay
within `tol`; `tol: null` means presence-only (timings: the value is
recorded for humans, never compared). Baseline metrics missing from the
candidate always fail. Candidate metrics missing from the baseline are
reported but pass (new instruments should not break old gates); commit
a refreshed baseline to start tracking them.

A trajectory document's `invariants_zero` list names flattened keys
that must be EXACTLY zero in the candidate (unanswered requests,
placement mismatches, wedged responses). They are enforced on every
run, `--update` included — a broken soak can never become the baseline.
So is percentile order: every trajectory phase and quantile instrument
must satisfy p50 <= p95 <= p99.

`--update` rewrites the baseline from the candidate, assigning
tolerances by the default policy: timing-like metrics (names containing
"seconds", "latency", "rate", or any histogram/quantile `.sum`,
quantile `.p*` / `.window`) are presence-only, as is every trajectory
entry except the load-shape and invariant counts (requests, clients,
errors, mismatches, wedged, unanswered — the soak's timing-dependent
provenance splits may drift, its correctness counts may not);
everything else is exact. Exit codes: 0 pass, 1 gate failure, 2
usage/input error.
"""

import json
import re
import sys

SCHEMA = "mecoff.bench_gate.v1"
TRAJECTORY_SCHEMA = "mecoff.soak_trajectory.v1"
EPS = 1e-12

# Metrics whose VALUE is machine-dependent: compared for presence only.
_TIMING_PATTERN = re.compile(
    r"(seconds|latency|rate|duration)"
    r"|(^(histograms|quantiles)\..*\.sum$)"
    r"|(^quantiles\..*\.(p50|p95|p99|window)$)"
)

# Trajectory entries that are deterministic by construction (the load
# shape) or invariants: compared exactly. The rest (hit/coalesced/hedge
# splits, percentiles, wall clocks) are scheduling-dependent.
_TRAJECTORY_EXACT = re.compile(
    r"(^|\.)(requests|clients|errors|mismatches|wedged|unanswered)$"
)

# A trajectory phase's or quantile instrument's percentiles:
# phases.<name>.p95_seconds, quantiles.<name>.p95.
_PERCENTILE_KEY = re.compile(r"^((?:phases|quantiles)\..*)\.p(50|95|99)"
                             r"(?:_seconds)?$")


def read_metrics(path):
    """Load a metrics/trajectory document from bench stdout or JSON."""
    text = sys.stdin.read() if path == "-" else open(path).read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    doc = None
    # A soak bench prints both lines; the trajectory is its contract.
    for tag in ("[trajectory] {", "[metrics] {"):
        for line in text.splitlines():
            line = line.strip()
            if line.startswith(tag):
                doc = line[len(tag) - 1:]
        if doc is not None:
            break
    if doc is None:
        raise ValueError(f"no [metrics] or [trajectory] line in {path}")
    return json.loads(doc)


def flatten(doc):
    """Metrics or trajectory JSON -> {'dotted.key': scalar}."""
    if doc.get("schema") == TRAJECTORY_SCHEMA:
        flat = {}
        for phase in doc.get("phases", []):
            name = phase["name"]
            for field, value in phase.items():
                if field == "name":
                    continue
                if isinstance(value, list):
                    # Per-phase curves (e.g. "samples": [{...}, ...]):
                    # one dotted scalar per sample field. The curve's
                    # shape keys (.requests: the barrier positions) gate
                    # exactly; its timing/provenance values are
                    # presence-only like everything else.
                    for i, point in enumerate(value):
                        for sub, subvalue in point.items():
                            flat[f"phases.{name}.{field}.{i}.{sub}"] = \
                                subvalue
                    continue
                flat[f"phases.{name}.{field}"] = value
        for field, value in doc.get("totals", {}).items():
            flat[f"totals.{field}"] = value
        return flat
    flat = {}
    for name, value in doc.get("counters", {}).items():
        flat[f"counters.{name}"] = value
    for name, value in doc.get("gauges", {}).items():
        flat[f"gauges.{name}"] = value
    for name, h in doc.get("histograms", {}).items():
        flat[f"histograms.{name}.count"] = h["count"]
        flat[f"histograms.{name}.sum"] = h["sum"]
    for name, q in doc.get("quantiles", {}).items():
        flat[f"quantiles.{name}.count"] = q["count"]
        flat[f"quantiles.{name}.sum"] = q["sum"]
        flat[f"quantiles.{name}.window"] = q.get("window", 0)
        for p in ("p50", "p95", "p99"):
            if p in q:
                flat[f"quantiles.{name}.{p}"] = q[p]
    return flat


def default_tolerance(key):
    """None (presence-only) for timing-like metrics, exact otherwise."""
    if key.startswith("phases.") or key.startswith("totals."):
        return 0.0 if _TRAJECTORY_EXACT.search(key) else None
    return None if _TIMING_PATTERN.search(key) else 0.0


def check_invariants(doc, flat):
    """Zero-invariant violations as failure strings (trajectory only)."""
    failures = []
    for key in doc.get("invariants_zero", []):
        value = flat.get(key)
        if value is None:
            failures.append(f"{key}: invariant key missing from candidate")
        elif value != 0:
            failures.append(f"{key}: invariant violated ({value} != 0)")
    return failures


def check_percentile_order(flat):
    """Instruments whose p50 > p95 or p95 > p99, as failure strings."""
    groups = {}
    for key, value in flat.items():
        match = _PERCENTILE_KEY.match(key)
        if match:
            groups.setdefault(match.group(1), {})[match.group(2)] = value
    failures = []
    for name, quantiles in sorted(groups.items()):
        present = [(p, quantiles[p]) for p in ("50", "95", "99")
                   if p in quantiles]
        if any(lo[1] > hi[1] for lo, hi in zip(present, present[1:])):
            shown = ", ".join(f"p{p}={v}" for p, v in present)
            failures.append(f"{name}: percentiles out of order ({shown})")
    return failures


def update_baseline(flat, path):
    metrics = {
        key: {"value": flat[key], "tol": default_tolerance(key)}
        for key in sorted(flat)
    }
    with open(path, "w") as out:
        json.dump({"schema": SCHEMA, "metrics": metrics}, out, indent=1,
                  sort_keys=True)
        out.write("\n")
    print(f"bench_gate: wrote {path} ({len(metrics)} metrics)")
    return 0


def run_gate(flat, baseline_path):
    baseline = json.load(open(baseline_path))
    if baseline.get("schema") != SCHEMA:
        print(f"bench_gate: {baseline_path} is not a {SCHEMA} document; "
              f"run with --update to recreate it", file=sys.stderr)
        return 2
    failures = []
    checked = skipped = 0
    for key, spec in sorted(baseline["metrics"].items()):
        if key not in flat:
            failures.append(f"{key}: missing from candidate "
                            f"(baseline {spec['value']})")
            continue
        if spec["tol"] is None:
            skipped += 1
            continue
        checked += 1
        base, cand = float(spec["value"]), float(flat[key])
        err = abs(cand - base) / max(abs(base), EPS)
        if err > spec["tol"]:
            failures.append(f"{key}: {cand} vs baseline {base} "
                            f"(rel err {err:.3g} > tol {spec['tol']:.3g})")
    extra = sorted(set(flat) - set(baseline["metrics"]))
    if extra:
        print(f"bench_gate: {len(extra)} metrics not in baseline "
              f"(pass; refresh with --update to track): "
              + ", ".join(extra[:8]) + ("..." if len(extra) > 8 else ""))
    if failures:
        print(f"bench_gate: FAIL ({len(failures)} of "
              f"{len(baseline['metrics'])} baseline metrics)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"bench_gate: OK ({checked} compared, {skipped} presence-only)")
    return 0


def main(argv):
    args = [a for a in argv[1:] if a != "--update"]
    update = "--update" in argv[1:]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        doc = read_metrics(args[0])
        flat = flatten(doc)
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_gate: cannot read candidate: {err}", file=sys.stderr)
        return 2
    # Invariants gate every run, --update included: a soak run with
    # unanswered/mismatched/wedged requests, or percentiles out of
    # order, can never become a baseline.
    violations = check_invariants(doc, flat) + check_percentile_order(flat)
    if violations:
        print(f"bench_gate: FAIL ({len(violations)} invariant "
              f"violations)")
        for violation in violations:
            print(f"  {violation}")
        return 1
    if update:
        return update_baseline(flat, args[1])
    try:
        return run_gate(flat, args[1])
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_gate: cannot read baseline: {err}; run with "
              f"--update to create it from this candidate",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
