#!/usr/bin/env python3
"""Compares two sets of perf-ladder records (run.py --out files).

    python3 perfbench/compare.py BASE.jsonl CANDIDATE.jsonl

Absolute numbers compare only within one host fingerprint (core count,
CPU model, compiler, build type): if any record's fingerprint differs
from the others, the comparison is refused (exit 2). Otherwise, per
workload and end-to-end metric, it prints both medians and quartiles
and flags a change worse than the metric's bound in BENCHMARK.json
(exit 1). For a workload that regressed, the traced records' layer
breakdowns name the layer whose share of the end-to-end number grew
most.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprint_mismatch(base, cand):
    """A description of the first differing fingerprint, or None."""
    records = base + cand
    if not records:
        return None
    first = records[0]["fingerprint"]
    for r in records[1:]:
        if r["fingerprint"] != first:
            return "%s vs %s" % (json.dumps(first), json.dumps(r["fingerprint"]))
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_shares(records):
    """Mean share of each (total, part) over traced records."""
    shares = {}
    for r in records:
        for p in r.get("breakdown", []):
            shares.setdefault((p["total"], p["part"]), []).append(p["share"])
    return {k: statistics.mean(v) for k, v in shares.items()}


def grown_layer(base, cand):
    """(total, part, growth in share points) of the largest share gain."""
    before, after = layer_shares(base), layer_shares(cand)
    best = None
    for key in after:
        if key not in before:
            continue
        growth = after[key] - before[key]
        if best is None or growth > best[2]:
            best = (key[0], key[1], growth)
    return best


def compare(base, cand, spec, out=sys.stdout):
    """Prints the comparison; returns 0 clean, 1 regression, 2 refused."""
    mismatch = fingerprint_mismatch(base, cand)
    if mismatch:
        print("refused: records come from different hosts or builds "
              "(%s); absolute numbers do not compare" % mismatch, file=out)
        return 2
    regressed = False
    for w in [w["name"] for w in spec["workloads"]]:
        b0 = [r for r in base if r["workload"] == w and r["trace"] == 0]
        c0 = [r for r in cand if r["workload"] == w and r["trace"] == 0]
        if not b0 or not c0:
            continue
        print("%s (%d vs %d runs)" % (w, len(b0), len(c0)), file=out)
        worse_here = False
        for m in spec["end_to_end"]:
            name = m["name"]
            bq = quartiles([r["metrics"][name]["value"] for r in b0])
            cq = quartiles([r["metrics"][name]["value"] for r in c0])
            change = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = -change if m["better"] == "higher" else change
            flag = ""
            if worse > m["bound"]:
                flag = "  REGRESSION (bound %.0f%%)" % (100 * m["bound"])
                worse_here = True
            print("  %-16s base %12.6g [%.6g, %.6g]  cand %12.6g [%.6g, %.6g]"
                  "  %+6.1f%%%s" % (name, bq[1], bq[0], bq[2], cq[1], cq[0],
                                   cq[2], 100 * change, flag), file=out)
        if worse_here:
            regressed = True
            b1 = [r for r in base if r["workload"] == w and r["trace"] == 1]
            c1 = [r for r in cand if r["workload"] == w and r["trace"] == 1]
            layer = grown_layer(b1, c1) if b1 and c1 else None
            if layer:
                print("  layer whose share grew most: %s in %s (%+.1f points)"
                      % (layer[1], layer[0], 100 * layer[2]), file=out)
            else:
                print("  (no traced records on both sides to name a layer)",
                      file=out)
    return 1 if regressed else 0


def selftest():
    """Checks the fingerprint refusal and the layer naming; 0 if ok."""
    import io
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "op_p50_us", "better": "lower",
                            "bound": 0.1}]}
    host = {"cores": 4, "cpu": "x", "compiler": "gcc", "build_type": "Release"}

    def record(trace, p50, shares):
        return {"workload": "w", "trace": trace, "fingerprint": host,
                "metrics": {"op_p50_us": {"value": p50}},
                "breakdown": [{"total": "t", "part": k, "share": v}
                              for k, v in shares.items()]}

    base = [record(0, 100.0, {}), record(1, 100.0, {"a": 0.5, "b": 0.5})]
    slow = [record(0, 150.0, {}), record(1, 150.0, {"a": 0.3, "b": 0.7})]
    other = [dict(r, fingerprint=dict(host, cores=8)) for r in base]
    failures = 0
    checks = [
        ("refuses across fingerprints", compare(base, other, spec,
                                                io.StringIO()) == 2),
        ("same records are clean", compare(base, base, spec,
                                           io.StringIO()) == 0),
    ]
    text = io.StringIO()
    checks.append(("flags a regression", compare(base, slow, spec, text) == 1))
    checks.append(("names the grown layer",
                   "layer whose share grew most: b" in text.getvalue()))
    for name, ok in checks:
        print("%s compare: %s" % ("ok  " if ok else "FAIL", name))
        failures += 0 if ok else 1
    return failures


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    return compare(load(sys.argv[1]), load(sys.argv[2]), spec)


if __name__ == "__main__":
    sys.exit(main())
