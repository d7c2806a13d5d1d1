#!/usr/bin/env python3
"""Builds the perf ladder from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--out FILE]
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
rebuild what changed. Build output goes to stderr; stdout carries the
report and, as its last line, the benchmark's JSON result. --out
appends the run's full record (fingerprint, every printed metric, the
layer breakdown) as one JSON line, the input of perfbench/compare.py. A
traced run also writes its span log to
.bench_build/spans_<workload>_<seed>.csv.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
TARGETS = ["perf_ladder", "perfbench_selftest"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    generated = [os.path.join(BUILD, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"]
    if subprocess.run(compile_cmd + TARGETS,
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def binary(name):
    return os.path.join(BUILD, name)


def listed_names():
    """(workloads, end_to_end, per_layer) as the program prints them."""
    out = subprocess.run([binary("perf_ladder"), "--list-names"],
                         stdout=subprocess.PIPE, text=True, check=True)
    names = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in out.stdout.splitlines():
        kind, rest = line.split(" ", 1)
        names[kind].append(tuple(rest.split(" ")) if kind != "workload"
                           else rest)
    return names


def spec_names(spec):
    return {
        "workload": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def selftest():
    build()
    failures = 0
    if subprocess.run([binary("perfbench_selftest")]).returncode != 0:
        failures += 1
    printed, wanted = listed_names(), spec_names(load_spec())
    for kind in wanted:
        if printed[kind] != wanted[kind]:
            print("FAIL %s names: program prints %s, BENCHMARK.json has %s"
                  % (kind, printed[kind], wanted[kind]))
            failures += 1
        else:
            print("ok   %s names match BENCHMARK.json (%d)"
                  % (kind, len(wanted[kind])))
    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True
    import compare
    failures += compare.selftest()
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def run(args):
    spec = load_spec()
    build()
    cmd = [binary("perf_ladder"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans_%s_%d.csv" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("perf_ladder exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[kind]]
    if list(result["metrics"]) != wanted:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (list(result["metrics"]), wanted))
    if args.out:
        record = next(l for l in lines if l.startswith("record: "))
        with open(args.out, "a") as f:
            f.write(record[len("record: "):] + "\n")
    print(lines[-1])
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if args.workload not in spec_names(load_spec())["workload"]:
        parser.error("unknown workload " + args.workload)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
