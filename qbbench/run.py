#!/usr/bin/env python3
"""End-to-end benchmark of the .qbr -> verdict pipeline.

Builds the verifier and the benchmark runner from source (into
.bench_build/ at the repository root), runs one workload in its own
process and prints its metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
"metrics" holds the end_to_end metrics of BENCHMARK.json (--trace 0)
or its per_layer metrics (--trace 1).

    python3 qbbench/run.py --workload ladder_json --seed 1 --seconds 25 --trace 0
    python3 qbbench/run.py --workload all --seed 1 --seconds 25 --trace 0

See qbbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbbench")
OUT = os.path.join(".bench_build", "qbbench-out")  # relative: short socket paths
WORKLOADS = ["ladder_json", "ladder_cli", "adder_race", "serve_mix"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("verifier sources not found at src/ beside qbbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "qbbench")


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "qbbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s/src-sha256:%s" % (commit, digest.hexdigest()[:12])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(binary, spec, workload, seed, seconds, trace, commit):
    """Run one workload in its own process; returns (exit code, result)."""
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT, "--commit", commit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        full = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None:
            fail("%s did not report %s" % (workload, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s: unit of %s is %s, BENCHMARK.json says %s"
                 % (workload, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}
    record = dict(full, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, log=lines[:-1])
    path = os.path.join(ROOT, OUT, "result-%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return proc.returncode, result, full


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    spec = load_spec()
    commit = source_id()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results, full = {}, {}
    status = 0
    for name in names:
        code, results[name], full[name] = run_one(
            binary, spec, name, args.seed, args.seconds, args.trace, commit)
        status = status or code
    if args.workload == "all":
        # One table of every workload; error_rate and serve_mix's
        # max_rps are printed here although BENCHMARK.json cannot gate
        # them (error_rate is 0 when all is well, max_rps exists only
        # for the open loop).
        rows = [m["name"] for m in (spec["per_layer"] if args.trace
                                    else spec["end_to_end"])]
        if not args.trace:
            rows += ["error_rate", "max_rps"]
        print("%-34s" % "metric" + "".join("%14s" % n for n in names))
        for metric in rows:
            cells, unit = "", ""
            for n in names:
                got = full[n]["metrics"].get(metric)
                cells += "%14.6g" % got["value"] if got else "%14s" % "-"
                unit = unit or (got["unit"] if got else "")
            print("%-34s" % ("%s [%s]" % (metric, unit)) + cells)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return status


if __name__ == "__main__":
    sys.exit(main())
