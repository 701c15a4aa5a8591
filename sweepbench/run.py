#!/usr/bin/env python3
"""End-to-end sweep benchmark entry point (see README.md).

    python3 sweepbench/run.py --workload general_warm --seed 0 --seconds 10 --trace 0
    python3 sweepbench/run.py --self-test
    python3 sweepbench/run.py --pin --workload graph_8bit --corpus-seed 1

--seed shuffles the order of the matrices (batch workloads) or of each
client's requests (serve_tenants); --corpus-seed picks the generated corpus
(0, the default, is the library's default corpus; 1 is the held-out one).

Run from the repository root. Builds the sweepbench binary from source
(CMake, build tree in $CARGO_TARGET_DIR or .bench_build), runs one workload,
checks its raw-CSV digests against sweepbench/digests.json and its metric
names and units against BENCHMARK.json, and prints the result as the last
line of stdout:

    {"correct": true, "attempted": 240, "failed": 0, "metrics": {...}}

Exits nonzero when any run failed, an identity or digest check failed, or
the emitted metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORK = ".bench_work"
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configure (once) and build; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "mfla.hpp"))):
        log("no mfla source tree next to sweepbench/ (expected CMakeLists.txt and src/)")
        sys.exit(2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], cwd=ROOT, check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "sweepbench")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("benchmark timed out after %d s" % timeout)
        sys.exit(1)
    return proc.returncode, out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def metric_problems(metrics, trace):
    """Every declared metric emitted with its unit, and nothing else."""
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in metrics.items()}
    problems = ["metric %s missing" % k for k in want if k not in got]
    problems += ["metric %s has unit %s, declared %s" % (k, got[k], u)
                 for k, u in want.items() if k in got and got[k] != u]
    problems += ["metric %s not declared in BENCHMARK.json" % k for k in got if k not in want]
    return problems


def load_digests():
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def digest_key(workload, corpus_seed):
    """serve_tenants requests the daemon's fixed corpus, so its digests hold
    for every seed; batch digests are per corpus seed."""
    return "*" if workload == "serve_tenants" else "corpus:%d" % corpus_seed


def pinned_for(digests, workload, corpus_seed):
    return digests.get(workload, {}).get(digest_key(workload, corpus_seed), {})


def digest_failures(result, pinned):
    """(failed runs, problems) for emitted digests that differ from pinned ones."""
    failed, problems = 0, []
    for key, want in pinned.items():
        got = result["digests"].get(key)
        if got is not None and got != want:
            failed += result["digest_runs"].get(key, 0)
            problems.append("CSV digest %s for %s, pinned %s" % (got, key, want))
    return failed, problems


def self_test(binary):
    code, _ = run_binary(binary, ["--self-test"])
    problems = [] if code == 0 else ["gap classifier self-test failed"]
    _, out = run_binary(binary, ["--list-metrics"])
    listed = json.loads(out.strip().splitlines()[-1])
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        fake = {k: {"value": 1.0, "unit": u} for k, u in listed[section].items()}
        problems += metric_problems(fake, trace)
    # The digest check fails exactly the runs of a mismatching sweep.
    fake = {"digests": {"csv": "aa", "x": "bb"}, "digest_runs": {"csv": 7, "x": 3}}
    if digest_failures(fake, {"csv": "aa", "x": "cc"})[0] != 3:
        problems.append("digest check miscounts failed runs")
    if digest_failures(fake, {})[0] != 0:
        problems.append("digest check fails unpinned runs")
    for p in problems:
        log("self-test: " + p)
    log("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", action="store_true",
                    help="record this run's CSV digests in digests.json")
    args = ap.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if not args.workload or args.seed < 0 or args.corpus_seed < 0:
        ap.error("--workload and non-negative seeds are required")

    code, out = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                    "--corpus-seed", str(args.corpus_seed),
                                    "--seconds", repr(args.seconds),
                                    "--trace", str(args.trace), "--work", WORK])
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log("benchmark exited %d without a result" % code)
        return 1
    result = json.loads(lines[-1])

    digests = load_digests()
    if args.pin:
        key = digest_key(args.workload, args.corpus_seed)
        digests.setdefault(args.workload, {})[key] = result["digests"]
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
        log("pinned %s seed %s" % (args.workload, key))

    failed, problems = digest_failures(result,
                                       pinned_for(digests, args.workload, args.corpus_seed))
    problems += metric_problems(result["metrics"], args.trace == 1)
    for p in problems:
        log("FAILED: " + p)
    attempted = result["attempted"]
    failed = min(attempted, result["failed"] + failed)
    correct = result["correct"] and code == 0 and not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
