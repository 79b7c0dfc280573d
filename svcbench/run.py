#!/usr/bin/env python3
"""The Jinjing service benchmark.

Run one workload (from the repository root):

    python3 svcbench/run.py --workload interactive|burst|churn --seed N \
        --seconds S --trace 0|1

builds `jinjing` and the load generator from source into $CARGO_TARGET_DIR
(default .bench_build), runs the oracle self-test after a fresh build, runs
the workload against freshly launched `jinjing serve` processes, writes a
result file with a host block to .bench_results/, and prints one JSON object
as the last line of standard output.

Compare two sets of result files (a parent commit and a change):

    python3 svcbench/run.py compare --parent DIR --change DIR \
        [--claim WORKLOAD:METRIC]
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_results")
RUN_BUDGET_S = 170  # the whole run, build excluded


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark package; returns the build dir."""
    for needed in ("src", "tools"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            raise SystemExit(f"svcbench: {needed}/ is missing; run from a full checkout")
    out = os.path.join(build_dir(), "svcbench")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", out, "-j", jobs]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit(f"svcbench: build failed: {' '.join(cmd)}")
    stamp = os.path.join(out, "oracle_test.passed")
    test = os.path.join(out, "oracle_test")
    if not os.path.exists(stamp) or os.path.getmtime(stamp) < os.path.getmtime(test):
        proc = subprocess.run([test], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=120)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("svcbench: oracle self-test failed")
        with open(stamp, "w") as f:
            f.write(proc.stdout)
    return out


def source_fingerprint():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "svcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cmake_cache(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(args):
    out = build()
    # The socket lives under a short relative path: sun_path holds 107 bytes.
    workdir = os.path.relpath(os.path.join(build_dir(), "svcbench-run", str(os.getpid())), ROOT)
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(out, "svcbench"), "--jinjing", os.path.join(out, "jinjing"),
           "--workdir", workdir, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout takes the servers down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("svcbench: run exceeded its time budget")
    if proc.returncode != 0:
        raise SystemExit(f"svcbench: load generator exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    spans_dir = os.path.join(RESULTS, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    for name in os.listdir(workdir):
        if name.startswith("spans-"):
            os.replace(os.path.join(workdir, name), os.path.join(spans_dir, name))
    shutil.rmtree(workdir, ignore_errors=True)

    host = {
        "nproc": os.cpu_count(),
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "compiler": f"{cmake_cache(out, 'CMAKE_CXX_COMPILER')} {result.get('compiler', '')}".strip(),
        "git_sha": git_sha(),
        "source_sha256": source_fingerprint(),
        "seed": args.seed,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "counts": result.get("counts"),
        "failures": result.get("failures"),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1000)}.json"
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"host": host, "counts": record["counts"], "failures": record["failures"]}))
    for metric, m in sorted(result["metrics"].items()):
        print(f"{args.workload:12s} {metric:28s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


# ---- compare mode -----------------------------------------------------------


def load_results(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            runs.append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent = load_results(args.parent)
    change = load_results(args.change)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    print(f"{'workload':12s} {'metric':20s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'delta':>8s}  verdict")
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            print(f"{workload:12s} (no runs on one side)")
            continue
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            pv = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not pv or not cv:
                continue
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            rel = (cm - pm) / pm if pm else 0.0
            worse_by = rel if lower else -rel
            spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
            all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif -worse_by > bound or (spread > bound and all_better):
                verdict = "better"
            else:
                verdict = "unchanged"
            if verdict in ("worse", "unresolved") and name != "setup_s":
                worst = 1
            print(f"{workload:12s} {name:20s} {p1:9.4g}/{pm:9.4g}/{p3:9.4g} "
                  f"{c1:9.4g}/{cm:9.4g}/{c3:9.4g} {100 * rel:+7.1f}%  {verdict}")
            if claim == (workload, name):
                by_seed_p = {r["seed"]: r["metrics"][name]["value"] for r in p_runs}
                by_seed_c = {r["seed"]: r["metrics"][name]["value"] for r in c_runs}
                seeds = sorted(set(by_seed_p) & set(by_seed_c))
                wins = sum(1 for s in seeds
                           if (by_seed_c[s] < by_seed_p[s] if lower else by_seed_c[s] > by_seed_p[s]))
                iqr = p3 - p1
                print(f"  claim {workload}:{name}: change won {wins}/{len(seeds)} seed pairs; "
                      f"median gap {abs(cm - pm):.4g} vs parent IQR {iqr:.4g} -> "
                      f"{'met' if len(seeds) and wins >= 0.9 * len(seeds) and abs(cm - pm) > iqr and worse_by < 0 else 'not met'}")
    fails_p = sum(r["failed"] for r in parent) / max(1, sum(r["attempted"] for r in parent))
    fails_c = sum(r["failed"] for r in change) / max(1, sum(r["attempted"] for r in change))
    print(f"failed share: parent {fails_p:.6f}, change {fails_c:.6f}")
    return worst


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--parent", required=True, help="result file or directory")
        parser.add_argument("--change", required=True, help="result file or directory")
        parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
        return compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=["interactive", "burst", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
