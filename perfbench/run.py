#!/usr/bin/env python3
"""Builds the pamakv benchmark from source and runs one workload once.

    python3 perfbench/run.py --workload hot-get --seed 1 --seconds 10 --trace 0

--workload all runs every workload, untraced and then traced, one after
another, and exits nonzero if any run failed.

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; each run's server directories live
there too and are removed afterwards. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones; the last line of stdout is the
result as one JSON object. A copy of each result, with the host's core
count and the run's topology, is kept under results/ in the build
directory for compare.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
WORKLOADS = ["hot-get", "penalty-churn", "durable-spill"]


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no pamakv sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "pamabench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}", 1)
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ", 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace", str(t)]
                                ).returncode
                 for w in WORKLOADS for t in (0, 1)]
        sys.exit(1 if any(codes) else 0)

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir.resolve() / "perfbench")
    build(build_dir)

    work = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(build_dir / "pamabench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--spans-dir", str(build_dir / "traces")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pamabench did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 and not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"pamabench exited with {done.returncode}", done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail("pamabench printed no result line", 1)
    check_result(result, args.trace)

    config = {}
    for line in lines:
        if line.startswith("# config "):
            config = json.loads(line[len("# config "):])
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                        f"{stamp}-{os.getpid()}.json")
    record.write_text(json.dumps({"config": config, "result": result}) + "\n")

    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
