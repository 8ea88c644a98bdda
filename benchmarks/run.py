"""pathrec benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload serve-5x --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run from the repository root. The workload runs in a child process with
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/``MKL_NUM_THREADS`` pinned to 1
and imports pathrec from ``src/``. With ``--trace 0`` the result carries
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
per-layer metrics of a traced run (spans are saved under
``.bench_out/spans/``). A human-readable summary comes first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when
any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
QUALITY = ("ndcg10_warm", "ndcg10_cold", "hr10_cold", "cold_coverage10")


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def run_workload(spec: dict, workload: str, args) -> dict | None:
    out_dir = os.path.join(".bench_out", "results")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(".bench_out", "spans"), exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    out_file = os.path.join(out_dir, stem + ".json")
    if os.path.exists(out_file):
        os.remove(out_file)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--workroot", os.path.join(".bench_out", "work", f"{stem}-{os.getpid()}"),
           "--out", out_file,
           "--spans", os.path.join(".bench_out", "spans", f"{workload}-seed{args.seed}.npz")]
    try:
        # the child logs to stderr; our stdout stays reserved for results
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
        return None
    if proc.returncode != 0 or not os.path.exists(out_file):
        fail(f"{workload} exited with code {proc.returncode}")
        return None
    with open(out_file) as fh:
        result = json.load(fh)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"{workload} did not measure {', '.join(missing)}")
        return None
    for m in wanted:
        if measured[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {measured[m['name']]['unit']}, expected {m['unit']}")
            return None
    result["metrics"] = {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                         for m in wanted}
    summarize(result, args)
    return result


def summarize(result: dict, args):
    env = result["environment"]
    print(f"== {result['workload']}  seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print(f"   nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"threads={env['threads']} commit={env['git_commit']} src={env['src_sha256'][:12]}")
    for name, m in result["end_to_end"].items():
        print(f"   {name:<16} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    quality = result["quality"]
    for name in QUALITY:
        users = quality.get("users_warm" if name == "ndcg10_warm" else "users_cold")
        print(f"   {name:<16} {quality.get(name)!r:>14}        n={users}")
    if args.trace:
        for name, m in result["per_layer"].items():
            print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"   digest={result['digest']}  attempted={result['attempted']} "
          f"failed={result['failed']}")
    for err in result["errors"]:
        print(f"   FAILED {err}")


def main(argv=None) -> int:
    spec_path = "BENCHMARK.json"
    if not os.path.exists(spec_path):
        return fail("run from the repository root (BENCHMARK.json not found)")
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="Run a pathrec benchmark workload.")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: a tiny catalog for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    if not os.path.exists(os.path.join("src", "pathrec", "__init__.py")):
        return fail("src/pathrec not found; run from a pathrec checkout")

    results = []
    for workload in (names if args.workload == "all" else [args.workload]):
        result = run_workload(spec, workload, args)
        if result is None:
            return 1
        results.append(result)

    failed = sum(r["failed"] for r in results)
    line = {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed}
    if len(results) == 1:
        line["metrics"] = results[0]["metrics"]
    else:
        line["metrics"] = {f"{r['workload']}/{name}": m
                           for r in results for name, m in r["metrics"].items()}
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
