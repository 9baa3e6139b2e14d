"""Benchmark entry point.

    python3 perfbench/run.py --workload ingest|search-diverse|search-hot \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from any directory of a checkout: the package is imported from the
checkout this file sits in.  Everything the run writes (corpus, index, Ray's
session directory) lives under ``<checkout>/.bench_tmp`` and is removed at
the end.  Stdout carries one line, the JSON result; logs and a detailed
report (``detail: {...}``) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Ray appends ~62 characters (session dir + socket name) to its temp dir and
# Unix socket paths are limited to 107 bytes
MAX_RAY_TMP = 40


def bootstrap() -> None:
    """Make the checkout's package importable here and in Ray workers."""
    if not (ROOT / "horus_ner_ray" / "__init__.py").is_file():
        raise SystemExit(f"no horus_ner_ray package next to {ROOT / 'perfbench'}")
    sys.path.insert(0, str(ROOT))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def run_once(workload: str, seed: int, seconds: int, trace: bool, size: str,
             body=None):
    """One run in fresh scratch directories; returns the finished Bench.
    ``body(bench)`` replaces ``bench.run()`` for side measurements.  The
    HTTP server, actors, Ray session and directories are gone on return,
    whether the run succeeded or not."""
    import workloads

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    ray_tmp = tmp_root / f"r{os.getpid()}"
    if len(str(ray_tmp)) > MAX_RAY_TMP:
        ray_tmp = Path(tempfile.mkdtemp(prefix="hnr-"))
    bench = workloads.Bench(workload, seed, seconds, trace, size, workdir, ray_tmp)
    try:
        (body or workloads.Bench.run)(bench)
    finally:
        bench.close()
        workloads.cleanup(workdir, ray_tmp)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    return bench


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    bootstrap()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # library logs and Ray's output must not reach stdout: point fd 1 at
    # stderr and keep a private handle for the result line
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    bench = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    res = bench.result(names)
    print("detail: " + json.dumps(bench.detail, default=str), file=sys.stderr)
    res["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in res["metrics"].items()}
    print(json.dumps(res), file=result_out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
