"""Benchmark of the sgsqp solve path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense60x5 --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate traced pass that reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and run details.  ``--workload all`` runs every workload, each
in its own process, one after the other.  ``--record-digests`` rewrites
``digests.json`` after an intended change to the instance generators.

BLAS is pinned to one thread here, before numpy is imported.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("dense60x5", "wide5x200_l1", "chain_inexact", "qsdp20_palm")
EXIT_SETUP = 2
EXIT_DIGEST = 3


def _pin_blas():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def _import_package():
    """Import sgsqp from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sgsqp", "__init__.py")):
        raise ImportError(f"no sgsqp package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import sgsqp
    where = os.path.dirname(os.path.abspath(sgsqp.__file__))
    if where != os.path.join(SRC, "sgsqp"):
        raise ImportError(f"sgsqp imported from {where}, expected {SRC}")


def _run_all(args):
    """Each workload in a child process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        for metric, val in res["metrics"].items():
            print(f"{name:14s} {metric:28s} {val['value']:.6g} {val['unit']}")
            merged["metrics"][f"{name}/{metric}"] = val
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_digests:
        ap.error("--workload is required")
    if args.workload == "all":
        return _run_all(args)

    _pin_blas()
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    import bench_core
    import bench_workloads

    if args.record_digests:
        bench_workloads.record_digests()
        print(f"wrote {bench_workloads.DIGESTS}")
        return 0

    workload = bench_workloads.WORKLOADS[args.workload]
    try:
        digests = bench_workloads.load_digests()
        print(json.dumps({"env": bench_core.environment(ROOT, SRC)}))
        if args.trace:
            spans = os.path.join(ROOT, ".bench_build", "perfbench",
                                 f"spans-{args.workload}-{args.seed}.csv")
            metrics, detail, baseline, result = bench_core.traced(
                workload, args.seed, args.seconds, digests, spans)
            print(json.dumps({"baseline": baseline}))
        else:
            metrics, detail, result = bench_core.end_to_end(
                workload, args.seed, args.seconds, digests)
    except bench_workloads.DigestMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIGEST
    print(json.dumps({"detail": detail}))
    print(bench_core.result_line(metrics, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
