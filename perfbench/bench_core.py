"""Measurement loops for the end-to-end pass and the traced pass.

A run prepares its instance set outside any timing (texts generated and
digest-checked, oracle references computed), warms up once, then loops
over the set in a closed loop - one instance at a time, each loaded,
built, solved and checked - until the requested seconds have passed and
every instance has been solved at least once.

Every reported time is calibrated against the host's current speed.  On
a shared host the same solve takes 1.2-1.7x longer for stretches of a
minute or more, which no amount of repetition inside a run averages out.
So fixed calibration kernels (numpy, BLAS, scipy CG, JSON parsing and
pure-Python loops; none of it sgsqp code) run between consecutive
instances, and each interval measured in between is scaled by
``NOMINAL_S / kernel time`` (the kernel times before and after it,
averaged).  A calibrated second is a second on a host where the kernel
takes ``NOMINAL_S``; the raw wall times are printed in the run details.
"""

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.sparse.linalg import cg

import sgsqp
from sgsqp import instances, sgs
from sgsqp.sgs import IterativeMode

import bench_trace
import bench_workloads


class Calibration:
    """Host-speed calibration by fixed kernels run between intervals.

    Calibration points bracket every set-up and every solve.  Two
    kernels run at each point: one for set-up intervals
    (Python and JSON parsing) and one for solve intervals whose mix of
    parts (milliseconds of each) is set per workload.  Parts slow down by
    different factors on a contended host, so each mix is the one whose
    time tracked that workload's solve most closely in a sensitivity
    measurement (see README.md).  ``elapsed`` accumulates calibrated
    solve-kernel time, so a run lasts a fixed amount of calibrated time
    and holds about the same number of solves whatever the host speed.
    """

    NOMINAL_S = 0.003
    SETUP_MIX = {"python": 1.5, "json": 1.5}
    _PER_MS = {"small": 750, "blas": 60, "python": 16000, "json": 5, "cg": 5}

    def __init__(self, solve_mix):
        rng = np.random.default_rng(20170317)
        self._a, self._x = rng.standard_normal((5, 5)), rng.standard_normal(5)
        self._B = rng.standard_normal((16, 200, 200))
        self._y = rng.standard_normal(200)
        S = rng.standard_normal((10, 10))
        self._S, self._r = S @ S.T + 10.0 * np.eye(10), rng.standard_normal(10)
        self._doc = json.dumps([[format(v, ".17g") for v in row]
                                for row in rng.standard_normal((20, 20))])
        self._mixes = (self.SETUP_MIX, solve_mix)
        self._point()
        self.points = [self._point()]
        self.elapsed = 0.0
        self._mark = time.perf_counter()

    def _run(self, part, reps):
        if part == "small":
            a, x = self._a, self._x
            for _ in range(reps):
                a @ x + x
        elif part == "blas":
            B, y = self._B, self._y
            for k in range(reps):
                B[k % 16] @ y
        elif part == "python":
            acc = 0
            for i in range(reps):
                acc += i * i
        elif part == "cg":
            for _ in range(reps):
                cg(self._S, self._r, rtol=1e-8, atol=0.0)
        else:
            for _ in range(reps):
                [float(v) for row in json.loads(self._doc) for v in row]

    def _kernel(self, mix):
        t0 = time.perf_counter()
        for part, ms in mix.items():
            self._run(part, round(ms * self._PER_MS[part]))
        return time.perf_counter() - t0

    def _point(self):
        return tuple(self._kernel(mix) for mix in self._mixes)

    def split(self, kind):
        """Scale for the interval since the previous call, by the set-up
        (``kind`` 0) or solve (1) kernel; adds the calibrated interval to
        ``elapsed``."""
        interval = time.perf_counter() - self._mark
        now = self._point()
        f = self.NOMINAL_S / (0.5 * (self.points[-1][kind] + now[kind]))
        self.points.append(now)
        self.elapsed += interval * f
        self._mark = time.perf_counter()
        return f

    def kernel_medians(self):
        return [statistics.median(p[k] for p in self.points) for k in (0, 1)]


@dataclass
class Item:
    index: int
    text: str
    ref: object
    iterations: int = None


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, item, out, ok, detail):
        self.attempted += 1
        if item.iterations is None:
            item.iterations = out.iterations
        good = ok and out.termination == "tol" and out.iterations == item.iterations
        if not good:
            self.failed += 1
            self.failures.append({"instance": item.index,
                                  "termination": out.termination,
                                  "iterations": out.iterations, **detail})


def result_line(metrics, result):
    """The benchmark's last output line."""
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def prepare(workload, seed, digests):
    items = []
    for idx in bench_workloads.pool_indices(workload, seed):
        text = bench_workloads.verified_text(workload, idx, digests)
        items.append(Item(idx, text, workload.reference(text)))
    return items


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it (at least
    the median)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def _schedule(items, seconds, cal):
    """Round-robin positions until ``seconds`` of calibrated time pass and
    each item ran once (wall time capped at three times ``seconds``)."""
    wall0 = time.perf_counter()
    n = 0
    while n < len(items) or (cal.elapsed < seconds and
                             time.perf_counter() - wall0 < 3 * seconds):
        yield n, items[n % len(items)]
        n += 1


def _run_one(workload, item, result, cal, corrupt=None):
    """Load, build, solve and check one instance between calibration
    points; calibrated (set-up, solve, total) and raw (set-up, solve)."""
    t0 = time.perf_counter()
    inst = instances.loads_instance(item.text)
    prob = workload.build(inst)
    setup = time.perf_counter() - t0
    fs = cal.split(0)
    t0 = time.perf_counter()
    out = workload.solve(prob)
    solve = time.perf_counter() - t0
    if corrupt is not None:
        out = corrupt(out)
    ok, detail = workload.check(inst, prob, out, item.ref)
    result.record(item, out, ok, detail)
    rest = time.perf_counter() - t0
    fv = cal.split(1)
    return (setup * fs, solve * fv, setup * fs + rest * fv), (setup, solve)


def end_to_end(workload, seed, seconds, digests, corrupt=None):
    """Untraced pass: every end-to-end metric plus run details."""
    items = prepare(workload, seed, digests)
    cal = Calibration(workload.calibration)
    _run_one(workload, items[0], RunResult(), cal)      # warm-up
    cal.elapsed = 0.0
    result = RunResult()
    timed, raw = [], []
    for _, item in _schedule(items, seconds, cal):
        t, r = _run_one(workload, item, result, cal, corrupt)
        timed.append(t)
        raw.append(r)
    setups, solves, totals = zip(*timed)

    tail_p = tail_percentile(len(solves))
    metrics = {
        "solve_s.p50": (statistics.median(solves), "s"),
        "solve_s.tail": (float(np.percentile(solves, tail_p)), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "instances_per_s": (len(totals) / sum(totals), "1/s"),
        "iterations": (float(sum(it.iterations for it in items)), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {
        "workload": workload.name, "seed": seed,
        "instances": [it.index for it in items],
        "iterations": [it.iterations for it in items],
        "solves": len(solves), "tail_percentile": tail_p,
        "failed_frac": result.failed / max(result.attempted, 1),
        "failures": result.failures[:5],
        "raw_solve_s.p50": statistics.median(r[1] for r in raw),
        "raw_setup_s": statistics.median(r[0] for r in raw),
        "kernel_s.p50": cal.kernel_medians(),
        "kernel_nominal_s": Calibration.NOMINAL_S,
    }
    return metrics, detail, result


# -- traced pass -----------------------------------------------------------


def _captures(tracer, tag):
    """Record every attempted cycle's centre point (and the CG tolerance
    it used) during the traced solve tagged ``tag``."""
    points = []

    def on_cycle(prob, xbar):
        if tracer.tag == tag:
            points.append([prob, xbar.data.copy(), prob.b.data.copy(), None])

    def on_cg(*_args, rtol=None, **_kw):
        if tracer.tag == tag and points and points[-1][3] is None:
            points[-1][3] = rtol

    tracer.hooks["sgs.CompositeQP.effective_b"] = on_cycle
    tracer.hooks["sgs.cg"] = on_cg
    return points


def cycle_flops(prob, result):
    """Computed flops of one cycle from the stored block shapes.

    Off-diagonal block products cost 2mn each (three per cycle for blocks
    in the first row, four otherwise) and a Cholesky solve 2n^2.  In
    inexact mode a CG iteration costs one 2n^2 product plus 10n vector
    work, each CG call 3n^2 more (scaling and residual), and the
    perturbation certificate six diagonal solves, two diagonal products
    and five passes over the off-diagonal blocks.  The head block costs
    n^3/3 + 4n^2 (Cholesky) for the zero prox, 9m^3 (eigendecomposition of
    the m x m matrix) for the PSD cone and 3n^2 otherwise.
    """
    dims = prob.partition.dims
    items = [key for key, _ in prob.shifted_Q.stored_items() if key[0] != key[1]]
    off = sum(2.0 * dims[i] * dims[j] for i, j in items)
    first = sum(2.0 * dims[i] * dims[j] for i, j in items if i == 0)
    diag2 = [2.0 * n * n for n in dims]
    inexact = any(result.inner_iters)
    flops = 4.0 * off - first
    if inexact:
        flops += sum(k * (d + 10.0 * n) + 1.5 * d
                     for k, d, n in zip(result.inner_iters, diag2, dims))
        flops += 8.0 * sum(diag2) + 5.0 * off
    else:
        flops += 2.0 * sum(diag2[1:])
    kind, n1 = prob.prox.kind, dims[0]
    if kind == "psd_cone":
        flops += 9.0 * prob.prox.side ** 3
    elif kind != "zero":
        flops += 1.5 * diag2[0]
    elif not inexact:
        flops += n1 ** 3 / 3.0 + 2.0 * diag2[0]
    return flops


def _replay(points, limit, cal):
    """Direct public ``sgs_cycle`` calls at captured points (untraced),
    as calibrated (seconds, GFLOP/s) pairs."""
    if len(points) > limit:
        pick = np.linspace(0, len(points) - 1, limit).round().astype(int)
        points = [points[i] for i in pick]
    out = []
    for prob, x, b, rtol in points:
        prob.b.data[:] = b
        mode = "exact" if rtol is None else IterativeMode(rtol, 500)
        t0 = time.perf_counter()
        res = sgs.sgs_cycle(prob, x, mode=mode)
        dt = (time.perf_counter() - t0) * cal.split(1)
        out.append((dt, cycle_flops(prob, res) / dt / 1e9))
    return out


def _direct_monitor(prob, x, cal, reps=5):
    """Calibrated best-of-``reps`` times of ``Q.matvec`` and of objective
    plus KKT residual at ``x``."""
    mv, mon = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        prob.Q.matvec(x)
        t1 = time.perf_counter()
        prob.objective(x)
        prob.kkt_residual(x)
        t2 = time.perf_counter()
        mv.append(t1 - t0)
        mon.append(t2 - t1)
    f = cal.split(1)
    return min(mv) * f, min(mon) * f


def traced(workload, seed, seconds, digests, spans_path=None):
    """Traced pass: every per-layer metric plus the baseline columns."""
    items = prepare(workload, seed, digests)
    result = RunResult()
    cal = Calibration(workload.calibration)
    _run_one(workload, items[0], RunResult(), cal)      # warm-up
    cal.elapsed = 0.0
    tracer = bench_trace.Tracer()
    solves = []     # (n, item, iterations, untraced seconds, (fs, fv))
    captured = {}
    for n, item in _schedule(items, seconds, cal):
        tracer.tag = f"{n}:setup"
        with tracer:
            inst = instances.loads_instance(item.text)
            prob = workload.build(inst)
        fs = cal.split(0)
        t0 = time.perf_counter()
        out = workload.solve(prob)
        plain = time.perf_counter() - t0
        ok, detail = workload.check(inst, prob, out, item.ref)
        result.record(item, out, ok, detail)

        tag = f"{n}:solve"
        if item.index not in captured:
            captured[item.index] = _captures(tracer, tag)
        tracer.tag = tag
        with tracer:
            out = tracer.span("solve", workload.solve, prob)
        tracer.hooks.clear()
        ok, detail = workload.check(inst, prob, out, item.ref)
        result.record(item, out, ok, detail)
        solves.append((n, item, out.iterations, plain, (fs, cal.split(1))))

    summary = bench_trace.summarize(tracer.spans)
    if spans_path:
        tracer.write(spans_path)
    metrics = _layer_metrics(summary, tracer.counts, solves)

    replays = [r for pts in captured.values() for r in _replay(pts, 8, cal)]
    metrics["sgs.cycle_s"] = (statistics.median(r[0] for r in replays), "s")
    metrics["sgs.cycle_gflops"] = (statistics.median(r[1] for r in replays),
                                   "GFLOP/s")

    baseline = {"workload": workload.name, "calibrated": True,
                "solve_per_iteration_ms": 1e3 * statistics.median(
                    plain * f[1] / iters for _n, _i, iters, plain, f in solves)}
    if isinstance(workload, bench_workloads.CompositeWorkload):
        mv, mon = [], []
        for pts in captured.values():
            prob, x = pts[len(pts) // 2][:2]
            a, b = _direct_monitor(prob, x, cal)
            mv.append(a)
            mon.append(b)
        baseline.update({
            "sgs_cycle_ms": metrics["sgs.cycle_s"][0] * 1e3,
            "Q.matvec_ms": statistics.median(mv) * 1e3,
            "objective_plus_kkt_ms": statistics.median(mon) * 1e3,
        })
    detail = {"workload": workload.name, "seed": seed,
              "traced_solves": len(solves), "spans": len(tracer.spans),
              "failures": result.failures[:5]}
    return metrics, detail, baseline, result


def _layer_metrics(summary, counts, solves):
    """Medians over traced solves of each layer's calibrated figure."""
    def get(tag, name, k):
        return summary.get(tag, {}).get(name, (0.0, 0.0, 0))[k]

    def inc(tag, *names):
        return sum(get(tag, n, 0) for n in names)

    def cnt(tag, *names):
        return sum(get(tag, n, 2) for n in names)

    rows = []
    for n, item, iters, plain, (fs, fv) in solves:
        s, u = f"{n}:solve", f"{n}:setup"
        total = get(s, "solve", 0)
        cycles = max(cnt(s, "sgs.CompositeQP.effective_b"), 1)
        mon_apg = inc(s, "sgs.CompositeQP.objective", "sgs.CompositeQP.kkt_residual")
        palm_cycles = max(cnt(s, "palm.sgs_cycle"), 1)
        load = inc(u, "instances.loads_instance")
        composite = "sgs.CompositeQP.objective" in summary.get(s, {})
        row = {
            "instances.load_s": load,
            "instances.load_mb_per_s": len(item.text) / 1e6 / load,
            "instances.bytes": float(len(item.text)),
            "blockla.build_s": (inc(u, "instances.Instance.composite",
                                    "instances.Instance.lincon_problem",
                                    "blockla.sgs_operator")
                                + inc(s, "blockla.sgs_operator",
                                      "palm.assemble_penalized")),
            "blockla.matvec_s": inc(s, "blockla.BlockSymOperator.matvec") / iters,
            "blockla.matvec_per_iter": cnt(s, "blockla.BlockSymOperator.matvec") / iters,
            "blockla.diag_solve_s": inc(s, "blockla.BlockSymOperator.diag_solve") / iters,
            "blockla.diag_solve_per_iter":
                cnt(s, "blockla.BlockSymOperator.diag_solve") / iters,
            "sgs.cg_s": inc(s, "sgs.cg") / iters,
            "sgs.cg_iters_per_cycle": counts.get(s, 0) / cycles,
            "sgs.cert_s": inc(s, "blockla.Majorizer.perturbation",
                              "blockla.Majorizer.quad_norm",
                              "blockla.Majorizer.dinv_norm") / cycles,
            "sgs.cycles_per_iter": cnt(s, "sgs.CompositeQP.effective_b") / iters,
            "proxmap.block1_s": inc(s, "proxmap.solve_block1") / iters,
            "proxmap.factor_per_iter": cnt(s, "proxmap.cho_factor") / iters,
            "proxmap.eig_per_iter": cnt(s, "proxmap.eigh", "proxmap.eigvalsh") / iters,
            "apg.monitor_s": mon_apg / iters,
            "apg.monitor_share": mon_apg / total,
            "apg.step_s": (total - mon_apg) / iters if composite else 0.0,
            "palm.cycle_s": inc(s, "palm.sgs_cycle") / palm_cycles,
            "palm.monitor_s": inc(s, "palm.LinConQP.kkt",
                                  "palm.LinConQP.objective") / iters,
            "palm.residual_per_iter": cnt(s, "palm.LinConQP.constraint_residual") / iters,
            "palm.assemble_s": inc(s, "palm.assemble_penalized"),
            "trace.overhead": total / plain,
            "trace.coverage": (total - get(s, "solve", 1)) / total,
        }
        row["instances.load_s"] *= fs
        row["instances.load_mb_per_s"] /= fs
        row["blockla.build_s"] *= fs
        for name, unit in UNITS.items():
            if unit == "s" and name in row and not name.startswith(
                    ("instances.", "blockla.build")):
                row[name] *= fv
        rows.append(row)
    return {name: (statistics.median(r[name] for r in rows), UNITS[name])
            for name in rows[0]}


UNITS = {
    "instances.load_s": "s", "instances.load_mb_per_s": "MB/s",
    "instances.bytes": "bytes", "blockla.build_s": "s",
    "blockla.matvec_s": "s", "blockla.matvec_per_iter": "count",
    "blockla.diag_solve_s": "s", "blockla.diag_solve_per_iter": "count",
    "sgs.cycle_s": "s", "sgs.cycle_gflops": "GFLOP/s",
    "sgs.cg_s": "s", "sgs.cg_iters_per_cycle": "count", "sgs.cert_s": "s",
    "sgs.cycles_per_iter": "ratio", "proxmap.block1_s": "s",
    "proxmap.factor_per_iter": "count", "proxmap.eig_per_iter": "count",
    "apg.monitor_s": "s", "apg.monitor_share": "ratio", "apg.step_s": "s",
    "palm.cycle_s": "s", "palm.monitor_s": "s",
    "palm.residual_per_iter": "count", "palm.assemble_s": "s",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}


# -- environment record ----------------------------------------------------


def _blas_threads():
    """Thread count reported by each OpenBLAS library mapped into this
    process (numpy and scipy each bundle one)."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _commit(root):
    """HEAD commit when the checkout is a git work tree, else None."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def _source_digest(src):
    """sha256 over the package sources, so a result names the code it ran
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "sgsqp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root, src):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sgsqp": sgsqp.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(root),
        "src_sha256": _source_digest(src),
    }
