"""Workload definitions: seeded instance texts, the solve path, answer checks.

Every instance travels the path ``sgsqp solve file.json`` takes:
generator -> ``dumps_instance`` -> text -> ``loads_instance`` -> build ->
solve.  Instances come from a fixed pool of generator seeds per workload;
the workload seed picks which pool members a run uses, and the sha256 of
every pool text is recorded in ``digests.json``, so a change to a
generator or to ``dumps_instance`` stops the run instead of silently
changing what is measured.

Why these four workloads (shares from profiles of the seed code):

* ``dense60x5`` - 60 blocks of width 5, half the block pairs coupled.
  Per-block Python work dominates: the cycle takes ~60% of a solve and the
  two ``Q.matvec`` calls per iteration (objective, KKT) ~29%.  A single
  sweep kernel or sharing ``Q x`` between objective and KKT shows here.
* ``wide5x200_l1`` - 5 blocks of width 200, every pair coupled, l1 head.
  Cycles are BLAS-bound, so per-block overhead fixes are bypassed, and
  loading the ~17 MB text dominates set-up.  All pairs are coupled so
  every text has the same size and set-up time does not depend on the draw.
* ``chain_inexact`` - a stiff banded chain (second difference with random
  spring constants plus a small mass term), only neighbour blocks stored,
  solved with CG inner solves and perturbation certificates.  It uses the
  sweep the other way round from the exact workloads: CG and the
  certificate carry the time, and dense row panels would do extra work.
* ``qsdp20_palm`` - the multiplier loop on a QSDP with a PSD head block.
  Four eigendecompositions per iteration in ``proxmap``, only one of them
  the prox, and monitoring takes a large share.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from sgsqp import apg, instances, oracle, palm

POOL = 32
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


class DigestMismatch(Exception):
    """An instance text differs from the one recorded for its pool slot."""


@dataclass(frozen=True)
class Outcome:
    iterations: int
    termination: str
    x: np.ndarray
    y: np.ndarray = None


def _chain_instance(seed, s=20, w=10, mass=0.1):
    """Second-difference chain with random spring constants, cut into ``s``
    segments of width ``w``; only neighbouring segments are coupled."""
    rng = np.random.default_rng(seed)
    N = s * w
    k = 0.5 + rng.random(N + 1)
    L = (np.diag(k[:-1] + k[1:] + mass) - np.diag(k[1:-1], 1)
         - np.diag(k[1:-1], -1))
    blocks = {}
    for i in range(s):
        si = slice(i * w, (i + 1) * w)
        blocks[(i, i)] = L[si, si]
        if i + 1 < s:
            blocks[(i, i + 1)] = L[si, (i + 1) * w:(i + 2) * w]
    return instances.Instance(
        dims=(w,) * s, Q=blocks, b=rng.standard_normal(N),
        prox=instances.ProxSpec.zero(),
        meta={"seed": int(seed), "chain_mass": mass})


class CompositeWorkload:
    """``loads_instance`` -> ``composite()`` -> sgs majorizer -> ``solve``."""

    def __init__(self, name, make, solve_kw, size, calibration):
        self.name = name
        self._make = make
        self._solve_kw = solve_kw
        self.size = size
        self.calibration = calibration

    def text(self, index):
        return instances.dumps_instance(self._make(index))

    def build(self, inst):
        prob = inst.composite()
        prob.majorizer("sgs")
        return prob

    def solve(self, prob):
        tr = apg.solve(prob, **self._solve_kw)
        return Outcome(tr.iterations, tr.termination, tr.x_final.data)

    def reference(self, text):
        """Optimal value from the dense oracle."""
        return oracle.dense_optimum(instances.loads_instance(text).composite())[1]

    def check(self, inst, _prob, out, fstar):
        """Objective gap to the oracle optimum, evaluated with numpy from
        the instance's own blocks."""
        x = out.x
        off = np.concatenate(([0], np.cumsum(inst.dims)))
        xb = [x[off[i]:off[i + 1]] for i in range(len(inst.dims))]
        quad = 0.0
        for (i, j), M in inst.Q.items():
            quad += (1.0 if i == j else 2.0) * float(xb[i] @ (M @ xb[j]))
        head = inst.prox.lam * np.abs(xb[0]).sum() if inst.prox.kind == "l1" else 0.0
        F = head + 0.5 * quad - float(inst.b @ x)
        gap = abs(F - fstar)
        return gap <= 1e-8 * (1.0 + abs(fstar)), {"objective_gap": gap}


class PalmWorkload:
    """``loads_instance`` -> ``lincon_problem()`` -> ``palm_solve``.

    The penalized operator and its majorizer are built inside
    ``palm_solve``, so they count into the solve, not the set-up."""

    def __init__(self, name, make, sigma, tau, kkt_tol, size, calibration):
        self.name = name
        self._make = make
        self.sigma, self.tau, self.kkt_tol = sigma, tau, kkt_tol
        self.size = size
        self.calibration = calibration

    def text(self, index):
        return instances.dumps_instance(self._make(index))

    def build(self, inst):
        return inst.lincon_problem()

    def solve(self, lp):
        x, y, tr = palm.palm_solve(
            lp, self.sigma, self.tau,
            stop=palm.PalmStop(kkt_tol=self.kkt_tol, max_iter=5000))
        return Outcome(tr.iterations, tr.termination, x.data, y)

    def reference(self, text):
        return None

    def check(self, _inst, lp, out, _ref):
        """Primal infeasibility and the natural PSD dual residual
        ``||Z - Pi_PSD(Z + R_1)||`` recomputed with numpy."""
        x, y = out.x, out.y
        A, d, g = lp.A, lp.d, lp.g
        P = lp.P.dense()
        primal = float(np.linalg.norm(A @ x - d))
        r = g - P @ x - A.T @ y
        n = lp.prox.side
        dim = n * (n + 1) // 2
        Z, R = _unpack(x[:dim], n), _unpack(r[:dim], n)
        w, V = np.linalg.eigh(Z + R)
        proj = (V * np.maximum(w, 0.0)) @ V.T
        dual = float(np.hypot(np.linalg.norm(Z - proj), np.linalg.norm(r[dim:])))
        ok = primal <= 10 * self.kkt_tol and dual <= 10 * self.kkt_tol
        return ok, {"primal_inf": primal, "dual_residual": dual}


def _unpack(v, n):
    """Symmetric matrix from its packed upper triangle (off-diagonals
    scaled by sqrt(2))."""
    S = np.zeros((n, n))
    iu, ju = np.triu_indices(n)
    w = np.where(iu == ju, v, v / np.sqrt(2.0))
    S[iu, ju] = w
    S[ju, iu] = w
    return S


_EXACT = dict(steps=apg.StepSchedule.nesterov(),
              tols=apg.ToleranceSchedule.exact(),
              stop=apg.StopRule(kkt_tol=1e-8, max_iter=1000), mode="exact")


def make_workloads(tiny=False):
    """The four workloads by name; ``tiny`` shrinks every instance and set
    to a size the benchmark's own tests can run in well under a second."""
    if tiny:
        dense, wide, chain, qsdp, sizes = 6, 20, (4, 3), (4, 2), (2, 2, 2, 2)
    else:
        dense, wide, chain, qsdp, sizes = 60, 200, (10, 10), (20, 10), (16, 6, 8, 16)
    return {w.name: w for w in (
        CompositeWorkload(
            "dense60x5",
            lambda i: instances.gen((5,) * dense, prox_kind="zero", seed=i),
            _EXACT, size=sizes[0], calibration={"small": 1.5, "cg": 1.5}),
        CompositeWorkload(
            "wide5x200_l1",
            lambda i: instances.gen((wide,) * 5, prox_kind="l1",
                                    coupling=1.0, seed=i),
            _EXACT, size=sizes[1], calibration={"blas": 3}),
        CompositeWorkload(
            "chain_inexact", lambda i: _chain_instance(i, *chain),
            dict(steps=apg.StepSchedule.restart(20),
                 tols=apg.ToleranceSchedule.power(1e-3, 2.0),
                 stop=apg.StopRule(kkt_tol=1e-8, max_iter=5000),
                 mode="inexact"),
            size=sizes[2], calibration={"small": 1.5, "python": 1.5}),
        PalmWorkload(
            "qsdp20_palm", lambda i: instances.gen_qsdp(*qsdp, seed=i),
            sigma=1.0, tau=1.6, kkt_tol=1e-6, size=sizes[3],
            calibration={"python": 1.5, "json": 1.5}),
    )}


WORKLOADS = make_workloads()


def pool_indices(workload, seed):
    """The pool slots a run with this workload seed uses, in run order."""
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(POOL, size=workload.size, replace=False)]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def verified_text(workload, index, digests):
    """The instance text of one pool slot, refused unless its sha256
    matches the recorded one."""
    text = workload.text(index)
    want = digests.get(workload.name, {}).get(str(index))
    got = sha256(text)
    if want != got:
        raise DigestMismatch(
            f"workload {workload.name}: instance {index} text has sha256 "
            f"{got}, recorded {want}; a generator or dumps_instance changed "
            f"(re-record with run.py --record-digests only on purpose)")
    return text


def record_digests():
    doc = {name: {str(i): sha256(w.text(i)) for i in range(POOL)}
           for name, w in WORKLOADS.items()}
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
