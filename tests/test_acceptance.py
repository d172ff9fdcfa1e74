"""Acceptance gate: ten certified properties of the solver stack.

Each test prints exactly one ``criterion NN PASS/FAIL`` line; the pytest
node names mirror the same numbering.  Tolerances are fixed here and are
not to be loosened: they certify the decomposition identities, the
complexity guarantees, and the constrained drivers against the dense
oracle at desk scale.
"""

import numpy as np
import pytest

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    IterativeMode,
    NoisyMode,
    PalmStop,
    ProxSpec,
    StepSchedule,
    StopRule,
    ToleranceSchedule,
    build_factors,
    classical_sgs_step,
    complexity_certificates,
    contraction_factor,
    palm_solve,
    qsdp_sgs_step,
    qsdp_to_lincon,
    scb_eliminate,
    sgs_cycle,
    smat,
    solve,
    ssor_cycle,
    ssor_tuning,
    subproblem_kkt,
    svec,
    svec_dim,
    verify_identities,
)
from sgsqp.instances import gen, gen_lincon, gen_qsdp
from sgsqp.oracle import (
    dense_optimum,
    dense_sgs_weight,
    dense_ssor_weight,
    dense_subproblem_solve,
    psd_project,
)
from sgsqp.palm import qsdp_assemble

from conftest import random_problem, random_point, shifted_problem


def _line(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {detail}")


def _rel(diff, ref):
    return np.linalg.norm(diff) / (1.0 + np.linalg.norm(ref))


_DIMS_POOL = [(2, 3, 2), (3, 2, 2), (2, 2, 2, 3), (4, 3, 3), (2, 1, 3, 2)]
_PROX_POOL = ["zero", "l1", "nonneg"]


def test_criterion_01_decomposition_exactness():
    """One sweep cycle exactly minimizes its proximal subproblem once the
    realized perturbation is accounted for."""
    worst_rel = 0.0
    worst_kkt = 0.0
    for seed in range(100):
        dims = _DIMS_POOL[seed % len(_DIMS_POOL)]
        prox_kind = _PROX_POOL[seed % 3]
        if seed % 10 == 9:
            prob = shifted_problem(seed, dims=dims, prox_kind=prox_kind)
        else:
            prob = random_problem(seed, dims=dims, prox_kind=prox_kind)
        xbar = random_point(prob, seed + 1000)
        if seed % 2 == 0:
            mode = "exact"
        else:
            mode = IterativeMode(rel_tol=1e-4 if seed % 4 == 1 else 1e-2,
                                 max_inner=300)
        res = sgs_cycle(prob, xbar, mode=mode)
        ref = dense_subproblem_solve(prob, xbar, Delta=res.Delta)
        worst_rel = max(worst_rel, _rel(res.x_plus.data - ref.data, ref.data))
        scale = 1.0 + np.linalg.norm(prob.b.data)
        worst_kkt = max(worst_kkt, subproblem_kkt(prob, xbar, res) / scale)
    ok = worst_rel <= 1e-9 and worst_kkt <= 1e-9
    _line(1, ok, f"100 instances; worst cycle-vs-oracle rel {worst_rel:.2e} "
                 f"(tol 1e-9), worst scaled subproblem KKT {worst_kkt:.2e} "
                 f"(tol 1e-9)")
    assert ok


def test_criterion_02_majorizer_identities():
    """The proximal weight assembles to the stated product form, plainly
    and over-relaxed."""
    worst_plain = 0.0
    worst_relaxed = 0.0
    configs = [((2, 3, 2), 10.0), ((3, 2, 2), 4.0), ((2, 2, 2, 3), 25.0),
               ((4, 3, 3), 10.0), ((5, 5, 5, 5, 5, 5), 15.0),
               ((12, 8, 10, 6), 40.0), ((20, 20, 20), 10.0),
               ((2, 1, 3, 2), 6.0)]
    for seed, (dims, kappa) in enumerate(configs):
        prob = random_problem(seed, dims=dims, kappa=kappa)
        part = prob.partition
        Qd = prob.Q.dense()
        D = np.zeros_like(Qd)
        U = np.zeros_like(Qd)
        for i in range(part.s):
            si = part.slice(i)
            D[si, si] = Qd[si, si]
            for j in range(i + 1, part.s):
                U[si, part.slice(j)] = Qd[si, part.slice(j)]
        product = (D + U) @ np.linalg.solve(D, (D + U).T)
        Qhat = prob.majorizer("sgs").densify("Qhat")
        worst_plain = max(worst_plain,
                          np.linalg.norm(Qhat - product, "fro")
                          / np.linalg.norm(Qhat, "fro"))
        for omega in (1.0, 1.25, 1.5, 1.9):
            Qhat_w = prob.majorizer("ssor", omega).densify("Qhat")
            T_w = dense_ssor_weight(part, Qd, omega)
            worst_relaxed = max(worst_relaxed,
                                np.linalg.norm(Qhat_w - Qd - T_w, "fro")
                                / np.linalg.norm(Qhat_w, "fro"))
    ok = worst_plain <= 1e-12 and worst_relaxed <= 1e-12
    _line(2, ok, f"{len(configs)} instances x 4 omegas; worst product-form "
                 f"rel {worst_plain:.2e}, worst over-relaxed split rel "
                 f"{worst_relaxed:.2e} (tol 1e-12)")
    assert ok


def test_criterion_03_schur_elimination_equivalence():
    """The staged elimination factors reproduce the sweep weight and the
    elimination solve reproduces the cycle."""
    worst_weight = 0.0
    worst_lemma = 0.0
    worst_solve = 0.0
    dims_pool = [(2, 2), (2, 3, 2), (3, 2, 2, 3), (2, 2, 2, 2, 2),
                 (3, 1, 2, 1, 3, 2)]
    for seed in range(50):
        dims = dims_pool[seed % len(dims_pool)]
        prox_kind = _PROX_POOL[seed % 3]
        prob = random_problem(seed, dims=dims, prox_kind=prox_kind)
        f = build_factors(prob.Q)
        T = dense_sgs_weight(prob.partition, prob.Q.dense())
        worst_weight = max(worst_weight,
                           np.linalg.norm(f.completion - T, "fro")
                           / (1.0 + np.linalg.norm(T, "fro")))
        rep = verify_identities(prob.Q)
        worst_lemma = max(worst_lemma, rep.lemma_rel)
        xbar = random_point(prob, seed + 500)
        a = sgs_cycle(prob, xbar)
        b = scb_eliminate(prob, xbar)
        worst_solve = max(worst_solve,
                          _rel(a.x_plus.data - b.x_plus.data, a.x_plus.data))
    ok = worst_weight <= 1e-11 and worst_lemma <= 1e-11 and worst_solve <= 1e-10
    _line(3, ok, f"50 instances (s up to 6); completion-vs-weight "
                 f"{worst_weight:.2e} (tol 1e-11), product lemma "
                 f"{worst_lemma:.2e} (tol 1e-11), elimination-vs-cycle "
                 f"{worst_solve:.2e} (tol 1e-10)")
    assert ok


def test_criterion_04_classical_method_recovery():
    """Unit momentum weights turn the driver into the plain fixed-point
    sweep, iterate for iterate."""
    worst = 0.0
    for seed in range(5):
        prob = random_problem(seed, dims=_DIMS_POOL[seed % len(_DIMS_POOL)],
                              prox_kind="zero")
        maj = prob.majorizer()
        x = solve(prob, steps=StepSchedule.constant(),
                  stop=StopRule(kkt_tol=0.0, max_iter=0)).x_final
        for k in range(1, 13):
            tr = solve(prob, steps=StepSchedule.constant(),
                       stop=StopRule(kkt_tol=0.0, max_iter=k))
            x = classical_sgs_step(prob.Q, prob.b, x, maj)
            worst = max(worst, _rel(tr.x_final.data - x.data, x.data))
    ok = worst <= 1e-12
    _line(4, ok, f"5 instances x 12 steps; worst driver-vs-fixed-point rel "
                 f"{worst:.2e} (tol 1e-12)")
    assert ok


def _certified_run(prob, schedule, tols, mode, max_iter=400):
    xs, fs = dense_optimum(prob)
    tr = solve(prob, steps=schedule, tols=tols, mode=mode,
               stop=StopRule(kkt_tol=1e-9, max_iter=max_iter), x_star=xs)
    assert tr.termination != "stall"
    return complexity_certificates(tr, prob, schedule, tols, fs)


def test_criterion_05_complexity_bounds():
    """The accelerated and unaccelerated objective-gap guarantees hold at
    every recorded iteration, tolerance errors included."""
    checked = 0
    bad = 0
    worst = 0.0
    # exact runs: accelerated and unaccelerated halves, the latter with
    # singular instances mixed in
    for seed in range(50):
        prob = random_problem(seed, dims=(2, 2, 2),
                              prox_kind=_PROX_POOL[seed % 3])
        rep = _certified_run(prob, StepSchedule.nesterov(),
                             ToleranceSchedule.exact(), "exact")
        checked += 1
        bad += 0 if rep.ok else 1
        worst = max(worst, rep.worst)
    for seed in range(50):
        singular = seed % 5 == 4
        prob = random_problem(seed, dims=(2, 2, 2),
                              prox_kind="zero" if singular
                              else _PROX_POOL[seed % 3],
                              singular=singular)
        rep = _certified_run(prob, StepSchedule.constant(),
                             ToleranceSchedule.exact(), "exact")
        checked += 1
        bad += 0 if rep.ok else 1
        worst = max(worst, rep.worst)
    # inexact runs under a summable tolerance budget
    tols = ToleranceSchedule.power(1e-3, 2.0)
    for seed in range(50):
        prob = random_problem(seed + 100, dims=(2, 2, 2),
                              prox_kind=_PROX_POOL[seed % 3])
        rep = _certified_run(prob, StepSchedule.nesterov(), tols, "inexact")
        checked += 1
        bad += 0 if rep.ok else 1
        worst = max(worst, rep.worst)
    for seed in range(50):
        singular = seed % 5 == 4
        prob = random_problem(seed + 100, dims=(2, 2, 2),
                              prox_kind="zero" if singular
                              else _PROX_POOL[seed % 3],
                              singular=singular)
        rep = _certified_run(prob, StepSchedule.constant(), tols, "inexact")
        checked += 1
        bad += 0 if rep.ok else 1
        worst = max(worst, rep.worst)
    ok = bad == 0 and checked == 200
    _line(5, ok, f"{checked} runs (100 exact, 100 inexact, singular "
                 f"included); {bad} certificate failures; worst violation "
                 f"{worst:.2e} (slack 1e-8 relative)")
    assert ok


def test_criterion_06_linear_rate():
    """Geometric decay certificates and the per-step contraction cap for
    positive definite curvature."""
    bad_envelope = 0
    worst_ratio_excess = -np.inf
    ratios_checked = 0
    for seed in range(30):
        prox_kind = "zero" if seed < 20 else _PROX_POOL[seed % 3]
        prob = random_problem(seed, dims=_DIMS_POOL[seed % len(_DIMS_POOL)],
                              prox_kind=prox_kind)
        xs, fs = dense_optimum(prob)
        steps, tols = StepSchedule.constant(), ToleranceSchedule.exact()
        tr = solve(prob, steps=steps, tols=tols,
                   stop=StopRule(kkt_tol=1e-10, max_iter=3000), x_star=xs)
        rep = complexity_certificates(tr, prob, steps, tols, fs)
        if not (rep.contraction is not None and rep.ok
                and all(r[-1] for r in rep.linear_rows)):
            bad_envelope += 1
            continue
        if prox_kind == "zero":
            rho = contraction_factor(prob.majorizer())
            dists = [tr.dist0_qhat] + [r.dist_qhat for r in tr.rows]
            # ratios below the numeric observability floor carry no signal
            floor = 1e-5 * max(1.0, tr.dist0_qhat)
            for prev, cur in zip(dists, dists[1:]):
                if prev <= floor:
                    break
                worst_ratio_excess = max(worst_ratio_excess,
                                         cur / prev - rho)
                ratios_checked += 1
    anchor = CompositeQP(
        BlockSymOperator(BlockPartition((1, 1)),
                         {(0, 0): np.array([[2.0]]),
                          (0, 1): np.array([[1.0]]),
                          (1, 1): np.array([[2.0]])}),
        BlockVector(BlockPartition((1, 1)), np.array([1.0, 1.0])))
    anchor_err = abs(contraction_factor(anchor.majorizer()) - 0.25)
    ok = (bad_envelope == 0 and worst_ratio_excess <= 1e-8
          and ratios_checked >= 50 and anchor_err <= 1e-12)
    _line(6, ok, f"30 runs; 0 envelope failures expected (got "
                 f"{bad_envelope}); per-step contraction excess "
                 f"{worst_ratio_excess:.2e} over {ratios_checked} ratios "
                 f"(cap 1e-8); 2x2 operator norm error {anchor_err:.2e} "
                 f"(tol 1e-12)")
    assert ok


def test_criterion_07_perturbation_error_bound():
    """The computable residual bound dominates the exact weighted
    perturbation norm on every noisy cycle."""
    cycles = 0
    violations = 0
    worst_gap = -np.inf
    probs = [random_problem(s, dims=_DIMS_POOL[s % len(_DIMS_POOL)],
                            prox_kind=_PROX_POOL[s % 3]) for s in range(10)]
    for seed in range(1050):
        prob = probs[seed % 10]
        xbar = random_point(prob, seed)
        scale = (1e-2, 1e-4, 1e-6)[seed % 3]
        res = sgs_cycle(prob, xbar, mode=NoisyMode(seed=seed, scale=scale))
        cycles += 1
        gap = res.xi - (res.xi_bound + 1e-12)
        worst_gap = max(worst_gap, gap)
        if gap > 0:
            violations += 1
    ok = cycles >= 1000 and violations == 0
    _line(7, ok, f"{cycles} injected-noise cycles; {violations} bound "
                 f"violations; worst xi minus bound {worst_gap:.2e} "
                 f"(slack 1e-12)")
    assert ok


def test_criterion_08_qsdp_and_multiplier_loop():
    """The matrix-form semidefinite sweep equals the generic cycle, and the
    multiplier loop reaches feasibility and stationarity within budget."""
    worst_step = 0.0
    combos = [(3, 1), (4, 2), (5, 2), (6, 3), (7, 4), (8, 5), (10, 5),
              (9, 3), (4, 1), (5, 3)]
    for idx in range(20):
        n, p = combos[idx % len(combos)]
        rank = (None, None, max(1, n // 2), 0)[idx % 4]
        inst = gen_qsdp(n, p, seed=idx, rank_H=rank)
        q = inst.qsdp
        sigma = (1.0, 2.5)[idx % 2]
        rng = np.random.default_rng(idx + 77)
        Y0 = rng.standard_normal((n, n))
        Y = Y0 + Y0.T
        Z0 = rng.standard_normal((n, n))
        Z = psd_project(Z0 + Z0.T)
        xi = rng.standard_normal(p)
        W0 = rng.standard_normal((n, n))
        HW = smat(q.H @ svec(W0 + W0.T), n)
        Zn, xin, HWn = qsdp_sgs_step(q, sigma, (Z, xi, HW), Y)
        inner = qsdp_assemble(q, sigma, Y)
        V = q.range_coords()
        parts = [svec(Z), xi]
        if V.shape[1]:
            parts.append(np.linalg.lstsq(q.H @ V, svec(HW), rcond=None)[0])
        xbar = BlockVector(inner.partition, np.concatenate(parts))
        res = sgs_cycle(inner, xbar)
        d = svec_dim(n)
        got = [svec(Zn), xin]
        want = [res.x_plus.data[:d], res.x_plus.data[d:d + p]]
        if V.shape[1]:
            got.append(svec(HWn))
            want.append(q.H @ (V @ res.x_plus.data[d + p:]))
        diff = np.concatenate(got) - np.concatenate(want)
        worst_step = max(worst_step, _rel(diff, np.concatenate(want)))

    palm_ok = True
    palm_detail = []
    feasible = [gen_lincon((2, 3, 2), m=3, seed=1).lincon_problem(),
                gen_lincon((3, 3), m=2, prox_kind="nonneg",
                           seed=5).lincon_problem(),
                qsdp_to_lincon(gen_qsdp(4, 2, seed=1).qsdp),
                qsdp_to_lincon(gen_qsdp(3, 2, seed=5, rank_H=0).qsdp)]
    sigmas = [10.0, 10.0, 1.0, 1.0]
    for lp, sigma in zip(feasible, sigmas):
        for tau in (1.0, 1.6, 1.9):
            x, y, tr = palm_solve(lp, sigma=sigma, tau=tau,
                                  stop=PalmStop(kkt_tol=1e-6,
                                                max_iter=10000))
            dual, primal = lp.kkt(x, y)
            good = (tr.termination == "tol" and primal <= 1e-6
                    and max(dual, primal) <= 1e-6)
            palm_ok = palm_ok and good
            palm_detail.append(len(tr.rows))
    ok = worst_step <= 1e-10 and palm_ok
    _line(8, ok, f"20 matrix-step instances, worst rel {worst_step:.2e} "
                 f"(tol 1e-10); multiplier loop hit 1e-6 KKT on "
                 f"{len(palm_detail)} runs (iterations "
                 f"{min(palm_detail)}..{max(palm_detail)}, cap 10000)")
    assert ok


def test_criterion_09_forward_reuse_soundness():
    """Accepted reuse keeps the realized residual inside the enlarged
    budget and never breaks the error bound."""
    accepted = 0
    cycles = 0
    norm_ok = True
    budget_ok = True
    helper_ok = True
    for seed in range(40):
        rng = np.random.default_rng(seed)
        s = 3 + seed % 2
        sizes = tuple(2 + (seed + i) % 2 for i in range(s))
        part = BlockPartition(sizes)
        blocks = {}
        for i in range(s):
            G = rng.standard_normal((sizes[i], sizes[i]))
            blocks[(i, i)] = G @ G.T + 2.0 * np.eye(sizes[i])
        off = (1e-4, 1e-3)[seed % 2]
        for i in range(s):
            for j in range(i + 1, s):
                blocks[(i, j)] = off * rng.standard_normal((sizes[i],
                                                            sizes[j]))
        prob = CompositeQP(BlockSymOperator(part, blocks),
                           BlockVector(part,
                                       rng.standard_normal(part.total)))
        xbar = BlockVector(part, rng.standard_normal(part.total))
        c = (0.5, 1.0, 2.0)[seed % 3]
        res = sgs_cycle(prob, xbar, mode=NoisyMode(seed=seed, scale=1e-2),
                        forward_reuse=c)
        cycles += 1
        if not res.reused:
            continue
        accepted += len(res.reused)
        lhs = np.linalg.norm(res.delta.data)
        rhs = np.sqrt(2.0 * (1.0 + c * c)) \
            * np.linalg.norm(res.delta_prime.data) + 1e-12
        norm_ok = norm_ok and lhs <= rhs
        budget_ok = budget_ok and res.xi <= res.xi_bound + 1e-12
        # each reused block against the coupling recomputed from Q.dense()
        Qd, off = prob.Q.dense(), part.offsets
        step = res.x_plus.data - xbar.data
        for i in res.reused:
            coupling = Qd[off[i]:off[i + 1], :off[i]] @ step[:off[i]]
            helper_ok = helper_ok and np.linalg.norm(coupling) <= (
                c / np.sqrt(s)) * np.linalg.norm(res.delta_prime.data)
            di = res.delta_prime.block(i) + coupling
            helper_ok = helper_ok and np.allclose(di, res.delta.block(i),
                                                  atol=1e-13)
    ok = accepted >= 30 and norm_ok and budget_ok and helper_ok
    _line(9, ok, f"{accepted} accepted reuses over {cycles} cycles; "
                 f"residual inflation bound {'held' if norm_ok else 'BROKE'}, "
                 f"error budget {'held' if budget_ok else 'BROKE'}, "
                 f"helper agreement {'held' if helper_ok else 'BROKE'}")
    assert ok


def test_criterion_10_over_relaxed_reduction_and_rate():
    """Unit relaxation reproduces the plain cycle; the tuned relaxation
    meets its spectral rate bound."""
    worst_collapse = 0.0
    for seed in range(30):
        dims = _DIMS_POOL[seed % len(_DIMS_POOL)]
        prox_kind = _PROX_POOL[seed % 3]
        if seed % 6 == 5:
            prob = shifted_problem(seed, dims=dims, prox_kind=prox_kind)
        elif seed % 6 == 4:
            prob = random_problem(seed, dims=(2, 2, 2), prox_kind="zero",
                                  singular=True)
        else:
            prob = random_problem(seed, dims=dims, prox_kind=prox_kind)
        xbar = random_point(prob, seed + 300)
        a = sgs_cycle(prob, xbar)
        b = ssor_cycle(prob, xbar, omega=1.0)
        worst_collapse = max(worst_collapse,
                             _rel(a.x_plus.data - b.x_plus.data,
                                  a.x_plus.data))

    rate_checked = 0
    worst_rate_excess = -np.inf
    for seed in range(40):
        for coupling in (0.2, 0.5, 1.0):
            prob = random_problem(seed, dims=(2, 3, 2, 3), prox_kind="zero",
                                  kappa=8.0, coupling=coupling)
            tune = ssor_tuning(prob.Q)
            # the tuned relaxation formula lands in [1, 2) only when
            # gamma * Gamma <= 1; other instances prescribe no usable omega
            if tune.gamma * tune.Gamma > 1.0:
                continue
            xs, _ = dense_optimum(prob)
            tr = solve(prob, steps=StepSchedule.constant(), variant="ssor",
                       omega=tune.omega_star,
                       stop=StopRule(kkt_tol=1e-10, max_iter=3000),
                       x_star=xs)
            dists = [tr.dist0_qhat] + [r.dist_qhat for r in tr.rows]
            floor = 1e-5 * max(1.0, tr.dist0_qhat)
            for prev, cur in zip(dists, dists[1:]):
                if prev <= floor:
                    break
                worst_rate_excess = max(worst_rate_excess,
                                        cur / prev - tune.rate_bound)
                rate_checked += 1
            if rate_checked >= 200:
                break
        if rate_checked >= 200:
            break
    ok = (worst_collapse <= 1e-12 and rate_checked >= 50
          and worst_rate_excess <= 1e-6)
    _line(10, ok, f"30 collapse checks, worst rel {worst_collapse:.2e} "
                  f"(tol 1e-12); {rate_checked} tuned-rate ratios, worst "
                  f"excess {worst_rate_excess:.2e} (cap 1e-6)")
    assert ok
