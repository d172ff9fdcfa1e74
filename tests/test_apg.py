import dataclasses
import io

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    PalmStop,
    StepSchedule,
    StopRule,
    ToleranceSchedule,
    classical_sgs_step,
    complexity_certificates,
    contraction_factor,
    palm_solve,
    sgs_cycle,
    solve,
)
from sgsqp import apg, sgs
from sgsqp.apg import SolveTrace, TraceRow
from sgsqp.blockla import Majorizer, sgs_operator
from sgsqp.errors import InvalidParams, NotPD
from sgsqp.instances import gen, gen_lincon
from sgsqp.oracle import dense_optimum, dense_subproblem_solve

from conftest import (anchor_2x2, indefinite_2x2, random_point, random_problem,
                      shifted_problem)


def _stiff_chain():
    """Partition, blocks and rhs of a stiff neighbour-coupled chain of six
    blocks of width 5: CG inner solves take many steps on it."""
    rng = np.random.default_rng(8)
    s, w = 6, 5
    k = 10.0 ** rng.uniform(-1.0, 2.0, s * w + 1)
    L = (np.diag(k[:-1] + k[1:] + 5.0) - np.diag(k[1:-1], 1)
         - np.diag(k[1:-1], -1))
    blocks = {}
    for i in range(s):
        si = slice(i * w, (i + 1) * w)
        blocks[(i, i)] = L[si, si]
        if i + 1 < s:
            blocks[(i, i + 1)] = L[si, (i + 1) * w:(i + 2) * w]
    return BlockPartition((w,) * s), blocks, rng.standard_normal(s * w)


def _chain_inexact_solve(prob):
    return solve(prob, mode="inexact", steps=StepSchedule.restart(20),
                 tols=ToleranceSchedule.power(1e-3, 2.0),
                 stop=StopRule(kkt_tol=1e-8, max_iter=2000))


class TestSchedules:
    def test_nesterov_sequence(self):
        sched = StepSchedule.nesterov()
        t = 1.0
        seen = [t]
        for k in range(1, 6):
            t, restarted = sched.advance(t, k)
            assert not restarted
            seen.append(t)
        assert seen[1] == pytest.approx((1 + np.sqrt(5)) / 2)
        for a, b in zip(seen, seen[1:]):
            # the defining recurrence keeps t_{k+1}^2 - t_{k+1} <= t_k^2
            assert b * b - b <= a * a + 1e-12

    def test_constant_stays_at_one(self):
        sched = StepSchedule.constant()
        t = 1.0
        for k in range(1, 5):
            t, _ = sched.advance(t, k)
            assert t == 1.0

    def test_restart_resets(self):
        sched = StepSchedule.restart(3)
        t = 1.0
        hits = []
        for k in range(1, 10):
            t, restarted = sched.advance(t, k)
            if restarted:
                hits.append(k)
                assert t == 1.0
        assert hits == [3, 6, 9]

    def test_restart_period_validated(self):
        with pytest.raises(InvalidParams):
            StepSchedule.restart(0)

    def test_tolerance_values(self):
        assert ToleranceSchedule.exact().value(5) == 0.0
        geo = ToleranceSchedule.geometric(0.1, 0.5)
        assert geo.value(1) == pytest.approx(0.1)
        assert geo.value(4) == pytest.approx(0.1 * 0.5 ** 3)
        pw = ToleranceSchedule.power(2.0, 3.0)
        assert pw.value(1) == pytest.approx(2.0)
        assert pw.value(2) == pytest.approx(2.0 / 8.0)

    def test_tolerance_validation(self):
        with pytest.raises(InvalidParams):
            ToleranceSchedule.geometric(0.1, 1.0)
        with pytest.raises(InvalidParams):
            ToleranceSchedule.power(0.1, 1.0)

    def test_no_field_default_is_callable(self):
        """A classmethod named like a field would replace its default."""
        for cls in (StepSchedule, ToleranceSchedule, StopRule):
            for f in dataclasses.fields(cls):
                assert not callable(f.default), (cls.__name__, f.name)
        assert ToleranceSchedule.geometric(0.1, 0.5).exponent is None
        assert ToleranceSchedule.power(0.1, 2.0).exponent == 2.0


class TestSolve:
    def test_anchor_converges_to_optimum(self):
        prob = anchor_2x2()
        tr = solve(prob, stop=StopRule(kkt_tol=1e-10, max_iter=500))
        assert tr.termination == "tol"
        np.testing.assert_allclose(tr.x_final.data, [1 / 3, 1 / 3], atol=1e-8)
        ks = [r.k for r in tr.rows]
        assert ks == list(range(1, tr.iterations + 1))

    def test_nonfinite_stops_at_last_finite_iterate(self):
        prob = indefinite_2x2()
        with np.errstate(over="ignore", invalid="ignore"):
            tr = solve(prob, stop=StopRule(max_iter=1000))
        assert tr.termination == "nonfinite"
        assert 0 < tr.iterations < 1000
        assert all(np.isfinite(r.kkt) for r in tr.rows)
        # x_final is the iterate of the last recorded row
        capped = solve(prob, stop=StopRule(max_iter=tr.iterations))
        assert capped.termination == "max_iter"
        assert np.isfinite(tr.x_final.data).all()
        np.testing.assert_array_equal(tr.x_final.data, capped.x_final.data)

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_stop_is_silent(self):
        tr = solve(indefinite_2x2(), stop=StopRule(max_iter=1000))
        assert tr.termination == "nonfinite"

    @pytest.mark.filterwarnings("error")
    def test_inexact_nonfinite_stops_at_last_finite_iterate(self):
        prob = indefinite_2x2()
        kw = dict(mode="inexact", tols=ToleranceSchedule.power(1e-2, 2.0))
        tr = solve(prob, stop=StopRule(max_iter=1000), **kw)
        assert tr.termination == "nonfinite"
        assert 0 < tr.iterations < 1000
        assert all(np.isfinite(r.kkt) for r in tr.rows)
        assert np.isfinite(tr.x_final.data).all()
        capped = solve(prob, stop=StopRule(max_iter=tr.iterations), **kw)
        assert capped.termination == "max_iter"
        np.testing.assert_array_equal(tr.x_final.data, capped.x_final.data)

    def test_inexact_run_is_bit_identical_under_scipy_cg(self, monkeypatch):
        """A stiff neighbour-coupled chain solved with CG inner solves: the
        run is the same to the bit when ``sgs.cg`` is SciPy's ``cg``."""
        part, blocks, b = _stiff_chain()
        cycle = apg._cycle

        def run():
            prob = CompositeQP(BlockSymOperator(part, blocks), b)
            inner = []

            def recording(*args, **kwargs):
                res = cycle(*args, **kwargs)
                inner.append(res.inner_iters)
                return res

            with monkeypatch.context() as m:
                m.setattr(apg, "_cycle", recording)
                tr = _chain_inexact_solve(prob)
            rows = [dataclasses.replace(r, time_s=0.0) for r in tr.rows]
            return tr, rows, inner

        tr, rows, inner = run()
        monkeypatch.setattr(sgs, "cg", scipy.sparse.linalg.cg)
        tr_ref, rows_ref, inner_ref = run()
        assert tr.termination == tr_ref.termination == "tol"
        assert len(inner) >= tr.iterations > 5
        assert sum(map(sum, inner)) > 0
        np.testing.assert_array_equal(tr.x_final.data, tr_ref.x_final.data)
        assert len(rows) == len(rows_ref)
        for r, r_ref in zip(rows, rows_ref):
            np.testing.assert_array_equal(dataclasses.astuple(r),
                                          dataclasses.astuple(r_ref))
        assert inner == inner_ref

    def test_inexact_run_computes_no_certificate(self, monkeypatch):
        """The driver reads only the residual norms of an inexact cycle:
        the run is the same with the majorizer's factor, perturbation and
        diagonal norm unusable."""
        part, blocks, b = _stiff_chain()
        want = _chain_inexact_solve(CompositeQP(BlockSymOperator(part, blocks), b))

        def refuse(*_args, **_kw):
            raise AssertionError("a certificate was computed")

        for name in ("factor", "perturbation", "dinv_norm"):
            monkeypatch.setattr(Majorizer, name, refuse)
        got = _chain_inexact_solve(CompositeQP(BlockSymOperator(part, blocks), b))
        assert got.termination == want.termination == "tol"
        assert got.iterations == want.iterations
        np.testing.assert_array_equal(got.x_final.data, want.x_final.data)

    @pytest.mark.parametrize("prox_kind", ["zero", "l1"])
    def test_precomputed_product_is_bit_identical(self, prox_kind):
        prob = random_problem(4, prox_kind=prox_kind)
        x = BlockVector(prob.partition,
                        np.random.default_rng(2).standard_normal(7))
        Qx = prob.Q.matvec(x.data)
        assert prob.objective(x, Qx) == prob.objective(x)
        assert prob.kkt_residual(x, Qx) == prob.kkt_residual(x)

    def test_infeasible_nonneg_head_monitors_inf(self):
        prob = random_problem(3, prox_kind="nonneg")
        x = random_point(prob, 4).data
        x[0] = -1.0
        Qx = prob.Q.matvec(x)
        assert prob.objective(x, Qx) == prob.kkt_residual(x, Qx) == np.inf

    def test_one_product_per_iteration(self, monkeypatch):
        prob = random_problem(1, prox_kind="l1")
        calls = []
        orig = prob.Q.matvec
        monkeypatch.setattr(prob.Q, "matvec",
                            lambda v: calls.append(1) or orig(v))
        tr = solve(prob, stop=StopRule(kkt_tol=1e-10, max_iter=50))
        assert tr.termination == "tol"
        assert len(calls) == tr.iterations

    def test_one_product_per_inexact_iteration(self, monkeypatch):
        """Inexact cycles, retries included, are handed ``Q xbar`` too."""
        prob = random_problem(1, prox_kind="l1")
        calls = []
        orig = prob.Q.matvec
        monkeypatch.setattr(prob.Q, "matvec",
                            lambda v: calls.append(1) or orig(v))
        tr = solve(prob, mode="inexact", tols=ToleranceSchedule.power(1e-2, 2.0),
                   stop=StopRule(kkt_tol=1e-8, max_iter=2000))
        assert tr.termination == "tol"
        assert len(calls) == tr.iterations

    def test_max_iter_termination(self):
        prob = random_problem(0)
        tr = solve(prob, stop=StopRule(kkt_tol=1e-14, max_iter=3))
        assert tr.termination == "max_iter"
        assert tr.iterations == 3

    def test_stall_on_unattainable_budget(self):
        prob = random_problem(0)
        tr = solve(prob, mode="inexact",
                   tols=ToleranceSchedule.geometric(1e-300, 0.5),
                   stop=StopRule(kkt_tol=1e-12, max_iter=50))
        assert tr.termination == "stall"

    def test_constant_exact_equals_classical_iteration(self):
        """With unit momentum weights the driver reproduces the plain
        fixed-point sweep sequence."""
        prob = random_problem(2, prox_kind="zero")
        maj = prob.majorizer()
        x = solve(prob, steps=StepSchedule.constant(),
                  stop=StopRule(kkt_tol=0.0, max_iter=0)).x_final
        for k in range(1, 12):
            tr = solve(prob, steps=StepSchedule.constant(),
                       stop=StopRule(kkt_tol=0.0, max_iter=k))
            x = classical_sgs_step(prob.Q, prob.b, x, maj)
            rel = np.linalg.norm(tr.x_final.data - x.data)
            assert rel <= 1e-12 * (1.0 + np.linalg.norm(x.data))

    def test_inexact_budget_recorded(self):
        prob = random_problem(1, prox_kind="l1")
        tr = solve(prob, mode="inexact",
                   tols=ToleranceSchedule.power(1e-2, 2.0),
                   stop=StopRule(kkt_tol=1e-8, max_iter=2000))
        assert tr.termination == "tol"
        assert any(r.delta_tilde > 0 for r in tr.rows)

    def test_ssor_variant_runs(self):
        prob = random_problem(3)
        tr = solve(prob, omega=1.4,
                   stop=StopRule(kkt_tol=1e-9, max_iter=2000))
        assert tr.termination == "tol"
        assert tr.omega == 1.4

    def test_gauss_seidel_keeps_one_majorizer(self):
        prob = shifted_problem(0)
        assert prob.majorizer(None) is prob.majorizer() is prob.majorizer("sgs")
        tr = solve(prob, stop=StopRule(kkt_tol=1e-8, max_iter=500))
        assert tr.omega is None
        assert len(prob._majs) == 1

    def test_restart_schedule_converges(self):
        prob = random_problem(4, prox_kind="nonneg")
        tr = solve(prob, steps=StepSchedule.restart(10),
                   stop=StopRule(kkt_tol=1e-9, max_iter=3000))
        assert tr.termination == "tol"


def _spy_cycles(monkeypatch):
    """Record ``(xbar, Qxbar handed over, result)`` for every cycle that
    ``solve`` runs."""
    seen = []

    def spy(prob, xbar, mode, maj, **kwargs):
        res = sgs._cycle(prob, xbar, mode, maj, **kwargs)
        seen.append((xbar.data.copy(), kwargs.get("Qxbar") is not None, res))
        return res

    monkeypatch.setattr(apg, "_cycle", spy)
    return seen


@pytest.mark.parametrize("over", ["backward", "forward"])
def test_attempt_over_budget_on_one_sweep_is_retried(monkeypatch, over):
    """An inexact attempt counts only if both realized residuals, backward
    ``delta_prime`` and forward ``delta``, are within ``eps_k / t_k``.  The
    first attempt here reports one over that budget and the other under
    it, so it is rejected and the next cycle runs at half the inner
    tolerance."""
    prob, eps0 = random_problem(2), 1e-3
    part = prob.partition
    unit = np.zeros(part.total)
    unit[-1] = 1.0
    tols = []

    def first_attempt_split(prob, xbar, mode, maj, **kwargs):
        tols.append(mode.rel_tol)
        res = sgs._cycle(prob, xbar, mode, maj, **kwargs)
        if len(tols) > 1:
            return res
        big, small = (BlockVector(part, f * eps0 * unit) for f in (2.0, 0.5))
        pair = (big, small) if over == "backward" else (small, big)
        return dataclasses.replace(res, delta_prime=pair[0], delta=pair[1])

    monkeypatch.setattr(apg, "_cycle", first_attempt_split)
    tr = solve(prob, mode="inexact", tols=ToleranceSchedule.geometric(eps0, 0.5),
               stop=StopRule(kkt_tol=0.0, max_iter=1))
    assert tr.iterations == 1 and len(tols) >= 2
    assert tols[1] == tols[0] / 2
    row = tr.rows[0]
    assert max(row.delta_tilde, row.delta) <= eps0


def test_inexact_row_carries_the_norms_of_its_accepted_attempt(monkeypatch):
    """Each attempt's residuals are normed once; the row takes the norms of
    the attempt that was accepted, not of one that was rejected."""
    prob, eps0 = random_problem(2), 1e-3
    part = prob.partition
    unit = np.zeros(part.total)
    unit[-1] = 1.0
    attempts = []

    def doctored(prob, xbar, mode, maj, **kwargs):
        res = sgs._cycle(prob, xbar, mode, maj, **kwargs)
        f = 4.0 if not attempts else 0.25     # the first is over the budget
        res = dataclasses.replace(res, delta_prime=BlockVector(part, f * eps0 * unit),
                                  delta=BlockVector(part, 0.5 * f * eps0 * unit))
        attempts.append(res)
        return res

    monkeypatch.setattr(apg, "_cycle", doctored)
    tr = solve(prob, mode="inexact", tols=ToleranceSchedule.geometric(eps0, 0.5),
               stop=StopRule(kkt_tol=0.0, max_iter=1))
    assert tr.iterations == 1 and len(attempts) == 2
    row, accepted = tr.rows[0], attempts[1]
    assert (row.delta_tilde, row.delta) == (accepted.delta_prime.norm(),
                                            accepted.delta.norm())
    assert 0.0 < row.delta < row.delta_tilde <= eps0


def test_stop_target_scales_with_the_norm_of_b():
    """With ``||b||`` near 1e4, ``solve`` stops at the first iteration
    whose KKT residual is at most ``kkt_tol (1 + ||b||)``, and not before.
    The run passes through residuals between that target and one a
    hundred times looser, so a looser target would stop too early."""
    base = random_problem(1)
    prob = CompositeQP(base.Q, 1e4 * base.b.data, base.prox)
    kkt_tol = 1e-9
    target = kkt_tol * (1.0 + np.linalg.norm(prob.b.data))
    tr = solve(prob, stop=StopRule(kkt_tol=kkt_tol, max_iter=2000))
    assert tr.termination == "tol"
    assert tr.rows[-1].kkt <= target
    assert all(r.kkt > target for r in tr.rows[:-1])
    assert any(target < r.kkt <= 100 * target for r in tr.rows)


_ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 40), shifted=st.booleans(),
       dims=st.lists(st.integers(1, 4), min_size=2, max_size=5),
       b_scale=st.sampled_from([1.0, 0.0, -0.0]), data=st.data())
def test_zero_head_monitoring_is_its_formula(seed, shifted, dims, b_scale, data):
    """A zero head's ``objective`` and ``kkt_residual`` make no head call,
    and each is still its formula to the bit, a zero's sign included:
    ``0.0 + 0.5 <x, Q x> - <b, x>`` and ``hypot(||r_1||, ||r_2..s||)``
    with ``r = b - Q x``, shifted or not."""
    prob = (shifted_problem(seed, dims=tuple(dims), prox_kind="zero") if shifted
            else random_problem(seed, dims=tuple(dims)))
    prob.b.data[:] *= b_scale
    n, n1, b = prob.partition.total, dims[0], prob.b.data
    x = np.array(data.draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    Qx = prob.Q.matvec(x)
    r = b - Qx
    want = (0.0 + 0.5 * (x @ Qx) - b @ x,
            np.hypot(np.linalg.norm(r[:n1]), np.linalg.norm(r[n1:])))
    got = (prob.objective(x, Qx), prob.kkt_residual(x, Qx))
    assert [type(v) for v in got] == [float, float]
    assert np.array(got).tobytes() == np.array(want).tobytes()


class TestFactoredIteration:
    """An exact zero-prox iteration takes ``Q xbar`` by linearity from the
    monitoring products, so it costs one product and two solves with
    ``Y``; ``x'`` is never formed."""

    def test_one_product_per_iteration_plus_the_first_cycle(self, monkeypatch):
        prob = random_problem(1)
        calls = []
        orig = prob.Q.matvec
        monkeypatch.setattr(prob.Q, "matvec",
                            lambda v: calls.append(1) or orig(v))
        tr = solve(prob, stop=StopRule(kkt_tol=1e-10, max_iter=200))
        assert tr.termination == "tol" and tr.iterations > 5
        assert len(calls) <= tr.iterations + 1

    def test_cycles_solve_only_with_Y(self, monkeypatch):
        prob = random_problem(1)
        Y = prob.majorizer().factor()
        mats = []
        orig = sgs.dtrsv
        monkeypatch.setattr(sgs, "dtrsv",
                            lambda a, *args, **kw: mats.append(a) or orig(a, *args, **kw))
        seen = _spy_cycles(monkeypatch)
        tr = solve(prob, stop=StopRule(kkt_tol=1e-10, max_iter=200))
        assert tr.termination == "tol"
        assert len(seen) == tr.iterations
        assert len(mats) == 2 * len(seen)
        assert all(a is Y for a in mats)

    @pytest.mark.parametrize("case", ["nesterov", "restart3", "constant", "ssor",
                                      "shifted"])
    def test_every_cycle_matches_the_oracle(self, case, monkeypatch):
        prob = (shifted_problem(2, prox_kind="zero") if case == "shifted"
                else random_problem(5))
        steps = {"restart3": StepSchedule.restart(3),
                 "constant": StepSchedule.constant()}.get(case, StepSchedule.nesterov())
        omega = 1.4 if case == "ssor" else None
        seen = _spy_cycles(monkeypatch)
        solve(prob, steps=steps, omega=omega,
              stop=StopRule(kkt_tol=1e-10, max_iter=40))
        # every cycle is handed its product, zeros at the zero start
        assert [handed for _, handed, _ in seen] == [True] * len(seen)
        for xbar, _, res in seen:
            kind = "sgs" if res.maj.omega is None else "ssor"
            ref = dense_subproblem_solve(prob, xbar, kind=kind,
                                         omega=res.maj.omega)
            assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * (
                1.0 + np.linalg.norm(ref.data))

    @pytest.mark.parametrize("steps", [StepSchedule.nesterov(), StepSchedule.restart(3)],
                             ids=["nesterov", "restart3"])
    def test_cycle_fields_hold_after_the_loop_moves_on(self, steps, monkeypatch):
        """Each exact cycle keeps its centre uncopied and shares read-only
        zero residuals; read after the run, its ``x_prime``, residuals and
        ``Delta`` are those of the same cycle run afresh, to the bit."""
        prob = random_problem(5)
        seen = []

        def spy(prob, xbar, mode, maj, Qxbar=None):
            res = sgs._cycle(prob, xbar, mode, maj, Qxbar=Qxbar)
            seen.append((xbar.data.copy(), Qxbar.copy(), res))
            return res

        monkeypatch.setattr(apg, "_cycle", spy)
        tr = solve(prob, steps=steps, stop=StopRule(kkt_tol=1e-10, max_iter=40))
        assert tr.termination == "tol" and len(seen) == tr.iterations > 3
        for xbar, Qxbar, res in seen:
            want = sgs_cycle(prob, xbar, Qxbar=Qxbar)
            for name in ("x_plus", "x_prime", "delta_prime", "delta", "Delta"):
                np.testing.assert_array_equal(getattr(res, name).data,
                                              getattr(want, name).data)
            np.testing.assert_array_equal(res.gamma1, want.gamma1)
            assert res.xi == want.xi == 0.0
            assert not (res.delta.data.flags.writeable
                        or res.delta_prime.data.flags.writeable
                        or res.gamma1.flags.writeable)

    def test_nonzero_start_forms_its_first_product(self, monkeypatch):
        prob = random_problem(5)
        seen = _spy_cycles(monkeypatch)
        solve(prob, x0=random_point(prob, 1),
              stop=StopRule(kkt_tol=1e-10, max_iter=40))
        assert [handed for _, handed, _ in seen] == [False] + [True] * (len(seen) - 1)

    def test_iterations_match_direct_products(self, monkeypatch):
        """Over generated instances, the run with ``Q xbar`` formed by
        linearity takes the iterations of the run that multiplies."""
        probs = [gen((3,) * 6, kappa=30.0, prox_kind="zero", seed=seed).composite()
                 for seed in range(20)]
        stop = StopRule(kkt_tol=1e-10, max_iter=2000)
        fast = [solve(p, stop=stop) for p in probs]
        monkeypatch.setattr(apg, "_cycle", lambda p, x, m, maj, Qxbar=None:
                            sgs._cycle(p, x, m, maj))
        for p, got in zip(probs, fast):
            want = solve(p, stop=stop)
            assert got.termination == want.termination == "tol"
            assert got.iterations == want.iterations
            np.testing.assert_allclose(got.x_final.data, want.x_final.data,
                                       rtol=1e-10, atol=1e-12)


class TestTrace:
    _HEADER = ("k,F,kkt,primal_inf,y_norm,delta_tilde,delta,t,beta,"
               "dist_qhat,time_s")

    def test_csv_header_and_parse(self):
        prob = random_problem(0)
        xs, _ = dense_optimum(prob)
        tr = solve(prob, stop=StopRule(kkt_tol=1e-9, max_iter=200), x_star=xs)
        buf = io.StringIO()
        tr.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == self._HEADER
        assert len(lines) == 1 + tr.iterations
        first = lines[1].split(",")
        assert int(first[0]) == 1
        for cell in first[1:]:
            float(cell)  # plain decimal text, no numpy repr noise

    def test_csv_bytes(self):
        tr = SolveTrace(rows=[TraceRow(k=3, F=0.5, kkt=1e-9, primal_inf=0,
                                       y_norm=4, delta_tilde=0, delta=2,
                                       t=1.5, beta=np.nan, dist_qhat=0.1,
                                       time_s=7)])
        buf = io.StringIO()
        tr.to_csv(buf)
        assert buf.getvalue() == (
            self._HEADER + "\r\n"
            "3,0.5,1e-09,0.0,4.0,0.0,2.0,1.5,nan,0.1,7.0\r\n")

    def test_each_loop_fills_the_fields_it_has_no_use_for(self):
        """Both loops record :class:`TraceRow`s in a :class:`SolveTrace`:
        a ``solve`` row has no constraint residual and no multiplier, a
        ``palm_solve`` row no inexactness, no momentum and no distance."""
        tr = solve(random_problem(0), stop=StopRule(kkt_tol=1e-9,
                                                    max_iter=200))
        assert tr.iterations > 1
        for r in tr.rows:
            assert type(r) is TraceRow
            assert r.primal_inf == 0.0 and r.y_norm == 0.0
        lp = gen_lincon((2, 2), m=2, seed=0).lincon_problem()
        x, _, ptr = palm_solve(lp, 5.0, 1.0, stop=PalmStop(max_iter=10))
        assert type(ptr) is SolveTrace and ptr.iterations == 10
        assert ptr.x_final is x
        np.testing.assert_array_equal(ptr.x0.data, np.zeros(4))
        for r in ptr.rows:
            assert type(r) is TraceRow
            assert (r.delta_tilde, r.delta, r.t, r.beta) == (0.0, 0.0, 1.0,
                                                             0.0)
            assert np.isnan(r.dist_qhat)
            assert r.y_norm > 0.0 and r.primal_inf > 0.0

    @pytest.mark.parametrize("prox_kind,path", [("zero", tuple), ("l1", BlockVector)])
    def test_exact_rows_record_zero_residuals(self, prox_kind, path, monkeypatch):
        """An exact run, by the factored step (zero head) or by the sweep
        (``l1`` head), records ``delta_tilde = delta = 0.0`` on every row."""
        seen = _spy_cycles(monkeypatch)
        tr = solve(random_problem(1, prox_kind=prox_kind),
                   stop=StopRule(kkt_tol=1e-10, max_iter=200))
        assert tr.termination == "tol" and tr.iterations > 3
        assert all(type(res.backward) is path for *_, res in seen)
        for r in tr.rows:
            assert r.delta_tilde == r.delta == 0.0
            assert type(r.delta_tilde) is float and type(r.delta) is float

    def test_distance_column_needs_reference(self):
        prob = random_problem(0)
        tr = solve(prob, stop=StopRule(kkt_tol=1e-9, max_iter=200))
        assert all(np.isnan(r.dist_qhat) for r in tr.rows)


class TestCertificates:
    def test_require_reference_point(self):
        prob = random_problem(0)
        tr = solve(prob, stop=StopRule(kkt_tol=1e-9, max_iter=200))
        _, fs = dense_optimum(prob)
        with pytest.raises(InvalidParams):
            complexity_certificates(tr, prob, StepSchedule.nesterov(),
                                    ToleranceSchedule.exact(), fs)

    @pytest.mark.parametrize("prox_kind", ["zero", "l1"])
    def test_accelerated_exact(self, prox_kind):
        prob = random_problem(1, prox_kind=prox_kind)
        xs, fs = dense_optimum(prob)
        steps, tols = StepSchedule.nesterov(), ToleranceSchedule.exact()
        tr = solve(prob, steps=steps, tols=tols,
                   stop=StopRule(kkt_tol=1e-10, max_iter=500), x_star=xs)
        rep = complexity_certificates(tr, prob, steps, tols, fs)
        assert rep.kind == "nesterov"
        assert rep.ok
        assert len(rep.rows) == tr.iterations
        assert rep.linear_rows == []

    def test_gap_decaying_like_one_over_k_fails_the_accelerated_bound(self):
        """A doctored trace whose objective gap is ``dist0^2 / (2k)`` meets
        the bound at ``k = 1`` and stays within ``2 dist0^2 / (k + 1)``,
        yet breaks the accelerated ``2 dist0^2 / (k + 1)^2`` after it."""
        prob = random_problem(1)
        xs, fs = dense_optimum(prob)
        steps, tols = StepSchedule.nesterov(), ToleranceSchedule.exact()
        tr = solve(prob, steps=steps, tols=tols,
                   stop=StopRule(kkt_tol=1e-10, max_iter=500), x_star=xs)
        assert complexity_certificates(tr, prob, steps, tols, fs).ok
        d2 = tr.dist0_qhat ** 2
        slow = dataclasses.replace(tr, rows=[
            dataclasses.replace(r, F=fs + d2 / (2.0 * r.k)) for r in tr.rows])
        rep = complexity_certificates(slow, prob, steps, tols, fs)
        assert tr.iterations >= 3
        assert rep.ok is False
        assert rep.rows[0][3] and not any(ok for *_, ok in rep.rows[1:])

    def test_accelerated_inexact(self):
        prob = random_problem(2, prox_kind="nonneg")
        xs, fs = dense_optimum(prob)
        steps = StepSchedule.nesterov()
        tols = ToleranceSchedule.power(1e-3, 2.0)
        tr = solve(prob, steps=steps, tols=tols, mode="inexact",
                   stop=StopRule(kkt_tol=1e-9, max_iter=2000), x_star=xs)
        rep = complexity_certificates(tr, prob, steps, tols, fs)
        assert rep.ok

    def test_constant_exact_with_linear_envelope(self):
        prob = random_problem(3, prox_kind="zero")
        xs, fs = dense_optimum(prob)
        steps, tols = StepSchedule.constant(), ToleranceSchedule.exact()
        tr = solve(prob, steps=steps, tols=tols,
                   stop=StopRule(kkt_tol=1e-10, max_iter=3000), x_star=xs)
        rep = complexity_certificates(tr, prob, steps, tols, fs)
        assert rep.kind == "constant"
        assert rep.ok
        assert rep.contraction is not None and 0 < rep.contraction < 1
        assert len(rep.linear_rows) == tr.iterations

    def test_constant_singular_skips_linear_envelope(self):
        prob = random_problem(0, dims=(2, 2, 2), singular=True)
        xs, fs = dense_optimum(prob)
        steps, tols = StepSchedule.constant(), ToleranceSchedule.exact()
        tr = solve(prob, steps=steps, tols=tols,
                   stop=StopRule(kkt_tol=1e-8, max_iter=4000), x_star=xs)
        rep = complexity_certificates(tr, prob, steps, tols, fs)
        assert rep.ok
        assert rep.contraction is None
        assert rep.linear_rows == []

    def test_per_step_contraction_within_operator_norm(self):
        prob = random_problem(5, prox_kind="zero")
        xs, _ = dense_optimum(prob)
        rho = contraction_factor(prob.majorizer())
        tr = solve(prob, steps=StepSchedule.constant(),
                   stop=StopRule(kkt_tol=1e-11, max_iter=4000), x_star=xs)
        dists = [tr.dist0_qhat] + [r.dist_qhat for r in tr.rows]
        # once the distance sinks toward machine noise the ratio is no longer
        # observable to 1e-8, so stop comparing there
        floor = 1e-5 * max(1.0, tr.dist0_qhat)
        checked = 0
        for prev, cur in zip(dists, dists[1:]):
            if prev <= floor:
                break
            assert cur / prev <= rho + 1e-8
            checked += 1
        assert checked >= 3


    def test_restart_schedule_is_reported_uncertified(self):
        """No closed-form bound covers restarted momentum: the report has
        kind ``"none"``, no rows, and is not ``ok``."""
        prob = random_problem(1, prox_kind="l1")
        xs, fs = dense_optimum(prob)
        steps, tols = StepSchedule.restart(5), ToleranceSchedule.exact()
        tr = solve(prob, steps=steps, tols=tols,
                   stop=StopRule(kkt_tol=1e-10, max_iter=500), x_star=xs)
        assert tr.termination == "tol"
        rep = complexity_certificates(tr, prob, steps, tols, fs)
        assert rep.kind == "none"
        assert rep.rows == [] and rep.linear_rows == []
        assert rep.ok is False


class TestContractionFactor:
    def test_anchor_value(self):
        assert contraction_factor(anchor_2x2().majorizer()) == pytest.approx(
            0.25, abs=1e-12)

    def test_rejects_singular(self):
        prob = random_problem(0, dims=(2, 2, 2), singular=True)
        with pytest.raises(NotPD):
            contraction_factor(prob.majorizer())
