import dataclasses
import io

import numpy as np
import pytest
import scipy.sparse.linalg

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    Majorizer,
    SolveTrace,
    StepSchedule,
    StopRule,
    ToleranceSchedule,
    classical_sgs_step,
    complexity_certificates,
    contraction_factor,
    solve,
    sgs_operator,
)
from sgsqp import apg, sgs
from sgsqp.apg import TraceRow
from sgsqp.errors import InvalidParams, NotPD
from sgsqp.instances import gen
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
            kind = "sgs" if res.omega is None else "ssor"
            ref = dense_subproblem_solve(prob, xbar, kind=kind, omega=res.omega)
            assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * (
                1.0 + np.linalg.norm(ref.data))

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
    _HEADER = "k,F,kkt,delta_tilde,delta,t,beta,dist_qhat,time_s"

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
        tr = SolveTrace(rows=[TraceRow(k=3, F=0.5, kkt=1e-9, delta_tilde=0,
                                       delta=2, t=1.5, beta=np.nan,
                                       dist_qhat=0.1, time_s=7)])
        buf = io.StringIO()
        tr.to_csv(buf)
        assert buf.getvalue() == (self._HEADER + "\r\n"
                                  "3,0.5,1e-09,0.0,2.0,1.5,nan,0.1,7.0\r\n")

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


class TestContractionFactor:
    def test_anchor_value(self):
        assert contraction_factor(anchor_2x2().majorizer()) == pytest.approx(
            0.25, abs=1e-12)

    def test_rejects_singular(self):
        prob = random_problem(0, dims=(2, 2, 2), singular=True)
        with pytest.raises(NotPD):
            contraction_factor(prob.majorizer())
