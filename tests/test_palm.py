import numpy as np
import pytest

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    PalmStop,
    ProxSpec,
    palm_solve,
    qsdp_to_lincon,
    sgs_cycle,
    smat,
    svec,
    svec_dim,
)
from sgsqp import palm, proxmap
from sgsqp.blockla import Majorizer
from sgsqp.errors import InvalidParams, TauOutOfRange
from sgsqp.instances import gen_lincon, gen_qsdp
from sgsqp.oracle import (dense_kkt_solve, psd_project, qsdp_assemble,
                          qsdp_sgs_step)
from sgsqp.palm import LinConQP, QsdpData, assemble_penalized
from sgsqp.proxmap import prox_value

from conftest import indefinite_lincon_2x2


def lagrangian(prob, sigma, x, y, via="definition"):
    """Augmented Lagrangian value, computed one of two ways.

    ``"definition"``: F(x) + <y, Ax-d> + (sigma/2)||Ax-d||^2.
    ``"expansion"``: the quadratic form actually minimized in Step 1,
    p(x_1) + (1/2)<x, (P + sigma A^T A) x> - <g + A^T(sigma d - y), x>
    plus the constant (sigma/2)||d||^2 - <d, y>.  The two must agree.
    """
    xd = np.asarray(x, dtype=float)
    if via == "definition":
        r = prob.A @ xd - prob.d
        return prob.objective(xd) + y @ r + 0.5 * sigma * (r @ r)
    if via == "expansion":
        n1 = prob.partition.dims[0]
        Ax = prob.A @ xd
        quad = prob.P.matvec(xd) + sigma * (prob.A.T @ Ax)
        lin = prob.g + prob.A.T @ (sigma * prob.d - y)
        return (prox_value(prob.prox, xd[:n1]) + 0.5 * xd @ quad - lin @ xd
                + 0.5 * sigma * (prob.d @ prob.d) - prob.d @ y)
    raise InvalidParams(f"unknown evaluation path {via!r}")


def _projection_problem():
    """Minimize 0 subject to Ax = d; the square trailing block makes a
    single sweep land exactly on the constraint."""
    part = BlockPartition((2, 2))
    P = BlockSymOperator(part, {}, factor_diag=False)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 4))
    d = rng.standard_normal(2)
    return LinConQP(P, A, np.zeros(4), d)


class TestLinConQP:
    def test_objective_and_residual(self):
        lp = gen_lincon((2, 2), m=2, seed=0).lincon_problem()
        rng = np.random.default_rng(1)
        x = BlockVector(lp.partition, rng.standard_normal(4))
        Pd = lp.P.dense()
        want = 0.5 * x.data @ (Pd @ x.data) - lp.g @ x.data
        assert lp.objective(x) == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(lp.constraint_residual(x),
                                   lp.A @ x.data - lp.d, atol=1e-14)

    def test_kkt_zero_at_saddle_point(self):
        lp = gen_lincon((2, 3), m=2, seed=3).lincon_problem()
        xs, ys = dense_kkt_solve(lp.P.dense(), lp.A, lp.g, lp.d)
        dual, primal = lp.kkt(BlockVector(lp.partition, xs), ys)
        assert dual <= 1e-9 and primal <= 1e-9

    def test_precomputed_terms_are_bit_identical(self):
        lp = gen_qsdp(4, 3, seed=2).lincon_problem()
        rng = np.random.default_rng(5)
        x = BlockVector(lp.partition, rng.standard_normal(lp.partition.total))
        y = rng.standard_normal(lp.A.shape[0])
        Px = lp.P.matvec(x.data)
        assert lp.objective(x, Px) == lp.objective(x)
        assert lp.kkt(x, y, Px, lp.constraint_residual(x)) == lp.kkt(x, y)
        assert lp.kkt(x, y, Px, lp.constraint_residual(x),
                      lp.A.T @ y) == lp.kkt(x, y)

    def test_products_per_iteration(self, monkeypatch):
        lp = gen_lincon((2, 3), m=2, seed=3).lincon_problem()
        calls = {"matvec": 0, "residual": 0}
        matvec, resid = lp.P.matvec, lp.constraint_residual

        def count(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(lp.P, "matvec", count("matvec", matvec))
        monkeypatch.setattr(lp, "constraint_residual", count("residual", resid))
        _, _, tr = palm_solve(lp, 1.0, 1.0,
                              stop=PalmStop(kkt_tol=1e-8, max_iter=200))
        assert tr.termination == "tol"
        assert calls == {"matvec": tr.iterations, "residual": tr.iterations}

    def test_eigendecompositions_per_iteration(self, monkeypatch):
        lp = gen_qsdp(4, 3).lincon_problem()
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def wrapped(*args, _fn=getattr(proxmap, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(proxmap, name, wrapped)
        _, _, tr = palm_solve(lp, 1.0, 1.6,
                              stop=PalmStop(kkt_tol=1e-6, max_iter=2000))
        assert tr.termination == "tol"
        # one projection per iteration plus the start point's; the
        # certificate adds at most the kernel block's eigenvalues
        assert calls["eigh"] == tr.iterations + 1
        assert sum(calls.values()) <= 2 * tr.iterations + 1

    def test_nonfinite_head_distance_reads_inf(self):
        """As in ``CompositeQP.kkt_residual``: a NaN multiplier makes the
        head distance NaN, and the dual residual reads inf."""
        lp = gen_lincon((2, 2), m=2, prox_kind="nonneg", seed=0).lincon_problem()
        x = BlockVector(lp.partition, np.abs(np.random.default_rng(1).standard_normal(4)))
        dual, primal = lp.kkt(x, np.array([np.nan, 0.0]))
        assert dual == np.inf and np.isfinite(primal)

    def test_shape_validation(self):
        from sgsqp.errors import DimensionMismatch
        part = BlockPartition((2, 2))
        P = BlockSymOperator(part, {}, factor_diag=False)
        with pytest.raises(DimensionMismatch):
            LinConQP(P, np.zeros((2, 3)), np.zeros(4), np.zeros(2))


class TestAssemblePenalized:
    def test_dense_identity(self):
        lp = gen_lincon((2, 2, 3), m=3, seed=5).lincon_problem()
        sigma = 4.0
        inner = assemble_penalized(lp, sigma)
        want = lp.P.dense() + sigma * lp.A.T @ lp.A
        np.testing.assert_allclose(inner.Q.dense(), want,
                                   atol=1e-12 * (1 + np.linalg.norm(want)))

    def test_first_block_shift_added_for_nonsmooth(self):
        lp = gen_lincon((2, 2), m=2, prox_kind="nonneg", seed=2).lincon_problem()
        inner = assemble_penalized(lp, 2.0)
        assert inner.shifts is not None
        Q00 = inner.Q.block(0, 0)
        J0 = inner.shifts[0]
        eff = Q00 + J0
        mu = eff[0, 0]
        np.testing.assert_allclose(eff, mu * np.eye(2), atol=1e-10 * mu)


    @pytest.mark.parametrize("rank", [None, 0])
    def test_head_block_is_tested_once(self, monkeypatch, rank):
        """A QSDP's penalized head block, ``sigma I``, is tested for a
        multiple of the identity once per assembly, and needs no shift."""
        calls = []
        real = proxmap._identity_multiple

        def counted(A):
            calls.append(A.shape)
            return real(A)

        monkeypatch.setattr(proxmap, "_identity_multiple", counted)
        lp = gen_qsdp(4, 2, seed=0, rank_H=rank).lincon_problem()
        inner = assemble_penalized(lp, 1.5)
        assert calls == [(10, 10)]
        assert inner.shifts is None and inner._mu == 1.5


class TestIdentityBlock:
    """A QSDP's ``A = [I, B^T, H V]``: products skip the leading identity,
    and any other ``A`` keeps the plain products, bit for bit."""

    @staticmethod
    def _point(lp, seed=5):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(lp.partition.total), rng.standard_normal(lp.A.shape[0])

    @pytest.mark.parametrize("rank", [None, 0])
    def test_qsdp_products_match_the_dense_ones(self, rank):
        lp = gen_qsdp(5, 3, seed=1, rank_H=rank).lincon_problem()
        m = lp.A.shape[0]
        assert lp._e == m and lp.partition.s == (3 if rank is None else 2)
        assert lp.A.shape == (m, lp.partition.total)       # still dense
        x, y = self._point(lp)
        want_r, want_ATy = lp.A @ x - lp.d, lp.A.T @ y
        got_r = lp.constraint_residual(x)
        assert np.linalg.norm(got_r - want_r) <= 1e-14 * np.linalg.norm(want_r)
        assert (np.linalg.norm(lp.rmatvec(y) - want_ATy)
                <= 1e-14 * np.linalg.norm(want_ATy))
        n1 = lp.partition.dims[0]
        r = lp.g - lp.P.matvec(x) - want_ATy
        want = (proxmap.kkt_distance(lp.prox, x, r, n1), np.linalg.norm(want_r))
        assert lp.kkt(x, y) == pytest.approx(want, rel=1e-14)

    def test_a_leading_block_one_ulp_from_the_identity_keeps_the_plain_products(self):
        lp = gen_qsdp(4, 3, seed=2).lincon_problem()
        A = lp.A.copy()
        A[1, 1] = np.nextafter(1.0, 2.0)
        near = LinConQP(lp.P, A, lp.g, lp.d, prox=lp.prox)
        assert near._e == 0
        x, y = self._point(near)
        np.testing.assert_array_equal(near.constraint_residual(x), A @ x - near.d)
        np.testing.assert_array_equal(near.rmatvec(y), A.T @ y)
        Px = near.P.matvec(x)
        assert near.kkt(x, y) == near.kkt(x, y, Px, A @ x - near.d, A.T @ y)
        inner, part = assemble_penalized(near, 1.5), near.partition
        for i in range(part.s):
            for j in range(i, part.s):
                Ai, Aj = A[:, part.slice(i)], A[:, part.slice(j)]
                assert inner.Q.block(i, j).tobytes() == (
                    1.5 * (Ai.T @ Aj) + near.P.block(i, j)).tobytes()

    def test_a_lincon_problem_has_no_identity_block(self):
        lp = gen_lincon((3, 4, 2), m=3, prox_kind="box", seed=1).lincon_problem()
        assert lp._e == 0 and lp._A_rest is lp.A

    @pytest.mark.parametrize("rank", [None, 0])
    def test_penalized_identity_blocks_are_the_scaled_rows(self, rank):
        lp = gen_qsdp(4, 3, seed=3, rank_H=rank).lincon_problem()
        sigma, part = 1.7, lp.partition
        inner = assemble_penalized(lp, sigma)
        eye = np.eye(lp.A.shape[0])
        for j in range(part.s):
            Aj = lp.A[:, part.slice(j)]
            assert inner.Q.block(0, j).tobytes() == (
                sigma * (eye @ Aj) + lp.P.block(0, j)).tobytes()
        # the blocks off the identity are still the plain products
        for i in range(1, part.s):
            for j in range(i, part.s):
                Ai, Aj = lp.A[:, part.slice(i)], lp.A[:, part.slice(j)]
                assert inner.Q.block(i, j).tobytes() == (
                    sigma * (Ai.T @ Aj) + lp.P.block(i, j)).tobytes()

    @pytest.mark.parametrize("rank", [None, 0])
    def test_split_products_keep_the_dense_run(self, rank):
        """The loop through the split products stops where the one
        through the dense ``A`` does, at the same objective."""
        lp = gen_qsdp(5, 3, seed=4, rank_H=rank).lincon_problem()
        dense = LinConQP(lp.P, lp.A, lp.g, lp.d, prox=lp.prox)
        dense._e, dense._A_rest = 0, dense.A
        stop = PalmStop(kkt_tol=1e-8, max_iter=2000)
        _, _, split_tr = palm_solve(lp, 1.0, 1.6, stop=stop)
        _, _, dense_tr = palm_solve(dense, 1.0, 1.6, stop=stop)
        assert split_tr.termination == dense_tr.termination == "tol"
        assert split_tr.iterations == dense_tr.iterations
        assert split_tr.rows[-1].F == pytest.approx(dense_tr.rows[-1].F, rel=1e-12)


class TestPalmSolve:
    def test_projection_in_one_sweep(self):
        lp = _projection_problem()
        x, y, tr = palm_solve(lp, sigma=1.0, tau=1.0,
                              stop=PalmStop(kkt_tol=1e-10, max_iter=50))
        assert tr.termination == "tol"
        assert len(tr.rows) == 1
        assert np.linalg.norm(lp.A @ x.data - lp.d) <= 1e-12

    @pytest.mark.parametrize("tau", [1.0, 1.6, 1.9])
    def test_matches_saddle_oracle(self, tau):
        lp = gen_lincon((2, 3, 2), m=3, seed=1).lincon_problem()
        xs, ys = dense_kkt_solve(lp.P.dense(), lp.A, lp.g, lp.d)
        x, y, tr = palm_solve(lp, sigma=10.0, tau=tau,
                              stop=PalmStop(kkt_tol=1e-9, max_iter=10000))
        assert tr.termination == "tol"
        scale = 1.0 + np.linalg.norm(xs)
        assert np.linalg.norm(x.data - xs) <= 1e-6 * scale
        assert np.linalg.norm(y - ys) <= 1e-6 * (1.0 + np.linalg.norm(ys))

    def test_stationary_at_saddle_point(self):
        lp = gen_lincon((2, 2, 2), m=2, seed=7).lincon_problem()
        xs, ys = dense_kkt_solve(lp.P.dense(), lp.A, lp.g, lp.d)
        x, y, tr = palm_solve(lp, sigma=5.0, tau=1.5,
                              x0=BlockVector(lp.partition, xs), y0=ys,
                              stop=PalmStop(kkt_tol=np.inf, max_iter=1))
        scale = 1.0 + np.linalg.norm(xs)
        assert np.linalg.norm(x.data - xs) <= 1e-9 * scale
        assert np.linalg.norm(y - ys) <= 1e-9 * scale

    def test_multiplier_step_is_scaled_by_tau(self):
        """One iteration returns ``y = y0 + tau sigma (A x+ - d)``."""
        lp = gen_lincon((2, 3, 2), m=3, seed=1).lincon_problem()
        sigma, tau, y0 = 2.0, 1.5, np.array([0.3, -1.2, 0.7])
        x, y, tr = palm_solve(lp, sigma, tau, y0=y0, stop=PalmStop(max_iter=1))
        assert tr.iterations == 1
        resid = lp.A @ x.data - lp.d
        assert np.linalg.norm(resid) > 1e-3
        np.testing.assert_allclose(y, y0 + tau * sigma * resid, rtol=1e-14, atol=0)

    def test_multiplier_update_is_not_an_option(self):
        """The multiplier step always takes the fresh iterate; there is no
        keyword to choose another."""
        lp = _projection_problem()
        with pytest.raises(TypeError):
            palm_solve(lp, sigma=1.0, tau=1.0, multiplier_update="new")

    @pytest.mark.parametrize("case", ["lincon", "qsdp"])
    def test_cycles_are_handed_their_centre_product(self, monkeypatch, case):
        """Every cycle gets ``Q_sigma xbar``, zeros at the zero start, and
        makes no product of its own."""
        lp = (gen_lincon((2, 3), m=2, seed=3) if case == "lincon"
              else gen_qsdp(4, 3)).lincon_problem()
        seen = []

        def spy(inner, xbar, mode="exact", Qxbar=None):
            seen.append((inner.Q.matvec(np.asarray(xbar)), Qxbar))
            return sgs_cycle(inner, xbar, mode=mode, Qxbar=Qxbar)

        monkeypatch.setattr(palm, "sgs_cycle", spy)
        _, _, tr = palm_solve(lp, 2.0, 1.0,
                              stop=PalmStop(kkt_tol=1e-8, max_iter=300))
        assert len(seen) == tr.iterations > 3
        assert not seen[0][1].any()
        for want, got in seen:
            scale = 1.0 + np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-12 * scale

    @pytest.mark.parametrize("case", ["qsdp", "box"])
    def test_each_iteration_calls_the_traced_names_once(self, monkeypatch, case):
        """The benchmark's tracer wraps these names where their owners hold
        them: each iteration calls the cycle, the shift term and the three
        monitoring methods once, and a solve assembles once."""
        lp = (gen_qsdp(4, 3) if case == "qsdp"
              else gen_lincon((3, 4, 2), m=2, prox_kind="box", seed=1)).lincon_problem()
        calls = {}
        for owner, attr in [(palm, "sgs_cycle"), (palm, "assemble_penalized"),
                            (LinConQP, "kkt"), (LinConQP, "objective"),
                            (LinConQP, "constraint_residual"),
                            (CompositeQP, "effective_b")]:
            def counted(*args, _fn=owner.__dict__[attr], _name=attr, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        _, _, tr = palm_solve(lp, 1.0, 1.6, stop=PalmStop(kkt_tol=1e-8, max_iter=300))
        assert tr.termination == "tol" and tr.iterations > 3
        per_iter = ("sgs_cycle", "effective_b", "kkt", "objective", "constraint_residual")
        assert calls == {"assemble_penalized": 1,
                         **{name: tr.iterations for name in per_iter}}

    @pytest.mark.parametrize("tau", [0.0, 2.0, -0.5, np.nan])
    def test_tau_range(self, tau):
        lp = _projection_problem()
        with pytest.raises(TauOutOfRange):
            palm_solve(lp, sigma=1.0, tau=tau)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0, -1.0, "1"])
    def test_bad_sigma_refused(self, sigma):
        lp = _projection_problem()
        with pytest.raises(InvalidParams, match="sigma"):
            palm_solve(lp, sigma=sigma, tau=1.0)
        with pytest.raises(InvalidParams, match="sigma"):
            assemble_penalized(lp, sigma)

    @pytest.mark.parametrize("tau", ["1", None, [1.0]])
    def test_tau_that_is_not_a_real_refused(self, tau):
        lp = _projection_problem()
        with pytest.raises(InvalidParams, match="tau"):
            palm_solve(lp, sigma=1.0, tau=tau)

    def test_run_computes_no_certificate(self, monkeypatch):
        """Exact cycles with a nonsmooth head run no factored step and
        certify nothing: the run is the same with the majorizer's factor,
        perturbation and diagonal norm unusable."""
        lp = gen_lincon((2, 2, 2), m=2, prox_kind="nonneg", seed=9).lincon_problem()
        stop = PalmStop(kkt_tol=1e-7, max_iter=10000)
        want = palm_solve(lp, sigma=10.0, tau=1.6, stop=stop)

        def refuse(*_args, **_kw):
            raise AssertionError("a certificate was computed")

        for name in ("factor", "perturbation", "dinv_norm"):
            monkeypatch.setattr(Majorizer, name, refuse)
        x, y, tr = palm_solve(lp, sigma=10.0, tau=1.6, stop=stop)
        assert tr.termination == want[2].termination == "tol"
        assert tr.iterations == want[2].iterations
        np.testing.assert_array_equal(x.data, want[0].data)
        np.testing.assert_array_equal(y, want[1])

    def test_nonsmooth_constrained_run(self):
        lp = gen_lincon((2, 2, 2), m=2, prox_kind="nonneg",
                        seed=9).lincon_problem()
        x, y, tr = palm_solve(lp, sigma=10.0, tau=1.6,
                              stop=PalmStop(kkt_tol=1e-7, max_iter=10000))
        assert tr.termination == "tol"
        assert np.min(x.block(0)) >= -1e-10

    def test_trace_csv(self, tmp_path):
        lp = gen_lincon((2, 2), m=2, seed=0).lincon_problem()
        _, _, tr = palm_solve(lp, sigma=5.0, tau=1.0,
                              stop=PalmStop(kkt_tol=1e-8, max_iter=2000))
        out = tmp_path / "trace.csv"
        tr.to_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("k,F,kkt,primal_inf,y_norm,delta_tilde,delta,t,"
                            "beta,dist_qhat,time_s")
        for cell in lines[1].split(",")[1:]:
            float(cell)

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_stops_silently_at_last_finite_pair(self):
        lp = indefinite_lincon_2x2()
        x, y, tr = palm_solve(lp, sigma=0.1, tau=1.0,
                              stop=PalmStop(max_iter=3000))
        assert tr.termination == "nonfinite"
        assert 0 < tr.iterations < 3000
        assert all(np.isfinite([r.kkt, r.primal_inf]).all() for r in tr.rows)
        assert np.isfinite(x.data).all() and np.isfinite(y).all()
        # (x, y) is the pair of the last recorded row
        xc, yc, capped = palm_solve(lp, sigma=0.1, tau=1.0,
                                    stop=PalmStop(max_iter=tr.iterations))
        assert capped.termination == "max_iter"
        np.testing.assert_array_equal(x.data, xc.data)
        np.testing.assert_array_equal(y, yc)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_head_run_prints_no_warning(self):
        """A PSD-cone head over an indefinite ``P``: the run overflows,
        and the multiplier's norm must not warn before it stops."""
        part = BlockPartition((6, 2))
        P = BlockSymOperator(part, {(1, 1): -5.0 * np.eye(2)},
                             factor_diag=False)
        rng = np.random.default_rng(0)
        A = np.hstack([np.eye(6), rng.standard_normal((6, 2))])
        lp = LinConQP(P, A, rng.standard_normal(8), rng.standard_normal(6),
                      prox=ProxSpec.psd_cone(3))
        x, y, tr = palm_solve(lp, 10.0, 1.0,
                              stop=PalmStop(kkt_tol=1e-9, max_iter=5000))
        assert tr.termination == "nonfinite"
        assert np.isfinite(x.data).all() and np.isfinite(y).all()

    def test_multiplier_norm_does_not_overflow(self):
        """A finite multiplier near 1e200, here in the kernel of ``A^T``,
        records a finite norm; in the normal range it is numpy's, exactly."""
        part = BlockPartition((1, 1))
        P = BlockSymOperator(part, {(0, 0): np.eye(1), (1, 1): np.eye(1)})
        lp = LinConQP(P, [[1.0, 0.0], [-1.0, 0.0]], np.ones(2), [0.5, -0.5])
        _, y, tr = palm_solve(lp, 1.0, 1.0, y0=np.full(2, 1e200),
                              stop=PalmStop(max_iter=1))
        assert np.isfinite(y).all() and np.abs(y).max() >= 1e200
        assert tr.rows[0].y_norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        lp = gen_lincon((2, 2), m=2, seed=0).lincon_problem()
        _, y, tr = palm_solve(lp, 5.0, 1.0, stop=PalmStop(max_iter=20))
        assert tr.rows[-1].y_norm == np.linalg.norm(y) > 0.0


class TestLagrangian:
    def test_definition_equals_expansion(self):
        lp = gen_lincon((2, 3), m=2, seed=6).lincon_problem()
        rng = np.random.default_rng(0)
        x = BlockVector(lp.partition, rng.standard_normal(5))
        y = rng.standard_normal(2)
        a = lagrangian(lp, 3.0, x, y, via="definition")
        b = lagrangian(lp, 3.0, x, y, via="expansion")
        assert a == pytest.approx(b, rel=1e-12)


def test_palm_binds_no_oracle_helper():
    from sgsqp import oracle, palm
    for name in ("psd_project", "range_basis", "spectral_norm"):
        assert not hasattr(palm, name)
        assert getattr(oracle, name) not in vars(palm).values()


class TestQsdp:
    def test_range_coords_bit_identical_to_oracle(self):
        from sgsqp.oracle import range_basis
        q = gen_qsdp(20, 10).qsdp
        np.testing.assert_array_equal(q.range_coords(), range_basis(q.H))

    def test_data_validation(self):
        from sgsqp.errors import ShapeMismatch
        d = svec_dim(3)
        with pytest.raises(ShapeMismatch):
            QsdpData(3, np.eye(d + 1), np.zeros((1, d)), np.zeros(1), np.eye(3))

    @pytest.mark.parametrize("n", [2.7, 0, -1, True, "2"])
    def test_order_must_be_a_positive_int(self, n):
        """``n = 2.7`` once became 2 and fit 3x3 data; now it is refused."""
        with pytest.raises(InvalidParams, match="n must be an int >= 1"):
            QsdpData(n, np.eye(3), np.ones((1, 3)), np.zeros(1), np.eye(2))

    def test_asymmetric_H_is_not_symmetric(self):
        from sgsqp.errors import NotSymmetric
        H = np.eye(3)
        H[0, 1] = 0.5
        with pytest.raises(NotSymmetric):
            QsdpData(2, H, np.ones((1, 3)), np.zeros(1), np.eye(2))

    def test_asymmetric_C_is_not_symmetric(self):
        """``C`` is refused as ``H`` is, at the same relative tolerance,
        instead of being symmetrized; a rounding-level asymmetry is
        symmetrized exactly."""
        from sgsqp.errors import NotSymmetric
        with pytest.raises(NotSymmetric, match="C"):
            QsdpData(2, np.eye(3), np.ones((1, 3)), np.zeros(1), [[1, 2], [0, 1]])
        C = np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
        q = QsdpData(2, np.eye(3), np.ones((1, 3)), np.zeros(1), C)
        assert (q.C == q.C.T).all()

    def test_assembled_blocks_dense_anchor(self):
        d = svec_dim(2)
        H = np.eye(d)
        B = np.array([[1.0, 0.0, 1.0]])
        q = QsdpData(2, H, B, np.array([0.5]), np.diag([1.0, -0.5]))
        sigma = 2.0
        inner = qsdp_assemble(q, sigma, np.zeros((2, 2)))
        V = q.range_coords()
        want = np.block([
            [sigma * np.eye(d), sigma * B.T, sigma * H @ V],
            [sigma * B, sigma * B @ B.T, sigma * B @ H @ V],
            [(sigma * H @ V).T, (sigma * B @ H @ V).T,
             V.T @ (H + sigma * H @ H) @ V],
        ])
        np.testing.assert_allclose(inner.Q.dense(), want, atol=1e-12)
        u = svec(sigma * np.diag([1.0, -0.5]))
        np.testing.assert_allclose(inner.b.data[:d], u, atol=1e-14)
        assert inner.prox.kind == "psd_cone"

    def test_assembled_operator_psd(self):
        inst = gen_qsdp(4, 2, seed=3)
        q = QsdpData(**{k: inst.qsdp[k] for k in ("n", "H", "B", "h", "C")}) \
            if isinstance(inst.qsdp, dict) else inst.qsdp
        inner = qsdp_assemble(q, 1.5, np.zeros((4, 4)))
        w = np.linalg.eigvalsh(inner.Q.dense())
        assert w.min() >= -1e-9 * max(1.0, w.max())

    @pytest.mark.parametrize("seed,rank", [(0, None), (1, 2), (2, 0)])
    def test_matrix_step_equals_generic_cycle(self, seed, rank):
        inst = gen_qsdp(4, 2, seed=seed, rank_H=rank)
        q = _qsdp_from_instance(inst)
        sigma = 1.7
        rng = np.random.default_rng(seed + 10)
        A0 = rng.standard_normal((4, 4))
        Y = A0 + A0.T
        Z0 = rng.standard_normal((4, 4))
        Z = psd_project(Z0 + Z0.T)
        xi = rng.standard_normal(2)
        W0 = rng.standard_normal((4, 4))
        W = W0 + W0.T
        HW = smat(q.H @ svec(W), 4)
        Znew, xinew, HWnew = qsdp_sgs_step(q, sigma, (Z, xi, HW), Y)

        inner = qsdp_assemble(q, sigma, Y)
        V = q.range_coords()
        r = V.shape[1]
        # generic state: (svec Z, xi, w) with the w-coordinates chosen so
        # that H w reproduces the matrix state's HW
        xbar = _qsdp_state_vector(q, inner.partition, Z, xi, HW)
        res = sgs_cycle(inner, xbar)
        d = svec_dim(4)
        scale = 1.0 + np.linalg.norm(res.x_plus.data)
        np.testing.assert_allclose(svec(Znew), res.x_plus.data[:d],
                                   atol=1e-10 * scale)
        np.testing.assert_allclose(xinew, res.x_plus.data[d:d + 2],
                                   atol=1e-10 * scale)
        if r:
            w_plus = res.x_plus.data[d + 2:]
            np.testing.assert_allclose(svec(HWnew), q.H @ (V @ w_plus),
                                       atol=1e-10 * scale)
        else:
            np.testing.assert_allclose(svec(HWnew), 0.0, atol=1e-12)

    def test_step_fixed_point_is_stationary(self):
        inst = gen_qsdp(3, 2, seed=5)
        q = _qsdp_from_instance(inst)
        sigma = 2.0
        Y = np.zeros((3, 3))
        Z = np.eye(3)
        xi = np.zeros(2)
        HW = np.zeros((3, 3))
        state = (Z, xi, HW)
        for _ in range(400):
            state = qsdp_sgs_step(q, sigma, state, Y)
        Z1, xi1, HW1 = qsdp_sgs_step(q, sigma, state, Y)
        assert np.linalg.norm(Z1 - state[0]) <= 1e-9 * (1 + np.linalg.norm(Z1))
        assert np.linalg.norm(xi1 - state[1]) <= 1e-9 * (1 + np.linalg.norm(xi1))

    def test_lincon_form_matches_assembly(self):
        inst = gen_qsdp(4, 3, seed=8)
        q = _qsdp_from_instance(inst)
        lp = qsdp_to_lincon(q)
        d = svec_dim(4)
        V = q.range_coords()
        r = V.shape[1]
        assert lp.A.shape == (d, d + 3 + r)
        np.testing.assert_allclose(lp.A[:, :d], np.eye(d), atol=1e-14)
        np.testing.assert_allclose(lp.A[:, d:d + 3], q.B.T, atol=1e-14)
        np.testing.assert_allclose(lp.d, svec(q.C), atol=1e-14)
        sigma = 1.3
        inner_a = assemble_penalized(lp, sigma)
        inner_b = qsdp_assemble(q, sigma, np.zeros((4, 4)))
        scale = 1.0 + np.linalg.norm(inner_b.Q.dense())
        assert np.linalg.norm(inner_a.Q.dense() - inner_b.Q.dense()) \
            <= 1e-10 * scale

    def test_palm_drives_qsdp_to_kkt(self):
        inst = gen_qsdp(4, 2, seed=1)
        q = _qsdp_from_instance(inst)
        lp = qsdp_to_lincon(q)
        x, y, tr = palm_solve(lp, sigma=1.0, tau=1.6,
                              stop=PalmStop(kkt_tol=1e-6, max_iter=10000))
        assert tr.termination == "tol"
        dual, primal = lp.kkt(x, y)
        assert max(dual, primal) <= 1e-6


def _qsdp_from_instance(inst):
    data = inst.qsdp
    if isinstance(data, QsdpData):
        return data
    return QsdpData(data["n"], np.asarray(data["H"]), np.asarray(data["B"]),
                    np.asarray(data["h"]), np.asarray(data["C"]))


def _qsdp_state_vector(q, part, Z, xi, HW):
    """Pack a matrix-form state into the generic cycle's coordinates."""
    n = q.n
    V = q.range_coords()
    parts = [svec(Z), np.asarray(xi, dtype=float)]
    if V.shape[1]:
        w = np.linalg.lstsq(q.H @ V, svec(HW), rcond=None)[0]
        parts.append(w)
    return BlockVector(part, np.concatenate(parts))
