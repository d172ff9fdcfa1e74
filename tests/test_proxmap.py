import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sgsqp import ProxSpec, smat, svec, svec_dim
from sgsqp import proxmap
from sgsqp.proxmap import prox, prox_value, solve_block1, subgrad_residual
from sgsqp.errors import InvalidParams, NeedsShift, ShapeMismatch
from sgsqp.oracle import dense_qp_minimize


class TestSvec:
    def test_dim(self):
        assert [svec_dim(n) for n in (1, 2, 3, 5)] == [1, 3, 6, 15]

    def test_round_trip_and_isometry(self, rng):
        for n in (1, 2, 4, 7):
            A = rng.standard_normal((n, n))
            X = A + A.T
            v = svec(X)
            assert v.shape == (svec_dim(n),)
            np.testing.assert_allclose(smat(v, n), X, atol=1e-14)
            assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(X, "fro"),
                                                      rel=1e-13)

    def test_inner_product_preserved(self, rng):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        X, Y = A + A.T, B + B.T
        assert svec(X) @ svec(Y) == pytest.approx(np.sum(X * Y), rel=1e-13)

    def test_outputs_do_not_share_cached_tables(self, rng):
        X = rng.standard_normal((4, 4))
        X = X + X.T
        v = svec(X)
        v[:] = 0.0
        np.testing.assert_allclose(smat(svec(X), 4), X, atol=1e-14)
        S = smat(svec(X), 4)
        S[:] = 0.0
        np.testing.assert_array_equal(svec(X), svec(X.copy()))

    def test_diag_entries_unscaled(self):
        v = svec(np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(v, [1.0, 0.0, -1.0])


class TestConstructorValues:
    """A PSD side that is not an int ``>= 1`` used to be truncated by
    ``int``: 2.5 gave a side-2 cone and True a side-1 one.  An l1 weight
    went through ``float``, so a string was accepted."""

    @pytest.mark.parametrize("side", [2.5, True, 0, -1, "3", np.nan])
    def test_bad_side_refused(self, side):
        with pytest.raises(InvalidParams, match="side"):
            ProxSpec.psd_cone(side)

    def test_numpy_int_side_stays_valid(self):
        spec = ProxSpec.psd_cone(np.int64(3))
        assert spec.side == 3 and type(spec.side) is int
        assert spec == ProxSpec.psd_cone(3)

    @pytest.mark.parametrize("lam", ["0.5", -1.0, np.inf, np.nan, None])
    def test_bad_l1_weight_refused(self, lam):
        with pytest.raises(InvalidParams, match="l1 weight"):
            ProxSpec.l1(lam)

    def test_numpy_l1_weight_stays_valid(self):
        spec = ProxSpec.l1(np.float64(0.5))
        assert spec.lam == 0.5 and type(spec.lam) is float


class TestClosedForms:
    def test_zero_is_identity(self, rng):
        v = rng.standard_normal(4)
        np.testing.assert_array_equal(prox(ProxSpec.zero(), 3.0, v), v)

    def test_l1_soft_threshold(self):
        spec = ProxSpec.l1(1.0)
        assert prox(spec, 1.0, np.array([2.0]))[0] == 1.0
        assert prox(spec, 2.0, np.array([2.0]))[0] == 1.5
        assert prox(spec, 1.0, np.array([0.5]))[0] == 0.0
        assert prox(spec, 1.0, np.array([-2.0]))[0] == -1.0

    def test_nonneg_and_box_clip(self):
        np.testing.assert_array_equal(
            prox(ProxSpec.nonneg(), 1.0, np.array([-1.0, 2.0])), [0.0, 2.0])
        np.testing.assert_array_equal(
            prox(ProxSpec.box(-1.0, 2.0), 5.0, np.array([-5.0, 0.5, 9.0])),
            [-1.0, 0.5, 2.0])

    def test_psd_projection_kills_negative_eigenvalue(self):
        spec = ProxSpec.psd_cone(2)
        out = smat(prox(spec, 1.0, svec(np.diag([1.0, -1.0]))), 2)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_psd_projection_psd_and_optimal(self, rng):
        spec = ProxSpec.psd_cone(4)
        A = rng.standard_normal((4, 4))
        X = A + A.T
        P = smat(prox(spec, 1.0, svec(X)), 4)
        assert np.linalg.eigvalsh(P).min() >= -1e-12
        # the projection residual must be orthogonal to the projection
        assert np.sum(P * (X - P)) == pytest.approx(0.0, abs=1e-10)


class TestValuesAndSubgradients:
    def test_values(self):
        assert prox_value(ProxSpec.zero(), np.array([4.0])) == 0.0
        assert prox_value(ProxSpec.l1(2.0), np.array([3.0, -1.0])) == 8.0
        assert prox_value(ProxSpec.nonneg(), np.array([0.0, 1.0])) == 0.0
        assert prox_value(ProxSpec.nonneg(), np.array([-1e-3, 1.0])) == np.inf
        assert prox_value(ProxSpec.psd_cone(2), svec(np.eye(2))) == 0.0
        assert prox_value(ProxSpec.psd_cone(2),
                          svec(np.diag([1.0, -1.0]))) == np.inf

    def test_nonneg_subgradient_distance(self):
        r = subgrad_residual(ProxSpec.nonneg(), np.array([1.0, 0.0]),
                             np.array([2.0, -3.0]))
        assert r == pytest.approx(2.0)

    def test_psd_distance_counts_a_small_eigenvalue_in_the_range(self):
        """At ``X = O diag(0, 0, 1e-6, 1) O^T`` the eigenvalue 1e-6 is above
        the kernel cut (1e-8 of the largest), so ``G = -v v^T`` on its
        eigenvector ``v`` lies off the normal cone, at distance
        ``||v v^T||_F = 1``."""
        O, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
        X = (O * [0.0, 0.0, 1e-6, 1.0]) @ O.T
        v = O[:, 2]
        r = subgrad_residual(ProxSpec.psd_cone(4), svec(0.5 * (X + X.T)),
                             svec(-np.outer(v, v)))
        assert abs(r - 1.0) <= 1e-12

    def test_l1_subgradient_distance(self):
        spec = ProxSpec.l1(1.0)
        # at x > 0 the subdifferential is {lam}
        assert subgrad_residual(spec, np.array([2.0]),
                                np.array([1.0])) == pytest.approx(0.0)
        # at x = 0 it is [-lam, lam]
        assert subgrad_residual(spec, np.array([0.0]),
                                np.array([1.5])) == pytest.approx(0.5)

    @pytest.mark.parametrize("spec", [
        ProxSpec.zero(), ProxSpec.l1(0.7), ProxSpec.nonneg(),
        ProxSpec.box(-0.5, 1.5), ProxSpec.psd_cone(3),
    ], ids=["zero", "l1", "nonneg", "box", "psd"])
    def test_prox_satisfies_optimality(self, spec, rng):
        """x = prox(v) iff mu (v - x) lands in the subdifferential at x."""
        n = svec_dim(3) if spec.kind == "psd_cone" else 5
        for mu in (0.3, 1.0, 4.0):
            v = rng.standard_normal(n)
            x = prox(spec, mu, v)
            assert subgrad_residual(spec, x, mu * (v - x)) <= 1e-10

    def test_nonpositive_mu_rejected(self):
        from sgsqp.errors import DiagonalNotPD, InvalidParams, SgsQpError
        with pytest.raises(SgsQpError):
            prox(ProxSpec.l1(1.0), 0.0, np.array([1.0]))

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_nonfinite_mu_rejected(self, mu):
        with pytest.raises(InvalidParams, match="prox parameter"):
            prox(ProxSpec.l1(1.0), mu, np.array([1.0]))

    @pytest.mark.parametrize("spec, length", [
        (ProxSpec.box([0.0, 0.0], [1.0, 1.0]), 3),
        (ProxSpec.box([0.0, 0.0], [1.0, 1.0]), 1),
        (ProxSpec.psd_cone(2), 4),
    ], ids=["box-long", "box-short", "psd"])
    def test_head_of_the_wrong_length_refused(self, spec, length):
        v = np.ones(length)
        for call in (lambda: prox(spec, 1.0, v), lambda: prox_value(spec, v),
                     lambda: subgrad_residual(spec, v, v)):
            with pytest.raises(ShapeMismatch):
                call()

    def test_scalar_box_bounds_apply_to_any_length(self):
        spec = ProxSpec.box(0.0, 1.0)
        v = np.array([-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(prox(spec, 1.0, v), [0.0, 0.5, 1.0])
        assert prox_value(spec, prox(spec, 1.0, v)) == 0.0

    @pytest.mark.parametrize("spec", [
        ProxSpec.zero(), ProxSpec.l1(0.7), ProxSpec.nonneg(), ProxSpec.box(0.0, 1.0),
    ], ids=["zero", "l1", "nonneg", "box"])
    @pytest.mark.parametrize("glen", [1, 2])
    def test_subgradient_of_another_length_refused(self, spec, glen):
        with pytest.raises(ShapeMismatch):
            subgrad_residual(spec, np.full(3, 0.5), np.ones(glen))


class TestBlock1Solve:
    def test_zero_kind_is_linear_solve(self, rng):
        A = rng.standard_normal((3, 3))
        Q11 = A @ A.T + np.eye(3)
        c1 = rng.standard_normal(3)
        x, g = solve_block1(ProxSpec.zero(), Q11, c1)
        np.testing.assert_allclose(Q11 @ x, c1, atol=1e-10)
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_l1_identity_block_matches_oracle(self, rng):
        spec = ProxSpec.l1(0.9)
        Q11 = 2.5 * np.eye(4)
        c1 = 3.0 * rng.standard_normal(4)
        x, g = solve_block1(spec, Q11, c1)
        x_ref = dense_qp_minimize(Q11, c1, spec, 4)
        np.testing.assert_allclose(x, x_ref, atol=1e-9)
        np.testing.assert_allclose(Q11 @ x - c1 + g, 0.0, atol=1e-12)
        assert subgrad_residual(spec, x, g) <= 1e-12

    def test_needs_shift_raised(self, rng):
        Q11 = np.array([[3.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NeedsShift):
            solve_block1(ProxSpec.l1(1.0), Q11, np.array([1.0, -1.0]))

    def test_shifted_solve_satisfies_kkt(self, rng):
        spec = ProxSpec.nonneg()
        Q11 = np.array([[3.0, 1.0], [1.0, 2.0]])
        mu = np.linalg.norm(Q11, 2)
        J1 = mu * np.eye(2) - Q11
        c1 = rng.standard_normal(2)
        xbar1 = rng.standard_normal(2)
        x, g = solve_block1(spec, Q11 + J1, c1 + J1 @ xbar1)
        resid = (Q11 + J1) @ x - (c1 + J1 @ xbar1) + g
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)
        assert subgrad_residual(spec, x, g) <= 1e-12


PROPS = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None)


@st.composite
def psd_cases(draw):
    """A packed symmetric matrix of side 1..8 whose projection has rank
    0, partial or full, and a packed gradient.  Eigenvalue magnitudes lie
    in [0.5, 2] times a scale, so the rank is well defined."""
    n = draw(st.integers(1, 8))
    rank = draw(st.sampled_from(("zero", "partial", "full")))
    assume(rank != "partial" or n > 1)
    pos = {"zero": 0, "full": n}.get(rank)
    if pos is None:
        pos = draw(st.integers(1, n - 1))
    scale = draw(st.sampled_from((1e-2, 1.0, 1e2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = scale * rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < pos, 1, -1)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return n, svec((U * lam) @ U.T), rng.standard_normal(svec_dim(n))


def _ix_split_distance(w, V, G):
    """The normal-cone distance with the eigenbasis split by index lists
    (``np.ix_`` gathers), as :func:`subgrad_residual` once computed it."""
    scale = max(abs(w).max() if w.size else 0.0, 1.0)
    if w.min() < -proxmap._PSD_FEAS_RTOL * scale:
        return np.inf
    kernel = w <= proxmap._PSD_RANK_RTOL * scale
    Gt = V.T @ G @ V
    Kcols = np.where(kernel)[0]
    Scols = np.where(~kernel)[0]
    acc = np.linalg.norm(Gt[np.ix_(Scols, Scols)]) ** 2
    acc += 2.0 * np.linalg.norm(Gt[np.ix_(Scols, Kcols)]) ** 2
    if Kcols.size:
        Ck = 0.5 * (Gt[np.ix_(Kcols, Kcols)] + Gt[np.ix_(Kcols, Kcols)].T)
        wk = proxmap.eigvalsh(Ck)
        acc += float((np.maximum(wk, 0.0) ** 2).sum())
    return float(np.sqrt(acc))


class TestPsdEigenpairHandOff:
    """``prox`` saves the eigenpairs of its PSD projection; the
    certificates reuse them only for that exact output."""

    @PROPS
    @given(psd_cases())
    def test_saved_pairs_give_the_recomputed_verdict(self, case):
        n, v, g = case
        spec = ProxSpec.psd_cone(n)
        x = prox(spec, 1.0, v)
        assert np.array_equal(proxmap._last.psd[0], x)
        saved = (subgrad_residual(spec, x, g), prox_value(spec, x))
        proxmap._last.psd = None
        fresh = (subgrad_residual(spec, x, g), prox_value(spec, x))
        assert saved[0] == pytest.approx(
            fresh[0], rel=1e-12, abs=1e-14 * (1.0 + np.linalg.norm(g)))
        assert saved[1] == fresh[1] == 0.0

    @PROPS
    @given(psd_cases(), st.data())
    def test_a_changed_copy_gets_its_own_verdict(self, case, data):
        n, v, g = case
        spec = ProxSpec.psd_cone(n)
        x = prox(spec, 1.0, v)
        saved = proxmap._last.psd
        i = data.draw(st.integers(0, x.size - 1))
        nudged = x.copy()
        nudged[i] = np.nextafter(nudged[i], np.inf)
        # the first packed entry is X[0, 0]: far below zero, X is not PSD
        broken = x.copy()
        broken[0] -= 10.0 * (1.0 + np.abs(v).max())
        got = [subgrad_residual(spec, nudged, g), prox_value(spec, nudged)]
        assert subgrad_residual(spec, broken, g) == np.inf
        assert prox_value(spec, broken) == np.inf
        assert proxmap._last.psd is saved
        proxmap._last.psd = None
        assert got == [subgrad_residual(spec, nudged, g),
                       prox_value(spec, nudged)]

    @PROPS
    @given(psd_cases())
    def test_slice_split_is_bit_identical_to_index_gathers(self, case):
        n, v, g = case
        spec = ProxSpec.psd_cone(n)
        x = prox(spec, 1.0, v)
        G = smat(g, n)
        # the saved pairs, then the recomputed ones handed in the same way
        for w, V in (proxmap._last.psd[1:], proxmap.eigh(smat(x, n))):
            proxmap._last.psd = (x, w, V)
            assert subgrad_residual(spec, x, g) == _ix_split_distance(w, V, G)

    @staticmethod
    def _mixed(rng, n):
        """A packed symmetric matrix with both signs in its spectrum, so
        its projection has a kernel smaller than ``n``."""
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) % 2, 1, -1)
        return svec((U * lam) @ U.T)

    @staticmethod
    def _record_decompositions(monkeypatch):
        """Record ``(thread, side)`` for every eigendecomposition."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            orig = getattr(proxmap, name)
            monkeypatch.setattr(
                proxmap, name,
                lambda M, _f=orig: calls.append(
                    (threading.current_thread(), M.shape[0])) or _f(M))
        return calls

    def test_each_thread_keeps_its_own_pairs(self, monkeypatch):
        """Thread A projects X, thread B then projects Y; A's certificate
        of X still reuses X's pairs: no further decomposition of side
        ``n`` (only the kernel block's smaller one)."""
        rng = np.random.default_rng(5)
        n = 4
        spec = ProxSpec.psd_cone(n)
        v = {"A": self._mixed(rng, n), "B": self._mixed(rng, n)}
        g = rng.standard_normal(svec_dim(n))
        calls = self._record_decompositions(monkeypatch)
        out, err = {}, []
        a_projected, b_projected = threading.Event(), threading.Event()

        def thread_a():
            try:
                out["A"] = x = prox(spec, 1.0, v["A"])
                a_projected.set()
                assert b_projected.wait(10.0)
                mine = (threading.current_thread(), n)
                before = calls.count(mine)
                out["A_cert"] = (subgrad_residual(spec, x, g),
                                 prox_value(spec, x))
                out["A_decomps"] = calls.count(mine) - before
                out["A_saved"] = proxmap._last.psd[0]
            except Exception as exc:     # surfaced in the main thread
                err.append(exc)

        def thread_b():
            try:
                assert a_projected.wait(10.0)
                out["B"] = prox(spec, 1.0, v["B"])
                out["B_saved"] = proxmap._last.psd[0]
            except Exception as exc:
                err.append(exc)
            finally:
                b_projected.set()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(20.0)
        assert not any(th.is_alive() for th in threads) and not err
        assert out["A_decomps"] == 0
        np.testing.assert_array_equal(out["A_saved"], out["A"])
        np.testing.assert_array_equal(out["B_saved"], out["B"])
        assert not np.array_equal(out["A"], out["B"])
        proxmap._last.psd = None
        assert out["A_cert"] == pytest.approx(
            (subgrad_residual(spec, out["A"], g), 0.0), rel=1e-12,
            abs=1e-14 * (1.0 + np.linalg.norm(g)))

    def test_concurrent_projections_never_evict_each_other(self, monkeypatch):
        """More threads than cores, each projecting and certifying in a
        loop with a short switch interval: every certificate reuses its
        own thread's pairs, so each thread decomposes a side-``n`` matrix
        exactly once per projection."""
        n, rounds, workers = 4, 50, 4
        spec = ProxSpec.psd_cone(n)
        rng = np.random.default_rng(6)
        v = [[self._mixed(rng, n) for _ in range(rounds)]
             for _ in range(workers)]
        g = rng.standard_normal(svec_dim(n))
        calls = self._record_decompositions(monkeypatch)
        err = []

        def work(mine):
            try:
                for vk in mine:
                    x = prox(spec, 1.0, vk)
                    assert subgrad_residual(spec, x, g) < np.inf
                    assert prox_value(spec, x) == 0.0
            except Exception as exc:     # surfaced in the main thread
                err.append(exc)

        threads = [threading.Thread(target=work, args=(mine,)) for mine in v]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and not err
        full = [th for th, side in calls if side == n]
        assert [full.count(th) for th in threads] == [rounds] * workers
