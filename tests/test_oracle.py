import ast
import pathlib

import numpy as np
import pytest

import sgsqp
from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    ProxSpec,
)
from sgsqp import sgs_cycle
from sgsqp.errors import NotSymmetric, UnboundedObjective
from sgsqp.instances import gen_qsdp
from sgsqp.proxmap import prox
from sgsqp.oracle import (
    _kkt_of,
    _polish,
    dense_kkt_solve,
    dense_optimum,
    dense_qp_minimize,
    dense_sgs_weight,
    dense_ssor_weight,
    dense_subproblem_solve,
    eigh_checked,
    psd_project,
    qsdp_assemble,
    range_basis,
    spectral_norm,
)

from conftest import anchor_2x2, random_problem


class TestDenseOptimum:
    def test_anchor_unconstrained(self):
        x, F = dense_optimum(anchor_2x2())
        np.testing.assert_allclose(x.data, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        assert F == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_anchor_nonneg(self):
        part = BlockPartition((1, 1))
        Q = BlockSymOperator(part, {(0, 0): np.eye(1), (1, 1): np.eye(1)})
        prob = CompositeQP(Q, BlockVector(part, np.array([-1.0, 1.0])),
                           p=ProxSpec.nonneg())
        x, F = dense_optimum(prob)
        np.testing.assert_allclose(x.data, [0.0, 1.0], atol=1e-11)
        assert F == pytest.approx(-0.5, abs=1e-11)

    @pytest.mark.parametrize("prox_kind", ["zero", "l1", "nonneg"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_kkt_residual_small(self, prox_kind, seed):
        prob = random_problem(seed, prox_kind=prox_kind)
        x, F = dense_optimum(prob)
        bnorm = np.linalg.norm(prob.b.data)
        assert prob.kkt_residual(x) <= 1e-10 * (1.0 + bnorm)

    def test_unattained_infimum_raises(self):
        part = BlockPartition((1, 1))
        Q = BlockSymOperator(part, {(0, 0): np.eye(1), (0, 1): np.eye(1),
                                    (1, 1): np.eye(1)})
        prob = CompositeQP(Q, BlockVector(part, np.array([1.0, 2.0])))
        with pytest.raises(UnboundedObjective):
            dense_optimum(prob)

    def test_singular_consistent_solves(self):
        part = BlockPartition((1, 1))
        Q = BlockSymOperator(part, {(0, 0): np.eye(1), (0, 1): np.eye(1),
                                    (1, 1): np.eye(1)})
        prob = CompositeQP(Q, BlockVector(part, np.array([1.0, 1.0])))
        x, F = dense_optimum(prob)
        assert F == pytest.approx(-0.5, abs=1e-11)


class TestQpMinimize:
    def test_zero_kind_solves_linearly(self, rng):
        A = rng.standard_normal((4, 4))
        H = A @ A.T + np.eye(4)
        c = rng.standard_normal(4)
        x = dense_qp_minimize(H, c, ProxSpec.zero(), 2)
        np.testing.assert_allclose(x, np.linalg.solve(H, c), atol=1e-10)

    def test_l1_head_kkt(self, rng):
        from sgsqp.proxmap import subgrad_residual
        A = rng.standard_normal((5, 5))
        H = A @ A.T + 2 * np.eye(5)
        c = 3 * rng.standard_normal(5)
        spec = ProxSpec.l1(1.0)
        x = dense_qp_minimize(H, c, spec, 2)
        g = (c - H @ x)[:2]
        assert subgrad_residual(spec, x[:2], g) <= 1e-10 * (1 + np.linalg.norm(c))
        np.testing.assert_allclose((H @ x - c)[2:], 0.0,
                                   atol=1e-10 * (1 + np.linalg.norm(c)))


class TestSubproblemSolve:
    def test_no_coupling_means_no_proximal_term(self, rng):
        """Block-diagonal Q has a zero weight operator, so the one-cycle
        target coincides with the global optimum for any anchor point."""
        part = BlockPartition((2, 2))
        blocks = {}
        for i in range(2):
            A = rng.standard_normal((2, 2))
            blocks[(i, i)] = A @ A.T + np.eye(2)
        prob = CompositeQP(BlockSymOperator(part, blocks),
                           BlockVector(part, rng.standard_normal(4)))
        xstar, _ = dense_optimum(prob)
        for _ in range(3):
            xbar = BlockVector(part, 5 * rng.standard_normal(4))
            got = dense_subproblem_solve(prob, xbar)
            np.testing.assert_allclose(got.data, xstar.data, atol=1e-9)

    def test_minimizer_satisfies_subproblem_kkt(self, rng):
        from sgsqp.proxmap import subgrad_residual
        prob = random_problem(3, prox_kind="nonneg")
        part = prob.partition
        n1 = part.dims[0]
        xbar = BlockVector(part, rng.standard_normal(part.total))
        x = dense_subproblem_solve(prob, xbar).data
        Qd = prob.Q.dense()
        T = dense_sgs_weight(part, Qd)
        c = prob.b.data + T @ xbar.data
        grad = (Qd + T) @ x - c
        scale = 1e-9 * (1.0 + np.linalg.norm(prob.b.data))
        assert subgrad_residual(prob.prox, x[:n1], -grad[:n1]) <= scale
        np.testing.assert_allclose(grad[n1:], 0.0, atol=scale)


class TestQsdpSubproblems:
    """The PSD head's Newton polish: the oracle minimizes QSDP subproblems
    to its own target, and one cycle's output is their minimizer."""

    @pytest.mark.parametrize("rank_H", [None, 0])
    @pytest.mark.parametrize("n, p, seed", [(3, 1, 0), (4, 2, 1), (5, 2, 2)])
    def test_subproblem_optimum_and_cycle(self, n, p, seed, rank_H):
        q = gen_qsdp(n, p, seed=seed, rank_H=rank_H).qsdp
        Y = np.random.default_rng(seed).standard_normal((n, n))
        prob = qsdp_assemble(q, 1.5, Y + Y.T)
        x, _ = dense_optimum(prob)
        bnorm = np.linalg.norm(prob.b.data)
        assert prob.kkt_residual(x) <= 1e-10 * (1.0 + bnorm)
        xbar = np.random.default_rng(seed + 1).standard_normal(prob.Q.n)
        res = sgs_cycle(prob, xbar)
        ref = dense_subproblem_solve(prob, xbar)
        assert np.linalg.norm(res.x_plus.data - ref.data) <= 1e-9 * (
            1.0 + np.linalg.norm(ref.data))

    @pytest.mark.parametrize("rank_H", [None, 0])
    def test_newton_polish_reaches_the_target_near_the_minimizer(self, rank_H):
        """From a feasible point 1e-4 off the minimizer the polish returns
        a point within the oracle's target; from zero, where no Newton
        iterate beats the start, it returns nothing."""
        q = gen_qsdp(4, 2, seed=1, rank_H=rank_H).qsdp
        prob = qsdp_assemble(q, 1.0, np.zeros((4, 4)))
        H, c, spec, n1 = prob.Q.dense(), prob.b.data, prob.prox, prob.partition.dims[0]
        x = dense_qp_minimize(H, c, spec, n1)
        x += 1e-4 * np.random.default_rng(0).standard_normal(x.size)
        x[:n1] = prox(spec, 1.0, x[:n1])
        cand = _polish(H, c, spec, n1, x)
        assert _kkt_of(H, c, spec, n1, cand) <= 1e-12 * (1.0 + np.linalg.norm(c))
        assert _polish(H, c, spec, n1, np.zeros_like(x)) is None


class TestWeights:
    def test_sgs_weight_anchor(self):
        part = BlockPartition((1, 1))
        Qd = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(dense_sgs_weight(part, Qd),
                                   [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_weights_are_psd(self, rng):
        part = BlockPartition((2, 3, 2))
        A = rng.standard_normal((7, 7))
        Qd = A @ A.T + 2 * np.eye(7)
        for T in (dense_sgs_weight(part, Qd),
                  dense_ssor_weight(part, Qd, 1.5)):
            assert np.linalg.eigvalsh(T).min() >= -1e-10

    def test_ssor_weight_collapses_at_one(self, rng):
        part = BlockPartition((2, 2))
        A = rng.standard_normal((4, 4))
        Qd = A @ A.T + 2 * np.eye(4)
        np.testing.assert_allclose(dense_ssor_weight(part, Qd, 1.0),
                                   dense_sgs_weight(part, Qd), atol=1e-13)


class TestKktSolve:
    def test_stationarity_and_feasibility(self, rng):
        P0 = rng.standard_normal((4, 4))
        P = P0 @ P0.T + np.eye(4)
        A = rng.standard_normal((2, 4))
        g = rng.standard_normal(4)
        d = rng.standard_normal(2)
        x, y = dense_kkt_solve(P, A, g, d)
        np.testing.assert_allclose(P @ x + A.T @ y, g, atol=1e-10)
        np.testing.assert_allclose(A @ x, d, atol=1e-10)

    def test_zero_curvature_feasibility_problem(self, rng):
        A = rng.standard_normal((2, 4))
        d = rng.standard_normal(2)
        x, y = dense_kkt_solve(np.zeros((4, 4)), A, np.zeros(4), d)
        np.testing.assert_allclose(A @ x, d, atol=1e-10)


class TestEigTools:
    def test_eigh_checked_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eigh_checked(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_preconditioned_spectrum_anchor(self):
        Qd = np.array([[2.0, 1.0], [1.0, 2.0]])
        Qhat = np.array([[2.5, 1.0], [1.0, 2.0]])
        w = np.linalg.eigvals(np.linalg.solve(Qhat, Qd))
        np.testing.assert_allclose(sorted(w.real), [0.75, 1.0], atol=1e-12)

    def test_spectral_norm_matches_numpy(self, rng):
        A = rng.standard_normal((4, 6))
        assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2),
                                                 rel=1e-12)

    def test_psd_project(self, rng):
        np.testing.assert_allclose(psd_project(np.diag([1.0, -1.0])),
                                   np.diag([1.0, 0.0]), atol=1e-14)
        A = rng.standard_normal((4, 4))
        X = A + A.T
        P = psd_project(X)
        np.testing.assert_allclose(psd_project(P), P, atol=1e-12)

    def test_range_basis(self, rng):
        M = rng.standard_normal((5, 2))
        H = M @ M.T
        V = range_basis(H)
        assert V.shape == (5, 2)
        np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-12)
        # H must be reproducible inside the basis
        np.testing.assert_allclose(V @ (V.T @ H), H, atol=1e-10)
        assert range_basis(np.zeros((3, 3))).shape == (3, 0)


def _imports_oracle(node):
    """Whether an import statement inside ``sgsqp`` binds the oracle."""
    if isinstance(node, ast.Import):
        return any(a.name == "sgsqp.oracle" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        # a relative import inside the package is relative to ``sgsqp``
        module = ".".join(p for p in ("sgsqp" if node.level else "",
                                      node.module or "") if p)
        return module == "sgsqp.oracle" or (
            module == "sgsqp" and any(a.name == "oracle" for a in node.names))
    return False


def test_only_cli_and_oracle_import_the_oracle():
    """Production code never depends on the reference solvers: only the
    CLI (its ``verify`` and ``bench`` commands) and the oracle itself may
    import them."""
    src = pathlib.Path(sgsqp.__file__).parent
    offenders = [
        path.name for path in sorted(src.glob("*.py"))
        if path.name not in ("cli.py", "oracle.py")
        and any(_imports_oracle(node)
                for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert offenders == []
    # the check does see the CLI's import
    cli = ast.parse((src / "cli.py").read_text())
    assert any(_imports_oracle(node) for node in ast.walk(cli))
