"""Shared helpers: seeded instance factories used across the suite."""

import numpy as np
import pytest

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    LinConQP,
)
from sgsqp.instances import gen


def conservative_shifts(Q):
    """Shifts ``J_i = ||Q_ii||_2 I - Q_ii`` (PSD by construction)."""
    out = []
    for i in range(Q.s):
        Qii = Q.block(i, i)
        out.append(np.linalg.norm(Qii, 2) * np.eye(Qii.shape[0]) - Qii)
    return out


def anchor_2x2():
    """The running 2x2 example: Q=[[2,1],[1,2]], b=[1,1], two 1-blocks."""
    part = BlockPartition((1, 1))
    Q = BlockSymOperator(part, {(0, 0): np.array([[2.0]]),
                                (0, 1): np.array([[1.0]]),
                                (1, 1): np.array([[2.0]])})
    return CompositeQP(Q, BlockVector(part, np.array([1.0, 1.0])))


def indefinite_2x2():
    """Q=[[1,3],[3,1]] with unit blocks: PD diagonal blocks, indefinite Q,
    so the iterates of ``solve`` diverge."""
    part = BlockPartition((1, 1))
    Q = BlockSymOperator(part, {(0, 0): np.eye(1), (0, 1): 3.0 * np.eye(1),
                                (1, 1): np.eye(1)})
    return CompositeQP(Q, BlockVector(part, np.array([1.0, 2.0])))


def indefinite_lincon_2x2():
    """The same ``P`` under the constraint ``x_1 + x_2 = 0``.  At ``sigma =
    0.1`` the penalized operator ``P + sigma A^T A`` stays indefinite, so
    the iterates of ``palm_solve`` diverge."""
    part = BlockPartition((1, 1))
    P = BlockSymOperator(part, {(0, 0): np.eye(1), (0, 1): 3.0 * np.eye(1),
                                (1, 1): np.eye(1)}, factor_diag=False)
    return LinConQP(P, [[1.0, 1.0]], [1.0, 2.0], [0.0])


def random_problem(seed, dims=(2, 3, 2), prox_kind="zero", kappa=10.0,
                   coupling=1.0, singular=False):
    inst = gen(dims, kappa=kappa, coupling=coupling, prox_kind=prox_kind,
               seed=seed, singular=singular)
    return inst.composite()


def shifted_problem(seed, dims=(2, 2, 3), prox_kind="nonneg", kappa=6.0):
    """Non-identity first block, made prox-ready by conservative shifts."""
    inst = gen(dims, kappa=kappa, coupling=1.0, prox_kind=prox_kind,
               seed=seed, identity_block1=False)
    Q = BlockSymOperator(inst.partition, dict(inst.Q))
    return CompositeQP(Q, BlockVector(inst.partition, inst.b), p=inst.prox,
                       shifts=conservative_shifts(Q))


def random_point(prob, seed):
    rng = np.random.default_rng(seed)
    return BlockVector(prob.partition, rng.standard_normal(prob.partition.total))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
