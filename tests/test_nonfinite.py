"""NaN and inf are refused with :class:`NonFinite` where they enter.

The sweeps call LAPACK without per-call finiteness checks, so every entry
point that accepts numbers checks them once, up front.
"""

import numpy as np
import pytest

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    LinConQP,
    NonFinite,
    ProxSpec,
    QsdpData,
    classical_sgs_step,
    palm_solve,
    sgs_cycle,
    solve,
)
from sgsqp import proxmap
from sgsqp.instances import gen_lincon, gen_qsdp
from sgsqp.proxmap import kkt_distance, prox, prox_value, subgrad_residual, svec

from conftest import random_problem

BAD = (np.nan, np.inf, -np.inf)


def _blocks():
    return {(0, 0): 2.0 * np.eye(2), (0, 1): np.ones((2, 1)),
            (1, 1): np.array([[3.0]])}


def _poison(arr, bad):
    arr = np.array(arr, dtype=float)
    arr.flat[arr.size // 2] = bad
    return arr


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("key", [(0, 0), (0, 1), (1, 1)])
def test_operator_blocks(key, bad):
    """Diagonal NaN is NonFinite, not DiagonalNotPD; off-diagonal NaN
    no longer waits for a sweep to trip over it."""
    blocks = _blocks()
    blocks[key] = _poison(blocks[key], bad)
    with pytest.raises(NonFinite, match=rf"block \({key[0]}, {key[1]}\)"):
        BlockSymOperator(BlockPartition((2, 1)), blocks)


@pytest.mark.parametrize("bad", BAD)
def test_operator_shift(bad):
    Q = BlockSymOperator(BlockPartition((2, 1)), _blocks())
    with pytest.raises(NonFinite, match="shift block 0"):
        Q.with_added_diag([_poison(np.eye(2), bad), None])


@pytest.mark.parametrize("bad", BAD)
def test_composite_rhs_and_shifts(bad):
    Q = BlockSymOperator(BlockPartition((2, 1)), _blocks())
    with pytest.raises(NonFinite, match="b contains"):
        CompositeQP(Q, _poison(np.ones(3), bad))
    with pytest.raises(NonFinite, match="shift 1"):
        CompositeQP(Q, np.ones(3), shifts=[None, np.array([[bad]])])


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("field", ["A", "g", "d"])
def test_lincon_data(field, bad):
    lp = gen_lincon((2, 2), m=2, seed=0).lincon_problem()
    data = {"A": lp.A, "g": lp.g, "d": lp.d}
    data[field] = _poison(data[field], bad)
    with pytest.raises(NonFinite, match=f"{field} contains"):
        LinConQP(lp.P, data["A"], data["g"], data["d"])


@pytest.mark.parametrize("bad", BAD)
def test_solve_start_point(bad):
    prob = random_problem(0)
    for x0 in (_poison(np.zeros(prob.partition.total), bad),
               BlockVector(prob.partition,
                           _poison(np.zeros(prob.partition.total), bad))):
        with pytest.raises(NonFinite, match="x0"):
            solve(prob, x0=x0)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", ["sgs_cycle", "ssor_cycle", "classical_sgs_step",
                                   "classical_sgs_step_rhs"])
def test_cycle_centre(entry, bad):
    prob = random_problem(0)
    x = _poison(np.zeros(prob.partition.total), bad)
    call, name = {
        "sgs_cycle": (lambda: sgs_cycle(prob, x), "xbar"),
        "ssor_cycle": (lambda: sgs_cycle(prob, x, omega=1.5), "xbar"),
        "classical_sgs_step": (lambda: classical_sgs_step(prob.Q, prob.b, x), "xk"),
        "classical_sgs_step_rhs": (lambda: classical_sgs_step(prob.Q, x, np.zeros(7)),
                                   "b"),
    }[entry]
    with pytest.raises(NonFinite, match=f"{name} contains"):
        call()


@pytest.mark.parametrize("bad", BAD)
def test_cycle_handed_product(bad):
    prob = random_problem(0, prox_kind="l1")
    n = prob.partition.total
    with pytest.raises(NonFinite, match="Qxbar contains"):
        sgs_cycle(prob, np.zeros(n), Qxbar=_poison(np.zeros(n), bad))


@pytest.mark.parametrize("bad", BAD)
def test_palm_start_points(bad):
    lp = gen_lincon((2, 2), m=2, seed=0).lincon_problem()
    with pytest.raises(NonFinite, match="x0"):
        palm_solve(lp, 1.0, 1.0, x0=_poison(np.zeros(4), bad))
    with pytest.raises(NonFinite, match="y0"):
        palm_solve(lp, 1.0, 1.0, y0=_poison(np.zeros(2), bad))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("field", ["H", "B", "h", "C"])
def test_qsdp_data(field, bad):
    q = gen_qsdp(3, 2, seed=0).qsdp
    data = {"H": q.H, "B": q.B, "h": q.h, "C": q.C}
    data[field] = _poison(data[field], bad)
    with pytest.raises(NonFinite, match=f"{field} contains"):
        QsdpData(3, **data)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", ["prox", "subgrad_residual", "prox_value"])
def test_psd_head(entry, bad, monkeypatch):
    """A PSD head holding NaN or inf is refused before LAPACK sees it."""
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK reached with a non-finite head")
    monkeypatch.setattr(proxmap, "_syevr", no_lapack)
    monkeypatch.setattr(proxmap, "eigvalsh", no_lapack)
    spec = ProxSpec.psd_cone(2)
    head = np.array([bad, 0.0, 0.0])
    call = {
        "prox": lambda: prox(spec, 1.0, head),
        "subgrad_residual": lambda: subgrad_residual(spec, head, np.zeros(3)),
        "prox_value": lambda: prox_value(spec, head),
    }[entry]
    with pytest.raises(NonFinite, match="PSD head contains"):
        call()


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("where", [0, 1])
def test_psd_residual_distance_reads_inf(where, bad):
    """A non-finite head residual at a finite PSD head, on or off the
    diagonal, is no refusal: with the saved pairs or without, the
    distance reads inf, and no product with the eigenbasis warns."""
    spec = ProxSpec.psd_cone(2)
    x = prox(spec, 1.0, svec(np.diag([2.0, -1.0])))
    r = np.zeros(4)
    r[where] = bad
    for _ in range(2):
        assert subgrad_residual(spec, x, r[:3]) == np.inf
        assert kkt_distance(spec, np.append(x, 0.0), r, 3) == np.inf
        proxmap._last.psd = None
