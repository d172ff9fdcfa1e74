"""What the public entry points accept.

Vectors go in as array_like, and a :class:`BlockVector` is one through
the numpy array protocol, so each entry point gives the same result for a
``BlockVector`` and for its ``.data``.  The type of a returned vector
follows its role: the majorizer's actions return flat arrays, and every
vector a cycle or a driver reports is a ``BlockVector``.  Option values
are checked where they enter and refused with a typed error.
"""

import dataclasses

import numpy as np
import pytest

from sgsqp import (
    BlockPartition,
    BlockSymOperator,
    BlockVector,
    CompositeQP,
    DimensionMismatch,
    InvalidParams,
    IterativeMode,
    LinConQP,
    NoisyMode,
    PalmStop,
    ProxSpec,
    StepSchedule,
    StopRule,
    ToleranceSchedule,
    classical_sgs_step,
    palm_solve,
    prox,
    scb_eliminate,
    sgs_cycle,
    solve,
    subproblem_kkt,
)
from sgsqp.instances import gen_lincon

from conftest import random_point, random_problem

PROB = random_problem(1, prox_kind="l1")
MAJ = PROB.majorizer()
X = random_point(PROB, 2)
XS = random_point(PROB, 3)
NOISY = sgs_cycle(PROB, X, mode=NoisyMode(seed=0, scale=1e-3))
DP, D = NOISY.delta_prime, NOISY.delta      # agree on block 1, as a cycle's do
LP = gen_lincon((2, 2), m=2, seed=0).lincon_problem()
LX = random_point(LP, 4)
LY = np.random.default_rng(5).standard_normal(2)

ENTRY_POINTS = {
    "CompositeQP.objective": lambda w: PROB.objective(w(X)),
    "CompositeQP.kkt_residual": lambda w: PROB.kkt_residual(w(X)),
    "sgs_cycle": lambda w: sgs_cycle(PROB, w(X)),
    "ssor_cycle": lambda w: sgs_cycle(PROB, w(X), omega=1.5),
    "classical_sgs_step": lambda w: classical_sgs_step(PROB.Q, w(PROB.b), w(X), MAJ),
    "subproblem_kkt": lambda w: subproblem_kkt(PROB, w(X), NOISY),
    "Majorizer.apply_T": lambda w: MAJ.apply_T(w(X)),
    "Majorizer.apply_Qhat": lambda w: MAJ.apply_Qhat(w(X)),
    "Majorizer.solve_Qhat": lambda w: MAJ.solve_Qhat(w(X)),
    "Majorizer.dinv_norm": lambda w: MAJ.dinv_norm(w(X)),
    "Majorizer.perturbation": lambda w: MAJ.perturbation(w(DP), w(D)),
    "Majorizer.quad_norm": lambda w: (MAJ.quad_norm(w(X), "Qhat"),
                                      MAJ.quad_norm(w(X), "Qhat_inv")),
    "LinConQP.objective": lambda w: LP.objective(w(LX)),
    "LinConQP.kkt": lambda w: LP.kkt(w(LX), LY),
    "LinConQP.constraint_residual": lambda w: LP.constraint_residual(w(LX)),
    "solve": lambda w: solve(PROB, x0=w(X), x_star=w(XS), stop=StopRule(max_iter=5)),
    "palm_solve": lambda w: palm_solve(LP, 1.0, 1.6, x0=w(LX),
                                       stop=PalmStop(max_iter=5)),
    "scb_eliminate": lambda w: scb_eliminate(PROB, w(X)),
}


def _same(a, b):
    """Equal to the last bit and of the same type, field by field; run
    times (``time_s``) excepted."""
    assert type(a) is type(b)
    if isinstance(a, BlockVector):
        assert a.partition == b.partition
        np.testing.assert_array_equal(a.data, b.data)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            _same(u, v)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.name != "time_s":
                _same(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b or (a != a and b != b)      # NaN matches NaN


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_block_vector_and_its_data_give_identical_results(name):
    call = ENTRY_POINTS[name]
    _same(call(lambda v: v), call(lambda v: v.data))


@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: v.data],
                         ids=["BlockVector", "ndarray"])
def test_return_type_follows_role(wrap):
    for got in (MAJ.apply_T(wrap(X)), MAJ.apply_Qhat(wrap(X)),
                MAJ.solve_Qhat(wrap(X)), MAJ.perturbation(wrap(DP), wrap(D))):
        assert type(got) is np.ndarray
    tr = solve(PROB, x0=wrap(X), stop=StopRule(max_iter=2))
    x, _, _ = palm_solve(LP, 1.0, 1.6, x0=wrap(LX), stop=PalmStop(max_iter=2))
    res = scb_eliminate(PROB, wrap(X))
    for got in (classical_sgs_step(PROB.Q, PROB.b, wrap(X)),
                sgs_cycle(PROB, wrap(X), mode=NoisyMode(seed=0, scale=1e-3)).Delta,
                tr.x0, tr.x_final, x,
                res.x_plus, res.reduced_rhs, res.eliminated):
        assert type(got) is BlockVector


def test_array_protocol_shares_data_only_when_asked():
    v = random_point(PROB, 6)
    assert np.shares_memory(np.asarray(v), v.data)
    assert np.asarray(v, dtype=float) is v.data
    assert not np.shares_memory(np.array(v), v.data)
    np.testing.assert_array_equal(np.array(v), v.data)


@pytest.mark.parametrize("method, kind", [("quad_norm", "Q"), ("quad_norm", "T"),
                                          ("quad_norm", "Dinv"), ("densify", "Q")])
def test_kinds_without_callers_are_refused(method, kind):
    args = (X, kind) if method == "quad_norm" else (kind,)
    with pytest.raises(InvalidParams):
        getattr(MAJ, method)(*args)


SMALL = random_problem(0)               # 7 unknowns in blocks (2, 3, 2)

BAD_OPTIONS = {
    "restart-fraction": (InvalidParams, lambda: StepSchedule.restart(1.9)),
    "restart-period-zero": (InvalidParams, lambda: StepSchedule("restart", period=0)),
    "restart-period-missing": (InvalidParams, lambda: StepSchedule("restart")),
    "step-kind-unknown": (InvalidParams, lambda: StepSchedule("bogus")),
    "nesterov-period": (InvalidParams, lambda: StepSchedule("nesterov", period=3)),
    "geometric-rate-text": (InvalidParams,
                            lambda: ToleranceSchedule.geometric(1e-3, "abc")),
    "geometric-rate-missing": (InvalidParams,
                               lambda: ToleranceSchedule("geometric", eps0=1e-3)),
    "power-exponent-text": (InvalidParams, lambda: ToleranceSchedule.power(1e-3, "x")),
    "tolerance-kind-unknown": (InvalidParams, lambda: ToleranceSchedule("bogus")),
    "ssor-omega-text": (InvalidParams,
                        lambda: sgs_cycle(SMALL, np.zeros(7), omega="x")),
    "solve-omega-text": (InvalidParams,
                         lambda: solve(SMALL, omega="x")),
    "stop-max-iter-fraction": (InvalidParams, lambda: StopRule(max_iter=2.5)),
    "stop-max-iter-negative": (InvalidParams, lambda: StopRule(max_iter=-3)),
    "stop-kkt-tol-nan": (InvalidParams, lambda: StopRule(kkt_tol=np.nan)),
    "palm-max-iter-fraction": (InvalidParams, lambda: PalmStop(max_iter=2.5)),
    "palm-max-iter-negative": (InvalidParams, lambda: PalmStop(max_iter=-3)),
    "palm-kkt-tol-nan": (InvalidParams, lambda: PalmStop(kkt_tol=np.nan)),
    "power-eps0-nan": (InvalidParams, lambda: ToleranceSchedule.power(np.nan)),
    "power-exponent-nan": (InvalidParams, lambda: ToleranceSchedule.power(0.1, np.nan)),
    "geometric-eps0-nan": (InvalidParams,
                           lambda: ToleranceSchedule.geometric(np.nan, 0.5)),
    "inner-cap-negative": (InvalidParams,
                           lambda: solve(SMALL, mode="inexact", inner_cap=-1)),
    "mode-unknown": (InvalidParams,
                     lambda: solve(SMALL, mode="fast", stop=StopRule(max_iter=0))),
    "l1-nan": (InvalidParams, lambda: ProxSpec.l1(np.nan)),
    "box-nan": (InvalidParams, lambda: ProxSpec.box(0.0, np.nan)),
    "forward-reuse-nan": (InvalidParams,
                          lambda: sgs_cycle(SMALL, np.zeros(7), forward_reuse=np.nan)),
    "forward-reuse-with-omega": (InvalidParams, lambda: sgs_cycle(
        SMALL, np.zeros(7), omega=1.5, forward_reuse=1.0)),
    "majorizer-omega-list": (InvalidParams, lambda: SMALL.majorizer([1.5])),
    "majorizer-omega-bool": (InvalidParams, lambda: SMALL.majorizer(True)),
    "cycle-omega-bool": (InvalidParams,
                         lambda: sgs_cycle(SMALL, np.zeros(7), omega=True)),
    "solve-omega-list": (InvalidParams, lambda: solve(SMALL, omega=[1.5])),
    "forward-reuse-bool": (InvalidParams,
                           lambda: sgs_cycle(SMALL, np.zeros(7), forward_reuse=True)),
    "palm-sigma-bool": (InvalidParams, lambda: palm_solve(LP, True, 1.6)),
    "palm-tau-bool": (InvalidParams, lambda: palm_solve(LP, 1.0, True)),
    "stop-kkt-tol-bool": (InvalidParams, lambda: StopRule(kkt_tol=True)),
    "rel-tol-bool": (InvalidParams, lambda: IterativeMode(rel_tol=True)),
    "noisy-scale-bool": (InvalidParams, lambda: NoisyMode(scale=True)),
    "power-eps0-bool": (InvalidParams, lambda: ToleranceSchedule.power(True)),
    "inner-cap-bool": (InvalidParams,
                       lambda: solve(SMALL, mode="inexact", inner_cap=True)),
    "l1-weight-bool": (InvalidParams, lambda: ProxSpec.l1(True)),
    "prox-parameter-bool": (InvalidParams,
                            lambda: prox(ProxSpec.l1(1.0), True, np.zeros(2))),
    "x-star-length": (DimensionMismatch, lambda: solve(SMALL, x_star=np.zeros(3))),
    "y0-length": (DimensionMismatch, lambda: palm_solve(LP, 1.0, 1.6, y0=np.zeros(5))),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_bad_option_is_refused_where_it_enters(case):
    error, call = BAD_OPTIONS[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("spec", [ProxSpec.box([0.0, 0.0], [1.0, 1.0]),
                                  ProxSpec.psd_cone(2)], ids=["box", "psd_cone"])
def test_head_length_mismatch_is_one_error_type(spec):
    """A head block whose width is not ``spec.block_dim()`` is refused
    with the same type by the composite and the constrained problem."""
    part = BlockPartition((4, 2))
    Q = BlockSymOperator(part, {(0, 0): np.eye(4), (1, 1): np.eye(2)})
    with pytest.raises(DimensionMismatch, match="partition has 4"):
        CompositeQP(Q, np.zeros(6), spec)
    with pytest.raises(DimensionMismatch, match="partition has 4"):
        LinConQP(Q, np.ones((1, 6)), np.zeros(6), np.zeros(1), prox=spec)


def test_boundary_options_stay_valid():
    """Criterion 04 stops at once with ``StopRule(kkt_tol=0.0, max_iter=0)``,
    and an infinite tolerance stops after one iteration."""
    assert solve(SMALL, stop=StopRule(kkt_tol=0.0, max_iter=0)).iterations == 0
    assert solve(SMALL, stop=StopRule(kkt_tol=np.inf)).iterations == 1
    assert StepSchedule.restart(np.int64(1)).period == 1
    assert ToleranceSchedule.power(0.0).value(3) == 0.0
