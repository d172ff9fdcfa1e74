"""The inner conjugate-gradient kernel against SciPy's ``cg``.

``sgs.cg`` runs SciPy's unpreconditioned recurrence from a zero start
without its operator wrapping, so iterates, ``info`` and the number of
callbacks must agree bit for bit, including runs that hit ``maxiter``.
SciPy is used here only as the independent reference.
"""

import numpy as np
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from sgsqp import sgs

PROPS = settings(max_examples=150, deadline=None, derandomize=True,
                 database=None)


def _spd(rng, n, decades):
    O, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (O * np.geomspace(1.0, 10.0 ** decades, n)) @ O.T
    return 0.5 * (A + A.T)


def _run(fn, A, b, rtol, maxiter):
    calls = []
    x, info = fn(A, b, rtol=rtol, maxiter=maxiter,
                 callback=lambda xk: calls.append(xk.copy()))
    return x, info, calls


@PROPS
@given(n=st.integers(1, 40), decades=st.floats(0.0, 4.0),
       log_rtol=st.floats(-12.0, -2.0), maxiter=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
def test_matches_scipy_bit_for_bit(n, decades, log_rtol, maxiter, seed):
    rng = np.random.default_rng(seed)
    A, b = _spd(rng, n, decades), rng.standard_normal(n)
    rtol = 10.0 ** log_rtol
    x, info, calls = _run(sgs.cg, A, b, rtol, maxiter)
    x_ref, info_ref, calls_ref = _run(scipy.sparse.linalg.cg, A, b, rtol,
                                      maxiter)
    np.testing.assert_array_equal(x, x_ref)
    assert info == info_ref
    assert len(calls) == len(calls_ref)
    for xk, xk_ref in zip(calls, calls_ref):
        np.testing.assert_array_equal(xk, xk_ref)


def test_iteration_cap_and_zero_rhs():
    rng = np.random.default_rng(0)
    A = _spd(rng, 12, 3.0)
    x, info, calls = _run(sgs.cg, A, rng.standard_normal(12), 1e-14, 2)
    assert info == 2 and len(calls) == 2
    x, info, calls = _run(sgs.cg, A, np.zeros(12), 1e-8, 5)
    assert info == 0 and not x.any() and not calls


def test_sgs_has_no_scipy_cg():
    assert sgs.cg is not scipy.sparse.linalg.cg
    assert scipy.sparse.linalg.cg not in vars(sgs).values()
    assert sgs.cg.__module__ == "sgsqp.sgs"
