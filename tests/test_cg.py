"""The inner conjugate-gradient kernel against SciPy's ``cg``.

``sgs.cg`` runs SciPy's unpreconditioned recurrence from a zero start
without its operator wrapping, so iterates, ``info`` and the number of
callbacks must agree bit for bit, including runs that hit ``maxiter``.
SciPy is used here only as the independent reference.  At extreme
scales, where products underflow or overflow, the kernel is also held
to a plain copy of the textbook recurrence (``_reference_cg``).
"""

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from sgsqp import sgs

PROPS = settings(max_examples=150, deadline=None, derandomize=True,
                 database=None)


def _spd(rng, n, decades):
    O, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (O * np.geomspace(1.0, 10.0 ** decades, n)) @ O.T
    return 0.5 * (A + A.T)


def _reference_cg(A, b, *, rtol, maxiter, callback):
    """``sgs.cg`` as it was before its stacked buffers: one array per
    vector, ``np.linalg.norm`` for ``||b||``, numpy scalars throughout."""
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    bnrm = np.linalg.norm(b)
    if bnrm == 0.0:
        return x, 0
    tol = float(rtol) * float(bnrm)
    r = b.copy()
    p = None
    rho_prev = None
    for _ in range(maxiter):
        rho = np.dot(r, r)
        if np.sqrt(rho) < tol:
            return x, 0
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = A.dot(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        callback(x)
    return x, maxiter


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


def _assert_same_run(got, ref):
    x, info, calls = got
    x_ref, info_ref, calls_ref = ref
    np.testing.assert_array_equal(x, x_ref)
    assert info == info_ref
    assert len(calls) == len(calls_ref)
    for xk, xk_ref in zip(calls, calls_ref):
        np.testing.assert_array_equal(xk, xk_ref)


@pytest.mark.parametrize("scale", [1e-158, 1e-159, 1e-160, 1e-161])
@pytest.mark.parametrize("seed", range(4))
def test_underflowing_curvature_matches_reference(scale, seed):
    """Eigenvalues in [1e-6, 1e-3] and an rhs near 1e-160: ``p.Ap``
    underflows, and the division must stay a numpy one (inf/nan, no
    ZeroDivisionError), ending at ``maxiter`` as before."""
    rng = np.random.default_rng(seed)
    A = 1e-6 * _spd(rng, 8, 3.0)
    b = scale * rng.standard_normal(8)
    with np.errstate(all="ignore"):
        got = _run(sgs.cg, A, b, 1e-10, 30)
        ref = _run(_reference_cg, A, b, 1e-10, 30)
        sci = _run(scipy.sparse.linalg.cg, A, b, 1e-10, 30)
    _assert_same_run(got, ref)
    _assert_same_run(got, sci)
    assert got[1] == 30


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200, 1e300])
def test_overflowing_norm_matches_reference(scale):
    """``||b||`` overflows to inf (from about 1e155 on): the stop test
    never fires and the iterates go non-finite exactly as before."""
    rng = np.random.default_rng(3)
    A = _spd(rng, 9, 2.0)
    b = scale * rng.standard_normal(9)
    with np.errstate(all="ignore"):
        got = _run(sgs.cg, A, b, 1e-8, 12)
        ref = _run(_reference_cg, A, b, 1e-8, 12)
        sci = _run(scipy.sparse.linalg.cg, A, b, 1e-8, 12)
    _assert_same_run(got, ref)
    _assert_same_run(got, sci)


@pytest.mark.parametrize("scale", [1e-150, 1e-165, 1e-170, 1e-200, 1e-320])
def test_tiny_rhs_matches_reference(scale):
    rng = np.random.default_rng(4)
    A = _spd(rng, 7, 1.0)
    b = scale * rng.standard_normal(7)
    with np.errstate(all="ignore"):
        _assert_same_run(_run(sgs.cg, A, b, 1e-8, 20),
                         _run(_reference_cg, A, b, 1e-8, 20))


def test_rhs_whose_norm_underflows_returns_zeros():
    """The documented exception to SciPy agreement: a nonzero ``b`` whose
    norm underflows to 0 gives zeros here and ``b`` itself from SciPy."""
    rng = np.random.default_rng(6)
    A = _spd(rng, 5, 1.0)
    b = 1e-170 * rng.standard_normal(5)
    assert b.any() and np.linalg.norm(b) == 0.0
    x, info, calls = _run(sgs.cg, A, b, 1e-8, 10)
    assert info == 0 and not calls
    np.testing.assert_array_equal(x, np.zeros(5))
    x_sci, info_sci, calls_sci = _run(scipy.sparse.linalg.cg, A, b, 1e-8, 10)
    assert info_sci == 0 and not calls_sci
    np.testing.assert_array_equal(x_sci, b)


def test_inputs_untouched_and_outputs_unshared():
    rng = np.random.default_rng(7)
    A = _spd(rng, 10, 3.0)
    b = rng.standard_normal(10)
    A0, b0 = A.copy(), b.copy()
    x1, _, calls = _run(sgs.cg, A, b, 1e-12, 50)
    x2, _, _ = _run(sgs.cg, A, b, 1e-12, 50)
    np.testing.assert_array_equal(A, A0)
    np.testing.assert_array_equal(b, b0)
    np.testing.assert_array_equal(x1, x2)
    assert not np.shares_memory(x1, x2)
    assert not np.shares_memory(x1, b) and not np.shares_memory(x1, A)
