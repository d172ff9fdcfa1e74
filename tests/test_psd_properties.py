"""Property tests of the PSD head's kernels over generated sides and spectra.

``proxmap.eigh`` calls LAPACK ``dsyevr`` itself; it must return what
``scipy.linalg.eigh`` returns, bit for bit, on sides wide enough for
LAPACK's blocked reduction.  The PSD projection keeps a suffix of the
ascending spectrum, and packing is a gather from cached tables; both are
checked bit for bit against references written here: boolean masks over
``scipy.linalg.eigh``, and index scatters over ``np.triu_indices``.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sgsqp import ProxSpec, prox, smat, svec, svec_dim
from sgsqp import proxmap

PROPS = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)
KINDS = ("symmetric", "rank_deficient", "repeated", "zero", "lower_only")


def _matrix(kind, n, rng):
    """A side-``n`` matrix of one spectral kind; ``lower_only`` has an
    unrelated upper triangle, which both decompositions must ignore."""
    A = rng.standard_normal((n, n))
    if kind == "symmetric":
        return A + A.T
    if kind == "rank_deficient":
        B = A[:, :rng.integers(0, n)]
        return B @ B.T
    if kind == "repeated":
        U, _ = np.linalg.qr(A)
        lam = rng.choice(rng.standard_normal(3), size=n)
        return (U * lam) @ U.T
    if kind == "zero":
        return np.zeros((n, n))
    return np.tril(A + A.T) + np.triu(rng.standard_normal((n, n)), 1)


@st.composite
def matrices(draw, max_side):
    n = draw(st.integers(1, max_side))
    kind = draw(st.sampled_from(KINDS))
    scale = 10.0 ** draw(st.integers(-150, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, scale * _matrix(kind, n, rng)


def _scatter_svec(S):
    iu, ju = np.triu_indices(S.shape[0])
    v = S[iu, ju]
    v[iu != ju] *= np.sqrt(2.0)
    return v


def _scatter_smat(v, n):
    iu, ju = np.triu_indices(n)
    w = v.copy()
    w[iu != ju] /= np.sqrt(2.0)
    S = np.zeros((n, n))
    S[iu, ju] = w
    S[ju, iu] = w
    return S


@PROPS
@given(matrices(80))
def test_eigh_is_scipy_eigh_bit_for_bit(case):
    _, M = case
    w, V = proxmap.eigh(M)
    w_ref, V_ref = scipy.linalg.eigh(M)
    np.testing.assert_array_equal(w, w_ref)
    np.testing.assert_array_equal(V, V_ref)


@PROPS
@given(matrices(30))
def test_projection_and_saved_pairs_match_the_mask_reference(case):
    n, M = case
    v = _scatter_svec(0.5 * (M + M.T))
    out = prox(ProxSpec.psd_cone(n), 1.0, v)
    w, V = scipy.linalg.eigh(_scatter_smat(v, n))
    pos = w > 0.0
    P = (V[:, pos] * w[pos]) @ V[:, pos].T
    want = _scatter_svec(0.5 * (P + P.T))
    np.testing.assert_array_equal(out, want)
    saved = proxmap._last.psd
    assert saved[0] is not out
    for got, ref in zip(saved, (want, np.maximum(w, 0.0), V)):
        np.testing.assert_array_equal(got, ref)


@PROPS
@given(matrices(40), st.integers(0, 2**32 - 1))
def test_packing_matches_scatters_and_owns_its_output(case, seed):
    n, S = case
    v = np.random.default_rng(seed).standard_normal(svec_dim(n))
    packed, unpacked = svec(S), smat(v, n)
    np.testing.assert_array_equal(packed, _scatter_svec(S))
    np.testing.assert_array_equal(unpacked, _scatter_smat(v, n))
    for table in proxmap._pack(n):
        assert not np.shares_memory(packed, table)
        assert not np.shares_memory(unpacked, table)
    packed[:] = np.nan
    unpacked[:] = np.nan
    np.testing.assert_array_equal(svec(S), _scatter_svec(S))
    np.testing.assert_array_equal(smat(v, n), _scatter_smat(v, n))
