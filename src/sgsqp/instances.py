"""Desk-scale instance generation and a lossless on-disk format.

Instances are JSON documents with every floating-point number written as
a 17-significant-digit decimal string, which round-trips IEEE doubles
exactly; keys are sorted and the layout is fixed, so identical seeds
produce byte-identical files.  A text is byte-identical to
``json.dumps(doc, indent=1, sort_keys=True)`` of the document holding
each array as nested lists of those decimal strings, but is rendered one
array per ``%``-format call instead of one Python string per number.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh, qr

from .blockla import (BlockPartition, BlockSymOperator, BlockVector, finite_real,
                      int_at_least)
from .errors import InvalidParams
from .palm import LinConQP, QsdpData, qsdp_to_lincon
from .proxmap import ProxSpec, prox, smat, svec, svec_dim
from .sgs import CompositeQP

__all__ = [
    "Instance",
    "gen",
    "gen_lincon",
    "gen_qsdp",
    "read_instance",
    "write_instance",
    "dumps_instance",
    "loads_instance",
]

_FMT = ".17g"


def _e(x):
    return format(float(x), _FMT)


@functools.lru_cache(maxsize=32)
def _template(shape, depth):
    """``%``-template of an array of ``shape`` whose opening bracket sits
    at indent ``depth``: one ``"%.17g"`` string per entry, laid out as
    ``json.dumps(indent=1)`` lays out nested lists."""
    if not shape:
        return '"%' + _FMT + '"'
    if shape[0] == 0:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    rows = ("," + pad).join([_template(shape[1:], depth + 1)] * shape[0])
    return "[" + pad + rows + "\n" + " " * depth + "]"


def _emit(v, depth, out):
    """Pass ``v`` to ``out`` in pieces that join to the text
    ``json.dumps(doc, indent=1, sort_keys=True)`` writes for it at nesting
    ``depth`` of ``doc``, each ``ndarray`` written as nested lists of
    :func:`_e` strings."""
    if isinstance(v, np.ndarray):
        out(_template(v.shape, depth) % tuple(v.ravel().tolist()))
        return
    if isinstance(v, dict) and v:
        # json's key rule: a non-string key is written as its JSON scalar
        items = [(json.dumps(k if isinstance(k, str) else json.dumps(k))
                  + ": ", u) for k, u in sorted(v.items())]
        brackets = "{}"
    elif isinstance(v, (list, tuple)) and v:
        items = [("", u) for u in v]
        brackets = "[]"
    else:
        out(json.dumps(v))
        return
    pad = "\n" + " " * (depth + 1)
    out(brackets[0])
    for n, (key, u) in enumerate(items):
        out(("," if n else "") + pad + key)
        _emit(u, depth + 1, out)
    out("\n" + " " * depth + brackets[1])


def _f64(a):
    return np.asarray(a, dtype=float)


def _darr(v, what):
    """Decode a list (vector) or list of equal-length lists (matrix) of
    numbers; :class:`InvalidParams` naming ``what`` otherwise."""
    if not isinstance(v, list):
        raise InvalidParams(f"{what} must be a list of numbers")
    shape = (len(v),)
    if v and isinstance(v[0], list):
        shape = (len(v), len(v[0]))
        if not all(isinstance(row, list) and len(row) == shape[1] for row in v):
            raise InvalidParams(f"{what} has rows of different lengths")
        v = itertools.chain.from_iterable(v)
    try:
        flat = np.fromiter(map(float, v), dtype=float,
                           count=math.prod(shape))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(f"{what} has a non-numeric entry: {exc}") from None
    return flat.reshape(shape)


def _get(doc, key, where=""):
    """``doc[key]`` of the object at field ``where``; :class:`InvalidParams`
    naming the field when that is not a JSON object or lacks ``key``."""
    if not isinstance(doc, dict):
        raise InvalidParams(f"{where} must be a JSON object")
    if key not in doc:
        path = f"{where}.{key}" if where else key
        raise InvalidParams(f"instance has no field {path}")
    return doc[key]


def _conv(fn, v, what):
    """``fn(v)``, with a builtin conversion error or an
    :class:`InvalidParams` re-raised as :class:`InvalidParams` naming
    ``what``."""
    try:
        return fn(v)
    except (TypeError, ValueError, OverflowError, InvalidParams) as exc:
        raise InvalidParams(f"{what} is invalid ({v!r}): {exc}") from None


def _enc_prox(spec):
    doc = {"kind": spec.kind}
    if spec.kind == "l1":
        doc["lam"] = _e(spec.lam)
    elif spec.kind == "box":
        doc["lo"] = _f64(spec.lo)
        doc["hi"] = _f64(spec.hi)
    elif spec.kind == "psd_cone":
        doc["side"] = spec.side
    return doc


def _dec_prox(doc):
    kind = _get(doc, "kind", "prox")
    if kind == "zero":
        return ProxSpec.zero()
    if kind == "l1":
        return ProxSpec.l1(_conv(float, _get(doc, "lam", "prox"), "prox.lam"))
    if kind == "nonneg":
        return ProxSpec.nonneg()
    if kind == "box":
        return ProxSpec.box(_darr(_get(doc, "lo", "prox"), "prox.lo"),
                            _darr(_get(doc, "hi", "prox"), "prox.hi"))
    if kind == "psd_cone":
        return _conv(ProxSpec.psd_cone, _get(doc, "side", "prox"), "prox.side")
    raise InvalidParams(f"unknown prox kind {kind!r} in instance file")


def _enc_blocks(blocks):
    return {f"{i},{j}": _f64(M) for (i, j), M in blocks.items()}


def _block_key(key):
    i, j = key.split(",")
    return int(i), int(j)


def _dec_blocks(doc, what):
    if not isinstance(doc, dict):
        raise InvalidParams(f"{what} must be a JSON object of blocks")
    out = {}
    for key in list(doc):
        i, j = _conv(_block_key, key, f"{what} block key")
        # pop: each block's strings are freed once it is decoded
        out[(i, j)] = _darr(doc.pop(key), f"{what} block {key}")
    return out


def _enc_meta(meta):
    return {k: _e(v) if isinstance(v, (float, np.floating))
            else int(v) if isinstance(v, np.integer) else v
            for k, v in sorted(meta.items())}


@dataclass
class Instance:
    """Parsed instance: a composite QP, optionally with constraint or
    QSDP sections attached.

    A QSDP instance derives whichever of ``dims``, ``Q``, ``b`` and
    ``prox`` it is not given from its linearly constrained form
    (:func:`~sgsqp.palm.qsdp_to_lincon`): the partition, copies of the
    blocks of ``P`` and of ``g``, and the PSD head.  That form is built
    once and :meth:`lincon_problem` returns it.  Any other instance needs
    all four (:class:`InvalidParams`).
    """

    dims: tuple = None
    Q: dict = None
    b: np.ndarray = None
    prox: ProxSpec = None
    lincon: dict = None
    qsdp: QsdpData = None
    meta: dict = field(default_factory=dict)
    _lp: LinConQP = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(v is None for v in (self.dims, self.Q, self.b, self.prox)):
            if self.qsdp is None:
                raise InvalidParams(
                    "an instance without a qsdp section needs dims, Q, b and prox")
            self._lp = lp = qsdp_to_lincon(self.qsdp)
            if self.dims is None:
                self.dims = tuple(lp.partition.dims)
            if self.Q is None:
                self.Q = {key: np.array(M) for key, M in lp.P.stored_items()}
            if self.b is None:
                self.b = np.array(lp.g)
            if self.prox is None:
                self.prox = lp.prox

    @property
    def partition(self):
        return BlockPartition(self.dims)

    def composite(self):
        part = self.partition
        op = BlockSymOperator(part, dict(self.Q))
        return CompositeQP(op, BlockVector(part, np.array(self.b)), self.prox)

    def has_constraints(self):
        return self.lincon is not None or self.qsdp is not None

    def lincon_problem(self):
        if self.lincon is not None:
            part = self.partition
            P = BlockSymOperator(part, dict(self.lincon["P"]),
                                 factor_diag=False)
            return LinConQP(P, self.lincon["A"], self.lincon["g"],
                            self.lincon["d"], prox=self.prox)
        if self.qsdp is not None:
            if self._lp is None:
                self._lp = qsdp_to_lincon(self.qsdp)
            return self._lp
        raise InvalidParams("instance has no constraint section")


def _document(inst):
    """The instance as a JSON document with its arrays left as ndarrays."""
    doc = {
        "partition": {"dims": [int(n) for n in inst.dims]},
        "Q": _enc_blocks(inst.Q),
        "b": _f64(inst.b),
        "prox": _enc_prox(inst.prox),
        "meta": _enc_meta(inst.meta),
    }
    if inst.lincon is not None:
        doc["lincon"] = {
            "P": _enc_blocks(inst.lincon["P"]),
            "A": _f64(inst.lincon["A"]),
            "g": _f64(inst.lincon["g"]),
            "d": _f64(inst.lincon["d"]),
        }
    if inst.qsdp is not None:
        q = inst.qsdp
        doc["qsdp"] = {
            "n": q.n, "p": q.p,
            "H": _f64(q.H), "B": _f64(q.B),
            "h": _f64(q.h), "C": _f64(q.C),
        }
    return doc


def dumps_instance(inst):
    pieces = []
    _emit(_document(inst), 0, pieces.append)
    pieces.append("\n")
    return "".join(pieces)


def loads_instance(text):
    """Parse an instance document; :class:`InvalidParams` naming the field
    for invalid JSON, a missing field or a value of the wrong kind.  A
    document with a ``"qsdp"`` section is rebuilt from that section (see
    :class:`Instance`): its ``"partition"``, ``"Q"``, ``"b"`` and
    ``"prox"``, derived data, are neither read nor required."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InvalidParams(f"instance is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParams("instance must be a JSON object")
    lincon = None
    if "lincon" in doc:
        lc = doc["lincon"]
        lincon = {"P": _dec_blocks(_get(lc, "P", "lincon"), "lincon.P")}
        for k in ("A", "g", "d"):
            lincon[k] = _darr(_get(lc, k, "lincon"), f"lincon.{k}")
    if "qsdp" in doc:
        qd = doc["qsdp"]
        qsdp = QsdpData(_conv(lambda n: int_at_least(n, "n", 1),
                              _get(qd, "n", "qsdp"), "qsdp.n"),
                        *(_darr(_get(qd, k, "qsdp"), f"qsdp.{k}")
                          for k in ("H", "B", "h", "C")))
        return Instance(lincon=lincon, qsdp=qsdp, meta=doc.get("meta", {}))
    dims = _get(_get(doc, "partition"), "dims", "partition")
    return Instance(
        dims=_conv(lambda v: BlockPartition(v).dims, dims, "partition.dims"),
        Q=_dec_blocks(_get(doc, "Q"), "Q"),
        b=_darr(_get(doc, "b"), "b"),
        prox=_dec_prox(_get(doc, "prox")),
        lincon=lincon,
        meta=doc.get("meta", {}),
    )


def write_instance(inst, path):
    """Write the text of :func:`dumps_instance` to ``path`` piece by piece,
    never holding all of it."""
    with open(path, "w") as fh:
        _emit(_document(inst), 0, fh.write)
        fh.write("\n")


def read_instance(path):
    with open(path) as fh:
        return loads_instance(fh.read())


# ---------------------------------------------------------------------------
# generators


def _rand_orth(rng, n):
    M = rng.standard_normal((n, n))
    O, R = qr(M)
    return O * np.sign(np.diag(R))


def _spd_block(rng, n, kappa):
    O = _rand_orth(rng, n)
    lo, hi = 1.0 / np.sqrt(kappa), np.sqrt(kappa)
    w = np.geomspace(lo, hi, n) if n > 1 else np.array([np.sqrt(lo * hi)])
    M = (O * w) @ O.T
    return 0.5 * (M + M.T)


def _in_range(value, what, lo, hi=np.inf):
    """``value`` as a float if it is a finite real in ``[lo, hi]``;
    :class:`InvalidParams` naming ``what`` otherwise."""
    value = finite_real(value, what)
    if not lo <= value <= hi:
        raise InvalidParams(f"{what} must lie in [{lo}, {hi}], got {value!r}")
    return value


def _spd_blocks(rng, dims, kappa, coupling, identity_first=False):
    """Diagonal SPD blocks plus scaled random coupling, PD overall."""
    s = len(dims)
    blocks = {}
    for i, n in enumerate(dims):
        if i == 0 and identity_first:
            blocks[(0, 0)] = (0.5 + 1.5 * rng.random()) * np.eye(n)
        else:
            blocks[(i, i)] = _spd_block(rng, n, kappa)
    lam_min = min(eigvalsh(blocks[(i, i)]).min() for i in range(s))
    off = {}
    N = sum(dims)
    part = BlockPartition(dims)
    C = np.zeros((N, N))
    for i in range(s):
        for j in range(i + 1, s):
            M = rng.standard_normal((dims[i], dims[j]))
            if rng.random() < coupling:
                off[(i, j)] = M
                C[part.slice(i), part.slice(j)] = M
                C[part.slice(j), part.slice(i)] = M.T
    cnorm = np.linalg.norm(C, 2)
    if cnorm > 0:
        scale = 0.9 * lam_min / cnorm
        for key in off:
            blocks[key] = off[key] * scale
    return blocks


def _prox_for(rng, kind, n1):
    if kind == "zero":
        return ProxSpec.zero()
    if kind == "l1":
        return ProxSpec.l1(0.05 + 0.2 * rng.random())
    if kind == "nonneg":
        return ProxSpec.nonneg()
    if kind == "box":
        return ProxSpec.box(-(0.5 + rng.random(n1)), 0.5 + rng.random(n1))
    raise InvalidParams(f"unknown prox kind {kind!r}")


def gen(dims, kappa=10.0, coupling=0.5, prox_kind="zero", seed=0,
        singular=False):
    """Random composite QP instance, deterministic per seed.

    Nonsingular instances have SPD diagonal blocks with spectra spread
    over a condition range ``kappa`` and coupling blocks scaled so the
    assembled operator stays PD.  ``singular`` builds a PSD rank
    deficient operator with PD diagonal blocks and a consistent linear
    term (only the trivial nonsmooth term is supported there).
    """
    dims = BlockPartition(dims).dims
    kappa = _in_range(kappa, "kappa", 1.0)
    coupling = _in_range(coupling, "coupling", 0.0, 1.0)
    rng = np.random.default_rng(seed)
    N = sum(dims)
    meta = {"seed": int(seed), "kappa": float(kappa),
            "coupling": float(coupling), "prox": prox_kind,
            "singular": bool(singular)}

    if singular:
        if prox_kind != "zero":
            raise InvalidParams(
                "singular instances support only the trivial nonsmooth term"
            )
        K = N - max(1, N // 6)
        if K < max(dims) + 1:
            raise InvalidParams(
                "partition too small to be rank deficient with PD diagonal blocks"
            )
        part = BlockPartition(dims)
        for _ in range(20):
            G = rng.standard_normal((K, N))
            Qd = G.T @ G
            if all(eigvalsh(Qd[part.slice(i), part.slice(i)]).min()
                   > 1e-8 * np.linalg.norm(Qd, 2) for i in range(len(dims))):
                break
        else:
            raise InvalidParams("failed to draw a usable singular instance")
        blocks = {(i, j): Qd[part.slice(i), part.slice(j)].copy()
                  for i in range(len(dims)) for j in range(i, len(dims))}
        x_true = rng.standard_normal(N)
        b = Qd @ x_true
        return Instance(dims=dims, Q=blocks, b=b, prox=ProxSpec.zero(),
                        meta=meta)

    spec = _prox_for(rng, prox_kind, dims[0])
    blocks = _spd_blocks(rng, dims, kappa, coupling,
                         identity_first=prox_kind != "zero")
    b = rng.standard_normal(N)
    return Instance(dims=dims, Q=blocks, b=b, prox=spec, meta=meta)


def gen_lincon(dims, m, prox_kind="zero", kappa=10.0, coupling=0.5, seed=0):
    """Feasible linearly constrained instance with PD quadratic part."""
    dims = BlockPartition(dims).dims
    kappa = _in_range(kappa, "kappa", 1.0)
    coupling = _in_range(coupling, "coupling", 0.0, 1.0)
    N = sum(dims)
    m = int(m)
    if not (1 <= m < N):
        raise InvalidParams(f"need 1 <= m < {N} constraint rows, got {m}")
    rng = np.random.default_rng(seed)
    P = _spd_blocks(rng, dims, kappa, coupling)
    spec = _prox_for(rng, prox_kind, dims[0])
    for _ in range(20):
        A = rng.standard_normal((m, N))
        sv = np.linalg.svd(A, compute_uv=False)
        if sv.min() > 1e-8 * sv.max():
            break
    else:
        raise InvalidParams("failed to draw a full-row-rank constraint map")
    x_feas = rng.standard_normal(N)
    x_feas[:dims[0]] = prox(spec, 1.0, x_feas[:dims[0]])
    d = A @ x_feas
    g = rng.standard_normal(N)
    meta = {"seed": int(seed), "kappa": float(kappa),
            "coupling": float(coupling), "prox": prox_kind, "m": m}
    return Instance(dims=dims, Q=dict(P), b=g, prox=spec,
                    lincon={"P": P, "A": A, "g": g, "d": d}, meta=meta)


def gen_qsdp(n, p, seed=0, rank_H=None):
    """QSDP instance built around a known KKT point (hence solvable).

    The PSD variable and its multiplier are constructed with
    complementary eigenspaces, the linear data derived from the
    stationarity conditions, and the right hand side from feasibility.
    """
    n, p = int(n), int(p)
    d = svec_dim(n)
    if n < 1:
        raise InvalidParams("matrix order must be positive")
    if not (1 <= p <= d):
        raise InvalidParams(f"need 1 <= p <= {d} constraint rows, got {p}")
    rank_H = d if rank_H is None else int(rank_H)
    if not (0 <= rank_H <= d):
        raise InvalidParams(f"rank_H must lie in [0, {d}]")
    rng = np.random.default_rng(seed)

    if rank_H > 0:
        M = rng.standard_normal((d, rank_H))
        H = M @ M.T
        H = 0.5 * (H + H.T)
        H /= np.linalg.norm(H, 2)
    else:
        H = np.zeros((d, d))
    for _ in range(20):
        B = rng.standard_normal((p, d))
        sv = np.linalg.svd(B, compute_uv=False)
        if sv.min() > 1e-8 * sv.max():
            break
    else:
        raise InvalidParams("failed to draw a surjective constraint map")

    O = _rand_orth(rng, n)
    rz = max(1, n // 2)
    az = 0.5 + rng.random(rz)
    Zs = (O[:, :rz] * az) @ O[:, :rz].T
    if rz < n:
        ay = 0.5 + rng.random(n - rz)
        Ys = (O[:, rz:] * ay) @ O[:, rz:].T
    else:
        Ys = np.zeros((n, n))
    y = svec(0.5 * (Ys + Ys.T))
    h = B @ y
    xi = rng.standard_normal(p)
    w = -y
    C = smat(svec(0.5 * (Zs + Zs.T)) + B.T @ xi + H @ w, n)

    meta = {"seed": int(seed), "n": n, "p": p, "rank_H": rank_H}
    return Instance(qsdp=QsdpData(n, H, B, h, C), meta=meta)
