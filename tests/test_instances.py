import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sgsqp import PalmStop, ProxSpec, StopRule, palm_solve, solve
from sgsqp.errors import InvalidParams
from sgsqp.instances import (
    Instance,
    dumps_instance,
    gen,
    gen_lincon,
    gen_qsdp,
    loads_instance,
    read_instance,
    write_instance,
)
from sgsqp.oracle import dense_optimum
from sgsqp.palm import LinConQP, QsdpData


class TestGen:
    def test_deterministic_bytes(self):
        a = dumps_instance(gen((2, 3, 2), seed=42, prox_kind="l1"))
        b = dumps_instance(gen((2, 3, 2), seed=42, prox_kind="l1"))
        assert a == b
        c = dumps_instance(gen((2, 3, 2), seed=43, prox_kind="l1"))
        assert a != c

    def test_round_trip_lossless(self):
        inst = gen((2, 3), seed=7, prox_kind="box", kappa=25.0)
        text = dumps_instance(inst)
        back = loads_instance(text)
        assert dumps_instance(back) == text
        for key, arr in inst.Q.items():
            np.testing.assert_array_equal(back.Q[key], arr)
        np.testing.assert_array_equal(back.b, inst.b)
        assert back.prox == inst.prox

    def test_one_bound_pair_box_applies_to_a_wide_head(self):
        """``ProxSpec.box(0.0, 1.0)`` on a 3-wide head survives a round
        trip, both problem forms accept it, and a solve reaches the dense
        optimum, one head entry at its bound."""
        spec = ProxSpec.box(0.0, 1.0)
        inst = dataclasses.replace(gen((3, 2, 2), seed=0, prox_kind="box"),
                                   prox=spec)
        back = loads_instance(dumps_instance(inst))
        assert back.prox == spec
        prob = back.composite()
        xs, _ = dense_optimum(prob)
        assert (xs.data[:3] == 0.0).sum() == 1
        tr = solve(prob, stop=StopRule(kkt_tol=1e-10, max_iter=1000))
        assert np.linalg.norm(tr.x_final.data - xs.data) <= 1e-8
        lincon = dataclasses.replace(
            gen_lincon((3, 2), m=2, prox_kind="box", seed=8), prox=spec)
        assert loads_instance(dumps_instance(lincon)).lincon_problem().prox == spec

    def test_composite_is_solvable(self):
        prob = gen((2, 2, 3), seed=5, prox_kind="nonneg").composite()
        from sgsqp.oracle import dense_optimum
        x, F = dense_optimum(prob)
        assert np.isfinite(F)

    def test_condition_number_request(self):
        inst = gen((3, 3), seed=1, kappa=100.0, coupling=0.0)
        for i in range(2):
            blk = inst.Q[(i, i)]
            w = np.linalg.eigvalsh(blk)
            assert w.max() / w.min() == pytest.approx(100.0, rel=1e-8)

    def test_dims_validation(self):
        with pytest.raises(InvalidParams):
            gen((4,), seed=0)
        with pytest.raises(InvalidParams):
            gen((2, 0), seed=0)
        with pytest.raises(InvalidParams):
            gen((2, 2.5), seed=0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, 0.0, 0.5])
    @pytest.mark.parametrize("make", [gen, lambda dims, kappa: gen_lincon(
        dims, m=2, kappa=kappa)], ids=["gen", "gen_lincon"])
    def test_kappa_validation(self, make, kappa):
        with pytest.raises(InvalidParams, match="kappa"):
            make((2, 2), kappa=kappa)

    @pytest.mark.parametrize("coupling", [np.nan, np.inf, -1.0, 5.0])
    @pytest.mark.parametrize("make", [gen, lambda dims, coupling: gen_lincon(
        dims, m=2, coupling=coupling)], ids=["gen", "gen_lincon"])
    def test_coupling_validation(self, make, coupling):
        """A coupling probability outside ``[0, 1]`` is refused, not read as
        "never" or "always" coupled."""
        with pytest.raises(InvalidParams, match="coupling"):
            make((2, 2), coupling=coupling)

    def test_singular_branch(self):
        inst = gen((2, 2, 2), seed=3, singular=True)
        Qd = inst.composite().Q.dense()
        w = np.linalg.eigvalsh(Qd)
        assert w.min() <= 1e-10 * max(1.0, w.max())
        # diagonal blocks stay invertible so the sweeps remain well posed
        for i in range(3):
            assert np.linalg.eigvalsh(inst.Q[(i, i)]).min() > 0
        # the linear term stays consistent, keeping the infimum attained
        resid = np.linalg.lstsq(Qd, inst.b, rcond=None)[1]
        assert resid.size == 0 or resid[0] <= 1e-18

    def test_singular_rejects_nonsmooth(self):
        with pytest.raises(InvalidParams):
            gen((2, 2), seed=0, singular=True, prox_kind="l1")


class TestGenLincon:
    def test_feasible_and_full_rank(self):
        inst = gen_lincon((2, 3, 2), m=4, seed=2)
        A = np.asarray(inst.lincon["A"])
        d = np.asarray(inst.lincon["d"])
        assert np.linalg.matrix_rank(A) == 4
        x, *_ = np.linalg.lstsq(A, d, rcond=None)
        assert np.linalg.norm(A @ x - d) <= 1e-9

    def test_m_validation(self):
        with pytest.raises(InvalidParams):
            gen_lincon((2, 2), m=0, seed=0)
        with pytest.raises(InvalidParams):
            gen_lincon((2, 2), m=4, seed=0)

    def test_lincon_problem_round_trip(self):
        inst = gen_lincon((2, 2), m=2, prox_kind="nonneg", seed=8)
        back = loads_instance(dumps_instance(inst))
        lp = back.lincon_problem()
        assert isinstance(lp, LinConQP)
        np.testing.assert_array_equal(lp.A, np.asarray(inst.lincon["A"]))
        assert lp.prox.kind == "nonneg"

    def test_plain_instance_has_no_constraint_form(self):
        inst = gen((2, 2), seed=0)
        assert not inst.has_constraints()
        with pytest.raises(InvalidParams):
            inst.lincon_problem()


class TestGenQsdp:
    def test_round_trip_preserves_data(self):
        inst = gen_qsdp(4, 2, seed=9)
        back = loads_instance(dumps_instance(inst))
        q0, q1 = inst.qsdp, back.qsdp
        if not isinstance(q0, QsdpData):
            q0 = QsdpData(**q0)
        if not isinstance(q1, QsdpData):
            q1 = QsdpData(**q1)
        np.testing.assert_array_equal(q0.H, q1.H)
        np.testing.assert_array_equal(q0.B, q1.B)
        np.testing.assert_array_equal(q0.C, q1.C)

    def test_rank_control(self):
        inst = gen_qsdp(4, 2, seed=1, rank_H=2)
        q = inst.qsdp
        H = q.H if isinstance(q, QsdpData) else np.asarray(q["H"])
        assert np.linalg.matrix_rank(H, tol=1e-8) == 2
        z = gen_qsdp(3, 1, seed=1, rank_H=0)
        Hz = z.qsdp.H if isinstance(z.qsdp, QsdpData) else np.asarray(z.qsdp["H"])
        assert not Hz.any()

    def test_embedded_saddle_point(self):
        """The generator plants a complementary primal-dual pair, so the
        constraint data admits an exact KKT certificate."""
        inst = gen_qsdp(5, 3, seed=4)
        lp = inst.lincon_problem()
        from sgsqp import PalmStop, palm_solve
        x, y, tr = palm_solve(lp, sigma=1.0, tau=1.6,
                              stop=PalmStop(kkt_tol=1e-7, max_iter=10000))
        assert tr.termination == "tol"

    def test_surjectivity_of_B(self):
        inst = gen_qsdp(4, 3, seed=6)
        B = inst.qsdp.B if isinstance(inst.qsdp, QsdpData) \
            else np.asarray(inst.qsdp["B"])
        assert np.linalg.matrix_rank(B) == 3


class TestQsdpLoad:
    """A QSDP document is rebuilt from its ``"qsdp"`` section alone: its
    ``"partition"``, ``"Q"``, ``"b"`` and ``"prox"`` sections, the
    partition, the blocks of ``P``, the ``g`` and the PSD head of its
    linearly constrained form, are neither read nor required."""

    TEXT = dumps_instance(gen_qsdp(4, 2, seed=3))

    @pytest.mark.parametrize("edit", ["removed", "garbage"])
    def test_derived_sections_neither_read_nor_required(self, edit):
        full = loads_instance(self.TEXT)
        doc = json.loads(self.TEXT)
        if edit == "removed":
            del doc["Q"], doc["b"]
        else:
            doc["Q"], doc["b"] = "not blocks", [1, "x"]
        bare = loads_instance(json.dumps(doc))
        assert bare.dims == full.dims and bare.Q.keys() == full.Q.keys()
        for key, M in full.Q.items():
            np.testing.assert_array_equal(bare.Q[key], M)
        np.testing.assert_array_equal(bare.b, full.b)
        lf, lb = full.lincon_problem(), bare.lincon_problem()
        np.testing.assert_array_equal(lb.P.dense(), lf.P.dense())
        for name in "Agd":
            np.testing.assert_array_equal(getattr(lb, name), getattr(lf, name))
        assert lb.prox == lf.prox
        stop = PalmStop(kkt_tol=1e-7, max_iter=10000)
        xf, yf, tf = palm_solve(lf, 1.0, 1.6, stop=stop)
        xb, yb, tb = palm_solve(lb, 1.0, 1.6, stop=stop)
        assert tb.termination == tf.termination == "tol"
        assert tb.iterations == tf.iterations
        np.testing.assert_array_equal(xb.data, xf.data)
        np.testing.assert_array_equal(yb, yf)

    @pytest.mark.parametrize("edit", ["removed", "contradicting"])
    def test_partition_and_prox_come_from_the_qsdp_section(self, edit):
        doc = json.loads(self.TEXT)
        if edit == "removed":
            del doc["partition"], doc["prox"]
        else:
            doc["partition"]["dims"], doc["prox"]["side"] = [3, 3, 3], 2
        inst = loads_instance(json.dumps(doc))
        lp = inst.lincon_problem()
        assert inst.dims == lp.partition.dims == (10, 2, 10)
        assert inst.prox == lp.prox == ProxSpec.psd_cone(4)
        assert dumps_instance(inst) == self.TEXT

    def test_load_decomposes_H_once(self, monkeypatch):
        """A load followed by ``lincon_problem()`` builds the linearly
        constrained form once, with one eigendecomposition of ``H``."""
        calls = []
        real = QsdpData.range_coords
        monkeypatch.setattr(QsdpData, "range_coords",
                            lambda q: calls.append(q) or real(q))
        inst = loads_instance(self.TEXT)
        lp = inst.lincon_problem()
        assert inst.lincon_problem() is lp
        assert len(calls) == 1

    def test_replace_keeps_the_derived_data(self):
        inst = loads_instance(self.TEXT)
        moved = dataclasses.replace(inst, meta={"note": "moved"})
        assert moved.Q is inst.Q and moved.b is inst.b
        np.testing.assert_array_equal(moved.lincon_problem().A,
                                      inst.lincon_problem().A)
        assert dumps_instance(dataclasses.replace(moved, meta=inst.meta)) \
            == self.TEXT

    def test_other_instances_need_every_field(self):
        inst = gen((2, 2), seed=0)
        with pytest.raises(InvalidParams, match="needs dims, Q, b and prox"):
            dataclasses.replace(inst, b=None)


_ODD = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        float("nan"), float("inf"), float("-inf"), 0.1)


def _reference_dumps(inst):
    """The text as the document of nested lists of ``format(x, ".17g")``
    strings, laid out by ``json.dumps(indent=1, sort_keys=True)``."""
    def arr(a):
        def rec(v):
            return ([rec(u) for u in v] if isinstance(v, list)
                    else format(v, ".17g"))
        return rec(np.asarray(a, dtype=float).tolist())

    def blocks(bs):
        return {f"{i},{j}": arr(M) for (i, j), M in bs.items()}

    prox = {"kind": inst.prox.kind}
    if inst.prox.kind == "l1":
        prox["lam"] = format(inst.prox.lam, ".17g")
    elif inst.prox.kind == "box":
        prox.update(lo=arr(inst.prox.lo), hi=arr(inst.prox.hi))
    meta = {k: format(v, ".17g") if isinstance(v, float) else v
            for k, v in inst.meta.items()}
    doc = {"partition": {"dims": list(inst.dims)}, "Q": blocks(inst.Q),
           "b": arr(inst.b), "prox": prox, "meta": meta}
    if inst.lincon is not None:
        lc = inst.lincon
        doc["lincon"] = {"P": blocks(lc["P"]),
                         **{k: arr(lc[k]) for k in "Agd"}}
    if inst.qsdp is not None:
        q = inst.qsdp
        doc["qsdp"] = {"n": q.n, "p": q.p,
                       **{k: arr(getattr(q, k)) for k in "HBhC"}}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


_ENTRIES = st.sampled_from(_ODD) | st.floats()
_META_SCALARS = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
                 | st.floats() | st.text(max_size=4))
_META = st.dictionaries(st.text(max_size=4), st.recursive(
    _META_SCALARS,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)
                  | st.dictionaries(st.integers(-20, 20), kids, max_size=3)),
    max_leaves=6), max_size=4)


@st.composite
def _instances(draw):
    """Composite instances of 1 to 13 blocks of width 0 to 3, entries from
    the extremes of float64, any head, optional lincon and qsdp sections."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=13))
    s = len(dims)
    pairs = [(i, i) for i in range(s)] + draw(st.lists(
        st.tuples(st.integers(0, s - 1), st.integers(0, s - 1)).map(sorted)
        .map(tuple), max_size=4))
    Q = {(i, j): draw(arrays(float, (dims[i], dims[j]), elements=_ENTRIES))
         for i, j in pairs}
    N = sum(dims)
    lo = draw(arrays(float, draw(st.integers(1, 3)),
                     elements=st.sampled_from(_ODD[:4]) | st.floats(-1e3, 1e3)))
    prox = draw(st.sampled_from([
        ProxSpec.zero(), ProxSpec.nonneg(), ProxSpec.box(lo, lo),
        *(ProxSpec.l1(lam) for lam in (5e-324, 0.1, 1.7976931348623157e308))]))
    inst = Instance(dims=tuple(dims), Q=Q,
                    b=draw(arrays(float, N, elements=_ENTRIES)),
                    prox=prox, meta=draw(_META))
    if draw(st.booleans()):
        m = draw(st.integers(0, 2))
        inst.lincon = {"P": Q, **{k: draw(arrays(float, shape, elements=_ENTRIES))
                                  for k, shape in (("A", (m, N)), ("g", N),
                                                   ("d", m))}}
    if draw(st.booleans()):
        inst.qsdp = gen_qsdp(draw(st.integers(1, 3)), 1, seed=0).qsdp
    return inst


class TestFileFormat:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_instances())
    def test_text_matches_the_nested_string_reference(self, inst):
        assert dumps_instance(inst) == _reference_dumps(inst)

    def test_file_round_trip(self, tmp_path):
        """The file holds exactly the bytes of ``dumps_instance`` and reads
        back to an instance that writes them again."""
        path = tmp_path / "inst.json"
        for inst in (gen((2, 2), seed=11, prox_kind="l1"),
                     gen_lincon((2, 3), m=2, prox_kind="box", seed=1),
                     gen_qsdp(3, 2, seed=5)):
            write_instance(inst, str(path))
            text = dumps_instance(inst)
            assert path.read_bytes() == text.encode()
            assert dumps_instance(read_instance(str(path))) == text

    def test_writer_peak_memory(self, tmp_path):
        """``dumps_instance`` peaks within three times the text it returns,
        and ``write_instance``, which never holds the whole text, within
        one."""
        inst = gen((100,) * 4, prox_kind="l1", coupling=1.0)
        path = str(tmp_path / "w.json")
        for write, bound in ((dumps_instance, 3.0),
                             (lambda i: write_instance(i, path), 1.0)):
            tracemalloc.start()
            try:
                write(inst)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * len(dumps_instance(inst)), write

    def test_numbers_serialized_as_decimal_strings(self):
        text = dumps_instance(gen((2, 2), seed=0))
        doc = json.loads(text)
        cell = doc["Q"]["0,0"][0][0]
        assert isinstance(cell, str)
        assert float(cell) == float.fromhex(float(cell).hex())

    def test_unknown_prox_kind_rejected(self):
        text = dumps_instance(gen((2, 2), seed=0, prox_kind="nonneg"))
        broken = text.replace('"nonneg"', '"simplex"')
        with pytest.raises(InvalidParams):
            loads_instance(broken)


def _nested_decode(v):
    """Element-by-element reference decoder for the flat one."""
    def rec(u):
        return [rec(w) for w in u] if isinstance(u, list) else float(u)
    return np.array(rec(v), dtype=float)


class TestDecoder:
    @pytest.mark.parametrize("inst", [
        gen((3, 2, 2), seed=3, prox_kind="box"),
        gen_lincon((2, 3), m=2, seed=1),
        gen_qsdp(3, 2, seed=5),
    ], ids=["box", "lincon", "qsdp"])
    def test_flat_decoder_matches_nested_reference(self, inst):
        text = dumps_instance(inst)
        doc, back = json.loads(text), loads_instance(text)
        pairs = [(back.b, doc["b"])]
        pairs += [(back.Q[tuple(int(t) for t in k.split(","))], M)
                  for k, M in doc["Q"].items()]
        if "lincon" in doc:
            pairs += [(back.lincon[k], doc["lincon"][k]) for k in "Agd"]
        if "qsdp" in doc:
            pairs += [(back.qsdp.H, doc["qsdp"]["H"]),
                      (back.qsdp.B, doc["qsdp"]["B"])]
        if back.prox.kind == "box":
            pairs += [(np.array(back.prox.lo), doc["prox"]["lo"])]
        for got, raw in pairs:
            want = _nested_decode(raw)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("edit,what", [
        (lambda d: d["prox"].update(lam="x"), "prox.lam"),
        (lambda d: d["prox"].pop("lam"), "prox.lam"),
        (lambda d: d["partition"].update(dims=["2", "two"]),
         "partition.dims"),
        (lambda d: d["partition"].update(dims=[2, 2.9]), "partition.dims"),
        (lambda d: d["Q"].update({"0;0": d["Q"].pop("0,0")}), "Q block key"),
        (lambda d: d.update(partition=[2, 2]), "partition"),
        (lambda d: d.update(Q=[]), "Q"),
        ("{}", "partition"),
        ("[1]", "JSON object"),
        ('{"b": [1,', "not valid JSON"),
    ], ids=["lam-text", "lam-missing", "dims-text", "dims-fraction", "block-key",
            "partition-list", "Q-list", "empty", "list", "syntax"])
    def test_bad_field_named(self, edit, what):
        """A malformed document (an edit of a valid one, or raw text)
        raises InvalidParams naming the field."""
        doc = json.loads(dumps_instance(gen((2, 2), seed=0, prox_kind="l1")))
        if isinstance(edit, str):
            text = edit
        else:
            edit(doc)
            text = json.dumps(doc)
        with pytest.raises(InvalidParams, match=what):
            loads_instance(text)

    @pytest.mark.parametrize("side", [2.5, "3", True, 0])
    def test_psd_side_not_truncated(self, side):
        """A PSD side that is not an int >= 1 is refused, not truncated.
        A QSDP document derives its head from the ``"qsdp"`` section, so
        the side is read from the composite document left without it."""
        doc = json.loads(dumps_instance(gen_qsdp(3, 2, seed=5)))
        del doc["qsdp"]
        doc["prox"]["side"] = side
        with pytest.raises(InvalidParams, match="prox.side"):
            loads_instance(json.dumps(doc))

    @pytest.mark.parametrize("n", [2.7, "3", True, 0])
    def test_qsdp_order_not_truncated(self, n):
        """A QSDP order that is not an int >= 1 is refused, not truncated."""
        doc = json.loads(dumps_instance(gen_qsdp(3, 2, seed=5)))
        doc["qsdp"]["n"] = n
        with pytest.raises(InvalidParams, match="qsdp.n"):
            loads_instance(json.dumps(doc))

    @pytest.mark.parametrize("section,key,what", [
        (None, "b", "b"), ("Q", "0,1", "Q block 0,1"),
        ("lincon", "A", "lincon.A"), ("qsdp", "B", "qsdp.B")])
    @pytest.mark.parametrize("fault", ["ragged", "text", "huge"])
    def test_bad_array_named(self, section, key, what, fault):
        if section in ("lincon", "qsdp"):
            inst = (gen_lincon((2, 2), m=2, seed=0) if section == "lincon"
                    else gen_qsdp(3, 2, seed=0))
        else:
            inst = gen((2, 2), seed=0, coupling=1.0)
        doc = json.loads(dumps_instance(inst))
        holder = doc if section is None else doc[section]
        arr = holder[key]
        if fault == "ragged" and isinstance(arr[0], list):
            arr[-1] = arr[-1][:-1]
        elif fault == "ragged":
            arr[-1] = [arr[-1]]
        else:
            bad = "1.0x" if fault == "text" else 10 ** 400
            (arr[0] if isinstance(arr[0], list) else arr)[0] = bad
        with pytest.raises(InvalidParams, match=what):
            loads_instance(json.dumps(doc))


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_POOL_TEXTS = """
import hashlib, json
from sgsqp.instances import dumps_instance, gen, gen_qsdp
insts = {("qsdp20_palm", "0"): gen_qsdp(20, 10, seed=0),
         ("qsdp20_palm", "1"): gen_qsdp(20, 10, seed=1),
         ("dense60x5", "0"): gen((5,) * 60, prox_kind="zero", seed=0),
         ("wide5x200_l1", "0"): gen((200,) * 5, prox_kind="l1", coupling=1.0,
                                    seed=0)}
print(json.dumps([[name, slot, hashlib.sha256(
    dumps_instance(inst).encode()).hexdigest()] for (name, slot), inst in insts.items()]))
"""


def test_benchmark_pool_texts_match_recorded_digests():
    """Four of the benchmark's pool texts hash to what
    ``perfbench/digests.json`` records, so a generator or serializer drift
    fails here instead of as a refused benchmark run.  The ``wide5x200_l1``
    slot covers an l1 head and 200-wide blocks.  The texts are made
    in a child process with BLAS at one thread, as the benchmark makes
    them: the generators' eigendecompositions round differently with
    more threads."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", _POOL_TEXTS], env=env,
                          capture_output=True, text=True, check=True)
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as fh:
        recorded = json.load(fh)
    for name, slot, digest in json.loads(proc.stdout):
        assert digest == recorded[name][slot], (name, slot)
