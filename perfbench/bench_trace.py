"""Outside-in layer tracing: spans around calls into the sgsqp modules.

The tracer replaces public functions and methods, looked up by the name
their callers use, with wrappers that record a span (name, start, end,
parent, tag) and restores the originals afterwards.  Nothing inside the
package changes.  ``apg.solve`` reaches the cycle only through a private
name, so the cycle itself is timed by direct ``sgs_cycle`` calls in the
benchmark; attempted cycles are counted at ``CompositeQP.effective_b``,
which every cycle calls once.

Accessors (``block``, ``has_block``, ``stored_items``, ``dense``) are not
wrapped: they are dictionary lookups, thousands per cycle, and a wrapper
would cost more than the lookup it times.
"""

import functools
import os
import time

from sgsqp import blockla, instances, palm, proxmap, sgs

_OPERATOR = ("matvec", "apply", "diag_solve", "upper_matvec_blocks",
             "upper_t_matvec_blocks", "diag_matvec_blocks", "with_added_diag")
_MAJORIZER = ("apply_T", "apply_Qhat", "solve_Qhat", "dinv_norm",
              "perturbation", "quad_norm")

TARGETS = (
    [(instances, "loads_instance", "instances.loads_instance"),
     (instances.Instance, "composite", "instances.Instance.composite"),
     (instances.Instance, "lincon_problem", "instances.Instance.lincon_problem")]
    + [(blockla.BlockSymOperator, m, f"blockla.BlockSymOperator.{m}")
       for m in _OPERATOR]
    + [(blockla.Majorizer, m, f"blockla.Majorizer.{m}") for m in _MAJORIZER]
    + [(sgs, "sgs_operator", "blockla.sgs_operator"),
       (sgs, "solve_block1", "proxmap.solve_block1"),
       (sgs, "cg", "sgs.cg"),
       (sgs.CompositeQP, "effective_b", "sgs.CompositeQP.effective_b"),
       (sgs.CompositeQP, "objective", "sgs.CompositeQP.objective"),
       (sgs.CompositeQP, "kkt_residual", "sgs.CompositeQP.kkt_residual"),
       (proxmap, "eigh", "proxmap.eigh"),
       (proxmap, "eigvalsh", "proxmap.eigvalsh"),
       (proxmap, "cho_factor", "proxmap.cho_factor"),
       (palm, "sgs_cycle", "palm.sgs_cycle"),
       (palm, "assemble_penalized", "palm.assemble_penalized"),
       (palm.LinConQP, "kkt", "palm.LinConQP.kkt"),
       (palm.LinConQP, "objective", "palm.LinConQP.objective"),
       (palm.LinConQP, "constraint_residual",
        "palm.LinConQP.constraint_residual")]
)


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent, tag]`` lists; ``parent``
    is the index of the enclosing span or -1.  ``tag`` is whatever the
    benchmark set before the call (an instance/phase label).  ``hooks``
    maps a span name to a callable that sees the call's arguments first.
    ``counts`` accumulates per-tag CG iterations seen through the CG
    callback.
    """

    def __init__(self):
        self.spans = []
        self.tag = None
        self.hooks = {}
        self.counts = {}
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, time.perf_counter(), None, stack[-1] if stack else -1,
               self.tag]
        spans.append(rec)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(*args, **kwargs)
            if name == "sgs.cg":
                kwargs["callback"] = tracer._counting(kwargs.get("callback"))
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    def _counting(self, inner):
        tag = self.tag

        def callback(xk):
            self.counts[tag] = self.counts.get(tag, 0) + 1
            if inner is not None:
                inner(xk)

        return callback

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write every span as one CSV row."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,tag\n")
            for name, t0, t1, parent, tag in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{tag}\n")


def summarize(spans):
    """Per tag: inclusive seconds, self seconds and call count per name."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _tag in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for idx, (name, t0, t1, _parent, tag) in enumerate(spans):
        per = out.setdefault(tag, {})
        inc, own, n = per.get(name, (0.0, 0.0, 0))
        per[name] = (inc + (t1 - t0), own + (t1 - t0 - child[idx]), n + 1)
    return out
