"""Command line front end: instance generation, solving, identity
verification, and benchmarking.

Exit codes: 0 solved to tolerance (or command succeeded), 1 file/parse/
usage errors, 2 iteration budget exhausted, 3 inner-solver stall, 4
identity violation, 5 iterate went non-finite.  Set ``SGSQP_LOG``
(DEBUG/INFO/WARNING) for logging.
"""

import argparse
import contextlib
import csv
import logging
import os
import sys

import numpy as np

from . import instances, oracle
from .apg import StepSchedule, StopRule, ToleranceSchedule, contraction_factor, solve
from .errors import IdentityViolation, SgsQpError
from .palm import PalmStop, assemble_penalized, palm_solve
from .scb import verify_identities
from .sgs import sgs_cycle, ssor_tuning

EXIT_OK = 0
EXIT_FILE = 1
EXIT_MAXITER = 2
EXIT_STALL = 3
EXIT_IDENTITY = 4
EXIT_NONFINITE = 5

log = logging.getLogger("sgsqp")


def _setup_logging():
    name = os.environ.get("SGSQP_LOG", "WARNING").upper()
    level = getattr(logging, name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_list(text, conv=int):
    return [conv(t) for t in text.split(",") if t.strip() != ""]


def _parse_flag(flag, forms, text, fixed, tag, conv):
    """``fixed[text]``, or ``conv`` of what follows ``tag:`` in ``text``; a
    ValueError naming ``flag`` and its accepted ``forms`` otherwise."""
    if text in fixed:
        return fixed[text]
    if text.startswith(tag + ":"):
        with contextlib.suppress(ValueError):
            return conv(text[len(tag) + 1:])
    raise ValueError(f"bad {flag} {text!r} ({forms})")


def _parse_schedule(text):
    return _parse_flag("--schedule", "constant, nesterov, restart:P", text,
                       {"constant": StepSchedule.constant(),
                        "nesterov": StepSchedule.nesterov()},
                       "restart", lambda p: StepSchedule.restart(int(p)))


def _parse_mode(text):
    return _parse_flag("--mode", "exact, inexact, inexact:RTOL", text,
                       {"exact": ("exact", 1e-2), "inexact": ("inexact", 1e-2)},
                       "inexact", lambda r: ("inexact", float(r)))


def _parse_omega(text):
    return _parse_flag("--variant", "sgs, ssor:OMEGA", text, {"sgs": None},
                       "ssor", float)


def _read(path):
    try:
        return instances.read_instance(path)
    except OSError as exc:
        raise FileNotFoundError(f"cannot read instance {path!r}: {exc}") from exc


def cmd_gen(args):
    dims = _parse_list(args.dims)
    if args.qsdp:
        try:
            n, p = _parse_list(args.qsdp)
        except ValueError:
            raise ValueError(f"bad --qsdp {args.qsdp!r} (N,P)") from None
        inst = instances.gen_qsdp(n, p, seed=args.seed, rank_H=args.rank_h)
    elif args.lincon is not None:
        inst = instances.gen_lincon(dims, args.lincon, prox_kind=args.prox,
                                    kappa=args.kappa, coupling=args.coupling,
                                    seed=args.seed)
    else:
        inst = instances.gen(dims, kappa=args.kappa, coupling=args.coupling,
                             prox_kind=args.prox, seed=args.seed,
                             singular=args.singular)
    if args.out:
        instances.write_instance(inst, args.out)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(instances.dumps_instance(inst))
    return EXIT_OK


def _finish(trace):
    """Print the run summary, with ``F``, ``kkt`` and ``primal_inf`` of the
    final row when there is one, and map the termination to an exit code."""
    line = f"termination={trace.termination} iterations={trace.iterations}"
    if trace.rows:
        r = trace.rows[-1]
        line += f" F={r.F:.12g} kkt={r.kkt:.3e} primal_inf={r.primal_inf:.3e}"
    print(line)
    return {"tol": EXIT_OK, "stall": EXIT_STALL,
            "nonfinite": EXIT_NONFINITE}.get(trace.termination, EXIT_MAXITER)


# Each loop's own flags and their defaults; not given, a flag parses to None.
_LOOP_FLAGS = {"schedule": ("composite", "nesterov"), "mode": ("composite", "exact"),
               "variant": ("composite", "sgs"), "eps0": ("composite", 1e-2),
               "eps_power": ("composite", 1.5), "sigma": ("multiplier", 1.0),
               "tau": ("multiplier", 1.6)}


def cmd_solve(args):
    given = [dest for dest in _LOOP_FLAGS if getattr(args, dest) is not None]
    for dest in set(_LOOP_FLAGS) - set(given):
        setattr(args, dest, _LOOP_FLAGS[dest][1])
    # parsed before the instance is read, so a bad flag fails on every instance
    steps = _parse_schedule(args.schedule)
    mode, rtol_cap = _parse_mode(args.mode)
    omega = _parse_omega(args.variant)
    inst = _read(args.instance)
    loop = "multiplier" if inst.has_constraints() else "composite"
    for dest in given:
        if _LOOP_FLAGS[dest][0] != loop:
            raise ValueError(f"--{dest.replace('_', '-')} does not apply to "
                             f"the {loop} loop")
    if loop == "multiplier":
        _, _, trace = palm_solve(
            inst.lincon_problem(), args.sigma, args.tau,
            stop=PalmStop(kkt_tol=args.kkt_tol, max_iter=args.max_iter))
    else:
        if mode == "exact":
            tols = ToleranceSchedule.exact()
        else:
            tols = ToleranceSchedule.power(args.eps0, args.eps_power)
        trace = solve(inst.composite(), steps=steps, tols=tols,
                      stop=StopRule(kkt_tol=args.kkt_tol,
                                    max_iter=args.max_iter),
                      omega=omega, mode=mode, inner_cap=rtol_cap)
    if args.trace:
        trace.to_csv(args.trace)
    return _finish(trace)


def cmd_verify(args):
    inst = _read(args.instance)
    if inst.has_constraints():
        lp = inst.lincon_problem()
        prob = assemble_penalized(lp, 1.0)
        prob.b.data[:] = lp.g + lp.A.T @ lp.d
    else:
        prob = inst.composite()
    Q = prob.shifted_Q
    lines = []

    try:
        rep = verify_identities(Q, corruption=args.corrupt)
    except IdentityViolation as exc:
        lines.append(("elimination identity family", float(exc.magnitude), 1e-11))
    else:
        lines += [("elimination stage-product identity", rep.lemma_rel, 1e-11),
                  ("elimination factorization identity", rep.factor_rel, 1e-11),
                  ("completion equals sweep weight", rep.weight_rel, 1e-11)]
        for j, r in enumerate(rep.schur_rels, start=1):
            lines.append((f"stage {j} Schur reconstruction", r, 1e-12))

    Qd = Q.dense()
    for name, omega, ref in (
            ("majorizer", None, oracle.dense_sgs_weight(prob.partition, Qd)),
            ("over-relaxed", 1.5,
             oracle.dense_ssor_weight(prob.partition, Qd, 1.5))):
        Qhat = prob.majorizer(omega).densify("Qhat")
        err = np.linalg.norm(Qhat - (Qd + ref), "fro") / max(
            np.linalg.norm(Qhat, "fro"), np.finfo(float).tiny)
        lines.append((f"{name} splitting identity", err, 1e-12))

    rng = np.random.default_rng(0)
    xbar = prob.b.copy()
    xbar.data[:] = rng.standard_normal(prob.partition.total)
    res = sgs_cycle(prob, xbar, mode="exact")
    ref_x = oracle.dense_subproblem_solve(prob, xbar, res.Delta)
    cyc_err = np.linalg.norm(res.x_plus.data - ref_x.data) / (
        1.0 + np.linalg.norm(ref_x.data))
    lines.append(("one-cycle exactness spot check", cyc_err,
                  1e-9 * (1.0 + prob.b.norm())))

    bad = 0
    for name, value, tol in lines:
        ok = value <= tol
        bad += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: error {value:.3e} "
              f"(tolerance {tol:.1e})")
    if bad:
        raise IdentityViolation(f"{bad} identity check(s) failed")
    return EXIT_OK


def cmd_bench(args):
    seeds = _parse_list(args.seeds)
    dims = _parse_list(args.dims)
    omegas = _parse_list(args.omegas, float)
    rows = []
    for seed in seeds:
        inst = instances.gen(dims, kappa=args.kappa, coupling=args.coupling,
                             prox_kind="zero", seed=seed)
        prob = inst.composite()
        xs, _ = oracle.dense_optimum(prob)
        runs = [("classical", StepSchedule.constant(), None),
                ("accelerated", StepSchedule.nesterov(), None)]
        tune = ssor_tuning(prob.Q)
        for om in list(omegas) + [tune.omega_star]:
            runs.append(("ssor", StepSchedule.constant(), float(om)))
        for name, steps, om in runs:
            trace = solve(prob, steps=steps, tols=ToleranceSchedule.exact(),
                          stop=StopRule(kkt_tol=args.kkt_tol,
                                        max_iter=args.max_iter),
                          omega=om, x_star=xs)
            predicted = (contraction_factor(prob.majorizer(om))
                         if steps.kind == "constant" else float("nan"))
            dists = [r.dist_qhat for r in trace.rows]
            floor = 1e-13 * max(trace.dist0_qhat, 1.0)
            usable = [d for d in dists if d > floor]
            observed = ((usable[-1] / usable[0]) ** (1.0 / (len(usable) - 1))
                        if len(usable) >= 2 else float("nan"))
            rows.append({
                "seed": seed, "method": name,
                "omega": "" if om is None else repr(float(om)),
                "iterations": trace.iterations,
                "termination": trace.termination,
                "predicted_rate": repr(predicted),
                "observed_rate": repr(observed),
                "rate_gap": repr(observed - predicted),
            })

    fields = ["seed", "method", "omega", "iterations", "termination",
              "predicted_rate", "observed_rate", "rate_gap"]
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        w = csv.DictWriter(out, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
    return EXIT_OK


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="sgsqp",
        description="Block symmetric Gauss-Seidel composite QP toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance file")
    g.add_argument("--dims", default="2,2", help="comma-separated block sizes")
    g.add_argument("--kappa", type=float, default=10.0)
    g.add_argument("--coupling", type=float, default=0.5)
    g.add_argument("--prox", default="zero",
                   choices=["zero", "l1", "nonneg", "box"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--singular", action="store_true")
    g.add_argument("--lincon", type=int, default=None, metavar="M",
                   help="add an equality-constraint section with M rows")
    g.add_argument("--qsdp", default=None, metavar="N,P",
                   help="generate a QSDP instance instead (matrix order N, P rows)")
    g.add_argument("--rank-h", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("instance")
    s.add_argument("--kkt-tol", type=float, default=1e-8)
    s.add_argument("--max-iter", type=int, default=1000)
    s.add_argument("--trace", default=None, metavar="PATH")
    c = s.add_argument_group("composite loop; refused on a constrained instance")
    c.add_argument("--schedule", help="nesterov (default) | constant | restart:P")
    c.add_argument("--mode", help="exact (default) | inexact | inexact:RTOL")
    c.add_argument("--variant", help="sgs (default) | ssor:OMEGA")
    c.add_argument("--eps0", type=float, help="inexact budget scale (default 1e-2)")
    c.add_argument("--eps-power", type=float, help="its decay power (default 1.5)")
    m = s.add_argument_group("multiplier loop; refused on a composite instance")
    m.add_argument("--sigma", type=float, help="penalty parameter (default 1)")
    m.add_argument("--tau", type=float, help="multiplier step length (default 1.6)")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="run the identity checks on an instance")
    v.add_argument("instance")
    v.add_argument("--corrupt", type=float, default=0.0, metavar="EPS",
                   help="inject a relative defect to exercise failure paths")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="compare solver configurations")
    b.add_argument("--seeds", default="0,1,2")
    b.add_argument("--dims", default="2,3,2")
    b.add_argument("--omegas", default="1,1.25,1.5")
    b.add_argument("--kappa", type=float, default=10.0)
    b.add_argument("--coupling", type=float, default=0.7)
    b.add_argument("--kkt-tol", type=float, default=1e-9)
    b.add_argument("--max-iter", type=int, default=3000)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    _setup_logging()
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FILE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except IdentityViolation as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except (FileNotFoundError, ValueError, SgsQpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())
