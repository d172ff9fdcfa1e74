"""Tuning the over-relaxation weight.

The relaxed sweep at weight 1 is the plain symmetric sweep.  When the
generalized spectral bounds allow it (their product must stay below 1),
a weight above 1 comes with a certified per-sweep rate.  On this
operator family the tuned weight stays close to 1 and the gain is small;
the point of the exercise is the certificate — the observed worst-case
step rate must sit below the guaranteed one, and does.
"""

import numpy as np

from sgsqp import StepSchedule, StopRule, solve, ssor_tuning
from sgsqp.instances import gen
from sgsqp.oracle import dense_optimum


def observed_rate(prob, x_star, omega):
    tr = solve(prob, steps=StepSchedule.constant(), omega=omega,
               stop=StopRule(kkt_tol=1e-10, max_iter=4000),
               x_star=x_star)
    dists = [tr.dist0_qhat] + [r.dist_qhat for r in tr.rows]
    floor = 1e-5 * max(1.0, tr.dist0_qhat)
    ratios = [b / a for a, b in zip(dists, dists[1:]) if a > floor]
    return max(ratios), len(tr.rows)


# scan a batch of instances and keep the one with the largest usable
# tuned weight (the tuning formula applies only while gamma*Gamma <= 1)
best = None
for seed in range(60):
    inst = gen(dims=(2, 3, 2, 3), kappa=8.0, coupling=0.5,
               prox_kind="zero", seed=seed)
    prob = inst.composite()
    tune = ssor_tuning(prob.Q)
    if tune.gamma * tune.Gamma <= 1.0:
        if best is None or tune.omega_star > best[1].omega_star:
            best = (seed, tune, prob)
seed, tune, prob = best

x_star, _ = dense_optimum(prob)
print(f"instance seed {seed}: spectral bounds gamma={tune.gamma:.4f} "
      f"Gamma={tune.Gamma:.4f} (product {tune.gamma * tune.Gamma:.4f})")
print(f"tuned weight {tune.omega_star:.4f}, guaranteed step rate "
      f"{tune.rate_bound:.4f}\n")

print(f"{'weight':>8s} {'worst step rate':>16s} {'sweeps to 1e-10':>16s}")
for omega in (1.0, tune.omega_star):
    rate, iters = observed_rate(prob, x_star, omega)
    print(f"{omega:8.4f} {rate:16.4f} {iters:16d}")

rate, _ = observed_rate(prob, x_star, tune.omega_star)
print(f"\nobserved {rate:.4f} <= guaranteed {tune.rate_bound:.4f}: "
      f"{rate <= tune.rate_bound}")
