#!/usr/bin/env python3
"""Gaussian-surrogate diagnostics: bootstrap chain vs surrogate chain,
truncated-chain containment, and the flag-superposition identity.

All three comparisons are same-law under the shift model, so each W1 should
sit inside the Monte Carlo fluctuation band 0.01 + 3 * bootstrap SE."""

import argparse
import math
from functools import partial

import numpy as np

from bootchain import bootstrap, distances, functionals, gaussian, models
from bootchain import experiments as exp


def band(a, b, seed):
    w1 = distances.wasserstein1(a, b)
    se = distances.wasserstein1_bootstrap_se(a, b, np.random.default_rng(seed), n_boot=80)
    return w1, 0.01 + 3.0 * se


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--draws", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1007)
    args = ap.parse_args()

    model = models.GaussianShift(dim=args.dim)
    theta = exp.unit_sin_theta(args.dim)
    f = functionals.quadratic_form()
    n, m = args.n, args.draws
    ok = True

    hat = bootstrap.simulate_chain_block(model, theta[None], 2, n, m, exp.derive_stream(args.seed, 0, 0))
    tilde = bootstrap.simulate_chain_block(
        model, theta[None], 2, n, m, exp.derive_stream(args.seed, 1, 0), models.surrogate_step
    )
    w1, limit = band(functionals.value(f, hat[2, 0]), functionals.value(f, tilde[2, 0]), 0)
    ok &= w1 <= limit
    print(f"hat^(2) vs tilde^(2):  W1={w1:.5f}  band={limit:.5f}  {'ok' if w1 <= limit else 'VIOLATION'}")

    delta = gaussian.default_delta(model, theta, n)
    states = bootstrap.simulate_chain_block(
        model, theta[None], 3, n, 10_000, exp.derive_stream(args.seed, 2, 0),
        partial(models.surrogate_step, delta=delta),
    )
    worst = max(
        float((np.linalg.norm(states[j, 0] - theta, axis=1) - j * delta).max()) for j in range(4)
    )
    ok &= worst <= 0.0
    print(f"containment (delta={delta:.3f}): max ||state_j - theta|| - j*delta = {worst:.3e}")

    for idx in range(8):
        bits = tuple((idx >> b) & 1 for b in range(3))
        l = sum(bits)
        # the superposition from its definition: step j adds t_j xi_j / sqrt(n)
        rng, sup = exp.derive_stream(args.seed, 10 + idx, 0), theta[None, None, :]
        for t in bits:
            sup = sup + t * models.sample_xi_block(model, sup, rng, m) / math.sqrt(n)
        ref = bootstrap.simulate_chain_block(
            model, theta[None], l, n, m, exp.derive_stream(args.seed, 20 + idx, 0),
            models.surrogate_step,
        )[l, 0]
        w1, limit = band(functionals.value(f, sup[0]), functionals.value(f, ref), idx)
        ok &= w1 <= limit
        print(f"flags {bits} vs tilde^({l}):  W1={w1:.5f}  band={limit:.5f}")

    if not ok:
        raise SystemExit(3)


if __name__ == "__main__":
    main()
