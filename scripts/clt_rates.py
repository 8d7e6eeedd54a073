#!/usr/bin/env python3
"""Normal-approximation decay across sample sizes for the mean-type models.

Prints W1/W2 between the u-projection of sqrt(n)(theta_hat - theta) and of
the Gaussian surrogate xi(theta), per model and n. Distances should decay
roughly like n^(-1/2) down to the Monte Carlo floor."""

import argparse

import numpy as np

from bootchain import functionals, models
from bootchain import experiments as exp


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--n-grid", type=int, nargs="+", default=[100, 400, 1600])
    ap.add_argument("--replicates", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1009)
    args = ap.parse_args()

    d = args.dim
    u = np.zeros(d)
    u[0] = 1.0
    candidates = {
        "rademacher components": models.IndependentComponents(dim=d, noise_dist="rademacher"),
        "centered-exponential components": models.IndependentComponents(
            dim=d, noise_dist="centered_exponential"
        ),
        "uniform components": models.IndependentComponents(dim=d, noise_dist="uniform"),
        "laplace location": models.LogConcaveLocation(dim=d, noise_dist="laplace", scale=2**-0.5),
        "logistic location": models.LogConcaveLocation(
            dim=d, noise_dist="logistic", scale=(3.0 / np.pi**2) ** 0.5
        ),
    }
    for name, model in candidates.items():
        cfg = exp.ExperimentConfig(
            kind="clt",
            model=model,
            functional=functionals.linear(u),
            theta=np.zeros(d),
            k=0,
            grid=exp.GridSpec(n_values=tuple(args.n_grid), d_fixed=d),
            inner_chains=1,
            replicates=args.replicates,
            seed=args.seed,
        )
        rows = exp.run_experiment(cfg)
        txt = "  ".join(
            f"n={s.n}: W1={s.extra['w1']:.4f} W2={s.extra['w2']:.4f}" for s in rows
        )
        print(f"{name:32s} {txt}")


if __name__ == "__main__":
    main()
