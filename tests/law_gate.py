"""One calibrated gate for law-equality checks on one-dimensional samples."""

import math

from bootchain import distances
from bootchain.experiments import derive_stream


def assert_same_law(a, ref, ref2, seed: int):
    """a is as close to ref as an independent sample ref2 of ref's law is.

    The W1 of two samples of one law has mean about 2.3 bootstrap se (the
    mean over the sd of the integrated |Brownian bridge|), so a bare
    W1 <= 4 se gate fails several per cent of samples of one law. The
    difference W1(a, ref) - W1(ref2, ref) has mean 0 and sd at most about
    sqrt(2) se; the gate is four of those.
    """
    w1 = distances.wasserstein1(a, ref)
    null = distances.wasserstein1(ref2, ref)
    se = distances.wasserstein1_bootstrap_se(a, ref, derive_stream(seed, 0, 2))
    assert w1 - null <= 4.0 * math.sqrt(2.0) * se, (
        f"W1 = {w1:.4g} vs same-law W1 = {null:.4g}, se = {se:.4g}"
    )
