"""bootchain: iterated-bootstrap bias reduction for smooth functionals of
high-dimensional models, with Gaussian-surrogate chains and empirical
normal-approximation diagnostics."""

# cli is imported on demand (`from bootchain import cli`), not here, so that
# `python -m bootchain.cli` does not find it already imported.
from . import bootstrap, config, core, distances, experiments, functionals, models

__version__ = "0.1.0"

__all__ = [
    "bootstrap",
    "cli",
    "config",
    "core",
    "distances",
    "experiments",
    "functionals",
    "models",
    "__version__",
]
