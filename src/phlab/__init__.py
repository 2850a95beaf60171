"""Eigenvalue comparisons between clamped and free polyharmonic problems.

The package computes spectra of (-Lap)^m under the two classical boundary
condition families, exactly on intervals and by a conforming spectral method
on rectangles, and runs certified verification claims relating the two
spectra.  See the README for the command-line interface.
"""

import importlib.util
import os
import sys

# phlab's dense kernels are small: each eigensolve is one parity block of
# dimension about n^2/4 <= 625.  At these sizes a second OpenBLAS thread makes
# eigh slower, not faster, and idle OpenBLAS workers busy-wait between calls,
# taking the CPU from the main thread.  So phlab runs BLAS on one thread.  The
# setting must be made before numpy loads OpenBLAS, and a value the user set
# is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"


def _lazy_layer(name: str):
    """Put phlab.<name> in sys.modules now; its code runs on first attribute access.

    A command then runs only the layers it calls: `phlab oned` never runs the
    rectangle solver or the claims.  Layers import from each other with
    `from .layer import name`, which runs the named layer at once, so a layer
    that has run has all of its dependencies loaded too.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


model, linalg, oned, galerkin, trialspace, harness = map(
    _lazy_layer, ("model", "linalg", "oned", "galerkin", "trialspace", "harness"))
