"""Eigenvalue comparisons between clamped and free polyharmonic problems.

The package computes spectra of (-Lap)^m under the two classical boundary
condition families, exactly on intervals and by a conforming spectral method
on rectangles, and runs certified verification claims relating the two
spectra.  See the README for the command-line interface.
"""

import os

# phlab's dense kernels are small: each eigensolve is one parity block of
# dimension about n^2/4 <= 625.  At these sizes a second OpenBLAS thread makes
# eigh slower, not faster, and idle OpenBLAS workers busy-wait between calls,
# taking the CPU from the main thread.  So phlab runs BLAS on one thread.  The
# setting must be made before numpy loads OpenBLAS, and a value the user set
# is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .galerkin import (assemble_pencil, convergence_study, solve_2d_eigensystem,
                       solve_2d_spectrum, trusted_capacity)
from .harness import (ALIASES, CLAIMS, run_claim, run_suite, square_laplacian_eigs,
                      suite_passed)
from .linalg import gauss_legendre, solve_gen_eig
from .model import (BC_DIRICHLET, BC_NEUMANN, CapabilityError, CheckRecord, Domain,
                    GramDegeneracyError, InvalidArgumentError, MethodInfo,
                    NumericalError, PhlabError, RunConfig, Spectrum,
                    ToleranceConfig, VerificationReport, merge_config, n_poly_dim,
                    validate_config)
from .oned import characteristic_roots, det_indicator, positive_roots, solve_1d_spectrum
from .trialspace import (TrialSpace, certified_chain_bound, roots_of_unity,
                         vandermonde_check, verify_mth_gradient_identity,
                         verify_pde_identity)

__version__ = "0.1.0"

__all__ = [
    "ALIASES", "BC_DIRICHLET", "BC_NEUMANN", "CLAIMS", "CapabilityError",
    "CheckRecord", "Domain", "GramDegeneracyError", "InvalidArgumentError",
    "MethodInfo", "NumericalError", "PhlabError", "RunConfig", "Spectrum",
    "ToleranceConfig", "TrialSpace", "VerificationReport",
    "assemble_pencil", "certified_chain_bound",
    "characteristic_roots",
    "convergence_study", "det_indicator", "gauss_legendre",
    "merge_config", "n_poly_dim", "positive_roots", "roots_of_unity",
    "run_claim", "run_suite", "solve_1d_spectrum",
    "solve_2d_eigensystem", "solve_2d_spectrum", "solve_gen_eig",
    "square_laplacian_eigs", "suite_passed", "trusted_capacity",
    "validate_config", "vandermonde_check", "verify_mth_gradient_identity",
    "verify_pde_identity", "__version__",
]
