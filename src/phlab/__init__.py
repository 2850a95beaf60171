"""Eigenvalue comparisons between clamped and free polyharmonic problems.

The package computes spectra of (-Lap)^m under the two classical boundary
condition families, exactly on intervals and by a conforming spectral method
on rectangles, and runs certified verification claims relating the two
spectra.  See the README for the command-line interface.
"""

import os

# OpenBLAS worker threads busy-wait for about 2^28 cycles when they start and
# after each threaded call.  A phlab command is short and mostly runs on one
# thread, so on a loaded machine that spin takes the CPU from the main thread
# and adds a varying 0.05-0.15 s to every process.  The shortest timeout (2^4
# cycles) lets the workers sleep at once; it must be set before numpy loads
# OpenBLAS, and a value the user set is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .galerkin import (assemble_pencil, convergence_study, solve_2d_eigensystem,
                       solve_2d_spectrum, trusted_capacity)
from .harness import (ALIASES, CLAIMS, run_claim, run_suite, square_laplacian_eigs,
                      suite_passed)
from .linalg import gauss_legendre, legendre_eval, solve_gen_eig
from .model import (BC_DIRICHLET, BC_NEUMANN, CapabilityError, CheckRecord, Domain,
                    GramDegeneracyError, InvalidArgumentError, MethodInfo,
                    NumericalError, PhlabError, RunConfig, Spectrum,
                    ToleranceConfig, VerificationReport, merge_config, n_poly_dim,
                    validate_config)
from .oned import (characteristic_roots, check_root_coincidence, det_indicator,
                   positive_roots, solve_1d_spectrum)
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
    "characteristic_roots", "check_root_coincidence",
    "convergence_study", "det_indicator", "gauss_legendre", "legendre_eval",
    "merge_config", "n_poly_dim", "positive_roots", "roots_of_unity",
    "run_claim", "run_suite", "solve_1d_spectrum",
    "solve_2d_eigensystem", "solve_2d_spectrum", "solve_gen_eig",
    "square_laplacian_eigs", "suite_passed", "trusted_capacity",
    "validate_config", "vandermonde_check", "verify_mth_gradient_identity",
    "verify_pde_identity", "__version__",
]
