"""Numerical spectral distributions and atoms of free sums and polynomials.

The library computes matrix-valued Cauchy transforms and subordination
functions for sums a1 (x) X1 + a2 (x) X2 of freely independent
selfadjoint variables, extracts atoms (point masses) with their full
decomposition data via nontangential boundary limits, reduces
selfadjoint polynomial kernel questions to pencil form through exact
linearization certificates, and cross-checks everything against an
independent Haar-unitary random matrix oracle.
"""

from .errors import (
    ConvergenceError,
    FreeAtomsError,
    HalfPlaneError,
    MeasureError,
    PreconditionError,
    SchemaError,
)
from .measure import (
    SpectralMeasure,
    arcsine_measure,
    atomic_measure,
    bernoulli_symmetric,
    cauchy_scalar,
    f_scalar,
    point_mass,
    quantiles,
    semicircle_measure,
    uniform_measure,
)
from .ncpoly import NCPoly, adjoint, eval_matrices, format_poly, is_selfadjoint, parse_poly, star_square
from .linearize import (
    LinearPencil,
    LinearizationCertificate,
    corner_shift,
    invertibility_equivalence_check,
    linearize,
    verify_certificate,
)
from .opval import (
    Coefficient,
    PencilKernelProfile,
    kernel_profile,
    matrix_cauchy,
    matrix_f,
    pencil_kernel_trace,
)
from .subord import FreeSumModel, SubordinationResult, scalar_model, solve_subordination, sum_density
from .atoms import (
    AtomReport,
    LadderScan,
    boundary_emass,
    candidate_locations,
    decompose_atom,
    eigenvalue_test,
    integer_test,
    ladder_scan,
    sum_atom_candidates,
    support_regularize,
)
from .rmt import EnsembleSpec, empirical_kernel_mass, haar_unitary, oracle_report, realize_pair

__version__ = "0.1.0"
