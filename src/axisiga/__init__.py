"""Fourier-spectral x isogeometric discretization of Maxwell problems on
axisymmetric domains: compatible B-spline de Rham complexes on a NURBS
cross-section, per-Fourier-mode weighted Galerkin assembly, a Coulomb-gauged
magnetostatic saddle-point solver, and a cavity eigenmode solver with an
analytic pillbox reference."""

from .assembly import (
    MaterialConstants,
    MeshForms,
    ModeSystem,
    VACUUM,
    assemble_curlcurl,
    assemble_load,
    assemble_mass,
    build_mode_system,
    l2_rho_error,
)
from .bessel import (
    BesselRoot,
    PillboxSpec,
    bessel_j,
    bessel_j_prime,
    bessel_root,
    pillbox_frequency,
    pillbox_spectrum,
)
from .derham import (
    DeRhamComplex2D,
    ModeSpace,
    eta_forward,
    eta_inverse,
    exactness_report,
)
from .geometry import (
    NurbsGeometry,
    pillbox_section,
    pullback,
    push_forward,
    quarter_annulus,
    rectangle,
)
from .manufactured import ManufacturedSolution, validate_derivation
from .solve import (
    EigenResult,
    SaddleSolution,
    convergence_rate,
    solve_generalized_eig,
    solve_saddle_point,
)
from .splines import (
    KnotVector,
    NurbsBasis,
    SplineSpace1D,
    TensorSplineSpace,
    derivative_matrix,
    reduce_degree_regularity,
)
from .studies import StudyConfig, StudyReport, run_exactness_suite, run_pillbox_study, run_source_study

__version__ = "0.1.0"
