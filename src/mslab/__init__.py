"""Discrete variational field theory on triangulated space-time meshes.

The package implements a one-triangle-per-cell discretisation of first-order
field Lagrangians on a rectangular space-time grid, together with the
structures that make it variational rather than merely consistent: discrete
Euler–Lagrange solvers, boundary one-forms and the two-form whose patchwise
cancellation is the discrete counterpart of multisymplecticity, extremal
boundary functionals of both Dirichlet and mixed type, a one-degree-of-freedom
mechanics lane with exact generating functions, and continuum oracle routes
used to cross-check every discrete quantity.
"""

from .delsolve import (
    BvpSolveReport,
    FixedClosure,
    PeriodicClosure,
    SingularSystem,
    SolverError,
    del_residual,
    parse_closure,
    propagate,
    solve_bvp,
    step_row,
    tangent_solve,
)
from .genfunc import (
    BoundaryHamiltonianResult,
    BoundaryLagrangianResult,
    DdwResidualReport,
    LegendreData,
    MixedBoundaryData,
    NormalMomentumField,
    boundary_hamiltonian,
    boundary_lagrangian,
    canonical_type2_split,
    ddw_residual,
    legendre,
    normal_momenta,
    region_action,
    type2_data_from_field,
)
from .jetmesh import (
    BoundaryData,
    DiscreteField,
    JetTriple,
    Patch3Region,
    QuadMesh,
    RectRegion,
    TriangleIndex,
    boundary_nodes,
    build_mesh,
    field_from_csv,
    field_to_csv,
    interior_index,
    interior_nodes,
    jet_extension,
    node_index,
    parse_region,
    region_index,
    region_nodes,
    region_to_json,
    region_triangles,
    triangle_index,
)
from .lagrangian import (
    HarmonicDirichlet,
    LagrangianDensity,
    LinearWave,
    QuadraticDensity,
    TriangleTerms,
    UserDensity,
    density_from_json,
    eval_Ld,
    grad_Ld,
    hess_Ld,
    omega_k,
    quartic_test_density,
    theta_k,
    triangle_kernel,
)
from .mechanics import (
    FreeParticle,
    HarmonicOscillator,
    MechLagrangian,
    OrderReport,
    PhasePoint,
    endpoint_momenta,
    exact_discrete_hamiltonian,
    exact_discrete_lagrangian,
    free_particle_hamiltonian,
    harmonic_hamiltonian,
    lobatto,
    midpoint_rule,
    rectangle_rule,
    symplecticity_check,
    type1_map,
    variational_order_check,
)
from .msforms import (
    FormResidualReport,
    SymmetryReport,
    bridges_residual,
    bridges_residuals,
    continuous_msff_residual,
    hessian_symmetry,
    linearized_del_residual,
    msff_residual_patch,
    msff_residual_region,
    symplectic_flux,
)
from .oracles import (
    DalembertSolution,
    EdgeTrace,
    FourierBoundaryData,
    HarmonicDiscResult,
    SquareBoundaryData,
    WaveSolution,
    WaveSquareReport,
    compatibility_residual,
    dalembert_solve,
    disc_boundary_lagrangian_quadrature,
    dtn_pairing,
    fourier_inner,
    harmonic_extension_disc,
    wave_exact_solutions,
    wave_square_boundary_lagrangian,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
