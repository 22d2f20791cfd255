"""Symbolic-numeric dynamics on SU(2)/SU(3) character varieties of the once-punctured torus.

Trace-coordinate actions of mapping classes, cat-map fixed-point families,
truncated jet charts at elliptic fixed points, Birkhoff normal-form
coefficients, and KAM twist / non-planarity diagnostics.
"""

from .birkhoff import (
    BirkhoffCoefficients,
    BrjunoResult,
    NormalFormInput,
    alpha2_closed_form,
    alpha_matrix,
    birkhoff_coefficients,
    brjuno_partial_sum,
    diagonalized_jets,
    nonplanarity_check,
    nonresonance_check,
    phi2_psi2,
    twist_determinant,
)
from .charts import (
    ChartJet,
    ChartSpec,
    Su2ChartJet,
    chart_linear_matrix,
    chart_map_jet,
    chart_spec,
    solve_t,
    solve_z_implicit,
    su2_chart_map_jet,
)
from .jets import (
    Jet,
    JetVector,
    jet_sqrt,
    jet_variables,
)
from .mcg import (
    FixedPointSample,
    Su2FixedPoint,
    cat_map_su2,
    cat_map_su3,
    fixed_family_su2,
    fixed_family_su3,
    level_of_s,
    realizable_interval_su3,
    sphere_action,
    su2_commutator_trace,
    su3_commutator_trace,
    symmetric_square,
)
from .pipelines import su2_brown_point, su3_main_point
from .poisson import bivector, bracket, leaf_symplectic_form
from .spectral import DiagonalizingBasis, SpectrumReport, build_C0, classify_spectrum, eigen_small
from .varieties import (
    LevelValue,
    Su2Point,
    Su3Point,
    boundary_map_su3,
    deltoid_member,
    kappa_su2,
    poly_H,
    poly_P,
    poly_Q,
    su2_member,
    su3_on_variety,
)

__version__ = "0.1.0"
