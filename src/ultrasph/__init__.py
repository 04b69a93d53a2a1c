"""Hyperspherical harmonics and Laplace boundary-value solving in d >= 3.

The package provides ultraspherical coordinates (:mod:`ultrasph.geometry`),
ultraspherical polynomials and associated functions
(:mod:`ultrasph.gegenbauer`), orthonormal harmonics and addition theorems
(:mod:`ultrasph.harmonics`), exact product quadrature on the sphere
(:mod:`ultrasph.quadrature`), boundary-value fitting and the separable
kernel expansion (:mod:`ultrasph.solver`), and a verification suite with a
command-line front end (:mod:`ultrasph.verify`, :mod:`ultrasph.cli`).
"""

from .geometry import (
    CartesianPoint,
    UltrasphericalPoint,
    cos_gamma,
    solid_angle,
    to_cartesian,
    to_ultraspherical,
)
from .gegenbauer import (
    alpha_factor,
    assoc,
    deriv_at_one,
    norm_factor,
    ode_residual,
    poly,
    poly_deriv,
    poly_reference,
)
from .harmonics import (
    MultiIndex,
    addition_reduced,
    addition_sum,
    axis_factors,
    count,
    enumerate_indices,
    eval_harmonic,
    eval_psi,
    harmonic_values,
    harmonicity_residual,
    norm_coeff,
)
from .quadrature import (
    SphereGrid,
    ThetaRule,
    grid_shape,
    sphere_grid,
    theta_rule,
)
from .solver import (
    BoundaryProblem,
    HarmonicExpansion,
    eval_expansion,
    fit_annulus,
    fit_exterior,
    fit_interior,
    green_expansion,
    project_boundary,
    radial_eval,
)
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "BoundaryProblem",
    "CartesianPoint",
    "HarmonicExpansion",
    "MultiIndex",
    "SphereGrid",
    "ThetaRule",
    "UltrasphericalPoint",
    "VerifyReport",
    "addition_reduced",
    "addition_sum",
    "alpha_factor",
    "assoc",
    "axis_factors",
    "cos_gamma",
    "count",
    "deriv_at_one",
    "enumerate_indices",
    "eval_expansion",
    "eval_harmonic",
    "eval_psi",
    "fit_annulus",
    "fit_exterior",
    "fit_interior",
    "green_expansion",
    "grid_shape",
    "harmonic_values",
    "harmonicity_residual",
    "norm_coeff",
    "norm_factor",
    "ode_residual",
    "poly",
    "poly_deriv",
    "poly_reference",
    "project_boundary",
    "radial_eval",
    "run_verification",
    "solid_angle",
    "sphere_grid",
    "theta_rule",
    "to_cartesian",
    "to_ultraspherical",
]
