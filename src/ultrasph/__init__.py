"""Hyperspherical harmonics and Laplace boundary-value solving in d >= 3.

The package provides ultraspherical coordinates (:mod:`ultrasph.geometry`),
ultraspherical polynomials and associated functions
(:mod:`ultrasph.gegenbauer`), orthonormal harmonics and addition theorems
(:mod:`ultrasph.harmonics`), exact product quadrature on the sphere
(:mod:`ultrasph.quadrature`), boundary-value fitting and the separable
kernel expansion (:mod:`ultrasph.solver`), and a verification suite with a
command-line front end (:mod:`ultrasph.verify`, :mod:`ultrasph.cli`).
"""

from . import gegenbauer, geometry, harmonics, quadrature, solver
from .geometry import *  # noqa: F403
from .gegenbauer import *  # noqa: F403
from .harmonics import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .solver import *  # noqa: F403
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

# each module's public names are written once, in its own __all__
__all__ = sorted([*geometry.__all__, *gegenbauer.__all__, *harmonics.__all__,
                  *quadrature.__all__, *solver.__all__, "VerifyReport", "run_verification"])
