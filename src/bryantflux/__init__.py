"""Flux of Killing fields through ends of Bryant (CMC-1) surfaces in
hyperbolic 3-space: frame construction from holomorphic data, residue
and closed-form flux laws, quadrature verification, and balancing."""

from .errors import (ConsistencyError, DomainError, LogTermRequiredError,
                     UnbalanceableError)
from .geometry import (INF, ExtendedComplex, Geodesic, IsometrySL2,
                       boundary_eq, cross_ratio, is_inf, mobius_boundary,
                       standardizing_isometry)
from .series import (DEFAULT_ORDER, GeneralizedSeries, QuadratureGrid,
                     differentiate, eval_branch)
from .killing import KillingField, ROTATION, TRANSLATION
from .bryant import (BryantFrame, frame_from_json, frame_to_json,
                     transform_frame)
from .ends import (Catenoidal, EndDescriptor, FrobeniusProblem, Horosphere,
                   Horospherical, build_end, canonical_catenoidal_frame,
                   canonical_horospherical_frame, catenoid_cousin_frame,
                   extract_axis, frobenius_solve, horosphere_frame)
from .flux import (FluxMatrix, FluxPolynomial, FluxTriple,
                   catenoidal_closed_form, catenoidal_polynomial,
                   circle_samples, flux_for_geodesic, flux_triple,
                   horospherical_closed_form, horospherical_polynomial)
from .balance import (BalanceProblem, ConcurrencyResult, EuclideanEndData,
                      concurrency_check, euclidean_three_end_check,
                      polynomial_sum, three_end_axes, two_end_solve)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
