import numpy as np
import pytest

from bryantflux import (GeneralizedSeries, Geodesic, INF, IsometrySL2,
                        canonical_catenoidal_frame, catenoid_cousin_frame,
                        transform_frame)
from bryantflux.bryant import _defects, _identity_terms


def make_h(mu, extra=(), order=32):
    """h(z) = h(0)(1 + sum p_k z^k) with h(0) forced by mu (catenoidal)."""
    h0 = (1.0 - mu * mu) / (4.0 * mu)
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = 1.0
    for k, p in enumerate(extra, start=1):
        coeffs[k] = p
    return GeneralizedSeries(0.0, h0 * coeffs)


def frame_defects(frame, omega=None):
    """(det, null, omega) defects of a frame by the package's identity
    pass on its columns; ``omega`` is a GeneralizedSeries or None."""
    return _defects(*_identity_terms(frame.columns, omega))


def pass_windows(columns, omega=None, scale=False):
    """The residual (or, with ``scale``, scale) windows of the package's
    identity pass on ``columns``, each a view of the one array they are
    laid out in."""
    residual, starts = _identity_terms(columns, omega, scale)
    return np.split(residual, starts[1:])


def translated_catenoidal_frame(mu, h, a):
    """The catenoidal frame with axis (a, infinity): the standard frame,
    axis (0, infinity), moved by the translation zeta -> zeta + a."""
    return transform_frame(IsometrySL2(1.0, 0.0, a, 1.0),
                           canonical_catenoidal_frame(mu, h))


def random_geodesic(rng, p_inf=0.2):
    pts = []
    for _ in range(2):
        if rng.random() < p_inf:
            pts.append(INF)
        else:
            pts.append(complex(rng.normal(), rng.normal()))
    if pts[0] == pts[1]:
        pts[1] = complex(rng.normal() + 3.0, rng.normal())
    return Geodesic(pts[0], pts[1])


@pytest.fixture
def cousin_half():
    return catenoid_cousin_frame(0.5)


@pytest.fixture
def perturbed_frame():
    """ODE-built catenoidal frame, mu = 1/2, h = h(0)(1 + 0.05 z^2)."""
    mu = 0.5
    h = make_h(mu, extra=(0.0, 0.05))
    return canonical_catenoidal_frame(mu, h)
