"""Reference implementations that the tests compare the package against."""

import math

import numpy as np

from bryantflux.killing import potential_samples, vector_samples


def per_field_flux(samples, k):
    """Trapezoid quadrature of -rho<d_rho X, Y> + 2<d_tau X, Z> over the
    circle, with the field Y and its potential Z sampled at every node."""
    zeta, w = samples.zeta, samples.w
    ya, yb = vector_samples(k, zeta, w)
    za, zb = potential_samples(k, zeta, w)
    inner_rho = (np.real(np.conj(samples.dzeta_drho) * ya)
                 + samples.dw_drho * yb) / w ** 2
    inner_tau = (np.real(np.conj(samples.dzeta_dtau) * za)
                 + samples.dw_dtau * zb) / w ** 2
    integrand = -samples.rho * inner_rho + 2.0 * inner_tau
    return float(np.sum(integrand) * (2.0 * math.pi / len(integrand)))
