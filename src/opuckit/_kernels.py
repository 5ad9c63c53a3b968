"""The transfer-recursion kernel, in numpy.

Runs the Szego recursion phi' = z*phi - conj(a)*phi*, phi*' = phi* - a*z*phi
across the whole prefix simultaneously for every grid node, renormalizing
every RENORM_STRIDE steps so that log |phi*_N| stays representable even when
|phi*| itself would overflow float64 (non square-summable prefixes).
"""

from __future__ import annotations

import numpy as np

RENORM_STRIDE = 32


def log_phistar_abs(alphas: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log |phi*_N(z_g)| for every node z_g after consuming all of alphas."""
    alphas = np.asarray(alphas, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    phi = np.ones_like(z)
    phistar = np.ones_like(z)
    logscale = np.zeros(z.shape[0], dtype=np.float64)
    for n, a in enumerate(alphas):
        phi, phistar = z * phi - np.conjugate(a) * phistar, phistar - a * z * phi
        if (n % RENORM_STRIDE) == RENORM_STRIDE - 1:
            mag = np.abs(phistar)
            mag[mag == 0.0] = 1.0
            phi /= mag
            phistar /= mag
            logscale += np.log(mag)
    return logscale + np.log(np.abs(phistar))
