"""Leray/compressible projections, Bony decomposition, transport commutator.

Zero-mode conventions.  The Leray projection passes the mean through
unchanged (constants are divergence-free) while the compressible projection
zeroes it, so ``P + Q = I`` holds on every mode.  In the Bony decomposition
the low cutoffs are taken mean-free, which makes the discrete identity

    u v = T_u v + T_v u + R(u, v)
          + mean(u) v + mean(v) u - mean(u) mean(v)

exact (to roundoff) against ``product_dealiased(u, v)`` whenever u and v are
supported in the 2/3 box, the shared truncation zeroing every aliased image.

Identities that involve first derivatives (gradient annihilation, div P = 0)
hold exactly away from the Nyquist planes, which odd-order derivatives zero;
dealiased fields never touch them.

Each Bony and transport sum (``paraproduct``, ``remainder``, ``advect``, and
``commutator_transport`` for ``u . grad v`` and every band together) is one
physical-space evaluation by ``spectral._product_sums``: each distinct
dealiased factor is inverted once and all the sums come back in one forward
transform, through the dealias-pruned transforms that ``spectral`` owns.
"""

from __future__ import annotations

import numpy as np

from .bands import DyadicBands, dyadic_block, low_cutoff
from .spectral import SpectralField, SpectralError, _product_sums, derivative


def _require_vector(v: SpectralField, who: str) -> None:
    if not v.is_vector:
        raise SpectralError(f"{who} expects a vector field")


def compressible_project(v: SpectralField) -> SpectralField:
    """Projection onto gradients: per mode ``k (k . v) / |k|^2``, zero mode 0."""
    _require_vector(v, "compressible_project")
    g = v.grid
    k2 = g.k2.copy()
    k2[(0,) * g.d] = 1.0
    kdotv = sum(g.k[ax] * v.coeffs[ax] for ax in range(g.d)) / k2
    out = np.stack([g.k[ax] * kdotv for ax in range(g.d)])
    out[(slice(None),) + (0,) * g.d] = 0.0
    return SpectralField(g, out)


def leray_project(v: SpectralField) -> SpectralField:
    """Projection onto divergence-free fields; the mean passes through."""
    _require_vector(v, "leray_project")
    return v - compressible_project(v)


def _mean_free_cutoff(u: SpectralField, j: int, bands: DyadicBands) -> SpectralField:
    s = low_cutoff(u, j, bands)
    c = s.coeffs.copy()
    if s.is_vector:
        c[(slice(None),) + (0,) * s.grid.d] = 0.0
    else:
        c[(0,) * s.grid.d] = 0.0
    return SpectralField(s.grid, c)


def paraproduct(u: SpectralField, v: SpectralField, bands: DyadicBands) -> SpectralField:
    """Bony paraproduct ``sum_j S'_{j-1} u * Delta_j v`` with mean-free
    low cutoffs ``S'`` and dealiased products."""
    if u.grid != v.grid:
        raise SpectralError("paraproduct requires a shared grid")
    return _product_sums([[(_mean_free_cutoff(u, j - 1, bands), dyadic_block(v, j, bands))
                           for j in bands.j_range]])[0]


def remainder(u: SpectralField, v: SpectralField, bands: DyadicBands) -> SpectralField:
    """Bony remainder ``sum_j Delta_j u * (Delta_{j-1}+Delta_j+Delta_{j+1}) v``.

    Out-of-range neighbour bands vanish identically on the lattice, so
    clamping to the valid range changes nothing.  Terms are accumulated as
    diagonal plus paired off-diagonal products, which makes ``R(u, v) =
    R(v, u)`` hold bit-exactly.
    """
    if u.grid != v.grid:
        raise SpectralError("remainder requires a shared grid")
    du = [dyadic_block(u, j, bands) for j in bands.j_range]
    dv = [dyadic_block(v, j, bands) for j in bands.j_range]
    terms = [(du[0], dv[0])]
    for i in range(1, len(du)):
        terms += [(du[i - 1], dv[i], du[i], dv[i - 1]), (du[i], dv[i])]
    return _product_sums([terms])[0]


def bony_mean_correction(u: SpectralField, v: SpectralField) -> SpectralField:
    """The exact mean-mode correction ``mean(u) v + mean(v) u - mean(u) mean(v)``."""
    mu = u.mean()
    mv = v.mean()
    corr = v * mu + u * mv
    c = corr.coeffs.copy()
    zero = (0,) * u.grid.d
    if corr.is_vector:
        c[(slice(None),) + zero] -= mu * mv
    else:
        c[zero] -= mu * mv
    return SpectralField(u.grid, c)


def advect(u: SpectralField, f: SpectralField) -> SpectralField:
    """Transport term ``(u . grad) f`` via dealiased products
    (componentwise on vector ``f``)."""
    _require_vector(u, "advect")
    ucomp = u.components()
    return _product_sums([[(ucomp[ax], derivative(f, ax))
                           for ax in range(u.grid.d)]])[0]


def commutator_transport(u: SpectralField, v: SpectralField,
                         bands: DyadicBands) -> list:
    """Transport commutators ``u . grad(Delta_j v) - Delta_j(u . grad v)``
    of every band, ordered by j; ``u . grad v`` and every ``u . grad(Delta_j
    v)`` come from one evaluation."""
    _require_vector(u, "commutator_transport")
    if u.grid != v.grid:
        raise SpectralError("commutator_transport requires a shared grid")
    ucomp = u.components()
    uv, *per_band = _product_sums(
        [[(ucomp[ax], derivative(f, ax)) for ax in range(u.grid.d)]
         for f in [v] + [dyadic_block(v, j, bands) for j in bands.j_range]])
    return [c - dyadic_block(uv, j, bands) for j, c in zip(bands.j_range, per_band)]
