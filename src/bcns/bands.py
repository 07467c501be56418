"""Dyadic partition of unity, block operators, Besov and Chemin-Lerner norms.

The radial profiles follow the classical construction: ``chi`` is a smooth
radial step equal to 1 on ``|xi| <= 3/4`` and 0 on ``|xi| >= 4/3``, built
from the C-infinity transition ``theta(t) = h(1-t) / (h(t) + h(1-t))`` with
``h(t) = exp(-1/t)`` for ``t > 0`` (else 0), and ``phi(xi) = chi(xi/2) -
chi(xi)``, supported in the annulus ``3/4 <= |xi| <= 8/3``.  By telescoping,
``sum_j phi(2^-j |k|) = 1`` holds exactly on every nonzero lattice mode
over the bands whose annulus meets the lattice: ``j = -1`` (unit radius) up
to the largest ``j`` with ``(3/4) 2^j < sqrt(d) N / 2`` (corner radius).

Zero-mode convention: homogeneous norms ignore the mean.  ``dyadic_block``
always returns zero-mean fields (``phi(0) = 0``) and ``besov_norm`` is blind
to constants; the low cutoffs ``S_j`` do include the mean (``chi(0) = 1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .spectral import Grid, SpectralField, SpectralError, _mode_energy, lp_norm


def _h(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=np.float64)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity transition from 1 (t <= 0) to 0 (t >= 1)."""
    t = np.asarray(t, dtype=np.float64)
    return _h(1.0 - t) / (_h(t) + _h(1.0 - t))


def chi_profile(rho) -> np.ndarray:
    """Radial cutoff: 1 on ``|xi| <= 3/4``, 0 on ``|xi| >= 4/3``, smooth between."""
    rho = np.asarray(rho, dtype=np.float64)
    return smooth_step((rho - 0.75) / (4.0 / 3.0 - 0.75))


def phi_profile(rho) -> np.ndarray:
    """Annulus profile ``phi(xi) = chi(xi/2) - chi(xi)``."""
    rho = np.asarray(rho, dtype=np.float64)
    return chi_profile(rho / 2.0) - chi_profile(rho)


@dataclass(frozen=True)
class BesovIndex:
    """Index triple (s, p, r) of a homogeneous Besov norm; ``inf`` allowed
    for p and r."""

    s: float
    p: float
    r: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.p >= 1 and self.r >= 1):
            raise SpectralError(f"Besov indices need a finite s and p, r >= 1, "
                                f"got {self}")


@dataclass(frozen=True)
class DyadicBands:
    """Littlewood-Paley partition attached to a grid.

    ``phi_mult[j]`` is the multiplier table ``phi(2^-j |k|)`` for
    ``j in [j_min, j_max]``, the bands that meet the lattice; their sum is 1
    on every nonzero lattice mode.
    """

    grid: Grid
    j_min: int = field(init=False)
    j_max: int = field(init=False)
    phi_mult: dict = field(init=False, repr=False, compare=False)
    chi_mult: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.grid
        j_min = -1
        j_max = math.ceil(math.log2(math.sqrt(g.d) * g.N / 3.0))
        phi = {j: phi_profile(g.kmag / 2.0**j) for j in range(j_min, j_max + 1)}
        object.__setattr__(self, "j_min", j_min)
        object.__setattr__(self, "j_max", j_max)
        object.__setattr__(self, "phi_mult", phi)
        object.__setattr__(self, "chi_mult", {})

    @property
    def j_range(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def chi(self, j: int) -> np.ndarray:
        """Multiplier table ``chi(2^-j |k|)`` (cached)."""
        if j not in self.chi_mult:
            self.chi_mult[j] = chi_profile(self.grid.kmag / 2.0**j)
        return self.chi_mult[j]

    @cached_property
    def phi_squared(self) -> np.ndarray:
        """(band x mode) matrix of ``phi(2^-j |k|)^2`` on the flat half spectrum."""
        return np.stack([self.phi_mult[j].ravel() ** 2 for j in self.j_range])

    def low_bands(self, nu: float) -> list:
        """Band indices with ``2^j * nu <= 1`` (the low-frequency set)."""
        if nu <= 0:
            raise SpectralError(f"viscosity split needs nu > 0, got {nu}")
        return [j for j in self.j_range if 2.0**j * nu <= 1.0]


def build_partition(grid: Grid) -> DyadicBands:
    """Construct the dyadic partition for a grid: ``j_min = -1`` and
    ``j_max = ceil(log2(sqrt(d) N / 3))``, the bands that meet the lattice."""
    return DyadicBands(grid)


def dyadic_block(f: SpectralField, j: int, bands: DyadicBands) -> SpectralField:
    """Band operator: per-mode multiplication by ``phi(2^-j |k|)``."""
    if j < bands.j_min or j > bands.j_max:
        raise SpectralError(f"band index {j} outside [{bands.j_min}, {bands.j_max}]")
    return SpectralField(f.grid, f.coeffs * bands.phi_mult[j])


def low_cutoff(f: SpectralField, j: int, bands: DyadicBands) -> SpectralField:
    """Low-pass operator: per-mode multiplication by ``chi(2^-j |k|)``.

    Satisfies ``S_{j+1} - S_j = Delta_j`` exactly and includes the mean.
    """
    return SpectralField(f.grid, f.coeffs * bands.chi(j))


def band_lp_norms(f: SpectralField, p: float, bands: DyadicBands) -> np.ndarray:
    """``||Delta_j f||_{L^p}`` for every band, ordered by j."""
    return np.array([lp_norm(dyadic_block(f, j, bands), p) for j in bands.j_range])


def band_table(fields, p: float, bands: DyadicBands) -> np.ndarray:
    """(field x band) table of ``||Delta_j f||_{L^p}``, one field of the
    iterable at a time.  At ``p = 2`` by Parseval, with no transform:
    ``||Delta_j f||_2^2 = sum_k phi(2^-j |k|)^2 w_k |c_k|^2``; otherwise each
    row is :func:`band_lp_norms`."""
    if p != 2:
        return np.array([band_lp_norms(f, p, bands) for f in fields])
    return np.sqrt(np.array([bands.phi_squared @ _mode_energy(f) for f in fields]))


def besov_norm(f: SpectralField, idx: BesovIndex, bands: DyadicBands) -> float:
    """Homogeneous Besov norm: ``l^r`` over j of ``2^{js} ||Delta_j f||_{L^p}``.

    The mean is excluded (homogeneous space); vectors use the pointwise
    Euclidean magnitude inside the ``L^p`` norms.
    """
    return besov_sum(band_lp_norms(f, idx.p, bands), idx, bands)


def besov_sum(norms: np.ndarray, idx: BesovIndex, bands: DyadicBands):
    """``l^r`` over j of ``2^{js} norms[..., j]`` for band tables with j on
    the last axis: a float for one table, an array for a stack of them
    (``idx.p`` is not read: the tables already hold the ``L^p`` norms)."""
    terms = _band_weights(bands.j_min, bands.j_max, idx.s) * norms
    if math.isinf(idx.r):
        out = np.maximum.reduce(terms, axis=-1)
    else:
        out = np.add.reduce(terms**idx.r, axis=-1) ** (1.0 / idx.r)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def _band_weights(j_min: int, j_max: int, s: float) -> np.ndarray:
    """``2^{js}`` for ``j = j_min .. j_max``; read-only."""
    weights = 2.0 ** (s * np.arange(j_min, j_max + 1))
    weights.flags.writeable = False
    return weights


def split_low_high(f: SpectralField, nu: float, bands: DyadicBands):
    """Split ``f - mean(f)`` into low bands (``2^j nu <= 1``) and the rest."""
    n_low = len(bands.low_bands(nu))      # the low bands are a prefix of j
    tables = [bands.phi_mult[j] for j in bands.j_range]
    zero = np.zeros(f.grid.spectral_shape)
    return (SpectralField(f.grid, f.coeffs * sum(tables[:n_low], zero)),
            SpectralField(f.grid, f.coeffs * sum(tables[n_low:], zero)))


def chemin_lerner_norm(times, fields, q: float, idx: BesovIndex,
                       bands: DyadicBands) -> float:
    """Time-integrability applied per band before the band sum.

    For each band j the time norm ``||Delta_j u||_{L^q(0,T;L^p)}`` is
    computed by trapezoidal quadrature on the stored snapshots (running max
    for ``q = inf``), then combined as ``l^r`` over j with weights
    ``2^{js}``.
    """
    times = np.asarray(times, dtype=np.float64)
    if np.any(np.diff(times) < 0):
        raise SpectralError("snapshot times must be nondecreasing")
    if not math.isinf(q) and len(fields) < 2:
        raise SpectralError("time quadrature needs at least 2 snapshots for q < inf")
    table = band_table(fields, idx.p, bands)  # (times, bands)
    if math.isinf(q):
        band_time = np.max(table, axis=0)
    else:
        band_time = np.trapezoid(table**q, times, axis=0) ** (1.0 / q)
    return besov_sum(band_time, idx, bands)
