"""Periodic grid, Fourier transforms, differential operators, dealiased products.

Conventions used throughout the package:

* The domain is the torus ``[0, 2*pi)^d`` with ``d`` in {2, 3}, sampled on a
  uniform grid of ``N`` points per dimension (``N`` even).  Lattice
  frequencies are integers, one component in ``[-N/2, N/2)`` per axis,
  stored in NumPy FFT order (``0, 1, ..., N/2-1, -N/2, ..., -1``).
* Every field is real and is stored as its half spectrum (the ``rfft``
  layout): the last axis holds only the ``N/2 + 1`` columns ``k_d = 0, 1,
  ..., N/2 - 1, -N/2``; ``c(-k) = conj(c(k))`` implies the rest.  A column
  ``0 < k_d < N/2`` stands for the two modes ``+-k``, the columns ``k_d = 0,
  -N/2`` for themselves (read through their Hermitian part).
* Spectral coefficients are "mean-value" normalized: a pure mode
  ``cos(k.x)`` has coefficients 1/2 at ``+-k`` and the constant field 1 has
  coefficient 1 at ``k = 0``.  Consequently ``f(x) = sum_k c_k exp(i k.x)``.
* ``L^p`` norms are mean-value normalized as well,
  ``||f||_p = (mean |f|^p)^(1/p)``, so ``||1||_p = 1`` for every ``p`` and
  Parseval reads ``||f||_2^2 = sum_k |c_k|^2``, a column ``0 < k_d < N/2``
  counting twice.
* Nyquist rule: a Nyquist plane (some ``k_i = -N/2``) has no conjugate
  partner on the lattice, so odd-order derivatives zero it and the 2/3 rule
  never keeps it.
* All arithmetic is in 64-bit floats / 128-bit complex.

Fields are immutable values: every operation returns a new ``SpectralField``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class SpectralError(ValueError):
    """Raised when an operation's preconditions are violated."""


@dataclass(frozen=True)
class Grid:
    """Periodic grid on ``[0, 2*pi)^d`` with integer lattice frequencies.

    Tables on the half spectrum ``spectral_shape`` (``shape`` is the sample
    shape), set in ``__post_init__``:

    * ``k``: tuple of ``d`` broadcastable integer-frequency arrays,
    * ``k2``: ``|k|^2`` per mode, ``kmag``: ``|k|``,
    * ``dealias_mask``: True where every ``|k_i| < N/3`` (2/3 rule),
    * ``dx``: grid spacing ``2*pi/N``.
    """

    d: int
    N: int
    k: tuple = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    kmag: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise SpectralError(f"unsupported dimension d={self.d}, need 2 or 3")
        if self.N % 2 != 0 or self.N < 8:
            raise SpectralError(f"mode count N={self.N} must be even and >= 8")
        k1 = np.fft.fftfreq(self.N, d=1.0 / self.N)  # exact integers as floats
        axes = []
        for ax, n in enumerate(self.spectral_shape):
            shape = [1] * self.d
            shape[ax] = n
            axes.append(k1[:n].reshape(shape))
        k2 = sum(ki**2 for ki in axes)
        cutoff = self.N / 3.0
        mask = np.ones(self.spectral_shape, dtype=bool)
        for ki in axes:
            mask &= np.abs(ki) < cutoff
        object.__setattr__(self, "k", tuple(axes))
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", np.sqrt(k2))
        object.__setattr__(self, "dealias_mask", mask)

    @property
    def dx(self) -> float:
        return 2.0 * math.pi / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def spectral_shape(self) -> tuple:
        return (self.N,) * (self.d - 1) + (self.N // 2 + 1,)

    def meshes(self) -> tuple:
        """Physical coordinate arrays ``x_1, ..., x_d`` (broadcastable)."""
        x1 = np.arange(self.N) * self.dx
        out = []
        for ax in range(self.d):
            shape = [1] * self.d
            shape[ax] = self.N
            out.append(x1.reshape(shape))
        return tuple(out)


def make_grid(d: int, N: int) -> Grid:
    """Build a periodic grid; rejects odd ``N`` and unsupported ``d``."""
    return Grid(d, N)


@dataclass(frozen=True)
class SpectralField:
    """Half spectrum of a real scalar or vector field.

    ``coeffs`` has shape ``grid.spectral_shape`` for a scalar and
    ``(ncomp,) + grid.spectral_shape`` for a vector (components outermost);
    any other shape raises :class:`SpectralError`.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        shape = self.grid.spectral_shape
        if c.shape != shape and c.shape[1:] != shape:
            raise SpectralError(
                f"coefficient shape {c.shape} is not the half spectrum {shape}"
            )
        object.__setattr__(self, "coeffs", c)

    @property
    def is_vector(self) -> bool:
        return self.coeffs.ndim == self.grid.d + 1

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0] if self.is_vector else 1

    def components(self) -> list["SpectralField"]:
        if not self.is_vector:
            return [self]
        return [SpectralField(self.grid, self.coeffs[i]) for i in range(self.ncomp)]

    def samples(self) -> np.ndarray:
        """Physical-space values."""
        return inverse_transform(self)

    def mean(self):
        """Spatial mean: scalar for a scalar field, array for a vector."""
        if self.is_vector:
            idx = (slice(None),) + (0,) * self.grid.d
            return self.coeffs[idx].real.copy()
        return float(self.coeffs[(0,) * self.grid.d].real)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def _binary(self, other, op):
        if isinstance(other, SpectralField):
            if other.grid is not self.grid and other.grid != self.grid:
                raise SpectralError("fields live on different grids")
            return SpectralField(self.grid, op(self.coeffs, other.coeffs))
        # adding a number means adding the constant field: zero mode only
        c = self.coeffs.copy()
        zero = (0,) * self.grid.d
        if self.is_vector:
            c[(slice(None),) + zero] = op(c[(slice(None),) + zero], other)
        else:
            c[zero] = op(c[zero], other)
        return SpectralField(self.grid, c)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)


def zeros(grid: Grid, vector: bool = False) -> SpectralField:
    shape = (grid.d,) + grid.spectral_shape if vector else grid.spectral_shape
    return SpectralField(grid, np.zeros(shape, dtype=np.complex128))


def _leading_axes(grid: Grid) -> tuple:
    return tuple(range(-grid.d, -1))


def forward_transform(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Real samples -> normalized coefficients (``cos(k.x) -> 1/2`` at ``+-k``):
    ``rfft`` of the last axis, then ``fftn`` of the leading ones (``rfftn``)."""
    s = np.asarray(samples, dtype=np.float64)
    if s.shape != grid.shape and s.shape[1:] != grid.shape:
        raise SpectralError(f"sample shape {s.shape} does not match grid {grid.shape}")
    half = np.fft.rfft(s, axis=-1, norm="forward")
    return SpectralField(grid, np.fft.fftn(half, axes=_leading_axes(grid),
                                           norm="forward"))


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Coefficients -> real samples; inverse of :func:`forward_transform`:
    ``ifftn`` of the leading axes, then ``irfft`` of the last (``irfftn``)."""
    g = f.grid
    lead = np.fft.ifftn(f.coeffs, axes=_leading_axes(g), norm="forward")
    return np.fft.irfft(lead, n=g.N, axis=-1, norm="forward")


def _apply_multiplier(f: SpectralField, mult: np.ndarray) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * mult)


def derivative(f: SpectralField, axis: int, order: int = 1) -> SpectralField:
    """Spectral derivative: multiplication by ``(i k_axis)^order`` per mode.

    For odd orders the Nyquist plane ``k_axis = -N/2`` is zeroed (see the
    module's Nyquist rule).
    """
    g = f.grid
    if order not in (1, 2):
        raise SpectralError(f"derivative order must be 1 or 2, got {order}")
    if not 0 <= axis < g.d:
        raise SpectralError(f"axis {axis} out of range for d={g.d}")
    kax = g.k[axis]
    mult = (1j * kax) ** order
    if order % 2 == 1:
        mult = np.where(kax == -g.N // 2, 0.0, mult)
    return _apply_multiplier(f, mult)


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of a scalar field as a vector field."""
    if f.is_vector:
        raise SpectralError("gradient expects a scalar field")
    comps = [derivative(f, ax).coeffs for ax in range(f.grid.d)]
    return SpectralField(f.grid, np.stack(comps))


def divergence(v: SpectralField) -> SpectralField:
    """Divergence of a vector field as a scalar field."""
    if not v.is_vector:
        raise SpectralError("divergence expects a vector field")
    out = sum(derivative(SpectralField(v.grid, v.coeffs[ax]), ax).coeffs
              for ax in range(v.grid.d))
    return SpectralField(v.grid, out)


def laplacian(f: SpectralField) -> SpectralField:
    """Laplacian (componentwise for vectors): multiplication by ``-|k|^2``."""
    return _apply_multiplier(f, -f.grid.k2)


def curl(v: SpectralField) -> SpectralField:
    """Curl: scalar ``d1 v2 - d2 v1`` in 2D, the usual vector in 3D."""
    if not v.is_vector:
        raise SpectralError("curl expects a vector field")
    g = v.grid
    comp = v.components()
    if g.d == 2:
        return derivative(comp[1], 0) - derivative(comp[0], 1)
    c0 = derivative(comp[2], 1) - derivative(comp[1], 2)
    c1 = derivative(comp[0], 2) - derivative(comp[2], 0)
    c2 = derivative(comp[1], 0) - derivative(comp[0], 1)
    return SpectralField(g, np.stack([c0.coeffs, c1.coeffs, c2.coeffs]))


def inv_laplacian(f: SpectralField) -> SpectralField:
    """Inverse of ``-Laplacian``: divide by ``|k|^2``, zero mode set to 0.

    The input must have zero mean; a nonzero-mean input makes the inversion
    ill-posed and raises.
    """
    g = f.grid
    norm = l2_norm_spectral(f)
    mean_mag = float(np.max(np.abs(np.atleast_1d(f.mean()))))
    if mean_mag > 1e-12 * max(norm, 1e-300):
        raise SpectralError(
            f"inv_laplacian needs a zero-mean field (|mean| = {mean_mag:.3e})"
        )
    k2 = g.k2.copy()
    k2[(0,) * g.d] = 1.0
    out = f.coeffs / k2
    if f.is_vector:
        out[(slice(None),) + (0,) * g.d] = 0.0
    else:
        out[(0,) * g.d] = 0.0
    return SpectralField(g, out)


def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode with any ``|k_i| >= N/3`` (2/3-rule truncation)."""
    return _apply_multiplier(f, f.grid.dealias_mask)


class _Workspace:
    """Multipliers, dealias-pruned transforms (``m`` of the ``N/2 + 1``
    columns have ``k_d < N/3``) and reused buffers of a grid; a transform
    fills a new array, or with ``reuse`` the workspace's buffer for its shape."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.m = int(np.count_nonzero(np.arange(grid.N // 2 + 1) < grid.N / 3.0))
        self.k2max = float(np.max(grid.k2[grid.dealias_mask]))
        self.ik = [1j * kj for kj in grid.k]
        self.khat = [kj / np.maximum(grid.kmag, 1.0) for kj in grid.k]
        self._axes = tuple(range(-grid.d, 0))
        self._buffers = {}

    def buffer(self, name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
        """The workspace's zero-initialised array for these arguments."""
        key = (name, shape, dtype)
        if key not in self._buffers:
            self._buffers[key] = np.zeros(shape, dtype=dtype)
        return self._buffers[key]

    def inverse(self, stack: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Samples of dealiased half spectra (bitwise ``irfftn``); overwrites
        the ``m`` kept columns of ``stack``, the rest must be 0."""
        kept = stack[..., : self.m]
        for ax in self._axes[:-1]:  # the order of irfftn
            np.fft.ifft(kept, axis=ax, norm="forward", out=kept)
        shape = stack.shape[:-self.grid.d] + self.grid.shape
        return np.fft.irfft(stack, n=self.grid.N, axis=-1, norm="forward",
                            out=self.buffer("inverse", shape, np.float64)
                            if reuse else None)

    def forward(self, samples: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Dealiased half spectra (bitwise ``rfftn`` times the mask)."""
        shape = samples.shape[:-self.grid.d] + self.grid.spectral_shape
        out = np.fft.rfft(samples, axis=-1, norm="forward",
                          out=self.buffer("forward", shape) if reuse else None)
        kept = out[..., : self.m]
        for ax in reversed(self._axes[:-1]):  # the order of rfftn
            np.fft.fft(kept, axis=ax, norm="forward", out=kept)
        np.multiply(kept, self.grid.dealias_mask[..., : self.m], out=kept)
        out[..., self.m:] = 0.0
        return out

    def samples(self, stack: np.ndarray) -> np.ndarray:
        """Samples of undealiased half spectra (``irfftn``) into a buffer."""
        out = self.buffer("samples", stack.shape[:1] + self.grid.shape, np.float64)
        return np.fft.irfftn(stack, s=self.grid.shape, axes=self._axes,
                             norm="forward", out=out)


_workspace = lru_cache(maxsize=2)(_Workspace)  # per grid


def _product_sums(sums: list) -> list:
    """Dealiased sums of pointwise products, one field per entry of ``sums``.

    An entry is a list of terms; a term ``(f1, g1, f2, g2, ...)`` stands for
    ``f1 g1 + f2 g2 + ...``, added up before it joins the sum.  Factors
    multiply as in :func:`product_dealiased`.  Each distinct factor object
    is 2/3-truncated and inverted once, in one batched pruned inverse (one
    that truncates to zero drops its products); the sums are formed in
    physical space and come back in one batched forward transform.
    """
    factors = {id(x): x for terms in sums for term in terms for x in term}
    grid = next(iter(factors.values())).grid
    if any(x.grid != grid for x in factors.values()):
        raise SpectralError("dealiased products require a shared grid")
    ws, d = _workspace(grid), grid.d
    masked = {key: (x.coeffs * grid.dealias_mask).reshape((-1,) + grid.spectral_shape)
              for key, x in factors.items()}
    live = [key for key, c in masked.items() if c.any()]
    empty = np.empty((0,) + grid.spectral_shape, np.complex128)  # all factors zero
    s = ws.inverse(np.concatenate([empty] + [masked[key] for key in live]))
    parts = np.split(s, np.cumsum([len(masked[key]) for key in live])[:-1])
    samples = {key: part.reshape(factors[key].coeffs.shape[:-d] + grid.shape)
               for key, part in zip(live, parts)}
    totals = []
    for terms in sums:
        total = np.zeros(np.broadcast_shapes(*(x.coeffs.shape[:-d] for x in terms[0]))
                         + grid.shape)
        for term in terms:  # f1 g1 + f2 g2 + ..., left to right
            prods = [samples[id(f)] * samples[id(g)] for f, g in zip(term[::2], term[1::2])
                     if id(f) in samples and id(g) in samples]
            if prods:
                total += sum(prods[1:], prods[0])
        totals.append(total)
    rows = [t.reshape((-1,) + grid.shape) for t in totals]
    parts = np.split(ws.forward(np.concatenate(rows)), np.cumsum(list(map(len, rows)))[:-1])
    return [SpectralField(grid, c.reshape(t.shape[:-d] + grid.spectral_shape))
            for t, c in zip(totals, parts)]


def product_dealiased(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product with 2/3-rule truncation before and after.

    Scalar*scalar, scalar*vector and vector*vector (componentwise by the
    scalar, or elementwise for equal ranks) are supported on a shared grid.
    The operation is exactly symmetric and bilinear.
    """
    return _product_sums([[(f, g)]])[0]


def lp_norm(f: SpectralField, p: float) -> float:
    """Mean-value normalized ``L^p`` norm; vectors use the pointwise
    Euclidean magnitude, ``p = inf`` gives the max."""
    s = inverse_transform(f)
    if f.is_vector:
        s = np.sqrt(np.sum(s * s, axis=0))
    else:
        s = np.abs(s)
    if math.isinf(p):
        return float(np.max(s))
    if p < 1:
        raise SpectralError(f"L^p norm needs p >= 1, got {p}")
    return float(np.mean(s**p) ** (1.0 / p))


def l2_norm_spectral(f: SpectralField) -> float:
    """``L^2`` norm evaluated on coefficients (Parseval route); the columns
    ``0 < k_d < N/2`` count twice, for ``+-k``."""
    sq = np.abs(f.coeffs) ** 2
    nyq = f.grid.N // 2
    return float(np.sqrt(np.sum(sq[..., 0]) + 2.0 * np.sum(sq[..., 1:nyq])
                         + np.sum(sq[..., nyq])))
