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
from itertools import product

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
    shape: tuple = field(init=False, repr=False, compare=False)
    spectral_shape: tuple = field(init=False, repr=False, compare=False)
    k: tuple = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    kmag: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise SpectralError(f"unsupported dimension d={self.d}, need 2 or 3")
        if self.N % 2 != 0 or self.N < 8:
            raise SpectralError(f"mode count N={self.N} must be even and >= 8")
        object.__setattr__(self, "shape", (self.N,) * self.d)
        object.__setattr__(self, "spectral_shape",
                           (self.N,) * (self.d - 1) + (self.N // 2 + 1,))
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
        c = self.coeffs
        if type(c) is not np.ndarray or c.dtype != np.complex128:
            c = np.asarray(c, dtype=np.complex128)
            object.__setattr__(self, "coeffs", c)
        shape = self.grid.spectral_shape
        if c.shape != shape and c.shape[1:] != shape:
            raise SpectralError(
                f"coefficient shape {c.shape} is not the half spectrum {shape}"
            )

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
        m = self.coeffs[(..., *(0,) * self.grid.d)].real
        return m.copy() if m.ndim else float(m)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def _binary(self, other, op):
        if isinstance(other, SpectralField):
            if other.grid is not self.grid and other.grid != self.grid:
                raise SpectralError("fields live on different grids")
            return SpectralField(self.grid, op(self.coeffs, other.coeffs))
        # adding a number means adding the constant field: zero mode only
        c = self.coeffs.copy()
        zero = (..., *(0,) * self.grid.d)
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
    # given s, numpy skips the np.take that would read it off the shape
    return SpectralField(grid, np.fft.fftn(half, s=grid.shape[1:],
                                           axes=_leading_axes(grid), norm="forward"))


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Coefficients -> real samples; inverse of :func:`forward_transform`:
    ``ifftn`` of the leading axes, then ``irfft`` of the last (``irfftn``)."""
    g = f.grid
    # given s, numpy skips the np.take that would read it off the shape
    lead = np.fft.ifftn(f.coeffs, s=g.shape[1:], axes=_leading_axes(g), norm="forward")
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
    return _apply_multiplier(f, _derivative_multiplier(g, axis, order))


@lru_cache(maxsize=16)
def _derivative_multiplier(grid: Grid, axis: int, order: int) -> np.ndarray:
    """``(i k_axis)^order``, its Nyquist plane zeroed for odd orders; read-only."""
    kax = grid.k[axis]
    mult = (1j * kax) ** order
    if order % 2 == 1:
        mult = np.where(kax == -grid.N // 2, 0.0, mult)
    mult.flags.writeable = False
    return mult


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
    out = f.coeffs / np.maximum(g.k2, 1.0)
    out[(..., *(0,) * g.d)] = 0.0
    return SpectralField(g, out)


def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode with any ``|k_i| >= N/3`` (2/3-rule truncation)."""
    return _apply_multiplier(f, f.grid.dealias_mask)


class _Workspace:
    """A grid's kept block, the modes the 2/3 rule keeps packed in FFT order
    (rows ``0..m-1, -(m-1)..-1`` of each leading axis, the first ``m`` columns)
    and the flow steps' only representation: its gather and scatter, read-only
    ``ik_kept``, ``khat_kept = k/max(|k|, 1)``, ``k2_kept`` and ``k2_distinct`` (its
    values and their index) on it, kept-block transforms and their buffers (``reuse``)."""

    def __init__(self, grid: Grid):
        self.grid, N, d = grid, grid.N, grid.d
        self.m = m = int(np.count_nonzero(np.arange(N // 2 + 1) < N / 3.0))
        self.kept_shape = (2 * m - 1,) * (d - 1) + (m,)
        rows = [(slice(0, m), slice(0, m)), (slice(N - m + 1, N), slice(m, None))]
        self._blocks = [[(...,) + r + (slice(0, m),) for r in zip(*pick)]
                        for pick in product(rows, repeat=d - 1)]  # [full, kept]
        self._outside = [(..., slice(m, N - m + 1)) + (slice(None),) * (d - 1 - ax)
                         for ax in range(d - 1)]  # the rest of a padded inverse
        # in 3D the axis -3 transforms run on the kept rows of axis -2 only: the
        # other lines are zero in an inverse, and dropped by the gather in forward
        self._lines = [(..., r, slice(None)) for r, _ in rows] if d == 3 else []
        khat = np.stack([kj / np.maximum(grid.kmag, 1.0) for kj in grid.k])
        self.ik_kept = self.gather(np.stack(np.broadcast_arrays(*(1j * kj for kj in grid.k))))
        self.khat_kept, self.k2_kept = self.gather(khat), self.gather(grid.k2)
        # exact integers, ranked without a sort (np.unique's adds 0.3 MB to peak RSS)
        k2 = self.k2_kept.astype(np.intp)
        distinct = np.flatnonzero(np.bincount(k2.ravel()))
        rank = np.empty(distinct[-1] + 1, np.intp)
        rank[distinct] = np.arange(len(distinct))
        self.k2_distinct = distinct.astype(float), rank[k2]
        self.k2max = float(distinct[-1])
        for table in (self.ik_kept, self.khat_kept, self.k2_kept, *self.k2_distinct):
            table.flags.writeable = False
        self._axes = tuple(range(-d, 0))
        self._buffers = {}

    def buffer(self, name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
        """The workspace's zero-initialised array for these arguments."""
        key = (name, shape, dtype)
        if key not in self._buffers:
            self._buffers[key] = np.zeros(shape, dtype=dtype)
        return self._buffers[key]

    def gather(self, full: np.ndarray) -> np.ndarray:
        """The kept blocks of half spectra, a new array."""
        out = np.empty(full.shape[:-self.grid.d] + self.kept_shape, full.dtype)
        for f, k in self._blocks:
            out[k] = full[f]
        return out

    def scatter(self, kept: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Kept blocks written into the half spectra ``out``, by default zeros."""
        if out is None:
            out = np.zeros(kept.shape[:-self.grid.d] + self.grid.spectral_shape, kept.dtype)
        for f, k in self._blocks:
            out[f] = kept[k]
        return out

    def inverse(self, stack: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Samples of kept blocks (bitwise ``irfftn`` of their expansion): the
        leading inverse transforms run on the ``m`` kept columns, padded."""
        lead, g = stack.shape[:-self.grid.d], self.grid
        shape = lead + (g.N,) * (g.d - 1) + (self.m,)
        pad = np.empty(shape, np.complex128)
        for rows in self._outside:  # with the kept block, they cover the pad
            pad[rows] = 0.0
        self.scatter(stack, out=pad)
        for ax in self._axes[:-1]:  # the order of irfftn
            for part in [pad[lines] for lines in self._lines] if ax == -3 else [pad]:
                np.fft.ifft(part, axis=ax, norm="forward", out=part)
        return np.fft.irfft(pad, n=g.N, axis=-1, norm="forward",
                            out=self.buffer("inverse", lead + g.shape, np.float64)
                            if reuse else None)

    def forward(self, samples: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Kept blocks of samples, a new array (bitwise those of ``rfftn``)."""
        shape = samples.shape[:-self.grid.d] + self.grid.spectral_shape
        half = np.fft.rfft(samples, axis=-1, norm="forward",
                           out=self.buffer("forward", shape) if reuse else None)
        kept = half[..., : self.m]
        for ax in reversed(self._axes[:-1]):  # the order of rfftn
            for part in [kept[lines] for lines in self._lines] if ax == -3 else [kept]:
                np.fft.fft(part, axis=ax, norm="forward", out=part)
        return self.gather(half)


_workspace = lru_cache(maxsize=2)(_Workspace)  # per grid


def _product_sums(sums: list) -> list:
    """Dealiased sums of pointwise products, one field per entry of ``sums``.

    An entry is a list of terms; a term ``(f1, g1, f2, g2, ...)`` stands for
    ``f1 g1 + f2 g2 + ...``, added up before it joins the sum.  Factors
    multiply as in :func:`product_dealiased`.  Each distinct factor object
    is gathered to its kept block and inverted once, in one batched inverse
    (one whose block is zero drops its products); the sums are formed in
    physical space and come back in one batched forward transform, expanded
    from their kept blocks.
    """
    factors = {id(x): x for terms in sums for term in terms for x in term}
    grid = next(iter(factors.values())).grid
    if any(x.grid != grid for x in factors.values()):
        raise SpectralError("dealiased products require a shared grid")
    ws, d = _workspace(grid), grid.d
    kept = {key: ws.gather(x.coeffs.reshape((-1,) + grid.spectral_shape))
            for key, x in factors.items()}
    live = [key for key, c in kept.items() if c.any()]
    empty = np.empty((0,) + ws.kept_shape, np.complex128)  # all factors zero
    s = ws.inverse(np.concatenate([empty] + [kept[key] for key in live]))
    parts = _row_blocks(s, [len(kept[key]) for key in live])
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
    parts = _row_blocks(ws.scatter(ws.forward(np.concatenate(rows))), map(len, rows))
    return [SpectralField(grid, c.reshape(t.shape[:-d] + grid.spectral_shape))
            for t, c in zip(totals, parts)]


def _row_blocks(stack: np.ndarray, lengths):
    """Consecutive blocks of ``stack``'s rows, one view per length (``np.split``
    without its wrapper)."""
    start = 0
    for n in lengths:
        yield stack[start:start + n]
        start += n


def product_dealiased(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product with 2/3-rule truncation before and after.

    Scalar*scalar, scalar*vector and vector*vector (componentwise by the
    scalar, or elementwise for equal ranks) are supported on a shared grid.
    The operation is exactly symmetric and bilinear.
    """
    return _product_sums([[(f, g)]])[0]


_TINY = 2.2250738585072014e-308  # the smallest normal float


def lp_norm(f: SpectralField, p: float) -> float:
    """Mean-value normalized ``L^p`` norm; vectors use the pointwise
    Euclidean magnitude, ``p = inf`` gives the max."""
    c = inverse_transform(f)
    with np.errstate(over="ignore"):  # a square or power out of range is redone
        s = np.sqrt(np.add.reduce(c * c, axis=0)) if f.is_vector else c if p == 2 else np.abs(c)
        r = _power_mean(s, p)
    if _TINY <= (r * r if f.is_vector else r) < math.inf:
        return r
    # a mean of powers or a squared magnitude outside the normal floats: redo
    # over the largest component, then over the largest magnitude
    top = float(np.maximum.reduce(np.abs(c), axis=None))
    if not 0 < top < math.inf:
        return top
    s = np.abs(c / top)
    if f.is_vector:
        s = np.sqrt(np.add.reduce(s * s, axis=0))
    peak = float(np.maximum.reduce(s, axis=None))  # 1 for a scalar
    return top * peak * _power_mean(s / peak, p)


def _power_mean(s: np.ndarray, p: float) -> float:
    """``(mean |s|^p)^(1/p)``, the max at ``p = inf`` (``s >= 0`` unless
    ``p = 2``); nan where the mean of powers is not a normal float."""
    if math.isinf(p):
        return float(np.maximum.reduce(s, axis=None))
    if p < 1:
        raise SpectralError(f"L^p norm needs p >= 1, got {p}")
    if p == 2:  # |s|^2 without the abs, the same bits; np.mean, bare
        m = np.add.reduce(s * s, axis=None) / s.size
    else:
        m = np.add.reduce(s**p, axis=None) / s.size
    return float(m ** (1.0 / p)) if _TINY <= m < math.inf else math.nan


def _negated(c: np.ndarray, axes: tuple) -> np.ndarray:
    """``c(-k)`` over the FFT-ordered frequency ``axes``."""
    return np.roll(np.flip(c, axes), 1, axes)


def _mode_energy(f: SpectralField) -> np.ndarray:
    """Parseval weight ``w_k |c_k|^2`` of each mode of the flat half spectrum,
    summed over components: ``w = 2`` on the columns ``0 < k_d < N/2``; the
    columns ``k_d = 0, N/2`` count their Hermitian part ``(c_k + conj(c_-k))
    / 2``, as :func:`inverse_transform` does."""
    g, c, lead = f.grid, f.coeffs, _leading_axes(f.grid)
    edges = c[..., [0, g.N // 2]]
    partner = np.conj(_negated(edges, lead))
    energy = 2.0 * (c.real**2 + c.imag**2)
    energy[..., [0, g.N // 2]] = np.abs(0.5 * (edges + partner)) ** 2
    return (energy.sum(axis=0) if f.is_vector else energy).ravel()


def l2_norm_spectral(f: SpectralField) -> float:
    """``L^2`` norm evaluated on coefficients (Parseval route)."""
    return float(np.sqrt(np.sum(_mode_energy(f))))
