"""The per-call fast paths of the L^p/Besov path give the bits of their
written-out forms, and every table they cache is read-only."""

import math

import numpy as np
import pytest

from bcns.bands import BesovIndex, _band_weights, besov_sum, build_partition
from bcns.lemmas import _envelope, random_field
from bcns.spectral import (
    _derivative_multiplier,
    derivative,
    forward_transform,
    inverse_transform,
    lp_norm,
    make_grid,
)

GRIDS = [(2, 16), (3, 8)]


def _fields(d, N):
    grid = make_grid(d, N)
    rng = np.random.default_rng(7)
    return random_field(grid, rng), random_field(grid, rng, vector=True)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("d,N", GRIDS)
def test_lp_norm_is_bitwise_the_mean_of_powers(d, N, p):
    scalar, vector = _fields(d, N)
    s = np.abs(inverse_transform(scalar))
    v = inverse_transform(vector)
    m = np.sqrt(np.sum(v * v, axis=0))
    for f, x in ((scalar, s), (vector, m)):
        want = np.max(x) if math.isinf(p) else np.mean(x**p) ** (1.0 / p)
        assert lp_norm(f, p) == float(want)


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("d,N", GRIDS)
def test_random_field_is_bitwise_the_uncached_envelope(d, N, vector):
    grid = make_grid(d, N)
    decay = d / 2.0 + 1.0
    k = np.meshgrid(*[np.fft.fftfreq(N, 1.0 / N)] * d, indexing="ij", sparse=True)
    kmag = np.sqrt(sum(ki**2 for ki in k))
    kmag[(0,) * d] = 1.0
    env = kmag**(-decay)
    env[(0,) * d] = 0.0
    for ki in k:
        env = np.where(ki == -N // 2, 0.0, env)
    rng = np.random.default_rng(3)
    shape = (d,) + grid.shape if vector else grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples = np.fft.ifftn(raw * env * N**d, axes=tuple(range(-d, 0))).real
    got = random_field(grid, np.random.default_rng(3), vector=vector)
    assert np.array_equal(got.coeffs, forward_transform(samples, grid).coeffs)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("d,N", GRIDS)
def test_derivative_is_bitwise_the_uncached_multiplier(d, N, order):
    scalar, _ = _fields(d, N)
    grid = scalar.grid
    for axis in range(d):
        kax = grid.k[axis]
        mult = (1j * kax) ** order
        if order == 1:
            mult = np.where(kax == -N // 2, 0.0, mult)
        assert np.array_equal(derivative(scalar, axis, order).coeffs,
                              scalar.coeffs * mult)


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
def test_besov_sum_is_bitwise_the_written_out_sum(r):
    bands = build_partition(make_grid(2, 16))
    norms = np.random.default_rng(5).random(len(bands.j_range))
    idx = BesovIndex(0.5, 2.0, r)
    terms = 2.0 ** (idx.s * np.arange(bands.j_min, bands.j_max + 1)) * norms
    want = np.max(terms) if math.isinf(r) else np.sum(terms**r) ** (1.0 / r)
    assert besov_sum(norms, idx, bands) == float(want)


def test_cached_tables_are_read_only():
    grid = make_grid(2, 16)
    tables = [_derivative_multiplier(grid, 0, 1), _derivative_multiplier(grid, 1, 2),
              _envelope(grid, 2.0), _band_weights(-1, 4, 0.5)]
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0
