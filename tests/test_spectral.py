import math
import warnings

import numpy as np
import pytest

from bcns.bands import build_partition, dyadic_block
from bcns.spectral import (
    SpectralError,
    SpectralField,
    derivative,
    dealias,
    divergence,
    forward_transform,
    gradient,
    inv_laplacian,
    inverse_transform,
    laplacian,
    l2_norm_spectral,
    lp_norm,
    make_grid,
    product_dealiased,
    zeros,
)


def test_make_grid_2d():
    g = make_grid(2, 32)
    assert g.shape == (32, 32)
    k0 = np.unique(g.k[0])
    assert k0.min() == -16 and k0.max() == 15


def test_make_grid_3d():
    g = make_grid(3, 8)
    assert g.shape == (8, 8, 8)
    assert g.spectral_shape == (8, 8, 5)
    assert g.k2.shape == g.spectral_shape


@pytest.mark.parametrize("d,N", [(2, 7), (2, 6), (1, 16), (4, 16), (2, 9)])
def test_make_grid_rejects(d, N):
    with pytest.raises(SpectralError):
        make_grid(d, N)


def test_forward_single_mode():
    g = make_grid(2, 16)
    x, _ = g.meshes()
    f = forward_transform(np.cos(x) + np.zeros(g.shape), g)
    c = f.coeffs.copy()
    assert abs(c[1, 0] - 0.5) <= 1e-13
    assert abs(c[-1, 0] - 0.5) <= 1e-13
    c[1, 0] = 0
    c[-1, 0] = 0
    assert np.max(np.abs(c)) <= 1e-13


def test_forward_constant():
    g = make_grid(2, 16)
    f = forward_transform(np.ones(g.shape), g)
    assert abs(f.coeffs[0, 0] - 1.0) <= 1e-14
    assert f.mean() == pytest.approx(1.0)


def test_round_trip_many_seeds():
    g = make_grid(2, 16)
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = rng.standard_normal(g.shape)
        back = inverse_transform(forward_transform(s, g))
        assert np.max(np.abs(back - s)) <= 1e-12 * np.max(np.abs(s))


def test_round_trip_vector_3d():
    g = make_grid(3, 8)
    rng = np.random.default_rng(3)
    s = rng.standard_normal((3,) + g.shape)
    f = forward_transform(s, g)
    back = inverse_transform(f)
    assert np.max(np.abs(back - s)) <= 1e-12
    again = forward_transform(back, g)
    assert np.max(np.abs(again.coeffs - f.coeffs)) <= 1e-15 * np.max(np.abs(s))


def test_forward_shape_mismatch():
    g = make_grid(2, 16)
    with pytest.raises(SpectralError):
        forward_transform(np.ones((8, 8)), g)


def test_parseval():
    # the columns 0 < k_d < N/2 stand for +-k, the columns k_d = 0, -N/2 for
    # themselves; random samples fill the Nyquist column too
    rng = np.random.default_rng(11)
    for g in (make_grid(2, 32), make_grid(3, 8)):
        for shape in [g.shape] * 20 + [(g.d,) + g.shape]:
            f = forward_transform(rng.standard_normal(shape), g)
            assert np.max(np.abs(f.coeffs[..., -1])) > 1e-3
            assert lp_norm(f, 2) == pytest.approx(l2_norm_spectral(f), rel=1e-12)
        # any half spectrum is a real field: the columns k_d = 0, -N/2 count
        # through their Hermitian part, the part the inverse transform reads
        for shape in (g.spectral_shape, (g.d,) + g.spectral_shape):
            f = SpectralField(g, rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
            assert lp_norm(f, 2) == pytest.approx(l2_norm_spectral(f), rel=1e-12)


def test_derivative_eigenmodes():
    g = make_grid(2, 16)
    x, y = g.meshes()
    sin1 = forward_transform(np.sin(x) + np.zeros(g.shape), g)
    cos1 = forward_transform(np.cos(x) + np.zeros(g.shape), g)
    d = derivative(sin1, 0)
    assert np.max(np.abs(d.coeffs - cos1.coeffs)) <= 1e-12
    lap = laplacian(cos1)
    assert np.max(np.abs(lap.coeffs + cos1.coeffs)) <= 1e-12
    const = forward_transform(np.full(g.shape, 3.0), g)
    for ax in range(2):
        assert np.max(np.abs(derivative(const, ax).coeffs)) <= 1e-14


def test_derivative_order_validation():
    g = make_grid(2, 16)
    f = zeros(g)
    with pytest.raises(SpectralError):
        derivative(f, 0, order=3)
    with pytest.raises(SpectralError):
        derivative(f, 5, order=1)


def test_derivative_commutes_with_dyadic_block():
    g = make_grid(2, 32)
    bands = build_partition(g)
    rng = np.random.default_rng(5)
    f = forward_transform(rng.standard_normal(g.shape), g)
    for j in (0, 2, 4):
        a = derivative(dyadic_block(f, j, bands), 0)
        b = dyadic_block(derivative(f, 0), j, bands)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


def test_inv_laplacian_eigenmodes():
    g = make_grid(2, 16)
    x, y = g.meshes()
    sin1 = forward_transform(np.sin(x) + np.zeros(g.shape), g)
    out = inv_laplacian(sin1)
    assert np.max(np.abs(out.coeffs - sin1.coeffs)) <= 1e-13
    cos2 = forward_transform(np.cos(2 * y) + np.zeros(g.shape), g)
    out2 = inv_laplacian(cos2)
    assert np.max(np.abs(out2.coeffs - 0.25 * cos2.coeffs)) <= 1e-13


def test_inv_laplacian_inverts():
    g = make_grid(2, 32)
    rng = np.random.default_rng(2)
    f = forward_transform(rng.standard_normal(g.shape), g)
    f = f - f.mean()
    back = laplacian(inv_laplacian(f)) * (-1.0)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * lp_norm(f, 2)


def test_inv_laplacian_rejects_mean():
    g = make_grid(2, 16)
    f = forward_transform(np.ones(g.shape), g)
    with pytest.raises(SpectralError):
        inv_laplacian(f)


def test_product_identity_element():
    g = make_grid(2, 16)
    rng = np.random.default_rng(4)
    f = forward_transform(np.ones(g.shape), g)
    h = forward_transform(rng.standard_normal(g.shape), g)
    prod = product_dealiased(f, h)
    assert np.max(np.abs(prod.coeffs - dealias(h).coeffs)) <= 1e-13


def test_product_trig_identity():
    g = make_grid(2, 8)
    x, _ = g.meshes()
    c = forward_transform(np.cos(x) + np.zeros(g.shape), g)
    prod = product_dealiased(c, c)
    expected = forward_transform(0.5 + 0.5 * np.cos(2 * x) + np.zeros(g.shape), g)
    assert np.max(np.abs(prod.coeffs - expected.coeffs)) <= 1e-12


def _direct_convolution(cf, cg):
    """Brute-force coefficient convolution on the whole integer lattice."""
    N = cf.shape[0]
    out = np.zeros(cf.shape, dtype=np.complex128)
    ks = np.fft.fftfreq(N, 1.0 / N).astype(int)
    for i1, k1 in enumerate(ks):
        for j1, l1 in enumerate(ks):
            if cf[i1, j1] == 0:
                continue
            for i2, k2 in enumerate(ks):
                for j2, l2 in enumerate(ks):
                    if cg[i2, j2] == 0:
                        continue
                    ks_, ls_ = k1 + k2, l1 + l2
                    if -N // 2 <= ks_ < N // 2 and -N // 2 <= ls_ < N // 2:
                        out[ks_ % N, ls_ % N] += cf[i1, j1] * cg[i2, j2]
    return out


def test_product_matches_direct_convolution():
    g = make_grid(2, 16)
    rng = np.random.default_rng(8)
    k = np.abs(np.fft.fftfreq(g.N, 1.0 / g.N))
    # band-limit to |k| < N/6 so the 2/3-rule product is alias-free
    mask = (k[:, None] < g.N / 6) & (k[None, :] < g.N / 6)

    def band_limited():
        whole = np.fft.fftn(rng.standard_normal(g.shape)) / g.N**2 * mask
        return whole, forward_transform(np.fft.ifftn(whole * g.N**2).real, g)

    (cf, f), (ch, h) = band_limited(), band_limited()
    prod = product_dealiased(f, h)
    exact = _direct_convolution(cf, ch)[:, : g.N // 2 + 1]
    assert np.max(np.abs(prod.coeffs - exact)) <= 1e-12


def test_product_symmetric_bilinear():
    g = make_grid(2, 16)
    rng = np.random.default_rng(6)
    f = forward_transform(rng.standard_normal(g.shape), g)
    h = forward_transform(rng.standard_normal(g.shape), g)
    w = forward_transform(rng.standard_normal(g.shape), g)
    ab = product_dealiased(f, h)
    ba = product_dealiased(h, f)
    assert np.max(np.abs(ab.coeffs - ba.coeffs)) == 0.0
    lin = product_dealiased(f + 2.0 * w, h)
    split = product_dealiased(f, h) + 2.0 * product_dealiased(w, h)
    assert np.max(np.abs(lin.coeffs - split.coeffs)) <= 1e-12


def test_product_grid_mismatch():
    with pytest.raises(SpectralError):
        product_dealiased(zeros(make_grid(2, 16)), zeros(make_grid(2, 32)))


def test_gradient_divergence_roundtrip():
    g = make_grid(2, 16)
    rng = np.random.default_rng(12)
    # dealiased field: no Nyquist content, so div(grad f) = Lap f exactly
    f = dealias(forward_transform(rng.standard_normal(g.shape), g))
    gr = gradient(f)
    assert gr.is_vector and gr.ncomp == 2
    div = divergence(gr)
    lap = laplacian(f)
    assert np.max(np.abs(div.coeffs - lap.coeffs)) <= 1e-12


def test_lp_norm_of_one():
    g = make_grid(2, 16)
    one = forward_transform(np.ones(g.shape), g)
    for p in (1, 2, 4, math.inf):
        assert lp_norm(one, p) == pytest.approx(1.0, abs=1e-13)


def _lp_norm_oracle(samples, p):
    """``(mean |s|^p)^(1/p)`` summed in log space, so no power leaves the
    float range."""
    logs = p * np.log(np.abs(samples).ravel())
    top = np.max(logs)
    return math.exp((top + math.log(np.sum(np.exp(logs - top))) - math.log(logs.size)) / p)


@pytest.mark.parametrize("amp, p, vector", [
    pytest.param(amp, p, vector, id=f"{'vector-' * vector}{amp}-{p}")
    for amp, p, vector in [(amp, p, False) for amp in (1e-3, 1e3)
                           for p in (120.0, 400.0, 1e300)]
    + [(1e-160, 2.0, False)]
    + [(amp, p, True) for amp in (1e-170, 1e160, 1e200) for p in (2.0, 4.0, math.inf)]])
def test_lp_norm_stays_exact_where_the_powers_leave_the_float_range(amp, p, vector):
    # (1e-3)^120 and (1e-160)^2 underflow, (1e3)^120 overflows; a vector's
    # squared magnitude underflows at 1e-170 and overflows at 1e160 and 1e200
    g = make_grid(2, 16)
    x, _ = g.meshes()
    samples = amp * np.cos(x) + np.zeros(g.shape)
    f = forward_transform(np.stack([samples, np.zeros(g.shape)]) if vector else samples, g)
    # the overflowing square of the magnitude warns, as bcns.main silences
    with warnings.catch_warnings(), np.errstate(over="ignore" if vector else "warn"):
        warnings.simplefilter("error")
        got = lp_norm(f, p)
    want = np.max(np.abs(samples)) if math.isinf(p) else _lp_norm_oracle(samples, p)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    # ||cos x||_p: 2^-1/2 at p = 2, 1 at p = inf (the transforms' roundoff above)
    assert 0.7 * amp < got <= amp * (1 + 1e-15)


@pytest.mark.parametrize("vector", [False, True])
def test_transforms_are_bitwise_the_real_transforms_in_2d(vector):
    g = make_grid(2, 16)
    rng = np.random.default_rng(13)
    shape = (2,) + g.shape if vector else g.shape
    s = rng.standard_normal(shape)
    f = forward_transform(s, g)
    assert f.coeffs.shape == shape[:-1] + (g.N // 2 + 1,)
    assert np.array_equal(f.coeffs, np.fft.rfftn(s, axes=(-2, -1), norm="forward"))
    c = rng.standard_normal(f.coeffs.shape) + 1j * rng.standard_normal(f.coeffs.shape)
    want = np.fft.irfftn(c, s=g.shape, axes=(-2, -1), norm="forward")
    assert np.array_equal(inverse_transform(SpectralField(g, c)), want)


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
def test_field_rejects_the_whole_lattice_shape(d, N):
    g = make_grid(d, N)
    for shape in (g.shape, (d,) + g.shape, g.spectral_shape[:-1] + (N // 2,)):
        with pytest.raises(SpectralError, match="half spectrum"):
            SpectralField(g, np.zeros(shape, dtype=complex))
    assert zeros(g, vector=True).coeffs.shape == (d,) + g.spectral_shape
