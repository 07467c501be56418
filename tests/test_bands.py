import math

import numpy as np
import pytest

from bcns.bands import (
    BesovIndex,
    band_lp_norms,
    band_table,
    besov_norm,
    besov_sum,
    build_partition,
    chemin_lerner_norm,
    chi_profile,
    dyadic_block,
    low_cutoff,
    phi_profile,
    split_low_high,
)
from bcns.spectral import (
    SpectralError,
    SpectralField,
    forward_transform,
    lp_norm,
    make_grid,
)


def _rand(grid, seed):
    rng = np.random.default_rng(seed)
    return forward_transform(rng.standard_normal(grid.shape), grid)


@pytest.mark.parametrize("d,N,ncomp", [(2, 16, 0), (2, 16, 2), (3, 8, 0),
                                      (3, 8, 3)])
def test_band_table_rows_equal_band_lp_norms(d, N, ncomp, monkeypatch):
    # random half spectra, not Hermitian on the k_d = 0 and N/2 columns: the
    # p = 2 rows must read those columns as the inverse transform does
    g = make_grid(d, N)
    b = build_partition(g)
    rng = np.random.default_rng(d * N + ncomp)
    shape = ((ncomp,) if ncomp else ()) + g.spectral_shape
    fields = [SpectralField(g, rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape)) for _ in range(3)]
    ps = (1.0, 2.0, 3.0, math.inf)
    want = {p: [band_lp_norms(f, p, b) for f in fields] for p in ps}
    got = {p: band_table(iter(fields), p, b) for p in ps}
    for p in ps:
        assert got[p].shape == (len(fields), len(b.j_range))
        np.testing.assert_allclose(got[p], want[p], rtol=1e-13, atol=0)

    def no_transform(*args):
        raise AssertionError("lp_norm called")

    monkeypatch.setattr("bcns.bands.lp_norm", no_transform)
    np.testing.assert_array_equal(band_table(fields, 2.0, b), got[2.0])


@pytest.mark.parametrize("d,N", [(2, 16), (2, 32), (2, 64), (3, 16), (3, 32)])
def test_partition_of_unity(d, N):
    g = make_grid(d, N)
    b = build_partition(g)
    total = sum(b.phi_mult[j] for j in b.j_range)
    nz = g.kmag > 0
    assert np.max(np.abs(total[nz] - 1.0)) <= 1e-12
    # the range is exactly the bands that meet the lattice: each has a
    # nonzero mode, and the bands just outside vanish on the whole grid (so
    # clamping the remainder's neighbour bands to the range stays exact)
    assert all(np.any(b.phi_mult[j] != 0.0) for j in b.j_range)
    for j in (b.j_min - 1, b.j_max + 1):
        assert not np.any(phi_profile(g.kmag / 2.0**j))


def test_profile_supports():
    rho = np.linspace(0, 10, 2001)
    chi = chi_profile(rho)
    phi = phi_profile(rho)
    assert np.all(chi[rho <= 0.75] == 1.0)
    assert np.all(chi[rho >= 4.0 / 3.0] == 0.0)
    assert np.all(phi[rho < 0.75] == 0.0)
    assert np.all(phi[rho > 8.0 / 3.0] == 0.0)
    assert chi_profile(np.array(0.0)) == 1.0
    assert phi_profile(np.array(0.0)) == 0.0


def test_partition_at_unit_radius():
    # direct summation over j at |k| = 1: only j in {-1, 0} contribute
    js = range(-5, 8)
    vals = {j: float(phi_profile(np.array(2.0**-j))) for j in js}
    contributing = [j for j, v in vals.items() if v > 0]
    assert contributing == [-1, 0]
    assert sum(vals.values()) == pytest.approx(1.0, abs=1e-12)


def test_dyadic_block_cos():
    g = make_grid(2, 16)
    b = build_partition(g)
    x, _ = g.meshes()
    f = forward_transform(np.cos(x) + np.zeros(g.shape), g)
    nonzero = [j for j in b.j_range if lp_norm(dyadic_block(f, j, b), 2) > 1e-14]
    assert nonzero == [-1, 0]
    total = dyadic_block(f, -1, b) + dyadic_block(f, 0, b)
    assert np.max(np.abs(total.coeffs - f.coeffs)) <= 1e-12


def test_dyadic_block_kills_constants():
    g = make_grid(2, 16)
    b = build_partition(g)
    const = forward_transform(np.full(g.shape, 2.5), g)
    for j in b.j_range:
        assert lp_norm(dyadic_block(const, j, b), 2) <= 1e-14


def test_dyadic_block_range_check():
    g = make_grid(2, 16)
    b = build_partition(g)
    with pytest.raises(SpectralError):
        dyadic_block(_rand(g, 0), b.j_max + 1, b)


def test_blocks_telescope_to_mean_free_field():
    g = make_grid(2, 32)
    b = build_partition(g)
    f = _rand(g, 3)
    total = sum(dyadic_block(f, j, b).coeffs for j in b.j_range)
    expect = f.coeffs.copy()
    expect[0, 0] = 0.0
    assert np.max(np.abs(total - expect)) <= 1e-12


def test_low_cutoff_limits():
    g = make_grid(2, 16)
    b = build_partition(g)
    f = _rand(g, 4)
    allin = low_cutoff(f, b.j_max + 2, b)
    assert np.max(np.abs(allin.coeffs - f.coeffs)) <= 1e-13
    onlymean = low_cutoff(f, b.j_min - 2, b)
    expect = np.zeros_like(f.coeffs)
    expect[0, 0] = f.coeffs[0, 0]
    assert np.max(np.abs(onlymean.coeffs - expect)) <= 1e-13


def test_cutoff_difference_is_block():
    g = make_grid(2, 32)
    b = build_partition(g)
    f = _rand(g, 5)
    for j in (-1, 1, 3):
        diff = low_cutoff(f, j + 1, b) - low_cutoff(f, j, b)
        blk = dyadic_block(f, j, b)
        assert np.max(np.abs(diff.coeffs - blk.coeffs)) <= 1e-12


def test_besov_zero_field():
    g = make_grid(2, 16)
    b = build_partition(g)
    z = SpectralField(g, np.zeros(g.spectral_shape, dtype=complex))
    assert besov_norm(z, BesovIndex(0.5, 2, 1), b) == 0.0


def test_besov_cos_against_shell_oracle():
    g = make_grid(2, 16)
    b = build_partition(g)
    x, _ = g.meshes()
    f = forward_transform(np.cos(x) + np.zeros(g.shape), g)
    # brute force: per-shell l2 sums straight from the coefficients
    expected = 0.0
    for j in b.j_range:
        shell = b.phi_mult[j] * f.coeffs
        expected += 2.0 ** (0.0 * j) * math.sqrt(np.sum(np.abs(shell) ** 2))
    got = besov_norm(f, BesovIndex(0.0, 2, 1), b)
    assert got == pytest.approx(expected, rel=1e-12)
    # closed form: phi(2) * 2^-1/2 + phi(1) * 2^-1/2 = 2^-1/2
    assert got == pytest.approx(2.0**-0.5, rel=1e-12)


def test_besov_dilation_band_shift():
    # On the torus the mean-value L^p norm is dilation invariant, so the
    # doubling map shifts every band up by one and scales the norm by 2^s.
    g = make_grid(2, 64)
    b = build_partition(g)
    rng = np.random.default_rng(9)
    f = forward_transform(rng.standard_normal(g.shape), g)
    mask = (g.kmag >= 1) & (g.kmag < 8)
    f = SpectralField(g, f.coeffs * mask)
    coeffs2 = np.zeros_like(f.coeffs)
    ks = np.fft.fftfreq(g.N, 1.0 / g.N).astype(int)
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks[:g.N // 2 + 1]):  # the stored half: k2 >= 0 here
            if f.coeffs[i, j] != 0:
                coeffs2[(2 * k1) % g.N, 2 * k2] = f.coeffs[i, j]
    f2 = SpectralField(g, coeffs2)  # f(2x)
    for s, p in ((0.5, 2.0), (1.0, 2.0), (0.5, 4.0)):
        idx = BesovIndex(s, p, 1)
        ratio = besov_norm(f2, idx, b) / besov_norm(f, idx, b)
        assert ratio == pytest.approx(2.0**s, rel=1e-10)


def test_split_low_high_cases():
    g = make_grid(2, 16)
    b = build_partition(g)
    f = _rand(g, 6)
    meanfree = f.coeffs.copy()
    meanfree[0, 0] = 0.0

    lo, hi = split_low_high(f, 2.0 ** (-b.j_max - 2), b)
    assert np.max(np.abs(hi.coeffs)) <= 1e-13
    assert np.max(np.abs(lo.coeffs - meanfree)) <= 1e-12

    lo, hi = split_low_high(f, 2.0 ** (-b.j_min + 1), b)
    assert np.max(np.abs(lo.coeffs)) <= 1e-13
    assert np.max(np.abs(hi.coeffs - meanfree)) <= 1e-12


def test_split_band_membership():
    g = make_grid(2, 16)
    b = build_partition(g)
    x, _ = g.meshes()
    f = forward_transform(np.cos(4 * x) + np.zeros(g.shape), g)
    lo, hi = split_low_high(f, 8.0, b)
    assert lp_norm(lo, 2) <= 1e-14
    assert np.max(np.abs(hi.coeffs - f.coeffs)) <= 1e-12


def test_split_rejects_bad_nu():
    g = make_grid(2, 16)
    b = build_partition(g)
    with pytest.raises(SpectralError):
        split_low_high(_rand(g, 0), 0.0, b)


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
def test_besov_sum_weights_a_stack_row_by_row(r):
    g = make_grid(2, 16)
    b = build_partition(g)
    idx = BesovIndex(0.75, 2, r)
    table = np.array([band_lp_norms(_rand(g, seed), 2, b) for seed in range(5)])
    got = besov_sum(table, idx, b)
    assert isinstance(got, np.ndarray) and got.shape == (5,)
    rows = [besov_sum(row, idx, b) for row in table]
    assert all(type(v) is float for v in rows)
    assert np.array_equal(got, rows)


def test_chemin_lerner_constant_field():
    g = make_grid(2, 16)
    b = build_partition(g)
    f = _rand(g, 7)
    idx = BesovIndex(0.5, 2, 1)
    times = [0.0, 0.5, 1.0, 1.5]
    fields = [f, f, f, f]
    base = besov_norm(f, idx, b)
    assert chemin_lerner_norm(times, fields, math.inf, idx, b) == pytest.approx(
        base, rel=1e-12)
    assert chemin_lerner_norm(times, fields, 1.0, idx, b) == pytest.approx(
        1.5 * base, rel=1e-12)


@pytest.mark.parametrize("idx", [BesovIndex(0.5, 2, 1), BesovIndex(-1.0, 4, 2),
                                 BesovIndex(1.5, 2, math.inf)])
def test_chemin_lerner_sup_of_one_snapshot_is_besov_norm(idx):
    # both norms weight their band table with the same l^r sum, so the sup
    # over one repeated snapshot is the Besov norm to the last bit
    g = make_grid(2, 16)
    b = build_partition(g)
    f = _rand(g, 12)
    got = chemin_lerner_norm([0.0, 0.5, 1.0], [f, f, f], math.inf, idx, b)
    assert got == besov_norm(f, idx, b)
    terms = np.array([2.0 ** (idx.s * j) * lp_norm(dyadic_block(f, j, b), idx.p)
                      for j in b.j_range])
    want = np.max(terms) if math.isinf(idx.r) else np.sum(terms**idx.r) ** (1 / idx.r)
    assert got == pytest.approx(want, rel=1e-12)


def test_chemin_lerner_two_snapshot_trapezoid():
    g = make_grid(2, 16)
    b = build_partition(g)
    f0, f1 = _rand(g, 8), _rand(g, 9)
    idx = BesovIndex(0.25, 2, 1)
    times = [0.0, 0.4]
    got = chemin_lerner_norm(times, [f0, f1], 1.0, idx, b)
    expected = 0.0
    for j in b.j_range:
        n0 = lp_norm(dyadic_block(f0, j, b), 2)
        n1 = lp_norm(dyadic_block(f1, j, b), 2)
        expected += 2.0 ** (0.25 * j) * 0.5 * 0.4 * (n0 + n1)
    assert got == pytest.approx(expected, rel=1e-12)


def test_chemin_lerner_needs_two_snapshots():
    g = make_grid(2, 16)
    b = build_partition(g)
    with pytest.raises(SpectralError):
        chemin_lerner_norm([0.0], [_rand(g, 0)], 1.0, BesovIndex(0, 2, 1), b)


def test_chemin_lerner_dominates_time_lebesgue():
    # Minkowski: the time-Lebesgue norm of the Besov norm is below the
    # band-first (tilde) norm for r = 1
    g = make_grid(2, 16)
    b = build_partition(g)
    idx = BesovIndex(0.5, 2, 1)
    fields = [_rand(g, 10 + i) for i in range(5)]
    times = np.linspace(0.0, 1.0, 5)
    plain = np.trapezoid([besov_norm(f, idx, b) for f in fields], times)
    tilde = chemin_lerner_norm(times, fields, 1.0, idx, b)
    assert plain <= tilde + 1e-12


def test_interpolation_inequality():
    g = make_grid(2, 32)
    b = build_partition(g)
    rng = np.random.default_rng(13)
    for trial in range(50):
        f = forward_transform(rng.standard_normal(g.shape), g)
        for (s1, s2) in ((0.25, 1.0), (0.5, 1.5)):
            for theta in (0.25, 0.5, 0.75):
                s = theta * s1 + (1 - theta) * s2
                left = besov_norm(f, BesovIndex(s, 2, 1), b)
                right = (besov_norm(f, BesovIndex(s1, 2, 1), b) ** theta
                         * besov_norm(f, BesovIndex(s2, 2, 1), b) ** (1 - theta))
                assert left <= right + 1e-10


def test_embedding_constant_stable():
    # B^s_{p1,1} -> B^{s - d(1/p1 - 1/p2)}_{p2,1}: measured constant within
    # 10% across grid sizes
    from bcns.lemmas import random_field

    s, p1, p2 = 1.0, 2.0, 4.0
    maxima = {}
    for N in (16, 32, 64):
        g = make_grid(2, N)
        b = build_partition(g)
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(40):
            f = random_field(g, rng, decay=3.0)
            target = s - 2.0 * (1.0 / p1 - 1.0 / p2)
            num = besov_norm(f, BesovIndex(target, p2, 1), b)
            den = besov_norm(f, BesovIndex(s, p1, 1), b)
            ratios.append(num / den)
        maxima[N] = max(ratios)
    ref = maxima[64]
    assert all(abs(v - ref) <= 0.10 * ref for v in maxima.values())
