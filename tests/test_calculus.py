import numpy as np
import pytest

from bcns.bands import (
    BesovIndex,
    besov_norm,
    build_partition,
    dyadic_block,
    low_cutoff,
)
from bcns.calculus import (
    advect,
    bony_mean_correction,
    commutator_transport,
    compressible_project,
    leray_project,
    paraproduct,
    remainder,
)
from bcns.spectral import (
    SpectralError,
    SpectralField,
    curl,
    dealias,
    derivative,
    divergence,
    forward_transform,
    gradient,
    inverse_transform,
    lp_norm,
    make_grid,
    product_dealiased,
    zeros,
)


def _rand_vec(grid, seed):
    rng = np.random.default_rng(seed)
    return dealias(forward_transform(
        rng.standard_normal((grid.d,) + grid.shape), grid))


def _rand_scal(grid, seed):
    rng = np.random.default_rng(seed)
    return dealias(forward_transform(rng.standard_normal(grid.shape), grid))


def _band_limited(grid, seed, frac=6.0):
    rng = np.random.default_rng(seed)
    f = forward_transform(rng.standard_normal(grid.shape), grid)
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for ax in range(grid.d):
        mask &= np.abs(grid.k[ax]) < grid.N / frac
    return SpectralField(grid, f.coeffs * mask)


def test_leray_annihilates_gradients():
    g = make_grid(2, 16)
    f = _rand_scal(g, 0)
    out = leray_project(gradient(f))
    assert lp_norm(out, 2) <= 1e-12 * lp_norm(gradient(f), 2)


def test_leray_keeps_divergence_free():
    g = make_grid(2, 16)
    psi = _rand_scal(g, 1)
    v = SpectralField(g, np.stack([(-1) * gradient(psi).coeffs[1],
                                   gradient(psi).coeffs[0]]))
    out = leray_project(v)
    assert np.max(np.abs(out.coeffs - v.coeffs)) <= 1e-12


def test_projector_algebra():
    g = make_grid(2, 32)
    rng = np.random.default_rng(2)
    for seed in range(100):
        v = forward_transform(rng.standard_normal((2,) + g.shape), g)
        p = leray_project(v)
        q = compressible_project(v)
        scale = max(lp_norm(v, 2), 1e-300)
        assert np.max(np.abs((p + q).coeffs - v.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(leray_project(p).coeffs - p.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(compressible_project(q).coeffs - q.coeffs)) \
            <= 1e-12 * scale
        assert lp_norm(compressible_project(p), 2) <= 1e-12 * scale
        assert lp_norm(leray_project(q), 2) <= 1e-12 * scale


def test_div_p_and_curl_q_vanish():
    g = make_grid(2, 16)
    g3 = make_grid(3, 8)
    for grid in (g, g3):
        v = _rand_vec(grid, 3)
        scale = lp_norm(v, 2)
        assert lp_norm(divergence(leray_project(v)), 2) <= 1e-12 * scale
        assert lp_norm(curl(compressible_project(v)), 2) <= 1e-12 * scale


def test_compressible_project_zero_mode():
    g = make_grid(2, 16)
    v = forward_transform(np.stack([np.ones(g.shape), 2 * np.ones(g.shape)]), g)
    q = compressible_project(v)
    assert lp_norm(q, 2) <= 1e-14
    p = leray_project(v)
    assert np.max(np.abs(p.coeffs - v.coeffs)) <= 1e-14


def test_projectors_reject_scalars():
    g = make_grid(2, 16)
    with pytest.raises(SpectralError):
        leray_project(_rand_scal(g, 0))
    with pytest.raises(SpectralError):
        compressible_project(_rand_scal(g, 0))


def test_paraproduct_constant_first_argument():
    # mean-free low cutoffs: a constant first factor contributes nothing
    g = make_grid(2, 16)
    b = build_partition(g)
    const = forward_transform(np.full(g.shape, 3.0), g)
    v = dealias(_rand_scal(g, 5))
    out = paraproduct(const, v, b)
    assert lp_norm(out, 2) <= 1e-13
    # the constant's contribution is carried by the mean-correction term
    corr = bony_mean_correction(const, v)
    total = out + paraproduct(v, const, b) + remainder(const, v, b) + corr
    prod = product_dealiased(const, v)
    assert np.max(np.abs(total.coeffs - prod.coeffs)) <= 1e-12


def test_paraproduct_constant_second_argument():
    g = make_grid(2, 16)
    b = build_partition(g)
    const = forward_transform(np.full(g.shape, 2.0), g)
    u = _rand_scal(g, 6)
    assert lp_norm(paraproduct(u, const, b), 2) <= 1e-13


def test_bony_reconstruction_exact():
    g = make_grid(2, 32)
    b = build_partition(g)
    for seed in range(5):
        u = _band_limited(g, 10 + seed)
        v = _band_limited(g, 20 + seed)
        total = (paraproduct(u, v, b) + paraproduct(v, u, b)
                 + remainder(u, v, b) + bony_mean_correction(u, v))
        prod = product_dealiased(u, v)
        scale = max(lp_norm(prod, 2), 1e-300)
        assert np.max(np.abs(total.coeffs - prod.coeffs)) <= 1e-10 * scale


def test_remainder_symmetric():
    for d, N in ((2, 16), (3, 8)):
        g = make_grid(d, N)
        b = build_partition(g)
        scal, vec = (_rand_scal(g, 30), _rand_scal(g, 31)), (_rand_vec(g, 32),
                                                            _rand_vec(g, 33))
        for u, v in (scal, vec, (scal[0], vec[0])):
            r1 = remainder(u, v, b)
            r2 = remainder(v, u, b)
            assert np.max(np.abs(r1.coeffs - r2.coeffs)) == 0.0


def test_commutator_constant_velocity():
    g = make_grid(2, 16)
    b = build_partition(g)
    u = forward_transform(np.stack([np.full(g.shape, 1.5),
                                    np.full(g.shape, -0.5)]), g)
    v = _rand_scal(g, 7)
    comms = commutator_transport(u, v, b)
    for j in (0, 2):
        assert lp_norm(comms[j - b.j_min], 2) <= 1e-12 * lp_norm(v, 2)


def test_commutator_constant_scalar():
    g = make_grid(2, 16)
    b = build_partition(g)
    u = _rand_vec(g, 8)
    v = forward_transform(np.full(g.shape, 4.0), g)
    comms = commutator_transport(u, v, b)
    for j in (0, 2):
        assert lp_norm(comms[j - b.j_min], 2) <= 1e-13


def test_commutator_lemma_ratio_bounded():
    from bcns.lemmas import gradient_norm_field, random_field

    s = 0.5
    maxima = {}
    for N in (16, 32):
        g = make_grid(2, N)
        b = build_partition(g)
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(15):
            u = random_field(g, rng, decay=3.25, vector=True)
            v = random_field(g, rng, decay=2.0)
            den = (besov_norm(gradient_norm_field(u), BesovIndex(1.0, 2, 1), b)
                   * besov_norm(v, BesovIndex(s, 2, 1), b))
            total = sum(
                2.0**(j * s) * lp_norm(c, 2)
                for j, c in zip(b.j_range, commutator_transport(u, v, b)))
            ratios.append(total / den)
        maxima[N] = max(ratios)
    assert maxima[32] <= 1.3 * maxima[16] + 1e-12


def test_product_law_constant_stable():
    # ||uv||_{B^{s1+s2-d/q}_{p,1}} / (||u||_{B^{s1}_{q,1}} ||v||_{B^{s2}_{p,1}})
    # at (d,p,q,s1,s2) = (2,2,2,1,0.5): recorded constant stable within 20%
    from bcns.lemmas import random_field

    maxima = {}
    for N in (16, 32, 64):
        g = make_grid(2, N)
        b = build_partition(g)
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(100):
            u = random_field(g, rng, decay=3.0)
            v = random_field(g, rng, decay=3.0)
            num = besov_norm(product_dealiased(u, v), BesovIndex(0.5, 2, 1), b)
            den = (besov_norm(u, BesovIndex(1.0, 2, 1), b)
                   * besov_norm(v, BesovIndex(0.5, 2, 1), b))
            ratios.append(num / den)
        maxima[N] = max(ratios)
    ref = maxima[64]
    assert all(abs(v - ref) <= 0.20 * ref for v in maxima.values())


def test_advect_matches_direct_form():
    g = make_grid(2, 16)
    u = _band_limited(g, 40)
    vec = SpectralField(g, np.stack([u.coeffs, (-2.0) * u.coeffs]))
    f = _band_limited(g, 41)
    out = advect(vec, f)
    from bcns.spectral import derivative

    direct = (product_dealiased(SpectralField(g, vec.coeffs[0]), derivative(f, 0))
              + product_dealiased(SpectralField(g, vec.coeffs[1]),
                                  derivative(f, 1)))
    assert np.max(np.abs(out.coeffs - direct.coeffs)) <= 1e-13


# Reference chain of products, each formed on its own: dealias both factors,
# invert, multiply, transform back, dealias.
def _chain_product(f, g):
    fs, gs = inverse_transform(dealias(f)), inverse_transform(dealias(g))
    return dealias(forward_transform(fs * gs, f.grid))


def _chain_sum(pairs):
    out = None
    for f, g in pairs:
        p = _chain_product(f, g)
        out = p if out is None else out + p
    return out


def _chain_paraproduct(u, v, b):
    nonzero = u.grid.k2 > 0  # mean-free low cutoffs
    return _chain_sum([(SpectralField(u.grid, low_cutoff(u, j - 1, b).coeffs * nonzero),
                        dyadic_block(v, j, b)) for j in b.j_range])


def _chain_remainder(u, v, b):
    return _chain_sum([(dyadic_block(u, j, b), dyadic_block(v, i, b))
                       for j in b.j_range for i in (j - 1, j, j + 1)
                       if b.j_min <= i <= b.j_max])


def _chain_advect(u, f):
    return _chain_sum([(SpectralField(u.grid, u.coeffs[ax]), derivative(f, ax))
                       for ax in range(u.grid.d)])


def _raw_field(grid, seed, vector):
    # real samples: content outside the 2/3 box and on the Nyquist planes
    rng = np.random.default_rng(seed)
    return forward_transform(rng.standard_normal((grid.d,) * vector + grid.shape),
                             grid)


def _assert_close(got, want):
    assert got.coeffs.shape == want.coeffs.shape
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * np.max(
        np.abs(want.coeffs))


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
@pytest.mark.parametrize("ranks", ["ss", "sv", "vs", "vv"])
def test_bony_sums_match_the_product_chain(d, N, ranks):
    g = make_grid(d, N)
    b = build_partition(g)
    u, v = (_raw_field(g, 50 + i, r == "v") for i, r in enumerate(ranks))
    _assert_close(product_dealiased(u, v), _chain_product(u, v))
    _assert_close(paraproduct(u, v, b), _chain_paraproduct(u, v, b))
    _assert_close(remainder(u, v, b), _chain_remainder(u, v, b))


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
@pytest.mark.parametrize("vector", [False, True])
def test_transport_sums_match_the_product_chain(d, N, vector):
    g = make_grid(d, N)
    b = build_partition(g)
    u, f = _raw_field(g, 60, True), _raw_field(g, 61, vector)
    _assert_close(advect(u, f), _chain_advect(u, f))
    uf = _chain_advect(u, f)
    for j, got in zip(b.j_range, commutator_transport(u, f, b)):
        want = _chain_advect(u, dyadic_block(f, j, b)) - dyadic_block(uf, j, b)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * np.max(
            np.abs(uf.coeffs))


def test_every_product_entry_point_rejects_mixed_grids():
    g, h = make_grid(2, 16), make_grid(2, 32)
    b = build_partition(g)
    u, v = _rand_vec(g, 70), _rand_scal(h, 71)
    calls = [lambda: product_dealiased(u, v), lambda: product_dealiased(v, u),
             lambda: paraproduct(u, v, b), lambda: paraproduct(v, u, b),
             lambda: remainder(u, v, b), lambda: remainder(v, u, b),
             lambda: advect(u, v), lambda: commutator_transport(u, v, b)]
    for call in calls:
        with pytest.raises(SpectralError):
            call()
