import math

import numpy as np
import pytest

from bcns.bands import BesovIndex, besov_norm, build_partition
from bcns.lemmas import (
    _besov,
    check_bernstein,
    check_commutators,
    check_composition,
    check_heat_regularity,
    check_oscillatory_scaling,
    check_product_laws,
    oscillatory_data,
    random_field,
)
from bcns.spectral import (
    SpectralError,
    forward_transform,
    inverse_transform,
    lp_norm,
    make_grid,
)


def test_random_field_seeded_and_mean_free():
    g = make_grid(2, 16)
    f1 = random_field(g, np.random.default_rng(42))
    f2 = random_field(g, np.random.default_rng(42))
    assert np.array_equal(f1.coeffs, f2.coeffs)
    assert abs(f1.mean()) <= 1e-15
    # a real field: the stored columns are a fixed point of the transforms
    back = forward_transform(inverse_transform(f1), g)
    assert np.max(np.abs(back.coeffs - f1.coeffs)) <= 1e-13
    nyquist, scale = g.N // 2, np.max(np.abs(f1.coeffs))  # no Nyquist content
    assert np.max(np.abs(f1.coeffs[nyquist])) <= 1e-15 * scale
    assert np.max(np.abs(f1.coeffs[:, nyquist])) <= 1e-15 * scale


# every Besov index the suite measures in
SUITE_INDICES = [BesovIndex(s, 2, 1) for s in (0.0, 0.5, 1.0)] + [
    BesovIndex(-0.25, 2, math.inf), BesovIndex(1.5, 1, 1),
    BesovIndex(-0.5, 1, math.inf), BesovIndex(-0.5, 4, 1)]


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("N", [16, 32, 64])
def test_suite_besov_norms_are_besov_norm(N, vector):
    # by Parseval at p = 2, to roundoff; band by band at p = 1 and 4, the same
    # bits; a zero field reads exactly 0 (composition's gamma = 1 verdict)
    g = make_grid(2, N)
    b = build_partition(g)
    f = random_field(g, np.random.default_rng(N), vector=vector)
    for idx in SUITE_INDICES:
        want = besov_norm(f, idx, b)
        if idx.p == 2:
            assert _besov(f, idx, b) == pytest.approx(want, rel=1e-13, abs=0)
        else:
            assert _besov(f, idx, b) == want
        assert _besov(f * 0.0, idx, b) == 0.0


def test_bernstein_annulus_exact_and_stable():
    reports = {r.lemma: r for r in check_bernstein(trials=30,
                                                   grid_sizes=(16, 32))}
    ann = reports["bernstein_annulus_l2"]
    assert ann.stable  # both exact shell bounds held on every trial
    assert ann.max_ratio <= 1.0 + 1e-12     # against the upper radius
    assert ann.median_ratio >= 1.0 - 1e-12  # against the lower radius
    assert reports["bernstein_ball_p2_qinf"].stable


def test_bernstein_needs_trials():
    with pytest.raises(SpectralError):
        check_bernstein(trials=3)


def test_product_laws_positive_bounded_negative_divergent():
    reports = {r.lemma: r for r in check_product_laws(trials=40)}
    assert reports["paraproduct_linf"].stable
    assert reports["remainder_positive"].stable
    assert reports["product_law"].stable
    neg = reports["remainder_negative"]
    assert neg.stable  # here "stable" records confirmed growth with N
    assert neg.median_ratio > 1.3  # growth factor from coarse to fine grid


def test_commutator_reports():
    reports = {r.lemma: r for r in check_commutators(trials=10,
                                                     grid_sizes=(16, 32))}
    assert set(reports) == {"commutator_transport", "commutator_multiplier",
                            "commutator_multiplier_divfree"}
    for r in reports.values():
        assert r.max_ratio > 0 and np.isfinite(r.max_ratio)
        assert r.stable


def test_refinement_without_a_measured_ratio_raises():
    with pytest.raises(SpectralError, match="ratio"):
        check_product_laws(trials=0)
    # nu = 4 leaves no low band, so the multiplier ratio is never measured
    with pytest.raises(SpectralError, match="multiplier"):
        check_commutators(trials=2, grid_sizes=(16,), nu=4.0)


def test_heat_regularity_mu_uniform():
    reports = check_heat_regularity(mu_values=(0.1, 1.0, 10.0), N=16)
    assert len(reports) == 2
    for r in reports:
        assert r.stable


def test_composition_special_cases():
    reports = {r.params: r for r in check_composition(trials=20,
                                                      grid_sizes=(16, 32))}
    assert reports["gamma=1.0,s=0.5"].max_ratio == 0.0
    assert reports["gamma=2.0,s=0.5"].max_ratio == pytest.approx(1.0, rel=1e-12)
    g14 = reports["gamma=1.4,s=0.5"]
    assert g14.stable and 0.0 < g14.max_ratio < 2.0


def test_composition_gammas_share_trials():
    # one pass over the trials gives each gamma the report of its own pass
    both = check_composition(trials=10, gammas=(1.0, 1.4, 2.0),
                             grid_sizes=(16, 32), seed=2)
    alone = check_composition(trials=10, gammas=(1.4,), grid_sizes=(16, 32),
                              seed=2)
    assert both[1] == alone[0]


def test_oscillatory_scaling_slopes():
    r2 = check_oscillatory_scaling(p=2.0)
    r4 = check_oscillatory_scaling(p=4.0)
    assert abs(r2.max_ratio - 0.0) <= 0.1
    assert abs(r4.max_ratio - 0.5) <= 0.1
    assert r2.stable and r4.stable


def test_oscillatory_data_validation():
    g = make_grid(2, 32)
    with pytest.raises(SpectralError):
        oscillatory_data(g, 0.3)  # 1/eps not an integer
    with pytest.raises(SpectralError):
        oscillatory_data(g, 1.0 / 64.0)  # beyond the lattice
    f = oscillatory_data(g, 0.25)
    assert lp_norm(f, 2) > 0


def test_oscillatory_baseline_eps_one():
    g = make_grid(2, 32)
    b = build_partition(g)
    f = oscillatory_data(g, 1.0)
    n = besov_norm(f, BesovIndex(0.0, 2, 1), b)
    assert 0.1 < n < 2.0


def test_reports_deterministic_for_seed():
    a = check_product_laws(trials=15, seed=5)
    b = check_product_laws(trials=15, seed=5)
    assert [(r.lemma, r.max_ratio, r.median_ratio, r.stable) for r in a] \
        == [(r.lemma, r.max_ratio, r.median_ratio, r.stable) for r in b]
    c = check_product_laws(trials=15, seed=6)
    changed = any(x.max_ratio != y.max_ratio for x, y in zip(a, c))
    assert changed
    assert [r.stable for r in a] == [r.stable for r in c]
