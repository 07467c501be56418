"""Empirical property checks for the harmonic-analysis estimates.

Each check measures the ratio of the two sides of an inequality on seeded
random fields and reports statistics; "pass" means the recorded constant is
stable across grid resolutions (the continuum constants are dimensionless
and grid-independent), never that a particular literal constant holds.
Documented negative cases are expected to diverge with resolution and are
reported with ``stable=False`` semantics inverted by the caller.

Random ensemble: i.i.d. complex Gaussian coefficients under an isotropic
power-law envelope, made real, mean-free, seeded.  The default
envelope exponent is ``d/2 + 1``; individual checks steepen it where needed
so that the right-hand-side norms stay finite as the grid is refined
(otherwise a ratio drift would merely measure the divergence of the
regularity assumption, not the inequality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bands import (
    BesovIndex,
    DyadicBands,
    besov_norm,
    build_partition,
    dyadic_block,
    low_cutoff,
    split_low_high,
)
from .calculus import (
    advect,
    commutator_transport,
    leray_project,
    paraproduct,
    remainder,
)
from .solvers import pressure_law, step_heat
from .spectral import (
    Grid,
    SpectralField,
    SpectralError,
    derivative,
    forward_transform,
    gradient,
    inverse_transform,
    lp_norm,
    make_grid,
    product_dealiased,
)


@dataclass
class LemmaReport:
    lemma: str
    params: str
    max_ratio: float
    median_ratio: float
    stable: bool


def random_field(grid: Grid, rng: np.random.Generator, decay: float | None = None,
                 vector: bool = False) -> SpectralField:
    """Seeded random real field with envelope ``|k|^-decay`` (default
    ``d/2 + 1``), zero mean, Nyquist planes excluded: the real part of the
    sample field of one complex normal per mode of the whole lattice."""
    if decay is None:
        decay = grid.d / 2.0 + 1.0
    shape = (grid.d,) + grid.shape if vector else grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples = np.fft.ifftn(raw * _envelope(grid, decay) * grid.N**grid.d,
                           axes=tuple(range(-grid.d, 0)))
    return forward_transform(samples.real, grid)


@lru_cache(maxsize=16)
def _envelope(grid: Grid, decay: float) -> np.ndarray:
    """``|k|^-decay`` on the whole lattice, zero at ``k = 0`` and on the
    Nyquist planes; read-only."""
    k = np.meshgrid(*[np.fft.fftfreq(grid.N, 1.0 / grid.N)] * grid.d,
                    indexing="ij", sparse=True)
    kmag = np.sqrt(sum(ki**2 for ki in k))
    kmag[(0,) * grid.d] = 1.0
    env = kmag**(-decay)
    env[(0,) * grid.d] = 0.0
    for ki in k:
        env = np.where(ki == -grid.N // 2, 0.0, env)
    env.flags.writeable = False
    return env


def _lacunary_pair(grid: Grid, rng: np.random.Generator, s1: float, s2: float):
    """Coherent lacunary fields u = sum_j 2^(-j s1) a_j cos(2^j x1) and
    v = sum_j 2^(-j s2) b_j cos((2^j + 1) x1) inside the dealias box; their
    remainder beats down to |k| = 1 coherently, the standard mechanism that
    breaks the remainder estimate at s1 + s2 < 0."""
    xs = grid.meshes()
    x1 = xs[0] + np.zeros(grid.shape)
    u = np.zeros(grid.shape)
    v = np.zeros(grid.shape)
    j = 1
    while 2**j + 1 < grid.N / 3.0:
        aj = 0.5 + rng.random()
        bj = 0.5 + rng.random()
        u += 2.0 ** (-j * s1) * aj * np.cos(2**j * x1)
        v += 2.0 ** (-j * s2) * bj * np.cos((2**j + 1) * x1)
        j += 1
    return forward_transform(u, grid), forward_transform(v, grid)


def _stability(vals_by_n: dict, tol: float) -> bool:
    ns = sorted(vals_by_n)
    ref = vals_by_n[ns[-1]]
    return all(abs(vals_by_n[n] - ref) <= tol * abs(ref) for n in ns)


def _refine(names, trial, trials: int, grid_sizes, seed: int) -> dict:
    """Run ``trials`` trials on each 2D grid of ``grid_sizes`` and return,
    for every ratio in ``names``, its maximum over the finite values on each
    grid: ``{name: {N: max}}``.

    Each grid gets its own partition and ``default_rng(seed)``, so every
    grid sees the same draw sequence.  ``trial(grid, bands, rng)`` returns
    the ratios it measured by name, leaving out those whose denominator
    vanished; a ratio with no finite value on some grid raises
    :class:`SpectralError`.
    """
    maxes = {name: {} for name in names}
    for N in grid_sizes:
        grid = make_grid(2, N)
        bands = build_partition(grid)
        rng = np.random.default_rng(seed)
        found = {name: [] for name in names}
        for _ in range(trials):
            for name, ratio in trial(grid, bands, rng).items():
                if math.isfinite(ratio):
                    found[name].append(ratio)
        for name, ratios in found.items():
            if not ratios:
                raise SpectralError(f"no trial measured the {name} ratio on the "
                                    f"N={N} grid ({trials} trials)")
            maxes[name][N] = max(ratios)
    return maxes


def _report(lemma: str, params: str, maxes: dict, tol: float) -> LemmaReport:
    """Report of per-grid maxima: the value on the finest grid, the median
    over the grids, and whether every grid lies within ``tol`` of the
    finest."""
    return LemmaReport(lemma, params, maxes[max(maxes)],
                       float(np.median(list(maxes.values()))),
                       _stability(maxes, tol))


def check_bernstein(trials: int = 100, grid_sizes=(16, 32, 64),
                    seed: int = 0) -> list:
    """Derivative bounds on frequency-localized fields.

    On a band (annulus support) the two-sided ``L^2`` bound holds with the
    exact shell radii ``[3/4 * 2^j, 8/3 * 2^j]`` by Parseval; the
    ball-supported ``L^p -> L^q`` bound is recorded as a stability check.
    """
    if trials < 10:
        raise SpectralError("check_bernstein needs at least 10 trials")
    annulus_ok = True
    worst_lo, worst_hi = math.inf, 0.0

    def trial(grid, bands, rng):
        nonlocal annulus_ok, worst_lo, worst_hi
        f = random_field(grid, rng)
        j = int(rng.integers(0, bands.j_max + 1))
        blk = dyadic_block(f, j, bands)
        n0 = lp_norm(blk, 2)
        if n0 < 1e-14:
            return {}
        r = lp_norm(gradient(blk), 2) / n0
        lo, hi = 0.75 * 2.0**j, (8.0 / 3.0) * 2.0**j
        worst_lo = min(worst_lo, r / lo)
        worst_hi = max(worst_hi, r / hi)
        if not (lo * (1 - 1e-12) <= r <= hi * (1 + 1e-12)):
            annulus_ok = False
        # ball case: low cutoff at j=2, L^2 -> L^inf
        g = low_cutoff(f, 2, bands)
        n2 = lp_norm(g, 2)
        if n2 <= 1e-14:
            return {}
        sigma = (4.0 / 3.0) * 2.0**2
        return {"ball": lp_norm(g, math.inf) / (sigma ** (grid.d / 2.0) * n2)}

    maxes = _refine(("ball",), trial, trials, grid_sizes, seed)
    return [LemmaReport("bernstein_annulus_l2", "d=2,exact[0.75,8/3]",
                        worst_hi, worst_lo, annulus_ok),
            _report("bernstein_ball_p2_qinf", f"d=2,j=2,N={tuple(grid_sizes)}",
                    maxes["ball"], 0.20)]


def check_product_laws(trials: int = 100, grid_sizes=(16, 32, 64),
                       seed: int = 0) -> list:
    """Paraproduct, remainder (positive and documented-negative index sums),
    and the full product law at (d,p,q,s1,s2) = (2,2,2,1,0.5)."""
    half, one = BesovIndex(0.5, 2, 1), BesovIndex(1.0, 2, 1)
    s1n, s2n = -0.25, -0.25

    def trial(grid, bands, rng):
        u = random_field(grid, rng, decay=3.0)
        v = random_field(grid, rng, decay=3.0)
        nv = besov_norm(v, half, bands)
        nu_inf = lp_norm(u, math.inf)
        den = besov_norm(u, one, bands) * nv
        ratios = {}
        if nv > 1e-14 and nu_inf > 1e-14:
            ratios["para"] = (besov_norm(paraproduct(u, v, bands), half, bands)
                              / (nu_inf * nv))
        if den > 1e-14:
            # remainder, s1 + s2 = 1.5 > 0, measured in B^{s1+s2}_{1,1}
            ratios["rem_pos"] = besov_norm(remainder(u, v, bands),
                                           BesovIndex(1.5, 1, 1), bands) / den
            # full product law (d,p,q,s1,s2) = (2,2,2,1,0.5)
            ratios["full"] = besov_norm(product_dealiased(u, v), half,
                                        bands) / den
        # documented negative case s1 + s2 = -0.5: coherent lacunary
        # pair whose comparable-frequency beats (2^j against 2^j + 1)
        # deposit coherently at |k| = 1
        un, vn = _lacunary_pair(grid, rng, s1n, s2n)
        denn = (besov_norm(un, BesovIndex(s1n, 2, math.inf), bands)
                * besov_norm(vn, BesovIndex(s2n, 2, math.inf), bands))
        if denn > 1e-14:
            ratios["rem_neg"] = besov_norm(
                remainder(un, vn, bands),
                BesovIndex(s1n + s2n, 1, math.inf), bands) / denn
        return ratios

    maxes = _refine(("para", "rem_pos", "rem_neg", "full"), trial, trials,
                    grid_sizes, seed)
    neg = maxes["rem_neg"]
    growth = neg[max(grid_sizes)] / neg[min(grid_sizes)]
    return [_report("paraproduct_linf", "d=2,s=0.5", maxes["para"], 0.25),
            _report("remainder_positive", "d=2,s1=1,s2=0.5", maxes["rem_pos"],
                    0.25),
            LemmaReport("remainder_negative", "d=2,s1=0.25,s2=-0.75",
                        neg[max(grid_sizes)], growth, growth > 1.3),
            _report("product_law", "d=2,p=q=2,s1=1,s2=0.5", maxes["full"],
                    0.25)]


def check_commutators(trials: int = 100, grid_sizes=(16, 32, 64),
                      seed: int = 0, nu: float = 1.0) -> list:
    """Transport commutator (band-weighted sum) and the zero-order-multiplier
    commutator with the Leray projection, including the divergence-free
    sharpening."""
    s = 0.5
    idx_s, one, zero = (BesovIndex(s, 2, 1), BesovIndex(1.0, 2, 1),
                        BesovIndex(0.0, 2, 1))

    def low_sum(f, bands):
        return sum(lp_norm(dyadic_block(f, j, bands), 2)
                   for j in bands.low_bands(nu))

    def trial(grid, bands, rng):
        u = random_field(grid, rng, decay=3.25, vector=True)
        v = random_field(grid, rng, decay=2.0)
        w = random_field(grid, rng, decay=2.0, vector=True)
        gu = gradient_norm_field(u)
        ratios = {}
        den = besov_norm(gu, one, bands) * besov_norm(v, idx_s, bands)
        if den > 1e-14:
            comms = commutator_transport(u, v, bands)
            total = sum(2.0**(j * s) * lp_norm(c, 2)
                        for j, c in zip(bands.j_range, comms))
            ratios["transport"] = total / den
        # zero-order multiplier commutator [P, u.grad] w on vectors, summed
        # over the low bands; each velocity transports w and Pw as one field
        nw = sum(besov_norm(part, zero, bands)
                 for part in split_low_high(w, nu, bands))
        w_Pw = SpectralField(grid, np.concatenate([w.coeffs, leray_project(w).coeffs]))

        def commutator(vel):
            uw, uPw = np.split(advect(vel, w_Pw).coeffs, 2)
            return leray_project(SpectralField(grid, uw)) - SpectralField(grid, uPw)

        acc = low_sum(commutator(u), bands)
        den_m = sum(besov_norm(part, one, bands)
                    for part in split_low_high(gu, nu, bands)) * nw
        if den_m > 1e-14 and acc > 0:
            ratios["multiplier"] = acc / den_m
        udiv = leray_project(u)
        acc2 = low_sum(commutator(udiv), bands)
        den2 = besov_norm(gradient_norm_field(udiv), one, bands) * nw
        if den2 > 1e-14 and acc2 > 0:
            ratios["divfree"] = acc2 / den2
        return ratios

    maxes = _refine(("transport", "multiplier", "divfree"), trial, trials,
                    grid_sizes, seed)
    return [_report("commutator_transport", f"d=2,s={s}", maxes["transport"],
                    0.25),
            _report("commutator_multiplier", f"d=2,nu={nu}",
                    maxes["multiplier"], 0.25),
            _report("commutator_multiplier_divfree", f"d=2,nu={nu}",
                    maxes["divfree"], 0.25)]


def gradient_norm_field(u: SpectralField) -> SpectralField:
    """Stack of all first derivatives of a (possibly vector) field, as one
    vector field whose pointwise magnitude is the Frobenius norm of the
    Jacobian."""
    grid = u.grid
    comps = []
    for c in (u.components() if u.is_vector else [u]):
        for ax in range(grid.d):
            comps.append(derivative(c, ax).coeffs)
    return SpectralField(grid, np.stack(comps))


def check_heat_regularity(mu_values=(0.1, 1.0, 10.0), N: int = 32,
                          seed: int = 0) -> list:
    """Maximal-regularity ratios of the forced heat flow for
    (q1, q2) in {(1,1), (inf,1)}, checked for uniformity across mu.

    The horizon scales diffusively (T = 4/mu) so the dissipation integrals
    saturate at every mu.  The q1 = 1 case mixes random data with constant
    forcing; the q1 = inf case starts from rest so both sides carry the
    forced response's mu-scaling.
    """
    from .bands import chemin_lerner_norm

    grid = make_grid(2, N)
    bands = build_partition(grid)
    tau = 0.0
    ratios_by_q = {(1.0, 1.0): {}, (math.inf, 1.0): {}}
    for q1 in (1.0, math.inf):
        for mu in mu_values:
            rng = np.random.default_rng(seed)
            u0 = random_field(grid, rng, decay=2.5)
            if math.isinf(q1):
                u0 = u0 * 0.0
            f = random_field(grid, rng, decay=2.5)
            T = 4.0 / mu
            steps = 256
            dt = T / steps
            times = [0.0]
            fields = [u0]
            u = u0
            for _ in range(steps):
                u = step_heat(u, mu, dt, forcing=(f, f))
                times.append(times[-1] + dt)
                fields.append(u)
            t_s = np.asarray(times)[::4]
            f_s = fields[::4]
            rhs = (besov_norm(u0, BesovIndex(tau, 2, 1), bands)
                   + T * besov_norm(f, BesovIndex(tau, 2, 1), bands))
            s_lhs = tau if math.isinf(q1) else tau + 2.0 / q1
            prefac = 1.0 if math.isinf(q1) else mu ** (1.0 / q1)
            lhs = prefac * chemin_lerner_norm(
                t_s, f_s, q1, BesovIndex(s_lhs, 2, 1), bands)
            ratios_by_q[(q1, 1.0)][mu] = lhs / rhs
    reports = []
    for (q1, q2), vals in ratios_by_q.items():
        arr = np.array(list(vals.values()))
        spread = float(np.max(arr) / np.min(arr))
        reports.append(LemmaReport(
            "heat_regularity",
            f"q1={'inf' if math.isinf(q1) else int(q1)},q2={int(q2)},tau=0",
            float(np.max(arr)), float(np.median(arr)),
            spread <= 5.0 / 3.0))
    return reports


def check_composition(trials: int = 100, gammas=(1.0, 1.4, 2.0),
                      grid_sizes=(16, 32, 64), seed: int = 0) -> list:
    """Composition bound for ``G(f) = (1+f)^(gamma-1) - 1`` at small
    ``||f||_inf`` (fields rescaled to sup 0.1); every gamma is measured on
    the same trials."""
    s = 0.5
    idx = BesovIndex(s, 2, 1)

    def trial(grid, bands, rng):
        f = random_field(grid, rng, decay=2.5)
        sup = lp_norm(f, math.inf)
        if sup < 1e-14:
            return {}
        f = f * (0.1 / sup)
        nf = besov_norm(f, idx, bands)
        if nf < 1e-14:
            return {}
        samples = inverse_transform(f)
        return {gamma: besov_norm(forward_transform(pressure_law(samples, gamma),
                                                    grid), idx, bands) / nf
                for gamma in gammas}

    maxes = _refine(gammas, trial, trials, grid_sizes, seed)
    reports = []
    for gamma in gammas:
        report = _report("composition", f"gamma={gamma},s={s}", maxes[gamma],
                         0.25)
        if gamma == 1.0:  # G vanishes identically: every ratio must be 0
            report = replace(report, stable=all(
                v == 0.0 for v in maxes[gamma].values()))
        reports.append(report)
    return reports


def oscillatory_data(grid: Grid, eps: float, kappa: float = 0.25) -> SpectralField:
    """``sin(x1/eps) * envelope(x)`` with a fixed smooth periodic bump
    envelope ``exp(kappa (cos x_i - 1))``; ``1/eps`` must be a lattice
    frequency."""
    if not math.isfinite(eps) or eps == 0:
        raise SpectralError(f"eps = {eps} must be finite and nonzero")
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-9 or round(inv) < 1 or round(inv) > grid.N // 2 - 1:
        raise SpectralError(f"1/eps = {inv} is not a representable lattice mode")
    xs = grid.meshes()
    env = np.ones(grid.shape)
    for ax in range(grid.d):
        env = env * np.exp(kappa * (np.cos(xs[ax]) - 1.0))
    vals = np.sin(round(inv) * (xs[0] + np.zeros(grid.shape))) * env
    return forward_transform(vals, grid)


def oscillatory_norm(f: SpectralField, p: float, nu: float,
                     bands: DyadicBands) -> float:
    """Combined low/high data norm ``||f^l||_{B^{-1+d/2}_{2,1}} +
    ||f^h||_{B^{-1+d/p}_{p,1}}`` used for the oscillatory-data scaling."""
    d = f.grid.d
    lo, hi = split_low_high(f, nu, bands)
    return (besov_norm(lo, BesovIndex(-1.0 + d / 2.0, 2, 1), bands)
            + besov_norm(hi, BesovIndex(-1.0 + d / p, p, 1), bands))


def check_oscillatory_scaling(ms=(1, 2, 3, 4, 5), p: float = 4.0, N: int = 128,
                              nu: float = 1.0) -> LemmaReport:
    """Fit of ``log(norm)`` against ``log(eps)`` for ``eps = 2^-m``; the
    continuum exponent is ``1 - d/p``."""
    grid = make_grid(2, N)
    bands = build_partition(grid)
    eps_list, norms = [], []
    for m in ms:
        eps = 2.0**(-m)
        f = oscillatory_data(grid, eps)
        eps_list.append(eps)
        norms.append(oscillatory_norm(f, p, nu, bands))
    slope = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    target = 1.0 - grid.d / p
    return LemmaReport("oscillatory_scaling", f"d=2,p={p},N={N}",
                       slope, target, abs(slope - target) <= 0.1)


# lemma id (the ``lemmas`` config key) -> the reports of its checks.  Each
# entry looks its ``check_*`` function up in the module namespace when it
# runs, so a rebinding of that name (a stub, a tracing wrapper) is honoured.
CHECKS = {
    "bernstein": lambda trials, seed: check_bernstein(trials=trials, seed=seed),
    "product_laws": lambda trials, seed: check_product_laws(trials=trials,
                                                            seed=seed),
    "commutators": lambda trials, seed: check_commutators(trials=trials,
                                                          seed=seed),
    "heat": lambda trials, seed: check_heat_regularity(seed=seed),
    "composition": lambda trials, seed: check_composition(trials=trials,
                                                          seed=seed),
    "oscillatory": lambda trials, seed: [check_oscillatory_scaling(p=2.0),
                                         check_oscillatory_scaling(p=4.0)],
}
