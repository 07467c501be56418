"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 run the full viscosity sweep (d=2, N=64, T=2); expect about
a minute for the whole module.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines as they complete.
"""

import math

import numpy as np
import pytest

from bcns.bands import BesovIndex, besov_norm, build_partition
from bcns.calculus import (
    bony_mean_correction,
    compressible_project,
    leray_project,
    paraproduct,
    remainder,
)
from bcns.cli import main, parse_config, sweep_once
from bcns.lemmas import (
    check_bernstein,
    check_commutators,
    check_composition,
    check_heat_regularity,
    check_oscillatory_scaling,
    check_product_laws,
)
from bcns.solvers import (
    FlowState,
    PhysicalParams,
    StepperConfig,
    acoustic_propagator,
    kinetic_energy,
    run,
    taylor_green,
)
from bcns.spectral import (
    SpectralField,
    forward_transform,
    inverse_transform,
    lp_norm,
    make_grid,
    product_dealiased,
    zeros,
)

ACCEPT_SWEEP_CONFIG = """
d = 2
N = 64
mu = 1.0
gamma = 2.0
T = 2.0
snapshots = 81
cfl = 0.4
dt_max = 0.05
nu_list = 10, 40, 160, 640
initial = taylor_green
amp = 1.0
compressible_amp = 0.3
p = 2.0
seed = 0
"""


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep_result():
    cfg = parse_config(ACCEPT_SWEEP_CONFIG)
    result, _ = sweep_once(cfg)
    return result


# Sup-block slope window.  The paper bounds the limit error by nu^(-1/2)
# (the Danchin-Mucha rate), which gives the upper edge.  On the 2pi-torus
# every lattice mode has nu |k| >= nu >= 10 for the swept members, all
# frequencies are high and the error decays like 1/nu (README "Findings"),
# which gives the lower edge.  Both edges carry the same 0.15 slack.
PAPER_RATE = -0.5
TORUS_RATE = -1.0
RATE_SLACK = 0.15


def _accept_cfg():
    return parse_config(ACCEPT_SWEEP_CONFIG)


def test_criterion_1_incompressible_limit_rate(sweep_result):
    res = sweep_result
    assert not res.excluded, f"sweep members excluded: {res.excluded}"
    blocks = {
        "density": [e.err_density for e in res.errors],
        "sup": [e.err_sup for e in res.errors],
        "grad_l1": [e.err_grad_l1 for e in res.errors],
        "dt_l1": [e.err_dt_l1 for e in res.errors],
    }
    decreasing = {k: all(b < a for a, b in zip(v, v[1:]))
                  for k, v in blocks.items()}
    cfg = _accept_cfg()
    bands = build_partition(make_grid(cfg.d, cfg.N))
    low = {nu: bands.low_bands(nu) for nu in res.nu_values}
    all_high = not any(low.values())
    lo, hi = TORUS_RATE - RATE_SLACK, PAPER_RATE + RATE_SLACK
    slope_ok = lo <= res.slope <= hi
    ok = slope_ok and all(decreasing.values()) and all_high
    _report(1, "incompressible-limit rate", ok,
            f"slope={res.slope:.3f} in [{lo:.2f} (torus 1/nu law), "
            f"{hi:.2f} (paper nu^-1/2 bound)], "
            f"low bands per nu={low} (all empty required), "
            f"strictly decreasing: {decreasing}")
    assert all(decreasing.values()), f"non-monotone blocks: {decreasing}"
    assert all_high, (
        f"low-frequency bands present {low}: the slope window holds only "
        f"when every band is high-frequency")
    assert slope_ok, (
        f"fitted sup-block slope {res.slope:.3f} outside [{lo:.2f}, {hi:.2f}]; "
        f"measured blocks {blocks['sup']}")


def test_criterion_2_density_smallness_scaling(sweep_result):
    mu = _accept_cfg().mu
    # err_density is sqrt(nu/mu) sup_t ||a||
    sqrt_scaled = [e.err_density for e in sweep_result.errors]
    nu_scaled = [math.sqrt(nu * mu) * s
                 for nu, s in zip(sweep_result.nu_values, sqrt_scaled)]
    growth = max(sqrt_scaled) / sqrt_scaled[0]
    spread = max(nu_scaled) / min(nu_scaled)
    bound_ok = growth < 3.0
    law_ok = spread < 3.0
    _report(2, "density smallness scaling", bound_ok and law_ok,
            f"sqrt(nu)*sup||a|| max/first = {growth:.2f} "
            f"(< 3, paper nu^-1/2 bound), "
            f"nu*sup||a|| spread factor = {spread:.2f} (< 3, torus 1/nu law)")
    assert bound_ok, (
        f"sqrt(nu)*sup||a|| grows by {growth:.2f} over the sweep "
        f"(values {sqrt_scaled})")
    assert law_ok, (
        f"nu*sup||a|| varies by {spread:.2f} over the sweep "
        f"(values {nu_scaled})")


def test_criterion_3_oscillatory_scaling():
    r2 = check_oscillatory_scaling(p=2.0)
    r4 = check_oscillatory_scaling(p=4.0)
    ok = abs(r2.max_ratio - 0.0) <= 0.1 and abs(r4.max_ratio - 0.5) <= 0.1
    _report(3, "oscillatory-data scaling", ok,
            f"slope(p=2)={r2.max_ratio:+.3f} (target 0), "
            f"slope(p=4)={r4.max_ratio:+.3f} (target 0.5)")
    assert abs(r2.max_ratio - 0.0) <= 0.1
    assert abs(r4.max_ratio - 0.5) <= 0.1


def test_criterion_4_exactness_suite():
    g = make_grid(2, 32)
    bands = build_partition(g)
    rng = np.random.default_rng(0)

    # partition of unity on every nonzero mode
    total = sum(bands.phi_mult[j] for j in bands.j_range)
    part_err = float(np.max(np.abs(total[g.kmag > 0] - 1.0)))

    # projector algebra on seeded fields
    proj_err = 0.0
    for _ in range(100):
        v = forward_transform(rng.standard_normal((2,) + g.shape), g)
        p = leray_project(v)
        q = compressible_project(v)
        scale = max(lp_norm(v, 2), 1e-300)
        proj_err = max(
            proj_err,
            float(np.max(np.abs((p + q).coeffs - v.coeffs))) / scale,
            float(np.max(np.abs(leray_project(p).coeffs - p.coeffs))) / scale,
            float(np.max(np.abs(compressible_project(q).coeffs
                                - q.coeffs))) / scale,
            lp_norm(compressible_project(p), 2) / scale,
            lp_norm(leray_project(q), 2) / scale,
        )

    # Bony reconstruction with the documented mean correction
    bony_err = 0.0
    for seed in range(20):
        rng2 = np.random.default_rng(100 + seed)
        mask = (np.abs(g.k[0]) < g.N / 6) & (np.abs(g.k[1]) < g.N / 6)
        u = SpectralField(g, forward_transform(
            rng2.standard_normal(g.shape), g).coeffs * mask) + rng2.random()
        v = SpectralField(g, forward_transform(
            rng2.standard_normal(g.shape), g).coeffs * mask) + rng2.random()
        total_f = (paraproduct(u, v, bands) + paraproduct(v, u, bands)
                   + remainder(u, v, bands) + bony_mean_correction(u, v))
        prod = product_dealiased(u, v)
        scale = max(lp_norm(prod, 2), 1e-300)
        bony_err = max(bony_err, float(
            np.max(np.abs(total_f.coeffs - prod.coeffs))) / scale)

    # transform round trip
    rt_err = 0.0
    for _ in range(100):
        s = rng.standard_normal(g.shape)
        back = inverse_transform(forward_transform(s, g))
        rt_err = max(rt_err, float(np.max(np.abs(back - s))
                                   / np.max(np.abs(s))))

    # acoustic propagator eigenvalues against the closed form
    eig_err = 0.0
    dt = 0.02
    for nu in (0.5, 3.0, 10.0, 640.0):
        for k2 in (1.0, 2.0, 9.0, 400.0):
            e11, e12, e21, e22 = acoustic_propagator(np.array([k2]), nu, dt)
            E = np.array([[e11[0], e12[0]], [e21[0], e22[0]]])
            disc = (nu * nu * k2 * k2 - 4.0 * k2) + 0j
            lam = np.array([(-nu * k2 + np.sqrt(disc)) / 2.0,
                            (-nu * k2 - np.sqrt(disc)) / 2.0])
            want = np.exp(lam * dt)
            eig_err = max(eig_err,
                          abs(np.trace(E) - want.sum()),
                          abs(np.linalg.det(E) - want.prod()))

    ok = (part_err <= 1e-12 and proj_err <= 1e-12 and bony_err <= 1e-10
          and rt_err <= 1e-12 and eig_err <= 1e-12)
    _report(4, "exactness suite", ok,
            f"partition={part_err:.2e} projectors={proj_err:.2e} "
            f"bony={bony_err:.2e} roundtrip={rt_err:.2e} "
            f"propagator={eig_err:.2e}")
    assert part_err <= 1e-12
    assert proj_err <= 1e-12
    assert bony_err <= 1e-10
    assert rt_err <= 1e-12
    assert eig_err <= 1e-12


def _terminal_state(dt, T=0.25, N=32):
    g = make_grid(2, N)
    x, _ = g.meshes()
    v0 = taylor_green(g) + forward_transform(
        np.stack([0.3 * np.sin(x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    params = PhysicalParams(mu=1.0, lam=2.0, gamma=1.4)
    traj = run(FlowState(zeros(g), v0, 0.0), params, StepperConfig(fixed_dt=dt), T)
    return traj.final()


def test_criterion_5_solver_order():
    states = [_terminal_state(dt) for dt in (0.01, 0.005, 0.0025)]
    errs = [lp_norm(a.v - b.v, 2) + lp_norm(a.a - b.a, 2)
            for a, b in zip(states, states[1:])]
    ratio = errs[0] / errs[1]
    order_ok = abs(ratio - 4.0) <= 0.15 * 4.0

    g = make_grid(2, 32)
    traj = run(FlowState(zeros(g), taylor_green(g), 0.0),
               PhysicalParams(mu=1.0, lam=0.0),
               StepperConfig(cfl=0.4, dt_max=0.05), 1.0, system="ins")
    e_ratio = kinetic_energy(traj.final().v) / kinetic_energy(traj.states[0].v)
    energy_ok = abs(e_ratio - math.exp(-4.0)) <= 1e-4

    ok = order_ok and energy_ok
    _report(5, "solver order", ok,
            f"dt-halving ratio={ratio:.3f} (4 +- 0.6), "
            f"TG energy ratio err={abs(e_ratio - math.exp(-4.0)):.2e}")
    assert order_ok, f"self-convergence ratio {ratio}"
    assert energy_ok, f"energy ratio {e_ratio} vs {math.exp(-4.0)}"


def test_criterion_6_lemma_property_suite():
    sizes = (32, 64)
    reports = []
    reports += check_bernstein(trials=100, grid_sizes=sizes, seed=0)
    reports += check_product_laws(trials=100, grid_sizes=sizes, seed=0)
    reports += check_commutators(trials=100, grid_sizes=sizes, seed=0)
    reports += check_heat_regularity(seed=0)
    reports += check_composition(trials=100, grid_sizes=sizes, seed=0)
    by_name = {}
    for r in reports:
        by_name[f"{r.lemma}|{r.params}"] = r
    bern = by_name["bernstein_annulus_l2|d=2,exact[0.75,8/3]"]
    bern_ok = bern.stable and bern.max_ratio <= 1.0 + 1e-12 \
        and bern.median_ratio >= 1.0 - 1e-12
    neg = next(r for r in reports if r.lemma == "remainder_negative")
    neg_ok = neg.stable and neg.median_ratio > 1.3
    positives = [r for r in reports
                 if r.lemma not in ("remainder_negative",)]
    pos_ok = all(r.stable for r in positives)
    ok = bern_ok and neg_ok and pos_ok
    bad = [r.lemma for r in positives if not r.stable]
    _report(6, "lemma property suite", ok,
            f"bernstein exact={bern_ok}, positive stable={pos_ok}{bad or ''}, "
            f"negative growth={neg.median_ratio:.2f}")
    assert bern_ok
    assert pos_ok, f"unstable positive cases: {bad}"
    assert neg_ok


DET_CONFIG = """
d = 2
N = 16
mu = 1.0
gamma = 2.0
T = 0.4
snapshots = 11
dt_max = 0.02
nu_list = 4, 16, 64, 256
compressible_amp = 0.2
seed = 7
"""


def test_criterion_7_sweep_determinism(tmp_path):
    cfgfile = tmp_path / "det.cfg"
    cfgfile.write_text(DET_CONFIG)
    rc1 = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "r1")])
    rc2 = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "r2")])
    same_csv = ((tmp_path / "r1" / "sweep.csv").read_bytes()
                == (tmp_path / "r2" / "sweep.csv").read_bytes())
    same_fit = ((tmp_path / "r1" / "fit.txt").read_bytes()
                == (tmp_path / "r2" / "fit.txt").read_bytes())
    ok = rc1 == 0 and rc2 == 0 and same_csv and same_fit
    _report(7, "sweep determinism", ok,
            f"exit codes ({rc1},{rc2}), byte-identical csv={same_csv}")
    assert ok
