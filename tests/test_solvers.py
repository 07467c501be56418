import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import bcns.solvers
from bcns.bands import build_partition
from bcns.calculus import (
    advect,
    commutator_transport,
    compressible_project,
    leray_project,
    paraproduct,
    remainder,
)
from bcns.cli import RunConfig, initial_data
from bcns.lemmas import random_field
from bcns.solvers import (
    BlowupError,
    FlowState,
    PhysicalParams,
    StepperConfig,
    _cns_tendency,
    _ins_tendency,
    _LinearPropagator,
    _propagator,
    acoustic_propagator,
    pressure_law,
    run,
    step_cns,
    step_heat,
    step_ins,
    taylor_green,
)
from bcns.spectral import (
    SpectralError,
    SpectralField,
    _Workspace,
    _workspace,
    dealias,
    divergence,
    forward_transform,
    gradient,
    inv_laplacian,
    inverse_transform,
    lp_norm,
    make_grid,
    product_dealiased,
    zeros,
)
from stepping import stepped_run


def _grid(N=16):
    return make_grid(2, N)


def _kinetic_energy(v):
    """``0.5 * mean |v|^2`` (mean-value normalization)."""
    return 0.5 * lp_norm(v, 2) ** 2


def _effective_velocity(a, u, nu):
    """``w = Qu + nu^-1 (-Lap)^-1 grad a`` (``a`` must be mean-free)."""
    return compressible_project(u) + inv_laplacian(gradient(a)) * (1.0 / nu)


def _linear_flow(monkeypatch):
    """Switch the nonlinear remainder of the compressible step off; the guard
    on the samples of a step's first stage still runs."""
    tendency = bcns.solvers._cns_tendency

    def linear(ws, x, params, guard=None):
        if guard is None:
            return np.zeros_like(x)
        return np.zeros_like(x), tendency(ws, x, params, guard)[1]

    monkeypatch.setattr(bcns.solvers, "_cns_tendency", linear)


def test_params_validation():
    p = PhysicalParams(mu=1.0, nu=5.0, gamma=1.4)
    assert (p.mu, p.nu, p.gamma) == (1.0, 5.0, 1.4)
    with pytest.raises(SpectralError):
        PhysicalParams(mu=-1.0, nu=-2.0)
    with pytest.raises(SpectralError):
        PhysicalParams(mu=0.5, nu=-1.0)
    with pytest.raises(SpectralError):
        PhysicalParams(mu=1.0, nu=2.0, gamma=0.5)
    # NaN passes every <= comparison; infinities are not viscosities
    for kwargs in ({"mu": math.nan, "nu": 2.0}, {"mu": 1.0, "nu": math.nan},
                   {"mu": 1.0, "nu": 2.0, "gamma": math.nan},
                   {"mu": math.inf, "nu": 2.0}, {"mu": 1.0, "nu": math.inf}):
        with pytest.raises(SpectralError):
            PhysicalParams(**kwargs)
    q = PhysicalParams(mu=1.0, nu=40.0)
    assert q.nu == 40.0


def test_params_store_the_total_viscosity_exactly():
    # 0.3 - 2 + 2 is 0.30000000000000004: nu is stored, not rebuilt from lambda
    p = PhysicalParams(mu=1.0, nu=0.3)
    assert p.nu == 0.3
    assert [f.name for f in fields(PhysicalParams)] == ["mu", "nu", "gamma"]


def test_stepper_config_validation():
    with pytest.raises(SpectralError):
        StepperConfig(cfl=1.5)
    # a step that cannot be positive would leave run() stepping forever
    for field, value in (("dt_max", 0.0), ("dt_max", -0.1), ("dt_max", math.nan),
                         ("vacuum_floor", math.nan), ("vacuum_floor", 1.0),
                         ("vacuum_floor", -0.1)):
        with pytest.raises(SpectralError, match=field):
            StepperConfig(**{field: value})


def test_pressure_law_exact_cases():
    s = np.random.default_rng(0).uniform(-0.5, 0.5, (16, 16))
    k1 = pressure_law(s, 1.0)
    assert k1.shape == s.shape and np.all(k1 == 0.0)
    assert np.array_equal(pressure_law(s, 2.0), s)


def test_pressure_law_closed_form():
    s = np.linspace(-0.9, 2.0, 59)
    want = [math.pow(1.0 + x, 0.4) - 1.0 for x in s]
    np.testing.assert_allclose(pressure_law(s, 1.4), want, rtol=0, atol=1e-15)
    assert pressure_law(np.zeros(3), 1.4).tolist() == [0.0, 0.0, 0.0]


def test_dense_resolved_run_reaches_the_horizon():
    # the Taylor-Green run of `bcns simulate` with a large added compressible
    # mode compresses the density past 1.9 and stays resolved: a large
    # density is no blow-up, only the scheme's failures end a run
    cfg = RunConfig(N=32, nu=27.0, amp=2.0, compressible_amp=16.0, T=0.2, snapshots=11)
    grid, a0, v0 = initial_data(cfg)
    traj = run(FlowState(a0, v0, 0.0), cfg.params(), cfg.stepper(), cfg.T,
               snap_times=np.linspace(0.0, cfg.T, cfg.snapshots))
    assert traj.terminated == "horizon" and len(traj.times) == 11
    assert max(float(inverse_transform(st.a).max()) for st in traj.states) > 0.9


def test_run_vacuum_guard_reports_the_state_time():
    # min density 1 - 0.95 = 0.05 is below the vacuum floor 0.1
    g = _grid()
    x, _ = g.meshes()
    a0 = forward_transform(-0.95 * np.cos(x) + np.zeros(g.shape), g)
    params = PhysicalParams(mu=1.0, nu=2.0, gamma=1.4)
    traj = run(FlowState(a0, zeros(g, vector=True), 0.3), params, StepperConfig(), 1.0)
    assert traj.terminated == "blowup"
    blowups = [(t, ev) for t, ev in traj.events if ev.startswith("blowup:")]
    assert len(blowups) == 1
    t, ev = blowups[0]
    assert t == 0.3 and "vacuum guard" in ev


def _sorted_pair(vals):
    order = np.lexsort((np.imag(vals), np.real(vals)))
    return np.asarray(vals)[order]


def test_acoustic_propagator_eigenvalues():
    # oracle: trace/determinant (exact symmetric functions) for every mode,
    # plus direct numerical eigenvalues away from the degenerate point,
    # where eigvals() of the Jordan-like matrix is itself only sqrt(eps)
    dt = 0.01
    for nu in (0.5, 2.0, 10.0, 640.0):
        for k2 in (1.0, 4.0, 900.0):
            e11, e12, e21, e22 = acoustic_propagator(np.array([k2]), nu, dt)
            E = np.array([[e11[0], e12[0]], [e21[0], e22[0]]])
            disc = (nu**2 * k2**2 - 4 * k2) + 0j
            lam = np.array([(-nu * k2 + np.sqrt(disc)) / 2,
                            (-nu * k2 - np.sqrt(disc)) / 2])
            want = np.exp(lam * dt)
            assert abs(np.trace(E) - want.sum()) <= 1e-12
            assert abs(np.linalg.det(E) - want.prod()) <= 1e-12
            if abs(disc) > 1e-6:
                got = _sorted_pair(np.linalg.eigvals(E))
                diff = np.abs(got - _sorted_pair(want))
                alt = np.abs(got[::-1] - _sorted_pair(want))
                assert min(diff.max(), alt.max()) <= 1e-12


def test_acoustic_propagator_stiff_modes_finite():
    e = acoustic_propagator(np.array([900.0]), 1e4, 1.0)
    assert all(np.isfinite(x).all() for x in e)
    # nu -> inf freezes the density (e11 -> 1) and damps the longitudinal
    # velocity at once (e12, e22 -> 0) on every mode k != 0
    k2 = np.unique(make_grid(3, 64).k2)[1:]
    for nu in (1e154, 1e300):
        for dt in (1e-6, 1e-3, 1.0):
            e11, e12, e21, e22 = acoustic_propagator(k2, nu, dt)
            assert all(np.isfinite(x).all() for x in (e11, e12, e21, e22))
            assert np.max(np.abs(e11 - 1.0)) <= 1e-15
            assert np.max(np.abs(e12)) <= 1e-15 and np.max(np.abs(e22)) <= 1e-15


def _squared_nu_propagator(k2, nu, dt):
    # the former tables: delta = sqrt(nu^2 |k|^4 / 4 - |k|^2) squares nu, and
    # lam_+ = -h + delta cancels for stiff modes
    k2c = np.asarray(k2, dtype=np.complex128)
    m = -0.5 * nu * k2c
    delta = np.sqrt(0.25 * nu**2 * k2c**2 - k2c)
    ep, em = np.exp((m + delta) * dt), np.exp((m - delta) * dt)
    small = np.abs(delta * dt) < 1e-4
    s = np.where(small, dt * np.exp(m * dt),
                 (ep - em) / (2.0 * np.where(small, 1.0, delta)))
    cosh = 0.5 * (ep + em)
    return cosh - s * m, s * (-1j * np.sqrt(k2c)), cosh + s * m


def test_acoustic_propagator_matches_the_former_tables_at_moderate_nu():
    # on the kept block at N = 64 the former formula is itself off a 50-digit
    # reference by up to 9.5e-13 (the cancellation in lam_+, worst at
    # nu = 640, dt = 0.05, |k|^2 = 882), so the two agree to 1e-12, not better
    k2 = np.unique(_workspace(make_grid(2, 64)).k2_kept)
    for nu in (0.5, 2.0, 10.0, 40.0, 160.0, 640.0):
        for dt in (1e-4, 1e-3, 5e-3, 0.05):
            e11, e12, _, e22 = acoustic_propagator(k2, nu, dt)
            for got, want in zip((e11, e12, e22), _squared_nu_propagator(k2, nu, dt)):
                assert np.max(np.abs(got - want)) <= 1e-12, (nu, dt)


def test_acoustic_propagator_matches_a_50_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    k2 = np.array([0.0, 1.0, 2.0, 16.0, 100.0, 441.0, 882.0])  # 16: lam_+ = lam_- at nu = 0.5
    with mpmath.workdps(50):
        for nu in (0.5, 2.0, 10.0, 640.0):
            for dt in (1e-3, 0.05):
                got = np.stack(acoustic_propagator(k2, nu, dt))
                for i, q in enumerate(k2):
                    r = -1j * mpmath.sqrt(q)
                    E = mpmath.expm(mpmath.matrix([[0, r], [r, -mpmath.mpf(nu) * q]])
                                    * mpmath.mpf(dt))
                    want = [complex(E[0, 0]), complex(E[0, 1]), complex(E[1, 0]),
                            complex(E[1, 1])]
                    assert np.max(np.abs(got[:, i] - want)) <= 1e-15, (nu, dt, q)


def test_step_cns_zero_state():
    g = _grid()
    params = PhysicalParams(mu=1.0, nu=2.0)
    st = FlowState(zeros(g), zeros(g, vector=True), 0.0)
    out = step_cns(st, params, 0.01)
    assert lp_norm(out.a, 2) == 0.0 and lp_norm(out.v, 2) == 0.0
    assert out.t == pytest.approx(0.01)


def test_step_cns_acoustic_mode_matches_eigen_oracle(monkeypatch):
    # a = eps cos(x1), v = 0, gamma = 1, nonlinearities off: the (1,0) mode
    # follows the exact damped-acoustic flow
    g = _grid()
    x, _ = g.meshes()
    eps = 1e-3
    a0 = forward_transform(eps * np.cos(x) + np.zeros(g.shape), g)
    params = PhysicalParams(mu=1.0, nu=3.0, gamma=1.0)
    st = FlowState(a0, zeros(g, vector=True), 0.0)
    dt = 0.37
    _linear_flow(monkeypatch)
    out = step_cns(st, params, dt)

    # oracle: numpy eigendecomposition of the generator
    nu, k2 = params.nu, 1.0
    A = np.array([[0.0, -1j * math.sqrt(k2)], [-1j * math.sqrt(k2), -nu * k2]])
    w, V = np.linalg.eig(A)
    E = V @ np.diag(np.exp(w * dt)) @ np.linalg.inv(V)
    start = np.array([eps / 2.0, 0.0])  # coefficients at k=(1,0)
    want = E @ start
    got_a = out.a.coeffs[1, 0]
    vlong = out.v.coeffs[0][1, 0]  # k=(1,0): longitudinal = x-component
    assert abs(got_a - want[0]) <= 1e-10 * eps
    assert abs(vlong - want[1]) <= 1e-10 * eps


def test_step_cns_small_amplitude_matches_ins():
    g = make_grid(2, 32)
    amp = 1e-4
    v0 = taylor_green(g, amp)
    params = PhysicalParams(mu=1.0, nu=2.0, gamma=2.0)
    dt = 0.01
    cns = step_cns(FlowState(zeros(g), v0, 0.0), params, dt)
    ins = step_ins(FlowState(zeros(g), v0, 0.0), params.mu, dt)
    diff = lp_norm(cns.v - ins.v, 2)
    assert diff <= 10.0 * amp**2


def test_step_cns_conserves_mass_1000_steps():
    g = _grid()
    rng = np.random.default_rng(0)
    from bcns.spectral import dealias

    a0 = dealias(forward_transform(0.05 * rng.standard_normal(g.shape), g))
    a0 = a0 - a0.mean() + 0.01
    v0 = taylor_green(g, 0.5)
    params = PhysicalParams(mu=0.5, nu=2.0, gamma=1.4)
    st = FlowState(a0, v0, 0.0)
    m0 = st.a.mean()
    for _ in range(1000):
        st = step_cns(st, params, 2e-3)
    assert abs(st.a.mean() - m0) <= 1e-12


def test_step_cns_3d_smoke():
    g = make_grid(3, 8)
    params = PhysicalParams(mu=1.0, nu=2.0, gamma=1.4)
    st = FlowState(zeros(g), taylor_green(g, 0.3), 0.0)
    for _ in range(5):
        st = step_cns(st, params, 5e-3)
    assert np.all(np.isfinite(st.v.coeffs))
    assert abs(st.a.mean()) <= 1e-13
    assert lp_norm(st.v, 2) > 0


def test_ins_pressure_gradient_identity():
    # grad(Pi) = -Q(V . grad V), the pressure that closes the projected system
    from bcns.calculus import advect, compressible_project
    from bcns.spectral import divergence, gradient, inv_laplacian

    g = make_grid(2, 32)
    V = taylor_green(g)
    pressure = inv_laplacian(divergence(advect(V, V)))  # (-Lap)^-1 div(V . grad V)
    grad_pi = gradient(pressure)
    q_adv = compressible_project(advect(V, V))
    assert np.max(np.abs(grad_pi.coeffs + q_adv.coeffs)) <= 1e-12


def test_step_ins_taylor_green_exact_decay():
    g = make_grid(2, 32)
    mu = 1.0
    v0 = taylor_green(g)
    st = FlowState(zeros(g), v0, 0.0)
    dt = 0.05
    out = step_ins(st, mu, dt)
    want = v0.coeffs * math.exp(-2.0 * mu * dt)
    assert np.max(np.abs(out.v.coeffs - want)) <= 1e-12


def test_step_ins_zero_and_shear():
    g = _grid()
    st = FlowState(zeros(g), zeros(g, vector=True), 0.0)
    assert lp_norm(step_ins(st, 1.0, 0.1).v, 2) == 0.0
    x, y = g.meshes()
    shear = forward_transform(
        np.stack([np.sin(y) + 0 * x, np.zeros(g.shape)]), g)
    out = step_ins(FlowState(zeros(g), shear, 0.0), 2.0, 0.3)
    want = shear.coeffs * math.exp(-2.0 * 0.3)
    assert np.max(np.abs(out.v.coeffs - want)) <= 1e-12


def test_step_ins_divergence_preserved():
    g = _grid()
    rng = np.random.default_rng(1)
    from bcns.spectral import dealias

    v0 = leray_project(dealias(forward_transform(
        rng.standard_normal((2,) + g.shape), g)))
    st = FlowState(zeros(g), v0, 0.0)
    for _ in range(20):
        st = step_ins(st, 0.1, 0.01)
        assert lp_norm(divergence(st.v), 2) <= 1e-12 * max(lp_norm(st.v, 2), 1e-30)


def test_step_ins_rejects_compressible_data():
    g = _grid()
    x, _ = g.meshes()
    v = forward_transform(np.stack([np.sin(x) + np.zeros(g.shape),
                                    np.zeros(g.shape)]), g)
    with pytest.raises(SpectralError):
        step_ins(FlowState(zeros(g), v, 0.0), 1.0, 0.01)


@pytest.mark.parametrize("d", [2, 3])
def test_step_ins_divergence_precondition(d):
    # the check reads the kept block's coefficients: Taylor-Green data pass,
    # a divergence of 1e-10 of the velocity's norm is refused
    g = make_grid(d, 16)
    V = taylor_green(g)
    step_ins(FlowState(zeros(g), V, 0.0), 1.0, 0.01)
    x = g.meshes()[0]
    bump = np.zeros((d,) + g.shape)
    bump[0] = np.sin(x)
    bump = forward_transform(bump, g)
    bump = bump * (1e-10 * lp_norm(V, 2) / lp_norm(divergence(bump), 2))
    assert lp_norm(divergence(V + bump), 2) == pytest.approx(1e-10 * lp_norm(V + bump, 2))
    with pytest.raises(SpectralError, match="div V = 0"):
        step_ins(FlowState(zeros(g), V + bump, 0.0), 1.0, 0.01)
    # the step reads the kept block only: a divergence outside it is dropped
    outside = np.zeros((d,) + g.shape)
    outside[0] = 1e-3 * np.sin(6 * x)
    step_ins(FlowState(zeros(g), V + forward_transform(outside, g), 0.0), 1.0, 0.01)


def _written_out_step_ins(state, mu, dt):
    # oracle: the incompressible Heun step written out in full
    g = state.v.grid
    ws = _workspace(g)
    decay = np.exp(-mu * g.k2 * dt)
    v = state.v.coeffs
    pv = decay * v
    k1 = ws.scatter(_ins_tendency(ws, ws.gather(v)))
    k2 = ws.scatter(_ins_tendency(ws, ws.gather(pv + dt * decay * k1)))
    return pv + 0.5 * dt * (decay * k1 + k2)


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_step_ins_matches_the_written_out_heun_step(d, N):
    _, v = _random_state(d, N)
    st = FlowState(zeros(make_grid(d, N)), leray_project(v), 0.0)
    for _ in range(3):
        got = step_ins(st, 0.7, 2e-3)
        want = _written_out_step_ins(FlowState(st.a, dealias(st.v), st.t), 0.7, 2e-3)
        assert _rel_diff(got.v.coeffs, want) <= 1e-14
        assert got.t == st.t + 2e-3
        st = got


def test_step_heat_unforced_mode():
    g = _grid()
    x, _ = g.meshes()
    u0 = forward_transform(np.cos(2 * x) + np.zeros(g.shape), g)
    out = step_heat(u0, 0.7, 0.2)
    want = u0.coeffs * math.exp(-0.7 * 4.0 * 0.2)
    assert np.max(np.abs(out.coeffs - want)) <= 1e-13


def test_step_heat_zero_everything():
    g = _grid()
    out = step_heat(zeros(g), 5.0, 0.1)
    assert lp_norm(out, 2) == 0.0


def test_step_heat_constant_forcing_steady_state():
    # discrete closed form: fixed point u* = (dt/2)(e^-z + 1)/(1 - e^-z) f
    g = _grid()
    x, _ = g.meshes()
    f = forward_transform(np.cos(x) + np.zeros(g.shape), g)
    mu, dt = 2.0, 0.05
    u = zeros(g)
    for _ in range(400):
        u = step_heat(u, mu, dt, forcing=(f, f))
    z = mu * 1.0 * dt
    fixed = 0.5 * dt * (math.exp(-z) + 1.0) / (1.0 - math.exp(-z))
    got = u.coeffs[1, 0]
    assert abs(got - fixed * 0.5) <= 1e-12  # f has coefficient 1/2 at (1,0)
    # approaches the continuum steady state f/(mu k^2) as dt refines
    assert abs(got - 0.5 / (mu * 1.0)) <= 1e-3


def _outside_box(f):
    return f.coeffs[..., ~f.grid.dealias_mask]


@pytest.mark.parametrize("system", ["cns", "ins"])
def test_run_records_only_states_on_the_box(system):
    # the `initial = random` preset and a random density have modes outside
    # the 2/3 box: run drops them from the first state it records, and every
    # later state stays on the box
    grid, _, v0 = initial_data(RunConfig(N=16, initial="random", amp=0.5))
    a0 = random_field(grid, np.random.default_rng(3))
    a0 = a0 * (0.2 / lp_norm(a0, math.inf))
    if system == "ins":
        v0 = leray_project(v0)
    assert _outside_box(a0).any() and _outside_box(v0).any()
    traj = run(FlowState(a0, v0, 0.0), PhysicalParams(mu=1.0, nu=4.0, gamma=1.4),
               StepperConfig(), 0.05, system=system)
    assert traj.terminated == "horizon" and len(traj.states) > 2
    assert np.array_equal(traj.states[0].a.coeffs, dealias(a0).coeffs)
    assert np.array_equal(traj.states[0].v.coeffs, dealias(v0).coeffs)
    for st in traj.states:
        assert not _outside_box(st.a).any() and not _outside_box(st.v).any()


def test_run_drops_non_finite_data_outside_the_box():
    g = _grid()
    c = taylor_green(g).coeffs.copy()
    c[0, 0, -1] = np.nan  # the Nyquist column, outside the box
    traj = run(FlowState(zeros(g), SpectralField(g, c), 0.0),
               PhysicalParams(mu=1.0, nu=2.0), StepperConfig(cfl=0.5, dt_max=0.02), 0.02)
    assert traj.terminated == "horizon" and traj.times == [0.0, 0.01, 0.02]  # cfl dt_max
    assert all(np.isfinite(st.v.coeffs).all() for st in traj.states)


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
def test_steps_drop_input_outside_the_box(d, N):
    a, v = _random_state(d, N)
    V = leray_project(v)
    params = PhysicalParams(mu=0.7, nu=2.7, gamma=1.4)
    got = step_cns(FlowState(a, v * 0.3, 0.0), params, 1e-3)
    want = step_cns(FlowState(dealias(a), dealias(v * 0.3), 0.0), params, 1e-3)
    assert np.array_equal(got.a.coeffs, want.a.coeffs)
    assert np.array_equal(got.v.coeffs, want.v.coeffs)
    assert not _outside_box(got.a).any() and not _outside_box(got.v).any()
    got = step_ins(FlowState(a, V, 0.0), 0.7, 1e-3)  # the density is carried along
    want = step_ins(FlowState(a, dealias(V), 0.0), 0.7, 1e-3)
    assert np.array_equal(got.v.coeffs, want.v.coeffs)
    assert not _outside_box(got.v).any()


def test_run_zero_data():
    g = _grid()
    params = PhysicalParams(mu=1.0, nu=2.0)
    traj = run(FlowState(zeros(g), zeros(g, vector=True), 0.0), params,
               StepperConfig(dt_max=0.05), 0.3)
    assert traj.terminated == "horizon"
    assert all(lp_norm(s.v, 2) == 0.0 for s in traj.states)
    assert traj.times[-1] == pytest.approx(0.3)


def test_run_taylor_green_energy_decay():
    g = make_grid(2, 32)
    params = PhysicalParams(mu=1.0, nu=2.0)
    v0 = taylor_green(g)
    traj = run(FlowState(zeros(g), v0, 0.0), params,
               StepperConfig(cfl=0.4, dt_max=0.05), 1.0, system="ins")
    e0 = _kinetic_energy(traj.states[0].v)
    e1 = _kinetic_energy(traj.states[-1].v)
    assert abs(e1 / e0 - math.exp(-4.0)) <= 1e-4


def test_run_blowup_recorded():
    g = _grid()
    x, _ = g.meshes()
    a0 = forward_transform(0.95 * np.cos(x) + np.zeros(g.shape), g)
    params = PhysicalParams(mu=1.0, nu=2.0)
    traj = run(FlowState(a0, zeros(g, vector=True), 0.0), params,
               StepperConfig(dt_max=0.01), 1.0)
    assert traj.terminated == "blowup"
    assert any("blowup" in ev for _, ev in traj.events)


def test_run_hits_snapshot_times():
    g = _grid()
    params = PhysicalParams(mu=1.0, nu=2.0)
    v0 = taylor_green(g, 0.1)
    snap = np.linspace(0.0, 0.2, 5)
    traj = run(FlowState(zeros(g), v0, 0.0), params,
               StepperConfig(dt_max=0.013), 0.2, system="cns", snap_times=snap)
    assert np.max(np.abs(np.asarray(traj.times) - snap)) <= 1e-10


def test_linearized_effective_velocity_high_band_decay(monkeypatch):
    # single high mode, nonlinearities off, 2^j nu > 1 on its bands:
    # |w| decays monotonically
    g = _grid()
    x, _ = g.meshes()
    a0 = forward_transform(0.01 * np.cos(4 * x) + np.zeros(g.shape), g)
    v0 = forward_transform(
        np.stack([0.01 * np.sin(4 * x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    params = PhysicalParams(mu=1.0, nu=8.0)  # bands of |k|=4 all high
    _linear_flow(monkeypatch)
    st = FlowState(a0, v0, 0.0)
    norms = []
    for _ in range(40):
        w = _effective_velocity(st.a, compressible_project(st.v), params.nu)
        norms.append(lp_norm(w, 2))
        st = step_cns(st, params, 0.005)
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-14)


def test_linear_single_mode_density_peak_is_one_over_nu(monkeypatch):
    # a0 = 0, v0 = sin(x1) e1, nonlinearities off: only k = +-e1 moves and
    # ||a(t)||_2 / ||v0||_2 = |E12(t)| at |k| = 1.  The roots of the
    # damped-acoustic generator tend to -1/nu and -nu, so the peak of
    # nu |E12| tends to 1: the 1/nu law of the acceptance sweep, where
    # nu |k| >= 10 on every lattice mode.
    g = _grid()
    x, _ = g.meshes()
    v0 = forward_transform(
        np.stack([np.sin(x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    snap = np.linspace(0.0, 2.0, 81)
    peaks = []
    _linear_flow(monkeypatch)
    for nu in (10.0, 40.0, 160.0, 640.0):
        traj = run(FlowState(zeros(g), v0, 0.0), PhysicalParams(mu=1.0, nu=nu),
                   StepperConfig(), 2.0, snap_times=snap)
        assert traj.terminated == "horizon"
        assert np.max(np.abs(np.asarray(traj.times) - snap)) <= 1e-10
        got = nu * max(lp_norm(s.a, 2) for s in traj.states) / lp_norm(v0, 2)
        want = nu * max(abs(acoustic_propagator(np.array([1.0]), nu, t)[1][0])
                        for t in snap)
        assert abs(got - want) <= 1e-10 * want
        peaks.append(got)
    assert all(b > a for a, b in zip(peaks, peaks[1:])), peaks
    assert abs(peaks[-1] - 1.0) <= 1e-3


def _product_chain_cns_tendency(a, v, params):
    # oracle: the nonlinear remainder as a chain of dealiased products
    grid = a.grid
    na = -divergence(product_dealiased(a, v))
    nv = -advect(v, v)
    a_s = inverse_transform(dealias(a))
    dens = 1.0 + a_s
    ratio = forward_transform(a_s / dens, grid)
    laplacian = SpectralField(grid, v.coeffs * -grid.k2)
    visc = laplacian * params.mu + gradient(divergence(v)) * (params.nu - params.mu)
    nv = nv - product_dealiased(ratio, visc)
    if params.gamma != 2.0:
        if params.gamma == 1.0:
            coeff = -a_s / dens
        else:
            coeff = (dens ** (params.gamma - 1.0) - 1.0 - a_s) / dens
        nv = nv - product_dealiased(forward_transform(coeff, grid), gradient(a))
    return na.coeffs, nv.coeffs


def _random_state(d, N, seed=5):
    g = make_grid(d, N)
    rng = np.random.default_rng(seed)
    a = random_field(g, rng)
    a = a * (0.4 / lp_norm(a, math.inf))
    return a, random_field(g, rng, vector=True)


def _rel_diff(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _half(c):
    return c[..., : c.shape[-1] // 2 + 1]


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
def test_cns_tendency_matches_product_chain(d, N, gamma):
    a, v = _random_state(d, N)
    params = PhysicalParams(mu=0.7, nu=2.7, gamma=gamma)
    ws = _workspace(a.grid)
    n = ws.scatter(_cns_tendency(ws, ws.gather(np.concatenate([a.coeffs[None], v.coeffs])),
                                 params))
    want_a, want_v = _product_chain_cns_tendency(a, v, params)
    assert _rel_diff(n[0], want_a) <= 1e-13
    assert _rel_diff(n[1:], want_v) <= 1e-13


def _counting_workspace(grid):
    # a workspace whose transforms record the number of rows they get
    ws = _Workspace(grid)
    rows = {"inverse": [], "forward": []}
    for name, rec in rows.items():
        def counted(stack, reuse=False, fn=getattr(ws, name), rec=rec):
            rec.append(len(stack))
            return fn(stack, reuse)
        setattr(ws, name, counted)
    return ws, rows


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
@pytest.mark.parametrize("gamma", [1.4, 2.0])
def test_cns_tendency_transforms_the_rotational_form_fields(d, N, gamma):
    # [a, v, Omega_ij for i < j, visc] (+ grad a) go in, the middle pair
    # truncates the coefficients, [a v, |v|^2/2, Omega v + coeff terms] come back
    a, v = _random_state(d, N)
    ws, rows = _counting_workspace(a.grid)
    _cns_tendency(ws, ws.gather(np.concatenate([a.coeffs[None], v.coeffs])),
                  PhysicalParams(mu=0.7, nu=2.7, gamma=gamma))
    ncoeff, grad_a = (1, 0) if gamma == 2.0 else (2, d)
    assert rows["inverse"] == [{2: 6, 3: 10}[d] + grad_a, ncoeff]
    assert rows["forward"] == [ncoeff, {2: 5, 3: 7}[d]]


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
def test_ins_tendency_transforms_the_rotational_form_fields(d, N):
    # [V, Omega_ij for i < j] go in, Omega V comes back: the projection
    # removes grad |V|^2/2, so neither it nor grad V is transformed
    _, v = _random_state(d, N)
    ws, rows = _counting_workspace(v.grid)
    _ins_tendency(ws, ws.gather(leray_project(v).coeffs))
    assert rows == {"inverse": [{2: 3, 3: 6}[d]], "forward": [d]}


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
def test_workspace_multipliers_are_stacked_read_only_tables(d, N):
    # ik, khat and |k|^2 on the kept block: the rows |k_i| < N/3 of each
    # leading axis, the first m columns
    g = make_grid(d, N)
    ws = _Workspace(g)
    kmag = np.maximum(g.kmag, 1.0)
    m = math.ceil(N / 3)
    rows = np.r_[0:m, N - m + 1:N]
    box = np.ix_(*[rows] * (d - 1), np.arange(m))
    assert ws.kept_shape == (2 * m - 1,) * (d - 1) + (m,)
    khat = np.stack([ki / kmag for ki in g.k])
    for table, want in [(ws.ik_kept, np.stack([(1j * ki + 0 * g.k2)[box] for ki in g.k])),
                        (ws.khat_kept, np.stack([c[box] for c in khat])),
                        (ws.k2_kept, g.k2[box])]:
        assert table.shape == want.shape
        assert np.array_equal(table, want)
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_ins_tendency_matches_projected_advection(d, N):
    _, v = _random_state(d, N)
    V = leray_project(v)
    want = leray_project(-advect(V, V)).coeffs
    ws = _workspace(V.grid)
    got = ws.scatter(_ins_tendency(ws, ws.gather(V.coeffs)))
    assert _rel_diff(got, want) <= 1e-13


@pytest.mark.parametrize("d,N", [(2, 16), (2, 64), (3, 16), (3, 32)])
def test_ins_tendency_projects_on_the_kept_block_as_leray_project(d, N):
    # oracle: the unprojected transport -Omega V, expanded to the half
    # spectrum and projected by leray_project there
    _, v = _random_state(d, N)
    ws = _workspace(v.grid)
    x = ws.gather(leray_project(v).coeffs)
    f = np.concatenate([x, np.empty((d * (d - 1) // 2,) + ws.kept_shape, x.dtype)])
    bcns.solvers._omega_rows(ws.ik_kept, x, f[d:])
    s = ws.inverse(f)
    w = np.zeros((d,) + v.grid.shape)
    bcns.solvers._add_omega_v(w, s[d:], s[:d])
    want = ws.gather(leray_project(SpectralField(v.grid, ws.scatter(-ws.forward(w)))).coeffs)
    assert np.array_equal(_ins_tendency(ws, x), want)


def _whole_lattice_step_cns(state, params, dt):
    # oracle: the Heun step with the linear flow applied on the whole
    # lattice, the state and each tendency expanded to the whole lattice
    # by c(-k) = conj(c(k)); returns the half spectra
    g = state.a.grid
    d, h = g.d, g.N // 2 + 1
    axes = tuple(range(-d, 0))
    k = np.meshgrid(*[np.fft.fftfreq(g.N, 1.0 / g.N)] * d, indexing="ij", sparse=True)
    k2 = sum(ki**2 for ki in k)
    mask = _half(functools.reduce(np.logical_and, [np.abs(ki) < g.N / 3.0 for ki in k]))
    kmag = np.sqrt(k2)
    kmag[(0,) * d] = 1.0
    khat = [ki / kmag for ki in k]
    transverse = np.exp(-params.mu * k2 * dt)
    e11, e12, e21, e22 = acoustic_propagator(k2, params.nu, dt)

    def prop(a, v):
        vlong = sum(khat[i] * v[i] for i in range(d))
        vlong_new = e21 * a + e22 * vlong
        return e11 * a + e12 * vlong, np.stack(
            [transverse * (v[i] - khat[i] * vlong) + khat[i] * vlong_new
             for i in range(d)])

    def whole(half):
        pad = np.zeros(half.shape[:-1] + (g.N,), dtype=complex)
        pad[..., :h] = half
        mirror = np.conj(np.roll(np.flip(pad, axes), 1, axes))
        pad[..., h:] = mirror[..., h:]
        return pad

    def tendency(a, v):
        ik = [1j * _half(ki) for ki in k]
        ah, vh = _half(a) * mask, _half(v) * mask
        divv = sum(ik[j] * vh[j] for j in range(d))
        fields = [ah, *vh] + [ik[j] * vh[i] for i in range(d) for j in range(d)]
        fields += [-params.mu * _half(k2) * vh[i]
                   + (params.nu - params.mu) * ik[i] * divv for i in range(d)]
        fields += [ik[i] * ah for i in range(d)]
        s = np.fft.irfftn(np.stack(fields), s=g.shape, axes=axes, norm="forward")
        a_s, v_s = s[0], s[1:1 + d]
        grad_v = s[1 + d:1 + d + d * d].reshape((d, d) + g.shape)
        visc, grad_a = s[1 + d + d * d:1 + 2 * d + d * d], s[1 + 2 * d + d * d:]
        dens = 1.0 + a_s
        coeffs = np.stack([a_s / dens, (pressure_law(a_s, params.gamma) - a_s) / dens])
        coeffs = np.fft.irfftn(np.fft.rfftn(coeffs, axes=axes, norm="forward") * mask,
                               s=g.shape, axes=axes, norm="forward")
        out = np.concatenate([a_s * v_s, -np.sum(v_s[None] * grad_v, axis=1)
                              - coeffs[0] * visc - coeffs[1] * grad_a])
        oh = np.fft.rfftn(out, axes=axes, norm="forward") * mask
        na = -sum(ik[j] * oh[j] for j in range(d))
        full = whole(np.concatenate([na[None], oh[d:]]))
        return full[0], full[1:]

    a, v = whole(state.a.coeffs), whole(state.v.coeffs)
    pa, pv = prop(a, v)
    k1a, k1v = tendency(a, v)
    p1a, p1v = prop(k1a, k1v)
    k2a, k2v = tendency(pa + dt * p1a, pv + dt * p1v)
    return _half(pa + 0.5 * dt * (p1a + k2a)), _half(pv + 0.5 * dt * (p1v + k2v))


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
def test_step_cns_matches_the_whole_lattice_step(d, N, gamma):
    a, v = _random_state(d, N)
    st = FlowState(a * 0.5, v * 0.3, 0.0)
    params = PhysicalParams(mu=0.7, nu=2.7, gamma=gamma)
    for _ in range(3):
        got = step_cns(st, params, 2e-3)
        want_a, want_v = _whole_lattice_step_cns(
            FlowState(dealias(st.a), dealias(st.v), st.t), params, 2e-3)
        assert _rel_diff(got.a.coeffs, want_a) <= 1e-14
        assert _rel_diff(got.v.coeffs, want_v) <= 1e-14
        st = got


def _dealiased_stack(g, nf, rng):
    c = (rng.standard_normal((nf,) + g.spectral_shape)
         + 1j * rng.standard_normal((nf,) + g.spectral_shape))
    return c * g.dealias_mask


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_workspace_transforms_are_bitwise_the_real_transforms(d, N):
    # the inverse of kept blocks is irfftn of their expansion, the forward
    # transform the kept block of rfftn; each reuse shape goes twice, so no
    # call may depend on what the last one left in the workspace
    g = make_grid(d, N)
    ws = _workspace(g)
    axes = tuple(range(-d, 0))
    rng = np.random.default_rng(3)
    for nf, reuse in [(1, False), (1, True), (1, True), (2 * d + d * d + 1, False),
                      (2 * d + d * d + 1, True), (2 * d + d * d + 1, True)]:
        stack = _dealiased_stack(g, nf, rng)
        kept = ws.gather(stack)
        want = np.fft.irfftn(ws.scatter(kept), s=g.shape, axes=axes, norm="forward")
        assert np.array_equal(ws.inverse(kept, reuse), want)
        samples = rng.standard_normal((nf,) + g.shape)
        want = ws.gather(np.fft.rfftn(samples, axes=axes, norm="forward"))
        assert np.array_equal(ws.forward(samples, reuse), want)


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_workspace_gather_then_scatter_is_the_dealias_mask(d, N):
    g = make_grid(d, N)
    ws = _workspace(g)
    rng = np.random.default_rng(4)
    x = (rng.standard_normal((d + 1,) + g.spectral_shape)
         + 1j * rng.standard_normal((d + 1,) + g.spectral_shape))
    assert np.array_equal(ws.scatter(ws.gather(x)), x * g.dealias_mask)
    y = rng.standard_normal(x.shape) + 0j
    assert np.array_equal(ws.scatter(ws.gather(x), out=y.copy()),
                          np.where(g.dealias_mask, x, y))


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_results_never_alias_the_workspace(d, N):
    a, v = _random_state(d, N)
    V = leray_project(v)
    params = PhysicalParams(mu=0.7, nu=2.7, gamma=1.4)
    ws = _workspace(a.grid)
    b = build_partition(a.grid)

    def results(scale):
        # the flow steps, then the product path, which shares the workspace
        return [_cns_tendency(ws, ws.gather(np.concatenate([a.coeffs[None] * scale,
                                                             v.coeffs])), params),
                _ins_tendency(ws, ws.gather(V.coeffs * scale)),
                *vars(step_cns(FlowState(a * scale, v, 0.0), params, 1e-3)).values(),
                step_ins(FlowState(a, V * scale, 0.0), 0.7, 1e-3).v,
                product_dealiased(a * scale, v), paraproduct(a * scale, v, b),
                remainder(v, a * scale, b), advect(v * scale, v),
                *commutator_transport(v, a * scale, b)]

    first = results(0.5)
    arrays = [getattr(r, "coeffs", r) for r in first if not isinstance(r, float)]
    kept = [x.copy() for x in arrays]
    results(0.25)
    for x, y in zip(arrays, kept):
        assert np.array_equal(x, y)
        assert not any(np.shares_memory(x, b) for b in ws._buffers.values())


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
def test_guard_bounds_equal_the_pointwise_maxima(d, N):
    # oracle: the time-step bounds written out on the samples of the state
    # truncated to the kept block; the guard reads them from a stage-1
    # tendency, or from the kept block's own inverse at the horizon
    a, v = _random_state(d, N)
    ws = _workspace(a.grid)
    params, cfg = PhysicalParams(mu=0.7, nu=2.7, gamma=1.4), StepperConfig()
    for scale in (0.5, -2.0):
        st = FlowState(a * scale, v, 0.0)
        a_s, v_s = inverse_transform(dealias(st.a)), inverse_transform(dealias(st.v))
        x = ws.gather(np.concatenate([st.a.coeffs[None], st.v.coeffs]))
        speed, ratio = _cns_tendency(ws, x, params, (0.0, cfg))[1]
        assert speed == pytest.approx(np.max(np.sqrt(np.sum(v_s * v_s, axis=0))), rel=1e-14)
        assert ratio == pytest.approx(np.max(np.abs(a_s / (1.0 + a_s))), rel=1e-14)
        assert bcns.solvers._guard(ws.inverse(x), 0.0, cfg) == (speed, ratio)
    assert _ins_tendency(ws, x[1:], (0.0, None))[1] == (speed, 0.0)
    assert bcns.solvers._guard(ws.inverse(x[1:]), 0.0, None) == (speed, 0.0)


def test_cached_propagator_steps_bit_identical_to_fresh_build():
    a, v = _random_state(2, 32)
    st = FlowState(a * 0.5, v * 0.3, 0.0)
    params = PhysicalParams(mu=1.0, nu=10.0, gamma=1.4)
    _propagator.cache_clear()
    fresh = step_cns(st, params, 3e-3)
    hits = _propagator.cache_info().hits
    cached = step_cns(st, params, 3e-3)
    assert _propagator.cache_info().hits == hits + 1
    assert np.array_equal(fresh.a.coeffs, cached.a.coeffs)
    assert np.array_equal(fresh.v.coeffs, cached.v.coeffs)


def test_propagator_tables_are_freed_with_it():
    # 200 builds with distinct dt: the cache holds two, and the tables must
    # go with the propagator that built them
    g = make_grid(2, 64)
    prop = _propagator(g, 1.0, 4.0, 1.0)
    one = sum(t.nbytes for t in (prop.transverse, prop.e11, prop.e12,
                                 prop.e22_minus_t))  # khat is the workspace's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(200):
            _propagator(g, 1.0, 4.0, 1e-3 * (1 + i))
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown <= 4 * one, (grown, one)


def test_propagator_cache_never_returns_a_stale_table():
    g16, g32 = make_grid(2, 16), make_grid(2, 32)
    keys = [(g32, 1.0, 10.0, 1e-3), (g32, 1.0, 40.0, 1e-3),
            (g32, 1.0, 40.0, 2e-3), (g32, 2.0, 40.0, 2e-3),
            (g16, 2.0, 40.0, 2e-3), (g32, 1.0, 10.0, 1e-3)]
    for key in keys:
        got = _propagator(*key)
        want = _LinearPropagator(*key)
        assert got.grid == key[0]
        assert got.e11.shape == _workspace(key[0]).kept_shape
        tables = {name: t for name, t in vars(got).items() if isinstance(t, np.ndarray)}
        assert {"transverse", "e11", "e12"} <= set(tables)
        assert set(tables) == {name for name, t in vars(want).items()
                               if isinstance(t, np.ndarray)}
        for name, table in tables.items():
            assert np.array_equal(table, getattr(want, name)), (key, name)
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0.0  # shared tables are read-only


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
def test_propagator_is_the_acoustic_pair_plus_transverse_decay(d, N):
    # oracle: the 2x2 flow on (a, khat . v) and exp(-mu |k|^2 dt) on the
    # transverse part v - khat (khat . v), recombined per mode on the half
    # spectrum and compared on the kept block
    g = make_grid(d, N)
    ws = _workspace(g)
    mu, nu, dt = 0.7, 2.7, 3e-2
    a, v = _random_state(d, N)
    khat = [ki / np.maximum(g.kmag, 1.0) for ki in g.k]
    e11, e12, e21, e22 = acoustic_propagator(g.k2, nu, dt)
    vlong = sum(khat[i] * v.coeffs[i] for i in range(d))
    want = np.stack([e11 * a.coeffs + e12 * vlong]
                    + [np.exp(-mu * g.k2 * dt) * (v.coeffs[i] - khat[i] * vlong)
                       + khat[i] * (e21 * a.coeffs + e22 * vlong) for i in range(d)])
    x = np.concatenate([a.coeffs[None], v.coeffs])
    got = _LinearPropagator(g, mu, nu, dt)(ws.gather(x))
    assert _rel_diff(got, ws.gather(want)) <= 1e-14


def test_run_guards_the_state_of_its_last_step(monkeypatch):
    # a horizon of one CFL step at the speed 10; the step rarefies a = 0
    # through a raised vacuum floor (the linear step and the full one
    # alike), and the state after the last step must end the run as a blow-up
    g = _grid()
    x, _ = g.meshes()
    v0 = forward_transform(
        np.stack([-10.0 * np.sin(x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    params, cfg = PhysicalParams(mu=1.0, nu=2.0), StepperConfig(vacuum_floor=0.9)
    horizon = cfg.cfl * g.dx / 10.0
    for linear in (True, False):
        with monkeypatch.context() as m:
            if linear:
                _linear_flow(m)
            traj, dts = stepped_run(FlowState(zeros(g), v0, 0.0), params, cfg, horizon)
        assert traj.terminated == "blowup"
        assert traj.times == [0.0]  # the bad state is not recorded
        assert dts.tolist() == [pytest.approx(horizon, rel=1e-15)]
        # linear: a = 10 dt exp(-dt) cos x after the step, nu |k| = 2 at |k| = 1
        density = (f"{1.0 - 10.0 * dts[0] * math.exp(-dts[0]):.3e}" if linear
                   else "8.655e-01")
        assert traj.events[-2] == (dts[0], f"blowup:density {density} at vacuum guard")


def _kept(state, system):
    ws = _workspace(state.v.grid)
    return ws.gather(np.concatenate([state.a.coeffs[None], state.v.coeffs])
                     if system == "cns" else state.v.coeffs)


def _written_out_run(initial, params, cfg, horizon, system):
    # oracle: every state guarded from its own kept block's inverse, then a
    # plain step, which guards it once more from its own first stage
    ws = _workspace(initial.v.grid)
    state = FlowState(*(SpectralField(f.grid, ws.scatter(ws.gather(f.coeffs)))
                        for f in (initial.a, initial.v)), initial.t)
    times, states, events, terminated = [state.t], [state], [(state.t, "start")], "horizon"

    def guard():
        return bcns.solvers._guard(ws.inverse(_kept(state, system)), state.t, cfg)

    try:
        bounds = guard()
        while state.t < horizon - 1e-12:
            dt = float(min(bcns.solvers._adaptive_dt(state.v.grid, bounds, params, cfg),
                           horizon - state.t))
            state = (step_cns(state, params, dt, cfg) if system == "cns"
                     else step_ins(state, params.mu, dt))
            bounds = guard()
            times.append(state.t)
            states.append(state)
    except BlowupError as exc:
        events.append((state.t, f"blowup:{exc.reason}"))
        terminated = "blowup"
    return times, states, events + [(state.t, f"end:{terminated}")], terminated


def _guard_cases():
    # (initial, params, config, horizon, system): adaptive steps to the
    # horizon for both flows, and a squeeze that ends on the vacuum floor
    a, v = _random_state(2, 16)
    g = a.grid
    x, _ = g.meshes()
    squeeze = forward_transform(
        np.stack([-10.0 * np.sin(x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    params = PhysicalParams(mu=0.7, nu=2.7, gamma=1.4)
    return [(FlowState(a, v * 0.5, 0.1), params, StepperConfig(), 0.14, "cns"),
            (FlowState(a, leray_project(v), 0.1), params, StepperConfig(), 0.14, "ins"),
            (FlowState(zeros(g), squeeze, 0.0), PhysicalParams(mu=1.0, nu=2.0),
             StepperConfig(cfl=0.9), 0.5, "cns")]


@pytest.mark.parametrize("case", range(3))
def test_run_is_the_written_out_guard_and_step_loop(case):
    initial, params, cfg, horizon, system = _guard_cases()[case]
    traj = run(initial, params, cfg, horizon, system=system)
    times, states, events, terminated = _written_out_run(initial, params, cfg,
                                                         horizon, system)
    assert (traj.times, traj.events, traj.terminated) == (times, events, terminated)
    assert len(times) >= 2
    assert terminated == ("blowup" if case == 2 else "horizon")
    if case == 2:
        assert events[-2][1].endswith("at vacuum guard")
        assert len(times) == 7 and events[-2][0] == pytest.approx(0.1165, abs=1e-4)
    for got, want in zip(traj.states, states, strict=True):
        assert got.t == want.t
        assert np.array_equal(got.a.coeffs, want.a.coeffs)
        assert np.array_equal(got.v.coeffs, want.v.coeffs)


@pytest.mark.parametrize("case", range(3))
def test_run_inverts_each_state_once(monkeypatch, case):
    # every stepped state is inverted once, by its stage-1 tendency, whose
    # rows the guard reads; only the horizon state is inverted for the guard
    initial, params, cfg, horizon, system = _guard_cases()[case]
    rows = []
    inverse = _Workspace.inverse

    def counted(ws, stack, reuse=False):
        rows.append(len(stack))
        return inverse(ws, stack, reuse)

    monkeypatch.setattr(_Workspace, "inverse", counted)
    traj = run(initial, params, cfg, horizon, system=system)
    steps, d, pressure = len(traj.times) - 1, initial.v.grid.d, params.gamma != 2.0
    # a stage's rows: [a, v, Omega, visc (, grad a)] and its coefficients, or [V, Omega]
    stage = ([1 + 2 * d + d * (d - 1) // 2 + pressure * d, 1 + pressure] if system == "cns"
             else [d + d * (d - 1) // 2])
    if traj.terminated == "horizon":
        assert rows == stage * 2 * steps + [len(_kept(initial, system))]
    else:  # a step made the unrecorded state whose first stage ends the run
        assert rows == stage * 2 * (steps + 1) + stage[:1]


@pytest.mark.parametrize("system", ["cns", "ins"])
def test_run_ends_on_velocity_overflow(system):
    g = _grid()
    traj = run(FlowState(zeros(g), taylor_green(g, 1e9), 0.0),
               PhysicalParams(mu=1.0, nu=2.0), StepperConfig(), 0.1, system=system)
    assert traj.terminated == "blowup"
    assert traj.times == [0.0]
    assert (0.0, "blowup:velocity magnitude overflow") in traj.events


def test_incompressible_run_with_nan_ends_blowup():
    g = _grid()
    c = taylor_green(g).coeffs.copy()
    c[0][1, 1] = np.nan
    st = FlowState(zeros(g), SpectralField(g, c), 0.0)
    with pytest.raises(BlowupError, match="non-finite"):
        step_ins(st, 1.0, 0.01)
    traj = run(st, PhysicalParams(mu=1.0, nu=2.0), StepperConfig(), 0.1,
               system="ins")
    assert traj.terminated == "blowup"
    assert traj.times == [0.0]  # no non-finite state is stepped to or recorded


def test_package_and_one_step_do_not_import_scipy():
    # importing scipy costs a third of a second and ~27 MB; the solver
    # must stay on numpy.fft
    code = ("import sys, bcns\n"
            "from bcns.solvers import FlowState, PhysicalParams, step_cns, taylor_green\n"
            "from bcns.spectral import make_grid, zeros\n"
            "g = make_grid(2, 16)\n"
            "step_cns(FlowState(zeros(g), taylor_green(g), 0.0),"
            " PhysicalParams(mu=1.0, nu=2.0, gamma=1.4), 1e-3)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
