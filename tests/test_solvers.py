import functools
import math
import os
import subprocess
import sys
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
    kinetic_energy,
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
    _workspace,
    dealias,
    divergence,
    forward_transform,
    gradient,
    inverse_transform,
    laplacian,
    lp_norm,
    make_grid,
    product_dealiased,
    zeros,
)


def _grid(N=16):
    return make_grid(2, N)


def _linear_flow(monkeypatch):
    """Switch the nonlinear remainder of the compressible step off."""
    monkeypatch.setattr(bcns.solvers, "_cns_tendency", lambda ws, a, v, params:
                        np.zeros((1 + len(v),) + a.shape, dtype=complex))


def test_params_validation():
    p = PhysicalParams(mu=1.0, lam=3.0, gamma=1.4)
    assert p.nu == pytest.approx(5.0)
    with pytest.raises(SpectralError):
        PhysicalParams(mu=-1.0, lam=0.0)
    with pytest.raises(SpectralError):
        PhysicalParams(mu=0.5, lam=-2.0)  # nu = -1
    with pytest.raises(SpectralError):
        PhysicalParams(mu=1.0, lam=0.0, gamma=0.5)
    # NaN passes every <= comparison; infinities are not viscosities
    for kwargs in ({"mu": math.nan, "lam": 0.0}, {"mu": 1.0, "lam": math.nan},
                   {"mu": 1.0, "lam": 0.0, "gamma": math.nan},
                   {"mu": math.inf, "lam": 0.0}, {"mu": 1.0, "lam": math.inf}):
        with pytest.raises(SpectralError):
            PhysicalParams(**kwargs)
    q = PhysicalParams.from_nu(1.0, 40.0)
    assert q.nu == pytest.approx(40.0) and q.lam == pytest.approx(38.0)


def test_stepper_config_validation():
    with pytest.raises(SpectralError):
        StepperConfig(cfl=1.5)
    # a step that cannot be positive would leave run() stepping forever
    for field, value in (("dt_max", 0.0), ("dt_max", -0.1), ("dt_max", math.nan),
                         ("fixed_dt", 0.0), ("fixed_dt", -1e-3),
                         ("a_inf_max", -1.0), ("a_inf_max", math.nan),
                         ("vacuum_floor", math.nan), ("vacuum_floor", 1.0),
                         ("vacuum_floor", -0.1), ("field_max", math.inf)):
        with pytest.raises(SpectralError, match=field):
            StepperConfig(**{field: value})
    assert StepperConfig(fixed_dt=1e-3).fixed_dt == 1e-3


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


def test_run_vacuum_guard_reports_the_state_time():
    # min density 1 - 0.95 = 0.05 is below the vacuum floor 0.1, while
    # max|a| = 0.95 stays under the raised amplitude guard
    g = _grid()
    x, _ = g.meshes()
    a0 = forward_transform(-0.95 * np.cos(x) + np.zeros(g.shape), g)
    params = PhysicalParams(mu=1.0, lam=0.0, gamma=1.4)
    cfg = StepperConfig(a_inf_max=2.0)
    traj = run(FlowState(a0, zeros(g, vector=True), 0.3), params, cfg, 1.0)
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


def test_step_cns_zero_state():
    g = _grid()
    params = PhysicalParams(mu=1.0, lam=0.0)
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
    params = PhysicalParams(mu=1.0, lam=1.0, gamma=1.0)  # nu = 3
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
    params = PhysicalParams(mu=1.0, lam=0.0, gamma=2.0)
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
    params = PhysicalParams(mu=0.5, lam=1.0, gamma=1.4)
    st = FlowState(a0, v0, 0.0)
    m0 = st.a.mean()
    for _ in range(1000):
        st = step_cns(st, params, 2e-3)
    assert abs(st.a.mean() - m0) <= 1e-12


def test_step_cns_3d_smoke():
    g = make_grid(3, 8)
    params = PhysicalParams(mu=1.0, lam=0.0, gamma=1.4)
    st = FlowState(zeros(g), taylor_green(g, 0.3), 0.0)
    for _ in range(5):
        st = step_cns(st, params, 5e-3)
    assert np.all(np.isfinite(st.v.coeffs))
    assert abs(st.a.mean()) <= 1e-13
    assert lp_norm(st.v, 2) > 0


def test_ins_pressure_gradient_identity():
    # grad(Pi) = -Q(V . grad V), the pressure that closes the projected system
    from bcns.calculus import advect, compressible_project
    from bcns.solvers import ins_pressure
    from bcns.spectral import gradient

    g = make_grid(2, 32)
    V = taylor_green(g)
    grad_pi = gradient(ins_pressure(V))
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


def test_run_zero_data():
    g = _grid()
    params = PhysicalParams(mu=1.0, lam=0.0)
    traj = run(FlowState(zeros(g), zeros(g, vector=True), 0.0), params,
               StepperConfig(dt_max=0.05), 0.3)
    assert traj.terminated == "horizon"
    assert all(lp_norm(s.v, 2) == 0.0 for s in traj.states)
    assert traj.times[-1] == pytest.approx(0.3)


def test_run_taylor_green_energy_decay():
    g = make_grid(2, 32)
    params = PhysicalParams(mu=1.0, lam=0.0)
    v0 = taylor_green(g)
    traj = run(FlowState(zeros(g), v0, 0.0), params,
               StepperConfig(cfl=0.4, dt_max=0.05), 1.0, system="ins")
    e0 = kinetic_energy(traj.states[0].v)
    e1 = kinetic_energy(traj.states[-1].v)
    assert abs(e1 / e0 - math.exp(-4.0)) <= 1e-4


def test_run_blowup_recorded():
    g = _grid()
    x, _ = g.meshes()
    a0 = forward_transform(0.95 * np.cos(x) + np.zeros(g.shape), g)
    params = PhysicalParams(mu=1.0, lam=0.0)
    traj = run(FlowState(a0, zeros(g, vector=True), 0.0), params,
               StepperConfig(dt_max=0.01), 1.0)
    assert traj.terminated == "blowup"
    assert any("blowup" in ev for _, ev in traj.events)


def test_run_hits_snapshot_times():
    g = _grid()
    params = PhysicalParams(mu=1.0, lam=0.0)
    v0 = taylor_green(g, 0.1)
    snap = np.linspace(0.0, 0.2, 5)
    traj = run(FlowState(zeros(g), v0, 0.0), params,
               StepperConfig(dt_max=0.013), 0.2, system="cns", snap_times=snap)
    assert np.max(np.abs(np.asarray(traj.times) - snap)) <= 1e-10


def _terminal_state(dt, T=0.25, N=32):
    g = make_grid(2, N)
    x, _ = g.meshes()
    v0 = taylor_green(g) + forward_transform(
        np.stack([0.3 * np.sin(x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    params = PhysicalParams(mu=1.0, lam=2.0, gamma=1.4)
    cfg = StepperConfig(fixed_dt=dt)
    traj = run(FlowState(zeros(g), v0, 0.0), params, cfg, T)
    s = traj.final()
    return s


def test_self_convergence_second_order():
    dts = (0.01, 0.005, 0.0025)
    states = [_terminal_state(dt) for dt in dts]
    errs = []
    for a, b in zip(states, states[1:]):
        errs.append(lp_norm(a.v - b.v, 2) + lp_norm(a.a - b.a, 2))
    ratio = errs[0] / errs[1]
    assert abs(ratio - 4.0) <= 0.15 * 4.0


def test_linearized_effective_velocity_high_band_decay(monkeypatch):
    # single high mode, nonlinearities off, 2^j nu > 1 on its bands:
    # |w| decays monotonically
    from bcns.diagnostics import effective_velocity

    g = _grid()
    x, _ = g.meshes()
    a0 = forward_transform(0.01 * np.cos(4 * x) + np.zeros(g.shape), g)
    v0 = forward_transform(
        np.stack([0.01 * np.sin(4 * x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    params = PhysicalParams(mu=1.0, lam=6.0)  # nu = 8, bands of |k|=4 all high
    _linear_flow(monkeypatch)
    cfg = StepperConfig(fixed_dt=0.005)
    st = FlowState(a0, v0, 0.0)
    norms = []
    for _ in range(40):
        w = effective_velocity(st.a, compressible_project(st.v), params.nu)
        norms.append(lp_norm(w, 2))
        st = step_cns(st, params, 0.005, cfg)
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
        traj = run(FlowState(zeros(g), v0, 0.0), PhysicalParams.from_nu(1.0, nu),
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
    visc = laplacian(v) * params.mu + gradient(divergence(v)) * (params.mu + params.lam)
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
    params = PhysicalParams(mu=0.7, lam=1.3, gamma=gamma)
    n = _cns_tendency(_workspace(a.grid), a.coeffs, v.coeffs, params)
    want_a, want_v = _product_chain_cns_tendency(a, v, params)
    assert _rel_diff(n[0], want_a) <= 1e-13
    assert _rel_diff(n[1:], want_v) <= 1e-13


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_ins_tendency_matches_projected_advection(d, N):
    _, v = _random_state(d, N)
    V = leray_project(v)
    want = leray_project(-advect(V, V)).coeffs
    got = _ins_tendency(_workspace(V.grid), V.coeffs)
    assert _rel_diff(got, want) <= 1e-13


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
                   + (params.mu + params.lam) * ik[i] * divv for i in range(d)]
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
    params = PhysicalParams(mu=0.7, lam=1.3, gamma=gamma)
    for _ in range(3):
        got = step_cns(st, params, 2e-3)
        want_a, want_v = _whole_lattice_step_cns(st, params, 2e-3)
        assert _rel_diff(got.a.coeffs, want_a) <= 1e-14
        assert _rel_diff(got.v.coeffs, want_v) <= 1e-14
        st = got


def _dealiased_stack(g, nf, rng):
    c = (rng.standard_normal((nf,) + g.spectral_shape)
         + 1j * rng.standard_normal((nf,) + g.spectral_shape))
    return c * g.dealias_mask


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_workspace_transforms_are_bitwise_the_real_transforms(d, N):
    g = make_grid(d, N)
    ws = _workspace(g)
    axes = tuple(range(-d, 0))
    rng = np.random.default_rng(3)
    for nf, reuse in [(1, False), (1, True), (2 * d + d * d + 1, False),
                      (2 * d + d * d + 1, True)]:
        stack = _dealiased_stack(g, nf, rng)
        want = np.fft.irfftn(stack, s=g.shape, axes=axes, norm="forward")
        assert np.array_equal(ws.inverse(stack.copy(), reuse), want)
        samples = rng.standard_normal((nf,) + g.shape)
        want = np.fft.rfftn(samples, axes=axes, norm="forward") * g.dealias_mask
        assert np.array_equal(ws.forward(samples, reuse), want)


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_results_never_alias_the_workspace(d, N):
    a, v = _random_state(d, N)
    V = leray_project(v)
    params = PhysicalParams(mu=0.7, lam=1.3, gamma=1.4)
    ws = _workspace(a.grid)
    b = build_partition(a.grid)

    def results(scale):
        # the flow steps, then the product path, which shares the workspace
        return [_cns_tendency(ws, a.coeffs * scale, v.coeffs, params),
                _ins_tendency(ws, V.coeffs * scale),
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
def test_guard_samples_equal_the_complex_inverse_for_any_coefficients(d, N):
    # the guards read undealiased half spectra, whose columns k_d = 0 and
    # k_d = -N/2 need not be Hermitian, as the inverse transform does
    g = make_grid(d, N)
    rng = np.random.default_rng(2)
    c = rng.standard_normal((d + 1,) + g.spectral_shape) + 1j * rng.standard_normal(
        (d + 1,) + g.spectral_shape)
    want = inverse_transform(SpectralField(g, c))
    got = _workspace(g).samples(c)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_cached_propagator_steps_bit_identical_to_fresh_build():
    a, v = _random_state(2, 32)
    st = FlowState(a * 0.5, v * 0.3, 0.0)
    params = PhysicalParams(mu=1.0, lam=8.0, gamma=1.4)
    _propagator.cache_clear()
    fresh = step_cns(st, params, 3e-3)
    hits = _propagator.cache_info().hits
    cached = step_cns(st, params, 3e-3)
    assert _propagator.cache_info().hits == hits + 1
    assert np.array_equal(fresh.a.coeffs, cached.a.coeffs)
    assert np.array_equal(fresh.v.coeffs, cached.v.coeffs)


def test_propagator_cache_never_returns_a_stale_table():
    g16, g32 = make_grid(2, 16), make_grid(2, 32)
    keys = [(g32, 1.0, 10.0, 1e-3), (g32, 1.0, 40.0, 1e-3),
            (g32, 1.0, 40.0, 2e-3), (g32, 2.0, 40.0, 2e-3),
            (g16, 2.0, 40.0, 2e-3), (g32, 1.0, 10.0, 1e-3)]
    for key in keys:
        got = _propagator(*key)
        want = _LinearPropagator(*key)
        assert got.grid == key[0]
        assert got.e11.shape == (key[0].N, key[0].N // 2 + 1)  # half lattice
        for name in ("transverse", "e11", "e12", "e22"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (key, name)
        with pytest.raises(ValueError):
            got.e11[(0,) * key[0].d] = 0.0  # shared tables are read-only


def test_run_guards_the_state_of_its_last_step(monkeypatch):
    # one linear step compresses a = 0 to a deviation above a_inf_max; the
    # state after the last step must end the run as a blow-up
    g = _grid()
    x, _ = g.meshes()
    v0 = forward_transform(
        np.stack([-10.0 * np.sin(x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    for linear in (True, False):
        with monkeypatch.context() as m:
            if linear:
                _linear_flow(m)
            traj = run(FlowState(zeros(g), v0, 0.0), PhysicalParams(mu=1.0, lam=0.0),
                       StepperConfig(fixed_dt=0.2), 0.2)
        assert traj.terminated == "blowup"
        assert traj.times == [0.0]  # the bad state is not recorded
        assert any(ev.startswith("blowup:density deviation")
                   for _, ev in traj.events)


def test_incompressible_run_with_nan_ends_blowup():
    g = _grid()
    c = taylor_green(g).coeffs.copy()
    c[0][1, 1] = np.nan
    st = FlowState(zeros(g), SpectralField(g, c), 0.0)
    with pytest.raises(BlowupError, match="non-finite"):
        step_ins(st, 1.0, 0.01)
    traj = run(st, PhysicalParams(mu=1.0, lam=0.0), StepperConfig(), 0.1,
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
            " PhysicalParams(mu=1.0, lam=0.0, gamma=1.4), 1e-3)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
