import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from bcns.bands import BesovIndex, besov_norm, build_partition, split_low_high
from bcns.calculus import compressible_project, leray_project
from bcns.diagnostics import (
    _trapezoid_running,
    _with_time_derivatives,
    decompose,
    fit_rate,
    limit_error,
    norm_ledger,
)
from bcns.solvers import (
    FlowState,
    PhysicalParams,
    StepperConfig,
    Trajectory,
    taylor_green,
)
from bcns.spectral import (
    SpectralError,
    dealias,
    forward_transform,
    gradient,
    make_grid,
    zeros,
)
from stepping import assert_equal_steps, stepped_run


def _grid(N=16):
    return make_grid(2, N)


def _rand_vec(grid, seed):
    rng = np.random.default_rng(seed)
    return dealias(forward_transform(
        rng.standard_normal((grid.d,) + grid.shape), grid))


def _rand_scal(grid, seed):
    rng = np.random.default_rng(seed)
    return dealias(forward_transform(rng.standard_normal(grid.shape), grid))


def _time_derivatives(times, fields):
    """Oracle: the derivative list of a list of fields, by the same stencils
    as :func:`_with_time_derivatives` (centered; second-order one-sided at
    uniform ends, plain one-sided otherwise and for two snapshots)."""
    n = len(times)
    if n < 2:
        raise SpectralError("time derivatives need at least 2 snapshots")
    if n == 2:
        d = (fields[1] - fields[0]) * (1.0 / (times[1] - times[0]))
        return [d, d]
    def uniform(i0, i1):
        h0 = times[i0 + 1] - times[i0]
        h1 = times[i1 + 1] - times[i1]
        return abs(h1 - h0) <= 1e-9 * max(abs(h0), abs(h1))

    out = []
    for i in range(n):
        if i == 0:
            dt = times[1] - times[0]
            if uniform(0, 1):
                d = (fields[0] * (-1.5) + fields[1] * 2.0
                     + fields[2] * (-0.5)) * (1.0 / dt)
            else:
                d = (fields[1] - fields[0]) * (1.0 / dt)
        elif i == n - 1:
            dt = times[-1] - times[-2]
            if uniform(n - 3, n - 2):
                d = (fields[-1] * 1.5 + fields[-2] * (-2.0)
                     + fields[-3] * 0.5) * (1.0 / dt)
            else:
                d = (fields[-1] - fields[-2]) * (1.0 / dt)
        else:
            dt = times[i + 1] - times[i - 1]
            d = (fields[i + 1] - fields[i - 1]) * (1.0 / dt)
        out.append(d)
    return out


def _polynomial_series(times, degree):
    """Fields ``sum_k c_k t^k`` (random ``c_k``) and their exact time
    derivatives at ``times``."""
    g = _grid()
    c = [_rand_vec(g, 20 + k) for k in range(degree + 1)]
    fields = [sum((c[k] * t**k for k in range(1, degree + 1)), c[0]) for t in times]
    derivs = [sum((c[k] * (k * t ** (k - 1)) for k in range(2, degree + 1)), c[1])
              for t in times]
    return fields, derivs


def _assert_derivatives(times, fields, want, rtol):
    pairs = list(_with_time_derivatives(times, fields))
    assert len(pairs) == len(times)
    assert all(f is x for (f, _), x in zip(pairs, fields))
    scale = max(np.max(np.abs(w.coeffs)) for w in want)
    for i, ((_, d), w) in enumerate(zip(pairs, want)):
        assert np.max(np.abs((d - w).coeffs)) <= rtol * scale, i
    oracle = _time_derivatives(times, fields)
    assert all(np.array_equal(d.coeffs, o.coeffs) for (_, d), o in zip(pairs, oracle))


def test_time_derivatives_exact_on_quadratics_uniform():
    # both second-order ends and every centered interior point are exact
    times = np.linspace(0.0, 0.6, 7)
    fields, want = _polynomial_series(times, 2)
    _assert_derivatives(times, fields, want, 1e-12)


def test_time_derivatives_one_sided_fallback_on_uneven_ends():
    # uneven end spacings take the plain one-sided differences, exact on
    # linear data (the three-point end stencil is not, on these times)
    times = np.array([0.0, 0.1, 0.15, 0.3, 0.4, 0.6])
    fields, want = _polynomial_series(times, 1)
    _assert_derivatives(times, fields, want, 1e-12)


def test_time_derivatives_two_snapshots():
    times = np.array([0.0, 0.25])
    fields, want = _polynomial_series(times, 1)
    _assert_derivatives(times, fields, want, 1e-12)


def test_time_derivatives_need_two_snapshots():
    with pytest.raises(SpectralError):
        list(_with_time_derivatives(np.array([0.0]), [zeros(_grid())]))


def test_time_derivatives_read_the_series_lazily():
    # the pair of snapshot i is out once snapshot i + 1 (i + 2 at the
    # start) is read: a window of three fields
    times = np.linspace(0.0, 0.5, 6)
    fields, _ = _polynomial_series(times, 2)
    read = 0

    def series():
        nonlocal read
        for f in fields:
            read += 1
            yield f

    for i, _ in enumerate(_with_time_derivatives(times, series())):
        assert read == min(i + 2 + (i == 0), len(times))


def _paired_runs(N, T, dt, gamma=1.4, nu=3.0, amp=0.2, nsnap=None, a_amp=0.0, mu=1.0):
    g = make_grid(2, N)
    x, _ = g.meshes()
    a0 = forward_transform(a_amp * np.cos(x) + np.zeros(g.shape), g)
    v0 = taylor_green(g) + forward_transform(
        np.stack([amp * np.sin(x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    params = PhysicalParams(mu=mu, nu=nu, gamma=gamma)
    cfg = StepperConfig(cfl=0.5, dt_max=2 * dt)  # dt_max binds: steps of dt
    nsnap = nsnap or (int(round(T / dt)) + 1)
    snaps = np.linspace(0.0, T, nsnap)
    traj_ins, ins_dts = stepped_run(FlowState(zeros(g), leray_project(v0), 0.0), params,
                                    cfg, T, system="ins", snap_times=snaps)
    traj_cns, cns_dts = stepped_run(FlowState(a0, v0, 0.0), params, cfg, T,
                                    system="cns", snap_times=snaps)
    for dts in (ins_dts, cns_dts):
        assert_equal_steps(dts, dt, round(T / dt))
    return traj_cns, traj_ins, params


def test_norm_ledger_zero_trajectories():
    g = _grid()
    b = build_partition(g)
    params = PhysicalParams(mu=1.0, nu=2.0)
    times = [0.0, 0.1, 0.2]
    states = [FlowState(zeros(g), zeros(g, vector=True), t) for t in times]
    traj = Trajectory(list(times), states, [], "horizon")
    led = norm_ledger(traj, traj, params, 2.0, b)
    for col in (led.X, led.Y, led.Z, led.W, led.Vcal):
        assert np.max(col) == 0.0
    assert led.M == 0.0


def test_norm_ledger_udiff_zero():
    # v = V pointwise: X = Y = Z = W = 0 while Vcal > 0
    g = _grid()
    b = build_partition(g)
    params = PhysicalParams(mu=1.0, nu=2.0)
    cfg = StepperConfig(cfl=0.5, dt_max=0.02)
    T = 0.1
    snaps = np.linspace(0.0, T, 11)
    traj, dts = stepped_run(FlowState(zeros(g), taylor_green(g), 0.0), params, cfg, T,
                            system="ins", snap_times=snaps)
    assert_equal_steps(dts, 0.01, 10)
    led = norm_ledger(traj, traj, params, 2.0, b)
    assert np.max(led.X) <= 1e-13
    assert np.max(led.Y) <= 1e-12
    assert np.max(led.Z) <= 1e-13
    assert np.max(led.W) <= 1e-12
    assert led.Vcal[-1] > 0.1
    assert led.M > 0.1


def test_norm_ledger_hand_oracle_constant_fields():
    # constant-in-time single-mode fields: every block is a product of
    # besov_norm values and powers of T
    g = _grid()
    b = build_partition(g)
    nu = 8.0
    params = PhysicalParams(mu=1.0, nu=nu)
    x, y = g.meshes()
    a = forward_transform(0.01 * np.cos(4 * x) + np.zeros(g.shape), g)
    qu = forward_transform(
        np.stack([0.02 * np.sin(4 * x) + np.zeros(g.shape), np.zeros(g.shape)]), g)
    pu = forward_transform(
        np.stack([0.03 * np.sin(y) + 0 * x, np.zeros(g.shape)]), g)
    V = taylor_green(g, 0.5)
    T = 0.4
    times = [0.0, 0.2, 0.4]
    cns_states = [FlowState(a, qu + pu + V, t) for t in times]
    ins_states = [FlowState(zeros(g), V, t) for t in times]
    cns = Trajectory(list(times), cns_states, [], "horizon")
    ins = Trajectory(list(times), ins_states, [], "horizon")
    led = norm_ledger(cns, ins, params, 2.0, b)

    from bcns.spectral import gradient

    d = 2
    low2 = BesovIndex(-1 + d / 2, 2, 1)
    hp = BesovIndex(d / 2, 2, 1)
    vp = BesovIndex(-1 + d / 2, 2, 1)
    vp_hi = BesovIndex(1 + d / 2, 2, 1)
    low2_hi = BesovIndex(1 + d / 2, 2, 1)
    # nu = 8: every band of |k| >= 1 is high frequency
    x_want = nu * besov_norm(a, hp, b) + besov_norm(qu, vp, b)
    assert led.X[-1] == pytest.approx(x_want, rel=1e-12)
    # Y: time integrals of constant rates + the damped combination grad a
    y_rate = (besov_norm(a, hp, b) + nu * besov_norm(qu, vp_hi, b)
              + besov_norm(gradient(a), vp, b))
    assert led.Y[-1] == pytest.approx(T * y_rate, rel=1e-12)
    assert led.Z[-1] == pytest.approx(besov_norm(pu, vp, b), rel=1e-12)
    assert led.W[-1] == pytest.approx(T * besov_norm(pu, vp_hi, b), rel=1e-12)
    v_want = (besov_norm(V, vp, b) + T * besov_norm(V, vp_hi, b))
    assert led.Vcal[-1] == pytest.approx(v_want, rel=1e-12)
    m_want = besov_norm(V, vp, b) + params.mu * T * besov_norm(V, vp_hi, b)
    assert led.M == pytest.approx(m_want, rel=1e-12)


def test_norm_ledger_monotone_columns():
    traj_cns, traj_ins, params = _paired_runs(16, 0.2, 0.005, nsnap=21)
    b = build_partition(_grid())
    led = norm_ledger(traj_cns, traj_ins, params, 2.0, b)
    for col in (led.X, led.Y, led.Z, led.W, led.Vcal):
        assert np.all(np.diff(col) >= -1e-14)


def test_norm_ledger_warns_outside_p_range():
    g = _grid()
    b = build_partition(g)
    params = PhysicalParams(mu=1.0, nu=2.0)
    times = [0.0, 0.1]
    states = [FlowState(zeros(g), zeros(g, vector=True), t) for t in times]
    traj = Trajectory(list(times), states, [], "horizon")
    with pytest.warns(UserWarning):
        norm_ledger(traj, traj, params, 5.0, b)


def test_limit_error_identical_trajectories():
    g = _grid()
    b = build_partition(g)
    times = [0.0, 0.1, 0.2]
    V = taylor_green(g)
    states = [FlowState(zeros(g), V, t) for t in times]
    traj = Trajectory(list(times), states, [], "horizon")
    err = limit_error(traj, traj, PhysicalParams(mu=1.0, nu=10.0), 2.0, b)
    assert err.err_density == 0.0
    assert err.err_sup <= 1e-14
    assert err.err_grad_l1 <= 1e-14
    assert err.err_dt_l1 <= 1e-14


def test_limit_error_injected_perturbation():
    # solenoidal single-mode offset: the sup block is delta times the
    # Besov norm of the mode, exactly
    g = _grid()
    b = build_partition(g)
    delta = 1e-3
    x, y = g.meshes()
    V = taylor_green(g)
    pert = forward_transform(
        np.stack([delta * np.cos(x) * np.ones(g.shape) * 0 + np.zeros(g.shape),
                  delta * np.cos(x) + np.zeros(g.shape)]), g)
    times = [0.0, 0.1, 0.2]
    ins_states = [FlowState(zeros(g), V, t) for t in times]
    cns_states = [FlowState(zeros(g), V + pert, t) for t in times]
    ins = Trajectory(list(times), ins_states, [], "horizon")
    cns = Trajectory(list(times), cns_states, [], "horizon")
    err = limit_error(cns, ins, PhysicalParams(mu=1.0, nu=10.0), 2.0, b)
    scalar = forward_transform(np.cos(x) + np.zeros(g.shape), g)
    want = delta * besov_norm(scalar, BesovIndex(0.0, 2, 1), b)
    assert err.err_sup == pytest.approx(want, rel=1e-12)
    assert err.err_dt_l1 <= 1e-14


def test_limit_error_requires_zero_initial_density():
    g = _grid()
    b = build_partition(g)
    x, _ = g.meshes()
    a0 = forward_transform(0.1 * np.cos(x) + np.zeros(g.shape), g)
    times = [0.0, 0.1]
    V = taylor_green(g)
    cns = Trajectory(list(times), [FlowState(a0, V, t) for t in times], [],
                     "horizon")
    ins = Trajectory(list(times), [FlowState(zeros(g), V, t) for t in times],
                     [], "horizon")
    with pytest.raises(SpectralError):
        limit_error(cns, ins, PhysicalParams(mu=1.0, nu=10.0), 2.0, b)


def _ledger_reference(traj_cns, traj_ins, params, p, b):
    """X/Y/Z/W/Vcal/M and the smallness sides with every Besov norm taken
    by its own ``besov_norm`` call on lists built from the trajectories."""
    n, d, nu, mu = len(traj_cns.times), b.grid.d, params.nu, params.mu
    times = np.asarray(traj_cns.times)
    low2, low2_hi, low2_mid = (BesovIndex(s, 2, 1)
                               for s in (-1 + d / 2, 1 + d / 2, d / 2))
    hp, vp, vp_hi = (BesovIndex(s, p, 1) for s in (d / p, -1 + d / p, 1 + d / p))
    a = [st.a for st in traj_cns.states]
    V = [st.v for st in traj_ins.states]
    u = [c.v - r.v for c, r in zip(traj_cns.states, traj_ins.states)]
    Qu, Pu = [compressible_project(f) for f in u], [leray_project(f) for f in u]
    Qu_t, Pu_t, V_t = (_time_derivatives(times, f) for f in (Qu, Pu, V))

    def split(f, il, ih):
        lo, hi = split_low_high(f, nu, b)
        return besov_norm(lo, il, b), besov_norm(hi, ih, b)

    cols = np.zeros((6, n))
    for i in range(n):
        ga = gradient(a[i])
        a_lo, a_hi = split(a[i], low2, hp)
        qu_lo, qu_hi = split(Qu[i], low2, vp)
        cols[0, i] = (a_lo + nu * split(ga, low2, hp)[0] + qu_lo) + nu * a_hi + qu_hi
        qu_lo_h, qu_hi_h = split(Qu[i], low2_hi, vp_hi)
        dmp_lo, dmp_hi = split(Qu_t[i] + ga, low2, vp)
        cols[1, i] = (nu * split(a[i], low2_hi, hp)[0]
                      + nu**2 * split(ga, low2_hi, hp)[0] + nu * qu_lo_h
                      + a_hi + nu * qu_hi_h + dmp_lo + dmp_hi)
        cols[2, i] = besov_norm(Pu[i], vp, b)
        cols[3, i] = besov_norm(Pu_t[i], vp, b) + mu * besov_norm(Pu[i], vp_hi, b)
        cols[4, i] = besov_norm(V[i], vp, b)
        cols[5, i] = besov_norm(V_t[i], vp, b) + mu * besov_norm(V[i], vp_hi, b)
    M = float((np.maximum.accumulate(cols[4]) + _trapezoid_running(times, cols[5]))[-1])
    a0_lo, a0_hi = split(a[0], low2, hp)
    q0_lo, q0_hi = split(compressible_project(traj_cns.states[0].v), low2, vp)
    lhs = (a0_lo + nu * split(a[0], low2_mid, hp)[0] + nu * a0_hi + q0_lo + q0_hi
           + M**2 + mu**2)
    return cols, M, lhs


def _assert_ledger_matches_reference(traj_cns, traj_ins, params, p, b):
    # the ledger's tables come from Parseval at p = 2, the oracle's from
    # inverse transforms: equal up to roundoff
    led = norm_ledger(traj_cns, traj_ins, params, p, b)
    cols, M, lhs = _ledger_reference(traj_cns, traj_ins, params, p, b)
    times = np.asarray(traj_cns.times)
    close = partial(np.testing.assert_allclose, rtol=1e-13, atol=0)
    close(led.X, np.maximum.accumulate(cols[0]))
    close(led.Y, _trapezoid_running(times, cols[1]))
    close(led.Z, np.maximum.accumulate(cols[2]))
    close(led.W, _trapezoid_running(times, cols[3]))
    close(led.Vcal, np.maximum.accumulate(cols[4])
          + _trapezoid_running(times, cols[5]))
    close([led.M, led.smallness_lhs], [M, lhs])
    assert type(led.M) is float and type(led.smallness_lhs) is float


def test_decompose_series_feeds_every_consumer():
    # nu = 0.5 puts the bands j <= 1 in the low-frequency part of the ledger
    traj_cns, traj_ins, params = _paired_runs(16, 0.1, 0.005, nu=0.5, nsnap=11)
    b = build_partition(_grid())
    assert b.low_bands(params.nu) == [-1, 0, 1]
    times, rows = decompose(traj_cns, traj_ins)
    assert np.array_equal(times, traj_cns.times)
    assert iter(rows) is rows  # streamed: nothing derived is kept

    u = [c.v - r.v for c, r in zip(traj_cns.states, traj_ins.states)]
    V = [st.v for st in traj_ins.states]
    u_t, V_t = _time_derivatives(times, u), _time_derivatives(times, V)
    rows = list(rows)
    # the ledger's window of the reference, beside the rows
    V_window = list(_with_time_derivatives(times, (r.v for r in traj_ins.states)))
    assert len(rows) == len(V_window) == len(times)
    for i, (c, row, (V_i, V_ti)) in enumerate(zip(traj_cns.states, rows, V_window)):
        a, Qu, Qu_t, Pu, Pu_t = row
        assert a is c.a and V_i is V[i]
        want = (compressible_project(u[i]), compressible_project(u_t[i]),
                leray_project(u[i]), leray_project(u_t[i]), V_t[i])
        for name, got, w in zip(("Qu", "Qu_t", "Pu", "Pu_t", "V_t"),
                                (Qu, Qu_t, Pu, Pu_t, V_ti), want):
            assert np.array_equal(got.coeffs, w.coeffs), (name, i)
        scale = np.max(np.abs(u[i].coeffs))
        assert np.max(np.abs((Pu + Qu - u[i]).coeffs)) <= 1e-15 * scale
        assert np.max(np.abs(Pu.coeffs
                             - (leray_project(c.v) - V[i]).coeffs)) <= 1e-13 * scale

    # p = 3 tells the low parts' L^2 tables from the high parts' L^p ones
    for p in (2.0, 3.0):
        _assert_ledger_matches_reference(traj_cns, traj_ins, params, p, b)

    err = limit_error(traj_cns, traj_ins, params, 2.0, b)
    sups = [besov_norm(leray_project(c.v) - r.v, BesovIndex(0.0, 2, 1), b)
            for c, r in zip(traj_cns.states, traj_ins.states)]
    assert err.err_sup == pytest.approx(max(sups), rel=1e-13)


def test_ledger_weights_its_integrals_by_mu():
    # mu != 1 tells a mu-weighted B^{1+d/p} integral from an unweighted one
    # in W and Vcal, and M is Vcal at the horizon
    traj_cns, traj_ins, params = _paired_runs(16, 0.1, 0.005, nu=4.0, mu=0.5,
                                              nsnap=11, a_amp=0.05)
    assert traj_cns.terminated == "horizon"
    b = build_partition(_grid())
    for p in (2.0, 3.0):
        _assert_ledger_matches_reference(traj_cns, traj_ins, params, p, b)
    led = norm_ledger(traj_cns, traj_ins, params, 2.0, b)
    assert led.Vcal[-1] == led.M


def _ledger_peak_bytes(nsnap):
    """tracemalloc peak of one ``norm_ledger`` call on ``nsnap`` snapshots of
    an N = 16 pair of trajectories built beforehand (nu = 0.5: low and high
    parts both nonempty)."""
    g = _grid()
    b = build_partition(g)
    params = PhysicalParams(mu=1.0, nu=0.5, gamma=1.4)
    a, q, V = _rand_scal(g, 30) * 0.1, _rand_vec(g, 31), leray_project(_rand_vec(g, 32))
    times = np.linspace(0.0, 1.0, nsnap)
    cns = Trajectory(list(times), [FlowState(a * math.sin(t), V * math.cos(t)
                                             + q * math.sin(t), t) for t in times],
                     [], "horizon")
    ins = Trajectory(list(times), [FlowState(zeros(g), V * math.cos(t), t)
                                   for t in times], [], "horizon")
    norm_ledger(cns, ins, params, 2.0, b)     # builds the partition's caches
    tracemalloc.start()
    try:
        norm_ledger(cns, ins, params, 2.0, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_norm_ledger_memory_does_not_grow_with_snapshots():
    # the ledger reads one snapshot at a time: four times the snapshots
    # may not cost half as much memory again
    assert _ledger_peak_bytes(81) <= 1.5 * _ledger_peak_bytes(21)


def test_ledger_with_initial_density_matches_reference():
    # a nonzero a_0 gives every density table, and the smallness lhs's
    # initial-density terms, a nonzero value
    traj_cns, traj_ins, params = _paired_runs(16, 0.05, 0.005, nu=0.5, a_amp=0.05)
    assert traj_cns.terminated == "horizon"
    _assert_ledger_matches_reference(traj_cns, traj_ins, params, 3.0,
                                     build_partition(_grid()))


def test_fit_rate_power_law():
    nus = np.array([10.0, 40.0, 160.0, 640.0])
    errs = 3.7 * nus**-0.5
    slope, resid = fit_rate(nus, errs)
    assert abs(slope + 0.5) <= 1e-12
    assert resid <= 1e-12


def test_fit_rate_constant():
    nus = np.array([10.0, 100.0, 1000.0])
    slope, _ = fit_rate(nus, np.full(3, 2.0))
    assert abs(slope) <= 1e-12


def test_fit_rate_validation():
    with pytest.raises(SpectralError):
        fit_rate([10.0, 40.0], [1.0, 0.5])
    with pytest.raises(SpectralError):
        fit_rate([10.0, 40.0, 20.0], [1.0, 0.5, 0.7])
    with pytest.raises(SpectralError):
        fit_rate([10.0, 20.0, 40.0], [1.0, 0.5, 0.25])  # 0.6 decades only
    with pytest.raises(SpectralError):
        fit_rate([10.0, 100.0, 1000.0], [1.0, 0.0, 0.1])
