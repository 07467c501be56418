"""Equivariance of the flow under the symmetries of the lattice torus.

Both systems commute with every isometry of the torus that maps the grid to
itself, and so does a 2/3-dealiased Galerkin scheme on it: the kept box is
invariant under axis permutations, reflections and translations.  These
gates therefore hold for any correct scheme, not only for the present one.
Each map acts on samples: ``(g a)(x) = a(g^-1 x)`` and
``(g v)(x) = L v(g^-1 x)``, ``L`` the linear part of ``g``.  The dyadic
bands are radial and the ``L^p`` norms of vectors take the Euclidean
magnitude, so the Besov norms, the ledger and the limit error of mapped runs
are invariant, and so are the ratios a lemma trial measures on mapped fields.

The flow also commutes with the dilation ``x -> m x``, ``t -> m t`` for an
integer ``m``: ``a(m t, m x), v(m t, m x)`` solves with ``(mu/m, nu/m)`` up
to ``T/m``, on the sublattice ``m Z^d`` of a grid ``m`` times finer, with
the same 2/3 box and the same ``dt L(k)``.  So does ``run``: every ``dt``
rule (``dt_max/m``, the CFL bound on ``dx/m``, and ``dt_visc`` of ``nu/m``
on ``m^2 |k|^2``) gives the step divided by ``m``.  At ``p = 2`` in 2D each
ledger column is invariant, and the limit error's density block scales by
``m^{d/p}``.
"""

import functools

import numpy as np
import pytest

from bcns.bands import BesovIndex, besov_norm, build_partition
from bcns.calculus import leray_project
from bcns import lemmas
from bcns.diagnostics import limit_error, norm_ledger
from bcns.lemmas import random_field
from bcns.solvers import FlowState, PhysicalParams, StepperConfig, run
from bcns.spectral import forward_transform, inverse_transform, lp_norm, make_grid, zeros
from stepping import assert_equal_steps, steps_set_by, stepped_run

PARAMS = PhysicalParams(mu=1.0, nu=2.0, gamma=1.4)
CONFIG = StepperConfig(cfl=0.5, dt_max=0.01)  # dt_max binds: 20 steps of 0.005
HORIZON = 20 * 0.005
GRIDS = [(2, 32), (3, 16)]


def _swap(s, vector):
    # exchange the first and the last axis (a leading axis and the rfft axis);
    # with d in {2, 3} that reverses the components of a vector
    out = np.swapaxes(s, -s.ndim + vector, -1)
    return out[::-1] if vector else out


def _reflect(axis):
    def apply(s, vector):
        ax = axis - (s.ndim - vector)  # from the end, past the component axis
        out = np.roll(np.flip(s, axis=ax), 1, axis=ax)
        if vector:
            out = out.copy()
            out[axis] *= -1.0
        return out
    return apply


def _translate(s, vector):
    d = s.ndim - vector
    shifts = (3, -5, 7)[:d]
    return np.roll(s, shifts, axis=tuple(range(-d, 0)))


MAPS = ["swap_first_last", "reflect_first", "reflect_last", "translate"]


def _map(name, d):
    return {"swap_first_last": _swap, "reflect_first": _reflect(0),
            "reflect_last": _reflect(d - 1), "translate": _translate}[name]


def _mapped(state, g):
    grid = state.v.grid
    a = forward_transform(g(inverse_transform(state.a), False), grid)
    v = forward_transform(g(inverse_transform(state.v), True), grid)
    return FlowState(a, v, state.t)


@functools.lru_cache(maxsize=None)
def _initial(d, N, system, at_rest=False):
    # at_rest: the same velocity with a_0 = 0, as limit_error needs
    grid = make_grid(d, N)
    rng = np.random.default_rng(11)
    a = random_field(grid, rng)
    v = random_field(grid, rng, vector=True)
    a = a * (0.0 if at_rest else 0.3 / lp_norm(a, np.inf))
    v = v * (1.0 / lp_norm(v, np.inf))
    if system == "ins":
        v = leray_project(v)
    return FlowState(a, v, 0.0)


@functools.lru_cache(maxsize=None)
def _trajectory(d, N, system, name=None, at_rest=False):
    state = _initial(d, N, system, at_rest)
    if name is not None:
        state = _mapped(state, _map(name, d))
    traj = run(state, PARAMS, CONFIG, HORIZON, system=system)
    assert traj.terminated == "horizon"
    assert steps_set_by("dt_max", traj, PARAMS, CONFIG, system) == 20
    return traj


@pytest.mark.parametrize("name", MAPS)
@pytest.mark.parametrize("system", ["cns", "ins"])
@pytest.mark.parametrize("d,N", GRIDS)
def test_run_commutes_with_the_lattice_symmetries(d, N, system, name):
    g = _map(name, d)
    moved = _mapped(_initial(d, N, system), g).v.coeffs - _initial(d, N, system).v.coeffs
    assert np.max(np.abs(moved)) > 1e-3  # a map that fixes the data would gate nothing
    want = _mapped(_trajectory(d, N, system).final(), g)
    got = _trajectory(d, N, system, name).final()
    assert got.t == want.t
    for field in ("a", "v"):
        w = inverse_transform(getattr(want, field))
        x = inverse_transform(getattr(got, field))
        err = np.max(np.abs(x - w)) / np.max(np.abs(w))
        assert err <= 1e-13, (field, err)


@functools.lru_cache(maxsize=None)
def _diagnostics(name=None):
    # the ledger of the (cns, ins) pair (p = 3: its low parts in L^2, its high
    # parts and solenoidal series in L^3) and the final states' Besov norms
    cns, ins = (_trajectory(2, 32, system, name) for system in ("cns", "ins"))
    bands = build_partition(cns.final().v.grid)
    ledger = norm_ledger(cns, ins, PARAMS, 3.0, bands)
    values = {column: getattr(ledger, column) for column in (
        "times", "X", "Y", "Z", "W", "Vcal", "M", "smallness_lhs", "smallness_rhs")}
    for p in (2.0, 3.0):
        for label, f in (("cns a", cns.final().a), ("cns v", cns.final().v),
                         ("ins v", ins.final().v)):
            values[f"{label}, p = {p}"] = besov_norm(f, BesovIndex(-1.0 + 2.0 / p, p), bands)
    return values


@pytest.mark.parametrize("name", MAPS)
def test_diagnostics_are_invariant_under_the_lattice_symmetries(name):
    want, got = _diagnostics(), _diagnostics(name)
    for key, w in want.items():
        w, x = np.asarray(w), np.asarray(got[key])
        err = np.max(np.abs(x - w)) / np.max(np.abs(w))
        assert err <= 1e-13, (key, err)


def _deviation(want, got):
    return max(float(np.max(np.abs(np.asarray(got[key]) - np.asarray(w)))
                     / np.max(np.abs(np.asarray(w)))) for key, w in want.items())


@functools.lru_cache(maxsize=None)
def _limit_error(name=None):
    # the sweep's metric of a (cns, ins) pair whose compressible run has a_0 = 0
    cns = _trajectory(2, 32, "cns", name, at_rest=True)
    ins = _trajectory(2, 32, "ins", name)
    err = limit_error(cns, ins, PARAMS, 3.0, build_partition(cns.final().v.grid))
    return vars(err)


@pytest.mark.parametrize("name", MAPS)
def test_limit_error_is_invariant_under_the_lattice_symmetries(name):
    want = _limit_error()
    assert min(want.values()) > 0.0
    assert _deviation(want, _limit_error(name)) <= 1e-13


DILATION = 2
DILATION_PARAMS = [(1.0, 0.5), (0.5, 4.0)]  # (mu, nu) at m = 1


def _dilated_state(d, m, system="cns", amp=1.0, a_amp=0.05):
    # the data dilated by m on N = 16 m, a_0 = a_amp cos x (0 for "ins")
    grid = make_grid(d, 16 * m)
    x, y, *zs = (m * s for s in grid.meshes())
    z = np.zeros(grid.shape)
    if d == 2:
        v = [np.cos(x) * np.sin(y) + 0.3 * np.sin(x), -np.sin(x) * np.cos(y)
             + 0.1 * np.sin(x + y)]
    else:
        v = [np.sin(x) * np.cos(y) * np.cos(zs[0]) + 0.3 * np.sin(x),
             -np.cos(x) * np.sin(y) * np.cos(zs[0]), 0.2 * np.sin(zs[0] + x)]
    v = forward_transform(np.stack([amp * c + z for c in v]), grid)
    if system == "ins":
        return FlowState(zeros(grid), leray_project(v), 0.0)
    return FlowState(forward_transform(a_amp * np.cos(x) + z, grid), v, 0.0)


@functools.lru_cache(maxsize=None)
def _dilated_pair(m, mu, nu, at_rest=False):
    # the (cns, ins) pair of the 2D data dilated by m, with (mu, nu), dt_max
    # and the horizon divided by m; 11 snapshots, two dt_max steps apart
    params = PhysicalParams(mu=mu / m, nu=nu / m, gamma=1.4)
    config, horizon = StepperConfig(cfl=0.5, dt_max=0.01 / m), 0.1 / m
    snaps = np.linspace(0.0, horizon, 11)
    ins, ins_dts = stepped_run(_dilated_state(2, m, "ins"), params, config, horizon,
                               system="ins", snap_times=snaps)
    cns, cns_dts = stepped_run(_dilated_state(2, m, a_amp=0.0 if at_rest else 0.05),
                               params, config, horizon, system="cns", snap_times=snaps)
    assert cns.terminated == ins.terminated == "horizon" and len(cns.times) == 11
    for dts in (ins_dts, cns_dts):
        assert_equal_steps(dts, 0.005 / m, 20)
    return cns, ins, params, build_partition(cns.final().v.grid)


@pytest.mark.parametrize("mu, nu", DILATION_PARAMS)
def test_ledger_is_invariant_under_dilation(mu, nu):
    want, got = ({column: getattr(norm_ledger(cns, ins, params, 2.0, bands), column)
                  for column in ("X", "Y", "Z", "W", "Vcal", "M")}
                 for cns, ins, params, bands in (_dilated_pair(m, mu, nu)
                                                 for m in (1, DILATION)))
    assert min(np.max(w) for w in want.values()) > 0.0
    for key, w in want.items():
        err = np.max(np.abs(np.asarray(got[key]) - w)) / np.max(w)
        assert err <= 1e-13, (key, err)


@pytest.mark.parametrize("mu, nu", DILATION_PARAMS)
def test_limit_error_blocks_scale_under_dilation(mu, nu):
    # sqrt(nu/mu) is invariant and B^{d/p} of a(m x) carries m^{d/p}; the
    # velocity blocks are invariant: B^{-1+d/p} is B^0, the mu-weighted
    # B^{1+d/p} integral carries m^2 m^-1 m^-1, and the time derivative m m^-1
    want, got = (vars(limit_error(cns, ins, params, 2.0, bands))
                 for cns, ins, params, bands in (_dilated_pair(m, mu, nu, at_rest=True)
                                                 for m in (1, DILATION)))
    power = {"err_density": DILATION, "err_sup": 1, "err_grad_l1": 1, "err_dt_l1": 1}
    assert min(want.values()) > 0.0
    for key, w in want.items():
        err = abs(got[key] / power[key] - w) / w
        assert err <= 1e-13, (key, err)


# run's dt rules bound in turn: (system, d, rule, velocity amplitude, a_0
# amplitude, nu, dt_max, horizon) at m = 1, mu = 1
RUN_DILATION = {
    "cns-2d-dt_max": ("cns", 2, "dt_max", 1.0, 0.05, 0.5, 0.01, 0.1),
    "cns-2d-cfl": ("cns", 2, "cfl", 10.0, 0.0, 0.5, 0.1, 0.1),
    "cns-2d-dt_visc": ("cns", 2, "dt_visc", 1.0, 0.3, 10.0, 0.05, 0.05),
    "ins-2d-dt_max": ("ins", 2, "dt_max", 1.0, 0.0, 0.5, 0.01, 0.1),
    "ins-2d-cfl": ("ins", 2, "cfl", 10.0, 0.0, 0.5, 0.1, 0.1),
    # N = 16 -> 32: N = 8 -> 16 does not map the 2/3 box onto itself
    "cns-3d-dt_visc": ("cns", 3, "dt_visc", 1.0, 0.3, 10.0, 0.05, 0.03),
}


@pytest.mark.parametrize("case", list(RUN_DILATION))
def test_run_is_covariant_under_dilation(case):
    # the dilated run takes as many steps, each set by the same rule, at m
    # times smaller times, and its samples tile the coarse run's m^d times
    system, d, rule, amp, a_amp, nu, dt_max, horizon = RUN_DILATION[case]
    runs = []
    for m in (1, DILATION):
        params = PhysicalParams(mu=1.0 / m, nu=nu / m, gamma=1.4)
        config = StepperConfig(cfl=0.5, dt_max=dt_max / m)
        traj = run(_dilated_state(d, m, system, amp, a_amp), params, config, horizon / m,
                   system=system)
        assert traj.terminated == "horizon"
        runs.append((traj, steps_set_by(rule, traj, params, config, system)))
    (want, steps), (got, got_steps) = runs
    assert got_steps == steps >= 5
    times = np.asarray(got.times) * DILATION
    if rule == "dt_max":  # halved steps, exactly
        assert times.tolist() == want.times
    else:
        np.testing.assert_allclose(times, want.times, rtol=1e-13, atol=0)
    for w_state, g_state in zip(want.states, got.states, strict=True):
        for field in ("v",) if system == "ins" else ("a", "v"):
            w = inverse_transform(getattr(w_state, field))
            x = inverse_transform(getattr(g_state, field))
            err = np.max(np.abs(x - np.tile(w, (DILATION,) * d)))
            assert err <= 1e-13 * np.max(np.abs(w)), (field, w_state.t, err)


def _commutator_ratios(name=None):
    # one trial of the commutator checks on the N = 32 grid: with one trial
    # each report's maximum is that trial's ratio
    draw = lemmas.random_field

    def mapped_draw(grid, rng, decay=None, vector=False):
        f = draw(grid, rng, decay, vector)
        return forward_transform(_map(name, 2)(inverse_transform(f), vector), grid)

    with pytest.MonkeyPatch.context() as mp:
        if name is not None:
            mp.setattr(lemmas, "random_field", mapped_draw)
        reports = lemmas.check_commutators(trials=1, grid_sizes=(32,), seed=4)
    return {r.lemma: r.max_ratio for r in reports}


@pytest.mark.parametrize("name", MAPS)
def test_lemma_ratios_are_invariant_under_the_lattice_symmetries(name):
    want = _commutator_ratios()
    assert len(want) == 3 and min(want.values()) > 0.0
    assert _deviation(want, _commutator_ratios(name)) <= 1e-13
