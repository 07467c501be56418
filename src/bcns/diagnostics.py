"""Analytical observables: velocity decomposition, norm functionals, and
the incompressible-limit error metrics.

Throughout, ``u := v - V`` is the difference between the compressible
velocity and the incompressible reference, split as ``u = Pu + Qu`` by the
Leray/compressible projections.  Norms of tuples mean sums of norms.  Time
derivatives of snapshot data are centered differences (one-sided at the
endpoints), so every diagnostic is decoupled from solver internals and
matches the scheme's second order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bands import (
    BesovIndex,
    DyadicBands,
    band_table,
    besov_norm,
    besov_sum,
    split_low_high,
)
from .calculus import compressible_project
from .solvers import PhysicalParams, Trajectory
from .spectral import SpectralError, gradient


def _with_time_derivatives(times, fields):
    """Yield each field of the iterable with its time derivative: centered
    differences; second-order one-sided at the endpoints (plain one-sided
    when only two snapshots exist or the end spacings differ), so the
    truncation error matches the scheme order throughout.  At most three
    fields of the series and one derivative are alive at a time."""
    n = len(times)
    if n < 2:
        raise SpectralError("time derivatives need at least 2 snapshots")
    fields = iter(fields)
    prev, cur = next(fields), next(fields)
    if n == 2:
        d = (cur - prev) * (1.0 / (times[1] - times[0]))
        yield prev, d
        yield cur, d
        return
    def uniform(i0, i1):
        h0 = times[i0 + 1] - times[i0]
        h1 = times[i1 + 1] - times[i1]
        return abs(h1 - h0) <= 1e-9 * max(abs(h0), abs(h1))

    nxt = next(fields)
    dt = times[1] - times[0]
    if uniform(0, 1):
        yield prev, (prev * (-1.5) + cur * 2.0 + nxt * (-0.5)) * (1.0 / dt)
    else:
        yield prev, (cur - prev) * (1.0 / dt)
    for i in range(1, n - 1):
        yield cur, (nxt - prev) * (1.0 / (times[i + 1] - times[i - 1]))
        if i < n - 2:
            prev, cur, nxt = cur, nxt, next(fields)
    dt = times[-1] - times[-2]
    if uniform(n - 3, n - 2):
        yield nxt, (nxt * 1.5 + cur * (-2.0) + prev * 0.5) * (1.0 / dt)
    else:
        yield nxt, (nxt - cur) * (1.0 / dt)


def decompose(traj_cns: Trajectory, traj_ins: Trajectory) -> tuple:
    """The shared snapshot times of two trajectories and a generator of one
    row per snapshot, ``(a, Qu, Qu_t, Pu, Pu_t)``.  ``u = v - V`` passes
    through one :func:`_with_time_derivatives` window; ``u`` and ``u_t`` are
    projected once each, and ``Pu = u - Qu``."""
    ta = np.asarray(traj_cns.times)
    tb = np.asarray(traj_ins.times)
    n = min(len(ta), len(tb))
    if n < 2 or np.max(np.abs(ta[:n] - tb[:n])) > 1e-9:
        raise SpectralError("trajectories do not share snapshot times")
    times, cns, ins = ta[:n], traj_cns.states[:n], traj_ins.states[:n]

    def rows():
        u = _with_time_derivatives(times, (c.v - r.v for c, r in zip(cns, ins)))
        for st, (u_i, u_t) in zip(cns, u):
            Qu, Qu_t = compressible_project(u_i), compressible_project(u_t)
            yield st.a, Qu, Qu_t, u_i - Qu, u_t - Qu_t
    return times, rows()


def _trapezoid_running(times, values):
    """Running integral of sampled values (trapezoid), same length as input."""
    steps = 0.5 * np.diff(times) * (values[1:] + values[:-1])
    return np.concatenate(([0.0], np.cumsum(steps)))


@dataclass
class NormLedger:
    """Time-resolved functionals of the decomposition, each entry the value
    over ``[0, T_i]`` for snapshot time ``T_i``.

    ``X``/``Z`` (and the sup parts generally) are running maxima, the
    ``Y``/``W`` blocks running trapezoidal time integrals, so every column
    is nondecreasing by construction.  ``Z``/``W`` of ``Pu`` and the two
    parts of ``Vcal`` of the reference flow follow one rule: a sup of the
    ``-1 + d/p`` norm, and time integrals of the ``1 + d/p`` norm weighted
    by ``mu`` and of the ``-1 + d/p`` norm of the time derivative.  ``M`` is
    ``Vcal`` at the horizon, ``Vcal(T)``.  ``smallness_lhs``/``smallness_rhs``
    report the two sides of the data-smallness threshold (with unit
    constants); they are reported, never enforced.
    """

    times: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    Vcal: np.ndarray
    M: float
    smallness_lhs: float
    smallness_rhs: float


def norm_ledger(traj_cns: Trajectory, traj_ins: Trajectory,
                params: PhysicalParams, p: float,
                bands: DyadicBands) -> NormLedger:
    """Evaluate the X/Y/Z/W/Vcal functionals along shared snapshots.

    The integrability index ``p`` should satisfy ``2 <= p <= min(4, 2d/(d-2))``
    (strict at 4 when d = 2); values outside that range are computed anyway
    with a warning.
    """
    d = bands.grid.d
    p_cap = 4.0 if d == 2 else min(4.0, 2.0 * d / (d - 2.0))
    if p < 2 or p > p_cap or (d == 2 and p >= 4.0):
        warnings.warn(f"integrability p={p} outside the supported range "
                      f"[2, {p_cap}) for d={d}; computing anyway",
                      stacklevel=2)
    times, snapshots = decompose(traj_cns, traj_ins)
    V = _with_time_derivatives(times, (r.v for r in traj_ins.states))
    nu, mu = params.nu, params.mu

    low2 = BesovIndex(-1.0 + d / 2.0, 2.0, 1.0)     # low-frequency base index
    low2_hi = BesovIndex(1.0 + d / 2.0, 2.0, 1.0)   # low-frequency smoothing
    low2_mid = BesovIndex(d / 2.0, 2.0, 1.0)
    hp = BesovIndex(d / p, p, 1.0)                  # high-frequency density
    vp = BesovIndex(-1.0 + d / p, p, 1.0)
    vp_hi = BesovIndex(1.0 + d / p, p, 1.0)

    norm = partial(besov_sum, bands=bands)

    def rows(a, Qu, Qu_t, Pu, Pu_t, V, V_t):
        """One snapshot's band rows: the low parts in ``L^2``, the high parts
        and the solenoidal series in ``L^p``; and the two time-derivative
        norms."""
        ga = gradient(a)
        (a_lo, a_hi), (qu_lo, qu_hi), (dmp_lo, dmp_hi) = (
            split_low_high(f, nu, bands) for f in (a, Qu, Qu_t + ga))
        ga_lo = split_low_high(ga, nu, bands)[0]
        return (band_table((a_lo, ga_lo, qu_lo, dmp_lo), 2.0, bands),
                band_table((a_hi, qu_hi, dmp_hi, Pu, V), p, bands),
                besov_norm(Pu_t, vp, bands), besov_norm(V_t, vp, bands))

    # one pass over the snapshots: (snapshot x series x band) tables
    lo, hi, pu_t, big_vt = (np.array(c) for c in zip(*(rows(*r, *V_r)
                                                        for r, V_r in zip(snapshots, V))))
    a_lo, ga_lo, qu_lo, dmp_lo = lo.swapaxes(0, 1)
    a_hi, qu_hi, dmp_hi, pu, big_v = hi.swapaxes(0, 1)

    X = np.maximum.accumulate((norm(a_lo, low2) + nu * norm(ga_lo, low2)
                               + norm(qu_lo, low2)) + nu * norm(a_hi, hp)
                              + norm(qu_hi, vp))
    Y = _trapezoid_running(times, nu * norm(a_lo, low2_hi)
                           + nu * (nu * norm(ga_lo, low2_hi))
                           + nu * norm(qu_lo, low2_hi) + norm(a_hi, hp)
                           + nu * norm(qu_hi, vp_hi) + norm(dmp_lo, low2)
                           + norm(dmp_hi, vp))

    def sup_and_integral(table, dt_norms):
        """Running sup of the ``-1 + d/p`` norm; running integral of ``mu``
        times the ``1 + d/p`` norm plus the time derivative's norm."""
        return (np.maximum.accumulate(norm(table, vp)),
                _trapezoid_running(times, dt_norms + mu * norm(table, vp_hi)))

    Z, W = sup_and_integral(pu, pu_t)
    v_sup, v_int = sup_and_integral(big_v, big_vt)
    Vcal = v_sup + v_int
    M = float(Vcal[-1])

    q0 = split_low_high(compressible_project(traj_cns.states[0].v), nu, bands)
    (q0_lo,), (q0_hi,) = band_table(q0[:1], 2.0, bands), band_table(q0[1:], p, bands)
    lhs = (norm(a_lo[0], low2) + nu * norm(a_lo[0], low2_mid)
           + nu * norm(a_hi[0], hp) + norm(q0_lo, low2) + norm(q0_hi, vp)
           + M * M + mu * mu)  # products and logs: inf or 0 out of range, no error
    rhs = math.exp(0.5 * (math.log(mu) + math.log(nu)) - (M + M * M))
    return NormLedger(times, X, Y, Z, W, Vcal, M, lhs, rhs)


@dataclass
class LimitError:
    """The four metric blocks of the convergence display, separately:
    scaled density sup, velocity-error sup, weighted gradient integral, and
    time-derivative integral."""

    err_density: float
    err_sup: float
    err_grad_l1: float
    err_dt_l1: float


def limit_error(traj_cns: Trajectory, traj_ins: Trajectory, params: PhysicalParams,
                p: float, bands: DyadicBands) -> LimitError:
    """Evaluate the convergence metrics between a compressible run with
    ``params`` and the incompressible reference.

    Blocks: ``sqrt(nu/mu) sup_t ||a||_{B^{d/p}_{p,1}}``,
    ``sup_t ||Pv - V||_{B^{-1+d/p}_{p,1}}``,
    ``mu int ||Pv - V||_{B^{1+d/p}_{p,1}} dt`` and
    ``int ||Pv_t - V_t||_{B^{-1+d/p}_{p,1}} dt``.  Requires ``a_0 = 0`` in
    the compressible run and shared snapshot times.
    """
    times, snapshots = decompose(traj_cns, traj_ins)
    d, mu = bands.grid.d, params.mu
    hp = BesovIndex(d / p, p, 1.0)
    vp = BesovIndex(-1.0 + d / p, p, 1.0)
    vp_hi = BesovIndex(1.0 + d / p, p, 1.0)

    # (snapshot x series x band), one snapshot's fields at a time
    fields = (f for a, _, _, Pu, Pu_t in snapshots for f in (a, Pu, Pu_t))
    table = band_table(fields, p, bands).reshape(len(times), 3, -1)
    dens, pu, pu_t = table.swapaxes(0, 1)
    dens = besov_sum(dens, hp, bands)
    if dens[0] > 1e-12:
        raise SpectralError("limit_error requires a_0 = 0 in the compressible run")
    sups, grads = besov_sum(pu, vp, bands), besov_sum(pu, vp_hi, bands)
    dts = besov_sum(pu_t, vp, bands)

    return LimitError(
        err_density=math.sqrt(params.nu / mu) * float(np.max(dens)),
        err_sup=float(np.max(sups)),
        err_grad_l1=mu * float(np.trapezoid(grads, times)),
        err_dt_l1=float(np.trapezoid(dts, times)),
    )


@dataclass
class SweepResult:
    nu_values: list
    errors: list           # LimitError per nu, ordered as nu_values
    slope: float
    fit_residual: float
    excluded: list         # (nu, reason) for members dropped from the fit


class FitError(SpectralError):
    """Viscosities or errors that cannot carry the rate fit."""


def check_viscosities(nu_values) -> None:
    """Raise unless the viscosities can carry a rate fit: at least 3 strictly
    increasing values spanning 1.5 decades."""
    nu_values = np.asarray(nu_values, dtype=np.float64)
    if len(nu_values) < 3:
        raise FitError("rate fit needs at least 3 viscosity values")
    if np.any(np.diff(nu_values) <= 0):
        raise FitError("viscosity values must be strictly increasing")
    if nu_values[-1] / nu_values[0] < 10**1.5:
        raise FitError("viscosity values must span at least 1.5 decades")


def fit_rate(nu_values, errors):
    """Least-squares slope of ``log(error)`` against ``log(nu)``.

    Needs viscosities that pass :func:`check_viscosities` and positive
    errors; returns ``(slope, rms_residual)``.
    """
    check_viscosities(nu_values)
    nu_values = np.asarray(nu_values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if np.any(errors <= 1e-13):
        raise FitError("rate fit needs errors above roundoff scale")
    logx = np.log(nu_values)
    logy = np.log(errors)
    slope, intercept = np.polyfit(logx, logy, 1)
    resid = logy - (slope * logx + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))
