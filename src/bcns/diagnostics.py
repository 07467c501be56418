"""Analytical observables: velocity decomposition, source assembly, norm
functionals, and the incompressible-limit error metrics.

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
from functools import cached_property, partial

import numpy as np

from .bands import (
    BesovIndex,
    DyadicBands,
    band_table,
    besov_norm,
    besov_sum,
    split_low_high,
)
from .calculus import advect, compressible_project, leray_project
from .solvers import PhysicalParams, Trajectory, pressure_law
from .spectral import (
    SpectralField,
    SpectralError,
    dealias,
    divergence,
    forward_transform,
    gradient,
    inv_laplacian,
    inverse_transform,
    laplacian,
    product_dealiased,
)


def effective_velocity(a: SpectralField, u: SpectralField, nu: float) -> SpectralField:
    """``w = Qu + nu^-1 (-Lap)^-1 grad a`` (``a`` must be mean-free)."""
    if nu <= 0:
        raise SpectralError(f"effective_velocity needs nu > 0, got {nu}")
    w = compressible_project(u)
    corr = inv_laplacian(gradient(a))
    return w + corr * (1.0 / nu)


def _times_density(a: SpectralField, f: SpectralField) -> SpectralField:
    """Dealiased ``(1 + a) f``."""
    return f + product_dealiased(a, f)


def _k_minus_a(a: SpectralField, gamma: float) -> SpectralField:
    """``k(a) - a`` with ``k`` the pressure law (zero for gamma = 2)."""
    s = inverse_transform(dealias(a))
    return dealias(forward_transform(pressure_law(s, gamma) - s, a.grid))


def h1_terms(a, u, V, Vt, Put, Qut, params: PhysicalParams):
    """The three tagged source terms of the compressible part.

    ``Vt``, ``Put``, ``Qut`` are the caller's time derivatives of the
    reference velocity, the solenoidal difference, and the compressible
    difference; the damped combination ``Qu_t + grad a`` is formed here.
    """
    for f in (u, V, Vt, Put, Qut):
        if f.grid != a.grid:
            raise SpectralError("h1_terms requires a shared grid")
    tsum = Vt + Put + Qut + gradient(a)
    t1 = product_dealiased(a, tsum)
    upV = u + V
    t2 = _times_density(a, advect(upV, upV))
    t3 = product_dealiased(_k_minus_a(a, params.gamma), gradient(a))
    return t1, t2, t3


def assemble_H1(a, u, V, Vt, Put, Qut, params: PhysicalParams) -> SpectralField:
    t1, t2, t3 = h1_terms(a, u, V, Vt, Put, Qut, params)
    return t1 + t2 + t3


def h2_terms(a, u, V, Vt, Put, Qut):
    """The six tagged source terms of the solenoidal part."""
    for f in (u, V, Vt, Put, Qut):
        if f.grid != a.grid:
            raise SpectralError("h2_terms requires a shared grid")
    Pu = leray_project(u)
    Qu = compressible_project(u)
    upV = u + V
    t1 = product_dealiased(a, Vt + Put + Qut + gradient(a))
    t2 = _times_density(a, advect(Pu, V + Qu))
    t3 = product_dealiased(a, advect(upV, Pu))
    t4 = advect(upV, Pu)
    t5 = _times_density(a, advect(V, Qu) + advect(Qu, V))
    t6 = product_dealiased(a, advect(Qu, Qu) + advect(V, V))
    return t1, t2, t3, t4, t5, t6


def assemble_H2(a, u, V, Vt, Put, Qut) -> SpectralField:
    terms = h2_terms(a, u, V, Vt, Put, Qut)
    return sum(terms[1:], terms[0])


def _time_derivatives(times, fields):
    """Centered differences; second-order one-sided at the endpoints (plain
    one-sided when only two snapshots exist), so the truncation error matches
    the scheme order throughout."""
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


@dataclass
class DecompositionSeries:
    """The decomposition of a compressible run against its incompressible
    reference: ``a``, ``u = v - V``, ``V``, ``Qu``, ``Pu`` and the time
    derivatives ``a_t``, ``V_t``, ``Qu_t``, ``Pu_t``, one list entry per
    snapshot time.

    Each derived list is built on first use and kept, so a consumer holds
    only the lists it reads.
    """

    times: np.ndarray
    a: list
    V: list
    v: list         # compressible velocity

    def _differences(self):
        return (v - V for v, V in zip(self.v, self.V))

    @cached_property
    def u(self):
        return list(self._differences())

    @cached_property
    def Qu(self):
        return [compressible_project(u) for u in self._differences()]

    @cached_property
    def Pu(self):
        return [leray_project(u) for u in self._differences()]

    @cached_property
    def a_t(self):
        return _time_derivatives(self.times, self.a)

    @cached_property
    def V_t(self):
        return _time_derivatives(self.times, self.V)

    @cached_property
    def Qu_t(self):
        return _time_derivatives(self.times, self.Qu)

    @cached_property
    def Pu_t(self):
        return _time_derivatives(self.times, self.Pu)


def decompose(traj_cns: Trajectory, traj_ins: Trajectory) -> DecompositionSeries:
    """The decomposition series of two trajectories on their shared
    snapshot times."""
    ta = np.asarray(traj_cns.times)
    tb = np.asarray(traj_ins.times)
    n = min(len(ta), len(tb))
    if n < 2 or np.max(np.abs(ta[:n] - tb[:n])) > 1e-9:
        raise SpectralError("trajectories do not share snapshot times")
    return DecompositionSeries(ta[:n], [st.a for st in traj_cns.states[:n]],
                               [st.v for st in traj_ins.states[:n]],
                               [st.v for st in traj_cns.states[:n]])


@dataclass
class DecompositionResidual:
    times: np.ndarray
    mass: np.ndarray       # density equation of the compressible part
    longitudinal: np.ndarray
    solenoidal: np.ndarray


def decomposition_residual(traj_cns: Trajectory, traj_ins: Trajectory,
                           params: PhysicalParams, bands: DyadicBands,
                           p: float = 2.0) -> DecompositionResidual:
    """Evaluate both compressible-part equations and the solenoidal equation
    on the numerical fields; returns per-time Besov-norm residuals (index
    ``-1 + d/p``, and ``d/p`` for the scalar mass equation)."""
    S = decompose(traj_cns, traj_ins)
    d = bands.grid.d
    idx_v = BesovIndex(-1.0 + d / p, p, 1.0)
    idx_a = BesovIndex(d / p, p, 1.0)
    mu, nu = params.mu, params.nu

    def residuals(i):
        a, u, V, Qu, Pu = S.a[i], S.u[i], S.V[i], S.Qu[i], S.Pu[i]
        derivs = (S.V_t[i], S.Pu_t[i], S.Qu_t[i])
        h1 = assemble_H1(a, u, V, *derivs, params)
        h2 = assemble_H2(a, u, V, *derivs)
        return (S.a_t[i] + divergence(Qu) + divergence(product_dealiased(a, u + V)),
                S.Qu_t[i] - laplacian(Qu) * nu + gradient(a) + compressible_project(h1),
                S.Pu_t[i] - laplacian(Pu) * mu + leray_project(h2))

    # (time x equation x band): one time's residuals are alive at a time
    table = np.array([band_table(residuals(i), p, bands) for i in range(len(S.times))])
    return DecompositionResidual(S.times, besov_sum(table[:, 0], idx_a, bands),
                                 *besov_sum(table[:, 1:], idx_v, bands).T)


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
    is nondecreasing by construction.  ``Vcal`` is the same three-block
    functional of the reference flow whose full-horizon value is ``M``:
    a sup of the ``-1 + d/p`` norm plus time integrals of the ``1 + d/p``
    norm (weighted by ``mu``) and of the ``-1 + d/p`` norm of the time
    derivative.  ``smallness_lhs``/``smallness_rhs`` report the two sides of
    the data-smallness threshold (with unit constants); they are reported,
    never enforced.
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
    S = decompose(traj_cns, traj_ins)
    times = S.times
    nu, mu = params.nu, params.mu

    low2 = BesovIndex(-1.0 + d / 2.0, 2.0, 1.0)     # low-frequency base index
    low2_hi = BesovIndex(1.0 + d / 2.0, 2.0, 1.0)   # low-frequency smoothing
    low2_mid = BesovIndex(d / 2.0, 2.0, 1.0)
    hp = BesovIndex(d / p, p, 1.0)                  # high-frequency density
    vp = BesovIndex(-1.0 + d / p, p, 1.0)
    vp_hi = BesovIndex(1.0 + d / p, p, 1.0)

    norm = partial(besov_sum, bands=bands)

    def low_high(fields):
        """Tables of the low parts in ``L^2`` and of the high parts in
        ``L^p``; one snapshot's parts are alive at a time."""
        rows = [(band_table([lo], 2.0, bands), band_table([hi], p, bands))
                for lo, hi in (split_low_high(f, nu, bands) for f in fields)]
        return tuple(np.concatenate(t) for t in zip(*rows))

    # one (snapshot x band) table per series and low/high part
    a_lo, a_hi = low_high(S.a)
    ga_lo = band_table((split_low_high(gradient(a), nu, bands)[0] for a in S.a),
                       2.0, bands)
    qu_lo, qu_hi = low_high(S.Qu)
    dmp_lo, dmp_hi = low_high(qt + gradient(a) for qt, a in zip(S.Qu_t, S.a))
    pu, big_v = band_table(S.Pu, p, bands), band_table(S.V, p, bands)
    pu_t = np.array([besov_norm(f, vp, bands) for f in S.Pu_t])
    big_vt = np.array([besov_norm(f, vp, bands) for f in S.V_t])

    X = np.maximum.accumulate((norm(a_lo, low2) + nu * norm(ga_lo, low2)
                               + norm(qu_lo, low2)) + nu * norm(a_hi, hp)
                              + norm(qu_hi, vp))
    Y = _trapezoid_running(times, nu * norm(a_lo, low2_hi)
                           + nu**2 * norm(ga_lo, low2_hi)
                           + nu * norm(qu_lo, low2_hi) + norm(a_hi, hp)
                           + nu * norm(qu_hi, vp_hi) + norm(dmp_lo, low2)
                           + norm(dmp_hi, vp))
    Z = np.maximum.accumulate(norm(pu, vp))
    W = _trapezoid_running(times, pu_t + norm(pu, vp_hi))
    v_sup = norm(big_v, vp)
    Vcal = (np.maximum.accumulate(v_sup)
            + _trapezoid_running(times, big_vt + norm(big_v, vp_hi)))
    M = float(np.max(v_sup)
              + _trapezoid_running(times, big_vt + mu * norm(big_v, vp_hi))[-1])

    (q0_lo,), (q0_hi,) = low_high([compressible_project(traj_cns.states[0].v)])
    lhs = (norm(a_lo[0], low2) + nu * norm(a_lo[0], low2_mid)
           + nu * norm(a_hi[0], hp) + norm(q0_lo, low2) + norm(q0_hi, vp)
           + M**2 + mu**2)
    rhs = math.sqrt(mu * nu) * math.exp(-(M + M**2))
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

    def as_tuple(self):
        return (self.err_density, self.err_sup, self.err_grad_l1, self.err_dt_l1)


def limit_error(traj_cns: Trajectory, traj_ins: Trajectory, p: float,
                bands: DyadicBands, mu: float, nu: float) -> LimitError:
    """Evaluate the convergence metrics between a compressible run and the
    incompressible reference.

    Blocks: ``sqrt(nu/mu) sup_t ||a||_{B^{d/p}_{p,1}}``,
    ``sup_t ||Pv - V||_{B^{-1+d/p}_{p,1}}``,
    ``mu int ||Pv - V||_{B^{1+d/p}_{p,1}} dt`` and
    ``int ||Pv_t - V_t||_{B^{-1+d/p}_{p,1}} dt``.  Requires ``a_0 = 0`` in
    the compressible run and shared snapshot times.
    """
    S = decompose(traj_cns, traj_ins)
    d = bands.grid.d
    hp = BesovIndex(d / p, p, 1.0)
    vp = BesovIndex(-1.0 + d / p, p, 1.0)
    vp_hi = BesovIndex(1.0 + d / p, p, 1.0)

    dens = besov_sum(band_table(S.a, p, bands), hp, bands)
    if dens[0] > 1e-12:
        raise SpectralError("limit_error requires a_0 = 0 in the compressible run")

    pu = band_table(S.Pu, p, bands)
    sups, grads = besov_sum(pu, vp, bands), besov_sum(pu, vp_hi, bands)
    dts = besov_sum(band_table(S.Pu_t, p, bands), vp, bands)

    return LimitError(
        err_density=math.sqrt(nu / mu) * float(np.max(dens)),
        err_sup=float(np.max(sups)),
        err_grad_l1=mu * float(np.trapezoid(grads, S.times)),
        err_dt_l1=float(np.trapezoid(dts, S.times)),
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
