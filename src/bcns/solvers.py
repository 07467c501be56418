"""Time integration: compressible flow, incompressible reference, heat flow.

All three steppers propagate the constant-coefficient linear part exactly in
Fourier space and treat the dealiased nonlinear remainder with explicit
second-order Runge-Kutta (Heun) through the integrating factor, so the time
step is limited by advection (and by the variable-coefficient viscous
remainder of the compressible system), never by acoustics or by the
dominant viscosity.  The flow steps use per-grid scratch buffers that no
result aliases.

Compressible system, nonconservative form (momentum equation divided by the
density ``1 + a``, pressure normalized so ``P'(1) = 1``):

    a_t = -div v - div(a v)
    v_t = -grad a + mu Lap v + (mu + lam) grad div v
          - (v . grad) v
          - ((k(a) - a)/(1 + a)) grad a
          - (a/(1 + a)) (mu Lap v + (mu + lam) grad div v)

with ``k(a) = P'(1+a) - 1``.  The first line of the velocity equation is the
exact linear propagator: transverse modes decay by ``exp(-mu |k|^2 dt)`` and
each longitudinal pair ``(a_k, (k.v_k)/|k|)`` evolves by the exact matrix
exponential of ``[[0, -i|k|], [-i|k|, -nu |k|^2]]`` with ``nu = lam + 2 mu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .calculus import advect, leray_project
from .spectral import (
    Grid,
    SpectralField,
    SpectralError,
    _Workspace,
    _workspace,
    divergence,
    forward_transform,
    inv_laplacian,
    lp_norm,
    product_dealiased,  # noqa: F401  (bench/tests check the tracer rebinds it here)
)


class BlowupError(RuntimeError):
    """Raised when a run leaves the regime the scheme can represent."""

    def __init__(self, t: float, reason: str):
        super().__init__(f"blow-up at t={t:.6g}: {reason}")
        self.t = t
        self.reason = reason


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosities and the barotropic pressure law ``P(rho) = (rho^gamma - 1)/gamma``.

    The family satisfies ``P(1) = 0`` and ``P'(1) = 1`` identically, and
    ``k(a) = P'(1+a) - 1 = (1+a)^(gamma-1) - 1``.
    """

    mu: float
    lam: float
    gamma: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise SpectralError(f"shear viscosity mu={self.mu} must be finite and > 0")
        if not 0 < self.nu < math.inf:
            raise SpectralError(f"nu = lambda + 2 mu = {self.nu} must be finite and > 0")
        if not 1 <= self.gamma < math.inf:
            raise SpectralError(f"pressure exponent gamma={self.gamma} must be >= 1")

    @property
    def nu(self) -> float:
        return self.lam + 2.0 * self.mu

    @classmethod
    def from_nu(cls, mu: float, nu: float, gamma: float = 2.0) -> "PhysicalParams":
        return cls(mu=mu, lam=nu - 2.0 * mu, gamma=gamma)


def pressure_law(s: np.ndarray, gamma: float) -> np.ndarray:
    """``k(s) = (1+s)^(gamma-1) - 1`` pointwise on samples of the density
    deviation: exactly 0 for ``gamma = 1`` and exactly ``s`` for ``gamma = 2``."""
    if gamma == 1.0:
        return np.zeros_like(s)
    if gamma == 2.0:
        return s
    return (1.0 + s) ** (gamma - 1.0) - 1.0


@dataclass(frozen=True)
class FlowState:
    """Density deviation ``a = rho - 1``, velocity ``v``, time ``t``."""

    a: SpectralField
    v: SpectralField
    t: float


@dataclass(frozen=True)
class StepperConfig:
    cfl: float = 0.4
    dt_max: float = 0.05
    a_inf_max: float = 0.9
    vacuum_floor: float = 0.1
    field_max: float = 1e8
    fixed_dt: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.cfl < 1:
            raise SpectralError(f"cfl={self.cfl} must lie in (0, 1)")
        if not self.dt_max > 0:
            raise SpectralError(f"dt_max={self.dt_max} must be > 0")
        if self.fixed_dt is not None and not self.fixed_dt > 0:
            raise SpectralError(f"fixed_dt={self.fixed_dt} must be > 0")
        for name in ("a_inf_max", "field_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise SpectralError(f"{name}={getattr(self, name)} must be in (0, inf)")
        if not 0 <= self.vacuum_floor < 1:
            raise SpectralError(f"vacuum_floor={self.vacuum_floor} must lie in [0, 1)")


@dataclass
class Trajectory:
    times: list
    states: list
    events: list
    terminated: str = "horizon"

    def final(self) -> FlowState:
        return self.states[-1]


def _sinhc(z: np.ndarray) -> np.ndarray:
    """``sinh(z)/z`` with a series fallback near 0 (complex-safe)."""
    out = np.ones_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 1.0 + zs**2 / 6.0 + zs**4 / 120.0
    zb = z[~small]
    out[~small] = np.sinh(zb) / zb
    return out


def acoustic_propagator(k2: np.ndarray, nu: float, dt: float):
    """Exact exponential of ``dt * [[0, -i|k|], [-i|k|, -nu |k|^2]]`` per mode.

    Returns the entry arrays ``(E11, E12, E21, E22)``, ``E21`` being ``E12``;
    the eigenvalues are ``lam_pm = (-nu k^2 +- sqrt(nu^2 k^4 - 4 k^2)) / 2``.
    Both have nonpositive real part, so everything is assembled from
    ``exp(lam_pm dt)`` directly and stays finite for arbitrarily stiff
    modes.
    """
    k2c = np.asarray(k2, dtype=np.complex128)
    kmag = np.sqrt(k2c)
    m = -0.5 * nu * k2c
    delta = np.sqrt(0.25 * nu**2 * k2c**2 - k2c)
    ep = np.exp((m + delta) * dt)
    em = np.exp((m - delta) * dt)
    cosh_term = 0.5 * (ep + em)
    # sinh(delta dt)/delta * exp(m dt), with a series for nearly equal
    # eigenvalues
    z = delta * dt
    small = np.abs(z) < 1e-4
    s_term = np.empty_like(k2c)
    denom = 2.0 * delta[~small]
    s_term[~small] = (ep[~small] - em[~small]) / denom
    s_term[small] = dt * np.exp(m[small] * dt) * _sinhc(z[small])
    e11 = cosh_term + s_term * (0.5 * nu * k2c)
    e12 = s_term * (-1j * kmag)
    e22 = cosh_term - s_term * (0.5 * nu * k2c)
    return e11, e12, e12, e22


class _LinearPropagator:
    """Tables applying the exact linear flow for one time step.

    Instances are shared through :func:`_propagator`, so the tables are
    read-only.
    """

    def __init__(self, grid: Grid, mu: float, nu: float, dt: float):
        ws = _workspace(grid)
        self.grid = grid
        self.khat = ws.khat
        self.transverse = np.exp(-mu * grid.k2 * dt)
        self.e11, self.e12, _, self.e22 = acoustic_propagator(grid.k2, nu, dt)
        for table in (self.transverse, self.e11, self.e12, self.e22):
            table.setflags(write=False)

    def __call__(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The new stack ``[a, v_1, ..., v_d]`` one step later."""
        khat = self.khat
        vlong = sum(khat[ax] * v[ax] for ax in range(self.grid.d))
        out = np.empty((self.grid.d + 1,) + a.shape, dtype=np.complex128)
        np.add(self.e11 * a, self.e12 * vlong, out=out[0])
        vlong_new = self.e12 * a + self.e22 * vlong
        for ax in range(self.grid.d):
            np.add(self.transverse * (v[ax] - khat[ax] * vlong), khat[ax] * vlong_new,
                   out=out[1 + ax])
        return out


@lru_cache(maxsize=2)
def _propagator(grid: Grid, mu: float, nu: float, dt: float) -> _LinearPropagator:
    """:class:`_LinearPropagator`, cached on ``(grid, mu, nu, dt)``.  Two
    entries suffice: a run steps at one size for long stretches, broken by
    single steps clipped to a snapshot time."""
    return _LinearPropagator(grid, mu, nu, dt)


def _cns_tendency(ws: _Workspace, a, v, params: PhysicalParams) -> np.ndarray:
    """Dealiased nonlinear remainder ``[N_a, N_v1, ..., N_vd]`` of the
    nonconservative system, a new stack, from the half spectra of ``a``, ``v``.

    One physical-space evaluation: the dealiased ``a``, ``v``, ``grad v``
    and viscous term (and ``grad a`` when ``gamma != 2``) go to physical
    space in one batched inverse, the coefficients ``a/(1+a)`` (and the
    pressure-law coefficient) are 2/3-truncated before they multiply, and
    the ``2d`` products come back in one batched forward transform.
    """
    grid = ws.grid
    d = grid.d
    mask, ik, k2 = grid.dealias_mask, ws.ik, grid.k2
    pressure = params.gamma != 2.0
    f = ws.buffer("cns", (1 + 2 * d + d * d + (d if pressure else 0),)
                  + grid.spectral_shape)
    ah, vh = np.multiply(a, mask, out=f[0]), np.multiply(v, mask, out=f[1:1 + d])
    divv = sum(ik[j] * vh[j] for j in range(d))
    for i in range(d):
        for j in range(d):
            np.multiply(ik[j], vh[i], out=f[1 + d + d * i + j])
        np.add(-params.mu * k2 * vh[i], (params.mu + params.lam) * ik[i] * divv,
               out=f[1 + d + d * d + i])
        if pressure:
            np.multiply(ik[i], ah, out=f[1 + 2 * d + d * d + i])
    s = ws.inverse(f, reuse=True)
    a_s, v_s = s[0], s[1:1 + d]
    grad_v = s[1 + d:1 + d + d * d].reshape((d, d) + grid.shape)  # [i, j] = d_j v_i
    visc, grad_a = s[1 + d + d * d:1 + 2 * d + d * d], s[1 + 2 * d + d * d:]

    dens = 1.0 + a_s
    coeffs = [a_s / dens]
    if pressure:
        coeffs.append((pressure_law(a_s, params.gamma) - a_s) / dens)
    coeffs = ws.inverse(ws.forward(np.stack(coeffs), reuse=True), reuse=True)

    out = ws.buffer("cns_products", (2 * d,) + grid.shape, np.float64)
    np.multiply(a_s, v_s, out=out[:d])
    out[d:] = -np.sum(v_s[None] * grad_v, axis=1) - coeffs[0] * visc
    if pressure:
        out[d:] -= coeffs[1] * grad_a
    oh = ws.forward(out, reuse=True)
    na = -sum(ik[j] * oh[j] for j in range(d))
    return np.concatenate([na[None], oh[d:]])


def _check_state(state: FlowState, config: StepperConfig,
                 system: str = "cns") -> tuple:
    """Blow-up guards on the state's physical values, ``[a, v_1, ..., v_d]``
    for "cns" and ``v`` for "ins", from one batched inverse transform; returns
    the time-step bounds: maximal speed and max ``|a/(1+a)|`` (0 for "ins")."""
    coeffs = (state.v.coeffs if system == "ins"
              else np.concatenate([state.a.coeffs[None], state.v.coeffs]))
    samples = _workspace(state.v.grid).samples(coeffs)
    t = state.t
    if not np.all(np.isfinite(samples)):
        raise BlowupError(t, "non-finite field values")
    ratio = 0.0
    if system == "cns":
        a_s = samples[0]
        amax = float(np.max(np.abs(a_s)))
        if amax > config.a_inf_max:
            raise BlowupError(t, f"density deviation {amax:.3e} > {config.a_inf_max}")
        if float(1.0 + np.min(a_s)) <= config.vacuum_floor:
            raise BlowupError(t, f"density {1.0 + np.min(a_s):.3e} at vacuum guard")
        ratio = float(np.max(np.abs(a_s / (1.0 + a_s))))
    v_s = samples[1:] if system == "cns" else samples
    speed = float(np.max(np.sqrt(np.sum(v_s * v_s, axis=0))))
    if speed > config.field_max:
        raise BlowupError(t, "velocity magnitude overflow")
    return speed, ratio


def step_cns(state: FlowState, params: PhysicalParams, dt: float,
             config: StepperConfig = StepperConfig(), *,
             checked: bool = False) -> FlowState:
    """One Heun step of the compressible system through the exact linear flow.

    The spatial mean of ``a`` is conserved to roundoff: the nonlinear density
    tendency is a divergence and the zero mode of the linear propagator is
    the identity.

    The input state goes through the blow-up guards unless ``checked`` says
    the caller has done so (``run`` checks every state it steps from).
    """
    grid = state.a.grid
    if not checked:
        _check_state(state, config)
    ws = _workspace(grid)
    prop = _propagator(grid, params.mu, params.nu, dt)
    a, v = state.a.coeffs, state.v.coeffs
    u = prop(a, v)
    k1 = _cns_tendency(ws, a, v, params)
    p1 = prop(k1[0], k1[1:])
    mid = u + dt * p1
    k2 = _cns_tendency(ws, mid[0], mid[1:], params)
    u = u + 0.5 * dt * (p1 + k2)
    return FlowState(SpectralField(grid, u[0]), SpectralField(grid, u[1:]),
                     state.t + dt)


def _ins_tendency(ws: _Workspace, v: np.ndarray) -> np.ndarray:
    """Projected transport term ``-P((V . grad) V)``, a new stack, from ``V``:
    one batched inverse of the dealiased ``[V, grad V]``, one
    forward transform of the product."""
    grid = ws.grid
    d = grid.d
    vh = v * grid.dealias_mask
    s = ws.inverse(np.stack([*vh] + [ws.ik[j] * vh[i] for i in range(d)
                                     for j in range(d)],
                            out=ws.buffer("ins", (d + d * d,) + grid.spectral_shape)),
                   reuse=True)
    grad_v = s[d:].reshape((d, d) + grid.shape)  # [i, j] = d_j V_i
    adv_h = ws.forward(np.sum(s[None, :d] * grad_v, axis=1), reuse=True)
    return leray_project(SpectralField(grid, -adv_h)).coeffs


def step_ins(state: FlowState, mu: float, dt: float) -> FlowState:
    """One Heun step of the incompressible system with exact viscous decay.

    The input velocity must be divergence-free; the output remains so
    because both the integrating factor and the projected nonlinearity
    preserve the constraint.  A non-finite velocity raises
    :class:`BlowupError`.
    """
    grid = state.v.grid
    if not np.all(np.isfinite(state.v.coeffs)):
        raise BlowupError(state.t, "non-finite field values")
    div_norm = lp_norm(divergence(state.v), 2)
    v_norm = lp_norm(state.v, 2)
    if div_norm > 1e-12 * max(v_norm, 1e-300):
        raise SpectralError(f"step_ins needs div V = 0 (got {div_norm:.3e})")
    ws = _workspace(grid)
    decay = np.exp(-mu * grid.k2 * dt)
    v = state.v.coeffs
    pv = decay * v
    k1 = _ins_tendency(ws, v)
    k2 = _ins_tendency(ws, pv + dt * decay * k1)
    pv = pv + 0.5 * dt * (decay * k1 + k2)
    return replace(state, v=SpectralField(grid, pv), t=state.t + dt)


def ins_pressure(V: SpectralField) -> SpectralField:
    """Pressure of the incompressible flow: ``(-Lap)^-1 div(V . grad V)``."""
    return inv_laplacian(divergence(advect(V, V)))


def step_heat(u: SpectralField, mu: float, dt: float, forcing=None) -> SpectralField:
    """Heat step: exact integrating factor plus trapezoidal Duhamel term.

    ``forcing`` is ``None`` or a pair ``(f_start, f_end)`` of fields sampling
    the source at both ends of the step.
    """
    grid = u.grid
    decay = np.exp(-mu * grid.k2 * dt)
    out = decay * u.coeffs
    if forcing is not None:
        f0, f1 = forcing
        out = out + 0.5 * dt * (decay * f0.coeffs + f1.coeffs)
    return SpectralField(grid, out)


def kinetic_energy(v: SpectralField) -> float:
    """``0.5 * mean |v|^2`` (mean-value normalization)."""
    return 0.5 * lp_norm(v, 2) ** 2


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Divergence-free Taylor-Green velocity (2D closed-form test flow,
    standard 3D variant)."""
    xs = grid.meshes()
    N = grid.N
    if grid.d == 2:
        x, y = xs[0] + np.zeros(grid.shape), xs[1] + np.zeros(grid.shape)
        vx = amplitude * np.cos(x) * np.sin(y)
        vy = -amplitude * np.sin(x) * np.cos(y)
        return forward_transform(np.stack([vx, vy]), grid)
    x = xs[0] + np.zeros(grid.shape)
    y = xs[1] + np.zeros(grid.shape)
    z = xs[2] + np.zeros(grid.shape)
    vx = amplitude * np.sin(x) * np.cos(y) * np.cos(z)
    vy = -amplitude * np.cos(x) * np.sin(y) * np.cos(z)
    vz = np.zeros((N,) * 3)
    return forward_transform(np.stack([vx, vy, vz]), grid)


def _adaptive_dt(grid: Grid, bounds: tuple, params: PhysicalParams,
                 config: StepperConfig, system: str) -> float:
    """Time step from the state's bounds (as returned by :func:`_check_state`)."""
    if config.fixed_dt is not None:
        return config.fixed_dt
    vmax, amax = bounds
    dt_adv = grid.dx / vmax if vmax > 0 else math.inf
    dt_visc = math.inf
    if system == "cns" and amax > 0:
        # explicit Heun stability for the variable-coefficient viscous
        # remainder ~ (a/(1+a)) nu Lap v on the dealiased band
        dt_visc = 2.0 / (params.nu * amax * _workspace(grid).k2max)
    return config.cfl * min(dt_adv, config.dt_max, dt_visc)


def run(initial: FlowState, params: PhysicalParams,
        config: StepperConfig, horizon: float, system: str = "cns",
        snap_times=None) -> Trajectory:
    """Advance to ``horizon`` with adaptive steps, recording snapshots.

    ``system`` selects the compressible ("cns") or incompressible ("ins")
    stepper; for "ins" the density component of the state is carried along
    unchanged.  When ``snap_times`` is given, steps are clipped so states are
    recorded exactly at those times (shared-time comparisons across runs);
    otherwise every step is recorded.  Every state goes through
    the blow-up guards before it is stepped from or recorded.  Returns the
    trajectory with a termination cause of "horizon" or "blowup"; blow-ups
    are recorded as events, not raised.
    """
    if system not in ("cns", "ins"):
        raise SpectralError(f"unknown system '{system}'")
    grid = initial.v.grid
    state = initial
    times = [state.t]
    states = [state]
    events = [(state.t, "start")]
    if snap_times is not None:
        pending = [s for s in sorted(snap_times) if s > state.t + 1e-13]
    else:
        pending = None
    terminated = "horizon"
    try:
        bounds = _check_state(state, config, system)
        while state.t < horizon - 1e-12:
            dt = _adaptive_dt(grid, bounds, params, config, system)
            dt = min(dt, horizon - state.t)
            if pending:
                dt = min(dt, pending[0] - state.t)
            dt = float(dt)
            if system == "cns":
                state = step_cns(state, params, dt, config, checked=True)
            else:
                state = step_ins(state, params.mu, dt)
            bounds = _check_state(state, config, system)
            record = pending is None
            if pending and abs(state.t - pending[0]) < 1e-10:
                pending.pop(0)
                record = True
            if record or state.t >= horizon - 1e-12:
                if abs(state.t - times[-1]) > 1e-13:
                    times.append(state.t)
                    states.append(state)
    except BlowupError as exc:
        events.append((state.t, f"blowup:{exc.reason}"))
        terminated = "blowup"
    events.append((state.t, f"end:{terminated}"))
    return Trajectory(times, states, events, terminated)
