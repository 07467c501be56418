"""Time integration: compressible flow, incompressible reference, heat flow.

All three steppers propagate the constant-coefficient linear part exactly in
Fourier space and treat the dealiased nonlinear remainder with explicit
second-order Runge-Kutta (Heun) through the integrating factor, so the time
step is limited by advection (and by the variable-coefficient viscous
remainder of the compressible system), never by acoustics or by the
dominant viscosity.  Both flow steppers step through one integrating-factor
Heun core, :func:`_heun`, over their own linear-flow tables and tendencies;
another exponential integrator replaces that one function.  It is a Galerkin
scheme on the kept block (the modes the 2/3 rule keeps): a step gathers its
input there once, works there with per-grid scratch buffers that no result
aliases, and scatters its result once.

Compressible system, nonconservative form (momentum equation divided by the
density ``1 + a``, pressure normalized so ``P'(1) = 1``):

    a_t = -div v - div(a v)
    v_t = -grad a + mu Lap v + (nu - mu) grad div v
          - (v . grad) v
          - ((k(a) - a)/(1 + a)) grad a
          - (a/(1 + a)) (mu Lap v + (nu - mu) grad div v)

with ``k(a) = P'(1+a) - 1`` and ``nu = lambda + 2 mu``.  The first line of the
velocity equation is the exact linear propagator: transverse modes decay by
``exp(-mu |k|^2 dt)`` and each longitudinal pair ``(a_k, (k.v_k)/|k|)``
evolves by the exact matrix exponential of ``[[0, -i|k|], [-i|k|, -nu |k|^2]]``.
Both tendencies take transport in rotational form, ``grad |v|^2/2 + Omega v``
(``(v . grad) v`` on every mode the 2/3 rule keeps), through one kernel on the
workspace's stacked ``ik``.  At ``gamma = 2`` the compressible one transforms
6 fields inverse, 1 forward and back (the truncated ``a/(1+a)``) and 5 forward
in 2D, and 10, 1 and 7 in 3D.  The incompressible one (its projection removes
``grad |V|^2/2``) transforms 3 inverse and 2 forward in 2D, and 6 and 3 in 3D.
A step transforms nothing else: the blow-up guard reads the ``[a, v]`` (or
``V``) rows of the first stage's batched inverse, which ``run`` evaluates to
guard a state and hands to the step.  So a compressible step makes 4 batched
inverse and 4 forward transforms, an incompressible one 2 and 2, and only the
state at the horizon is inverted for the guard alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    SpectralError,
    _Workspace,
    _workspace,
    forward_transform,
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
    """Shear viscosity ``mu``, total viscosity ``nu = lambda + 2 mu`` and the
    barotropic pressure law ``P(rho) = (rho^gamma - 1)/gamma``.

    The family satisfies ``P(1) = 0`` and ``P'(1) = 1`` identically, and
    ``k(a) = P'(1+a) - 1 = (1+a)^(gamma-1) - 1``.
    """

    mu: float
    nu: float
    gamma: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise SpectralError(f"shear viscosity mu={self.mu} must be finite and > 0")
        if not 0 < self.nu < math.inf:
            raise SpectralError(f"total viscosity nu = {self.nu} must be finite and > 0")
        if not 1 <= self.gamma < math.inf:
            raise SpectralError(f"pressure exponent gamma={self.gamma} must be >= 1")


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
    vacuum_floor: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.cfl < 1:
            raise SpectralError(f"cfl={self.cfl} must lie in (0, 1)")
        if not self.dt_max > 0:
            raise SpectralError(f"dt_max={self.dt_max} must be > 0")
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


def acoustic_propagator(k2: np.ndarray, nu: float, dt: float):
    """Exact exponential of ``dt * [[0, -i|k|], [-i|k|, -nu |k|^2]]`` per mode.

    Returns the entry arrays ``(E11, E12, E21, E22)``, ``E21`` being ``E12``;
    the eigenvalues are ``lam_pm = -h +- delta``, ``h = nu |k|^2 / 2``.  Both
    have nonpositive real part, so everything is assembled from
    ``exp(lam_pm dt)`` directly and stays finite for arbitrarily stiff modes,
    with ``delta = sqrt(h - |k|) sqrt(h + |k|)`` (no ``nu^2`` to overflow) and
    ``lam_+ = |k|^2 / lam_-`` (no cancellation in ``delta - h``).
    """
    k2c = np.asarray(k2, dtype=np.complex128)
    kmag = np.sqrt(k2c)
    h = 0.5 * nu * k2c
    delta = np.sqrt(h - kmag) * np.sqrt(h + kmag)
    ep = np.exp(-k2c / np.where(k2c == 0, 1.0, h + delta) * dt)
    em = np.exp(-(h + delta) * dt)
    cosh_term = 0.5 * (ep + em)
    # sinh(delta dt)/delta * exp(-h dt), with the series of sinh(z)/z for
    # nearly equal eigenvalues
    z = delta * dt
    small = np.abs(z) < 1e-4
    s_term = np.empty_like(k2c)
    s_term[~small] = (ep[~small] - em[~small]) / (2.0 * delta[~small])
    zs = z[small]
    s_term[small] = dt * np.exp(-h[small] * dt) * (1.0 + zs**2 / 6.0 + zs**4 / 120.0)
    e11 = cosh_term + s_term * h
    e12 = s_term * (-1j * kmag)
    e22 = cosh_term - s_term * h
    return e11, e12, e12, e22


class _LinearPropagator:
    """Tables applying the exact linear flow for one time step to kept blocks.

    Instances are shared through :func:`_propagator`, so the tables are
    read-only.  With ``T`` the transverse decay, ``v`` becomes
    ``T v + khat (e12 a + (e22 - T) v_long)``.
    """

    def __init__(self, grid: Grid, mu: float, nu: float, dt: float):
        ws = _workspace(grid)
        self.grid, self.khat = grid, ws.khat_kept
        k2, index = ws.k2_distinct  # built on the distinct |k|^2, read out per mode
        t, (e11, e12, _, e22) = np.exp(-mu * k2 * dt), acoustic_propagator(k2, nu, dt)
        self.transverse, self.e11, self.e12, self.e22_minus_t = (
            table[index] for table in (t, e11, e12, e22 - t))
        for table in (self.transverse, self.e11, self.e12, self.e22_minus_t):
            table.setflags(write=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``x = [a, v_1, ..., v_d]``, kept blocks, one step later (new)."""
        a, v = x[0], x[1:]
        vlong = reduce(np.add, self.khat * v)
        out = np.empty_like(x)
        np.add(self.e11 * a, self.e12 * vlong, out=out[0])
        np.multiply(self.transverse, v, out=out[1:])
        out[1:] += self.khat * (self.e12 * a + self.e22_minus_t * vlong)
        return out


@lru_cache(maxsize=2)
def _propagator(grid: Grid, mu: float, nu: float, dt: float) -> _LinearPropagator:
    """:class:`_LinearPropagator`, cached on ``(grid, mu, nu, dt)``.  It pays on
    the sweep members clamped to ``dt = cfl 0.8/nu``: 4979 of the pinned sweep's
    4980 hits.  Where ``dt_visc`` moves with ``max|a|``, nearly every step builds
    (the default ``simulate`` hits 11 times in 207 steps)."""
    return _LinearPropagator(grid, mu, nu, dt)


@lru_cache(maxsize=2)
def _multipliers(grid: Grid, mu: float, nu: float) -> tuple:
    """Kept-block viscous multipliers ``-mu |k|^2``, ``(nu - mu) ik``, read-only, cached."""
    tables = -mu * _workspace(grid).k2_kept, (nu - mu) * _workspace(grid).ik_kept
    for table in tables:
        table.setflags(write=False)
    return tables


def _omega_rows(ik: np.ndarray, vh: np.ndarray, out: np.ndarray) -> None:
    """Rows ``Omega_ij = d_j v_i - d_i v_j``, ``i < j`` in combinations order."""
    for row, (i, j) in zip(out, combinations(range(len(vh)), 2)):
        np.subtract(ik[j] * vh[i], ik[i] * vh[j], out=row)


def _add_omega_v(w: np.ndarray, omega: np.ndarray, v: np.ndarray) -> None:
    """``w += Omega v`` on samples, ``omega`` the rows of :func:`_omega_rows`."""
    for o, (i, j) in zip(omega, combinations(range(len(v)), 2)):
        w[i] += o * v[j]
        w[j] -= o * v[i]


def _cns_tendency(ws: _Workspace, x: np.ndarray, params: PhysicalParams, guard=None):
    """Dealiased nonlinear remainder ``[N_a, N_v1, ..., N_vd]`` of the
    nonconservative system from ``x = [a, v_1, ..., v_d]``, kept blocks; with
    ``guard = (t, config)``, paired with :func:`_guard`'s bounds on ``[a, v]``.

    One physical-space evaluation: ``a``, ``v``, ``Omega_ij =
    d_j v_i - d_i v_j`` (``i < j``) and viscous term (and ``grad a`` when
    ``gamma != 2``) go to physical space in one batched inverse, the
    coefficients ``a/(1+a)`` (and the pressure-law coefficient) are
    2/3-truncated before they multiply, and ``a v``, ``|v|^2/2`` and ``Omega v``
    plus the coefficient terms come back in one batched forward transform;
    ``grad |v|^2/2`` is taken on the coefficients.
    """
    grid = ws.grid
    d = grid.d
    ik, (minus_mu_k2, grad_div_ik) = ws.ik_kept, _multipliers(grid, params.mu, params.nu)
    r = 1 + d + d * (d - 1) // 2  # first viscous row
    pressure = params.gamma != 2.0
    f = np.empty((r + d + (d if pressure else 0),) + ws.kept_shape, np.complex128)
    f[:1 + d] = x
    vh = f[1:1 + d]
    _omega_rows(ik, vh, f[1 + d:r])
    np.multiply(minus_mu_k2, vh, out=f[r:r + d])
    f[r:r + d] += grad_div_ik * reduce(np.add, ik * vh)
    if pressure:
        np.multiply(ik, f[0], out=f[r + d:])
    s = ws.inverse(f, reuse=True)
    bounds = _guard(s[:1 + d], *guard) if guard else None
    a_s, v_s, visc, grad_a = s[0], s[1:1 + d], s[r:r + d], s[r + d:]

    coeffs = (np.stack([a_s, pressure_law(a_s, params.gamma) - a_s]) if pressure
              else a_s[None]) / (1.0 + a_s)
    coeffs = ws.inverse(ws.forward(coeffs, reuse=True), reuse=True)

    # [a v, |v|^2/2, w], w = Omega v + (a/(1+a)) visc (+ pressure term)
    out = ws.buffer("cns_products", (2 * d + 1,) + grid.shape, np.float64)
    np.multiply(a_s, v_s, out=out[:d])
    np.multiply(reduce(np.add, v_s * v_s), 0.5, out=out[d])
    w = np.multiply(coeffs[0], visc, out=out[d + 1:])
    if pressure:
        w += coeffs[1] * grad_a
    _add_omega_v(w, s[1 + d:r], v_s)
    oh = ws.forward(out, reuse=True)
    n = np.empty_like(x)
    np.negative(reduce(np.add, ik * oh[:d]), out=n[0])
    np.negative(ik * oh[d] + oh[d + 1:], out=n[1:])
    return (n, bounds) if guard else n


_FIELD_MAX = 1e8  # largest speed a state may reach before the run ends
HORIZON_TOL = 1e-12  # `run` takes a time this close to the horizon as reached


def _guard(samples: np.ndarray, t: float, config: StepperConfig | None) -> tuple:
    """Blow-up guards on the samples of a state, ``[a, v_1, ..., v_d]`` or ``v``
    alone (``config`` unread): non-finite values, the vacuum floor and velocity
    overflow, in that order; a large density is none.  Returns the time-step
    bounds: maximal speed and max ``|a/(1+a)|`` (0 without a density row)."""
    if not np.all(np.isfinite(samples)):
        raise BlowupError(t, "non-finite field values")
    d, ratio = samples.ndim - 1, 0.0
    if len(samples) > d:
        lo, hi = float(samples[0].min()), float(samples[0].max())
        if 1.0 + lo <= config.vacuum_floor:
            raise BlowupError(t, f"density {1.0 + lo:.3e} at vacuum guard")
        # a/(1+a) increases with a above the vacuum guard
        ratio = max(abs(lo / (1.0 + lo)), abs(hi / (1.0 + hi)))
    v_s = samples[-d:]
    speed = math.sqrt(float(reduce(np.add, v_s * v_s).max()))
    if speed > _FIELD_MAX:
        raise BlowupError(t, "velocity magnitude overflow")
    return speed, ratio


def _heun(x: np.ndarray, n1: np.ndarray, propagate, tendency, dt: float) -> np.ndarray:
    """One integrating-factor Heun step ``u + dt/2 (p1 + N(u + dt p1))`` of kept
    blocks with ``u = P x`` and ``p1 = P n1``, ``n1 = N(x)``, ``P`` the exact
    linear flow over ``dt`` and ``N`` the nonlinear tendency (new stacks)."""
    u = propagate(x)
    p1 = propagate(n1)
    n2 = tendency(u + dt * p1)  # a new stack, so the stages combine in place
    n2 += p1
    n2 *= 0.5 * dt
    return np.add(u, n2, out=n2)


def step_cns(state: FlowState, params: PhysicalParams, dt: float,
             config: StepperConfig = StepperConfig(), *, stage1=None) -> FlowState:
    """One Heun step of the compressible system through the exact linear flow.

    The spatial mean of ``a`` is conserved to roundoff: the nonlinear density
    tendency is a divergence and the zero mode of the linear propagator is
    the identity.  Modes of the input outside the kept block are dropped.

    ``run`` hands over the input's kept block and guarded tendency, ``stage1``;
    without them the input goes through the blow-up guards in its first stage.
    """
    grid = state.a.grid
    ws = _workspace(grid)
    x = stage1[0] if stage1 else ws.gather(np.concatenate([state.a.coeffs[None],
                                                           state.v.coeffs]))
    n1 = stage1[1] if stage1 else _cns_tendency(ws, x, params, (state.t, config))[0]
    u = ws.scatter(_heun(x, n1, _propagator(grid, params.mu, params.nu, dt),
                         lambda x: _cns_tendency(ws, x, params), dt))
    return FlowState(SpectralField(grid, u[0]), SpectralField(grid, u[1:]),
                     state.t + dt)


def _ins_tendency(ws: _Workspace, v: np.ndarray, guard=None):
    """Projected transport ``-P((V . grad) V) = -P(Omega V)`` from ``V``, kept
    blocks (``P`` removes ``grad |V|^2/2`` on them): one batched inverse of
    ``[V, Omega_ij]``, one forward of ``Omega V``, projected on the kept block
    as ``n + ik (ik . n)/max(|k|^2, 1)``.  ``guard`` as for
    :func:`_cns_tendency`, on ``V``."""
    grid = ws.grid
    d = grid.d
    f = np.empty((d + d * (d - 1) // 2,) + ws.kept_shape, np.complex128)
    f[:d] = v
    _omega_rows(ws.ik_kept, f[:d], f[d:])
    s = ws.inverse(f, reuse=True)
    bounds = _guard(s[:d], *guard) if guard else None
    w = np.zeros((d,) + grid.shape)
    _add_omega_v(w, s[d:], s[:d])
    n, ik = -ws.forward(w, reuse=True), ws.ik_kept
    n += ik * (reduce(np.add, ik * n) / np.maximum(ws.k2_kept, 1.0))
    return (n, bounds) if guard else n


def step_ins(state: FlowState, mu: float, dt: float, *, stage1=None) -> FlowState:
    """One Heun step of the incompressible system with exact viscous decay.

    The input velocity must be divergence-free on the kept block, the only
    modes the step reads; the output remains so because the integrating factor
    and the projected nonlinearity preserve the constraint.  ``stage1`` and the
    guards are as for :func:`step_cns`, with the kept block of ``V``.
    """
    grid = state.v.grid
    ws = _workspace(grid)
    x = stage1[0] if stage1 else ws.gather(state.v.coeffs)
    div_norm = np.linalg.norm(reduce(np.add, ws.ik_kept * x))
    if div_norm > 1e-12 * np.linalg.norm(x):  # False for NaN: the guard reports it
        raise SpectralError(f"step_ins needs div V = 0 (got {div_norm:.3e})")
    n1 = stage1[1] if stage1 else _ins_tendency(ws, x, (state.t, None))[0]
    decay = np.exp(-mu * ws.k2_kept * dt)
    v = _heun(x, n1, lambda x: decay * x, lambda x: _ins_tendency(ws, x), dt)
    return replace(state, v=SpectralField(grid, ws.scatter(v)), t=state.t + dt)


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
                 config: StepperConfig) -> float:
    """Time step from the state's bounds (as returned by :func:`_guard`)."""
    vmax, amax = bounds
    dt_adv = grid.dx / vmax if vmax > 0 else math.inf
    dt_visc = math.inf
    if amax > 0:
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
    otherwise every step is recorded.  The initial state is truncated to the
    kept block (all it holds outside, non-finite values too, is dropped) and
    recorded so.  Every state goes through the blow-up guards before it is
    stepped from (in the first Heun stage, handed to the step) or recorded.
    Returns the trajectory with a termination cause of "horizon" or "blowup";
    blow-ups are recorded as events, not raised.
    """
    if system not in ("cns", "ins"):
        raise SpectralError(f"unknown system '{system}'")
    grid = initial.v.grid
    ws = _workspace(grid)
    x = ws.gather(np.concatenate([initial.a.coeffs[None], initial.v.coeffs]))
    u = ws.scatter(x)
    state = replace(initial, a=SpectralField(grid, u[0]), v=SpectralField(grid, u[1:]))
    rows = slice(int(system == "ins"), None)  # the stepped rows of x = [a, v]
    times, states, events, terminated = [state.t], [state], [(state.t, "start")], "horizon"
    pending = (None if snap_times is None
               else [s for s in sorted(snap_times) if s > state.t + 1e-13])

    def first_stage(x, t):  # tendency and bounds; a state at the horizon is only guarded
        if t >= horizon - HORIZON_TOL:
            return None, _guard(ws.inverse(x[rows], reuse=True), t, config)
        return (_cns_tendency(ws, x, params, (t, config)) if system == "cns"
                else _ins_tendency(ws, x[rows], (t, config)))

    try:
        n1, bounds = first_stage(x, state.t)
        while state.t < horizon - HORIZON_TOL:
            dt = float(min(_adaptive_dt(grid, bounds, params, config), horizon - state.t,
                           pending[0] - state.t if pending else math.inf))
            state = (step_cns(state, params, dt, config, stage1=(x, n1)) if system == "cns"
                     else step_ins(state, params.mu, dt, stage1=(x[rows], n1)))
            x = ws.gather(np.concatenate([state.a.coeffs[None], state.v.coeffs]))
            n1, bounds = first_stage(x, state.t)
            record = pending is None
            if pending and abs(state.t - pending[0]) < 1e-10:
                pending.pop(0)
                record = True
            if (record or state.t >= horizon - HORIZON_TOL) and abs(state.t - times[-1]) > 1e-13:
                times.append(state.t)
                states.append(state)
    except BlowupError as exc:
        events.append((state.t, f"blowup:{exc.reason}"))
        terminated = "blowup"
    events.append((state.t, f"end:{terminated}"))
    return Trajectory(times, states, events, terminated)
