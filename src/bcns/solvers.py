"""Time integration: compressible flow, incompressible reference, heat flow.

All three steppers propagate the constant-coefficient linear part exactly in
Fourier space and treat the dealiased nonlinear remainder with explicit
second-order Runge-Kutta (Heun) through the integrating factor, so the time
step is limited by advection (and by the variable-coefficient viscous
remainder of the compressible system), never by acoustics or by the
dominant viscosity.

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
    dealias,
    divergence,
    forward_transform,
    inv_laplacian,
    inverse_transform,
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
        if self.mu <= 0:
            raise SpectralError(f"shear viscosity mu={self.mu} must be > 0")
        if self.nu <= 0:
            raise SpectralError(f"nu = lam + 2 mu = {self.nu} must be > 0")
        if self.gamma < 1:
            raise SpectralError(f"pressure exponent gamma={self.gamma} must be >= 1")

    @property
    def nu(self) -> float:
        return self.lam + 2.0 * self.mu

    @classmethod
    def from_nu(cls, mu: float, nu: float, gamma: float = 2.0) -> "PhysicalParams":
        return cls(mu=mu, lam=nu - 2.0 * mu, gamma=gamma)


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
    snapshot_stride: int = 1
    a_inf_max: float = 0.9
    vacuum_floor: float = 0.1
    field_max: float = 1e8
    fixed_dt: float | None = None
    linear_only: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.cfl < 1:
            raise SpectralError(f"cfl={self.cfl} must lie in (0, 1)")


@dataclass
class Trajectory:
    times: list
    states: list
    events: list
    terminated: str = "horizon"

    def final(self) -> FlowState:
        return self.states[-1]


def pressure_terms(a: SpectralField, gamma: float):
    """Pressure ``((1+a)^gamma - 1)/gamma`` and ``k(a) = (1+a)^(gamma-1) - 1``,
    evaluated pointwise in physical space and dealiased."""
    s = inverse_transform(a)
    dens = 1.0 + s
    if np.min(dens) <= 0.0:
        raise BlowupError(0.0, f"vacuum: min density {np.min(dens):.3e}")
    grid = a.grid
    if gamma == 1.0:
        p = s
        k = np.zeros_like(s)
    elif gamma == 2.0:
        p = s + 0.5 * s * s
        k = s
    else:
        p = (dens**gamma - 1.0) / gamma
        k = dens ** (gamma - 1.0) - 1.0
    return (dealias(forward_transform(p, grid)),
            dealias(forward_transform(k, grid)))


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

    Returns the four entry arrays ``(E11, E12, E21, E22)``; the eigenvalues
    of the matrix are ``lam_pm = (-nu k^2 +- sqrt(nu^2 k^4 - 4 k^2)) / 2``.
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
    return e11, e12, e12.copy(), e22


class _LinearPropagator:
    """Per-grid tables applying the exact linear flow for one time step.

    Instances are shared through :func:`_propagator`, so the tables are
    read-only.
    """

    def __init__(self, grid: Grid, mu: float, nu: float, dt: float):
        self.grid = grid
        self.transverse = np.exp(-mu * grid.k2 * dt)
        self.e11, self.e12, self.e21, self.e22 = acoustic_propagator(grid.k2, nu, dt)
        kmag = grid.kmag.copy()
        kmag[(0,) * grid.d] = 1.0
        self.khat = [grid.k[ax] / kmag for ax in range(grid.d)]
        for table in (self.transverse, self.e11, self.e12, self.e21, self.e22,
                      *self.khat):
            table.setflags(write=False)

    def __call__(self, a_coeffs: np.ndarray, v_coeffs: np.ndarray):
        g = self.grid
        vlong = sum(self.khat[ax] * v_coeffs[ax] for ax in range(g.d))
        a_new = self.e11 * a_coeffs + self.e12 * vlong
        vlong_new = self.e21 * a_coeffs + self.e22 * vlong
        v_new = np.empty_like(v_coeffs)
        for ax in range(g.d):
            perp = v_coeffs[ax] - self.khat[ax] * vlong
            v_new[ax] = self.transverse * perp + self.khat[ax] * vlong_new
        return a_new, v_new


@lru_cache(maxsize=2)
def _propagator(grid: Grid, mu: float, nu: float, dt: float) -> _LinearPropagator:
    """:class:`_LinearPropagator`, cached on ``(grid, mu, nu, dt)``.  Two
    entries suffice: a run steps at one size for long stretches, broken by
    single steps clipped to a snapshot time."""
    return _LinearPropagator(grid, mu, nu, dt)


# Real fields are evaluated in physical space with real transforms, which
# read and write only the half spectrum 0 <= k_d <= N/2 of the last axis and
# take the other half to be its conjugate.  The tendencies dealias every
# field first, so the Nyquist planes (the only modes whose conjugate partner
# is not on the lattice, where the linear flow and the Leray projection break
# the symmetry) never enter; the blow-up guards read any state through its
# Hermitian part, which gives exactly the real part of the complex inverse.

def _half(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """View of ``arr`` on the half spectrum of the last axis."""
    return arr[..., : grid.N // 2 + 1]


def _half_multipliers(grid: Grid):
    """Dealias mask, ``i k_j`` per axis and ``|k|^2`` on the half spectrum."""
    return (_half(grid, grid.dealias_mask),
            [1j * _half(grid, kj) for kj in grid.k],
            _half(grid, grid.k2))


def _to_samples(half: np.ndarray, grid: Grid) -> np.ndarray:
    """Real samples of a stack of half-spectrum coefficient arrays."""
    return np.fft.irfftn(half, s=grid.shape, axes=tuple(range(-grid.d, 0)),
                         norm="forward")


def _to_half(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-spectrum coefficients of a stack of real sample arrays."""
    return np.fft.rfftn(samples, axes=tuple(range(-grid.d, 0)), norm="forward")


def _reflect(coeffs: np.ndarray, cols: slice, grid: Grid) -> np.ndarray:
    """``c(-k)`` for the last-axis indices ``cols``: ``coeffs`` read at the
    negated frequency of every axis (which must lie inside ``coeffs``)."""
    neg = -np.arange(grid.N) % grid.N
    out = coeffs[..., neg[cols]]
    for ax in range(-grid.d, -1):
        out = np.take(out, neg, axis=ax)
    return out


def _full_spectrum(half: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients on the whole lattice from the half spectrum, by
    ``c(-k) = conj(c(k))``."""
    h = grid.N // 2 + 1
    full = np.empty(half.shape[:-1] + (grid.N,), dtype=np.complex128)
    full[..., :h] = half
    np.conj(_reflect(half, slice(h, grid.N), grid), out=full[..., h:])
    return full


def _real_samples(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """The real part of the complex inverse transform of ``coeffs`` (as
    :func:`inverse_transform`), for any coefficients: the real inverse of
    their Hermitian part ``(c(k) + conj(c(-k)))/2``."""
    h = grid.N // 2 + 1
    herm = 0.5 * (_half(grid, coeffs) + np.conj(_reflect(coeffs, slice(0, h), grid)))
    return _to_samples(herm, grid)


def _cns_tendency(a: SpectralField, v: SpectralField, params: PhysicalParams):
    """Dealiased nonlinear remainder of the nonconservative system.

    One physical-space evaluation: the dealiased ``a``, ``v``, ``grad v``
    and viscous term (and ``grad a`` when ``gamma != 2``) go to physical
    space in one batched inverse, the coefficients ``a/(1+a)`` (and the
    pressure-law coefficient) are 2/3-truncated before they multiply, and
    the ``2d`` products come back in one batched forward transform.
    """
    grid = a.grid
    d = grid.d
    mask, ik, k2 = _half_multipliers(grid)
    ah = _half(grid, a.coeffs) * mask
    vh = _half(grid, v.coeffs) * mask
    divv = sum(ik[j] * vh[j] for j in range(d))
    fields = [ah, *vh]
    fields += [ik[j] * vh[i] for i in range(d) for j in range(d)]
    fields += [-params.mu * k2 * vh[i] + (params.mu + params.lam) * ik[i] * divv
               for i in range(d)]
    pressure = params.gamma != 2.0
    if pressure:
        fields += [ik[i] * ah for i in range(d)]
    s = _to_samples(np.stack(fields), grid)
    a_s, v_s, grad_v, visc, grad_a = np.split(s, np.cumsum([1, d, d * d, d]))
    a_s = a_s[0]
    grad_v = grad_v.reshape((d, d) + grid.shape)  # [i, j] = d_j v_i

    dens = 1.0 + a_s
    coeffs = [a_s / dens]
    if pressure:
        if params.gamma == 1.0:
            coeffs.append(-a_s / dens)
        else:
            coeffs.append((dens ** (params.gamma - 1.0) - 1.0 - a_s) / dens)
    coeffs = _to_samples(_to_half(np.stack(coeffs), grid) * mask, grid)

    out = np.empty((2 * d,) + grid.shape)
    out[:d] = a_s * v_s
    out[d:] = -np.sum(v_s[None] * grad_v, axis=1) - coeffs[0] * visc
    if pressure:
        out[d:] -= coeffs[1] * grad_a
    oh = _to_half(out, grid) * mask
    na = -sum(ik[j] * oh[j] for j in range(d))
    full = _full_spectrum(np.concatenate([na[None], oh[d:]]), grid)
    return full[0], full[1:]


def _check_state(state: FlowState, config: StepperConfig,
                 system: str = "cns") -> np.ndarray:
    """Blow-up guards on the state's physical values, ``[a, v_1, ..., v_d]``
    for "cns" and ``v`` for "ins", from one batched inverse transform;
    returns them for the time-step bound."""
    coeffs = (state.v.coeffs if system == "ins"
              else np.concatenate([state.a.coeffs[None], state.v.coeffs]))
    samples = _real_samples(coeffs, state.v.grid)
    t = state.t
    if not np.all(np.isfinite(samples)):
        raise BlowupError(t, "non-finite field values")
    if system == "cns":
        a_s = samples[0]
        amax = float(np.max(np.abs(a_s)))
        if amax > config.a_inf_max:
            raise BlowupError(t, f"density deviation {amax:.3e} > {config.a_inf_max}")
        if float(1.0 + np.min(a_s)) <= config.vacuum_floor:
            raise BlowupError(t, f"density {1.0 + np.min(a_s):.3e} at vacuum guard")
    if _speed_max(samples, system) > config.field_max:
        raise BlowupError(t, "velocity magnitude overflow")
    return samples


def _speed_max(samples: np.ndarray, system: str) -> float:
    v_s = samples[1:] if system == "cns" else samples
    return float(np.max(np.sqrt(np.sum(v_s * v_s, axis=0))))


def step_cns(state: FlowState, params: PhysicalParams, dt: float,
             config: StepperConfig = StepperConfig(), *,
             checked: bool = False) -> FlowState:
    """One Heun step of the compressible system through the exact linear flow.

    The spatial mean of ``a`` is conserved to roundoff: the nonlinear density
    tendency is a divergence and the zero mode of the linear propagator is
    the identity.

    Precondition: ``a`` and ``v`` are real fields, i.e. their coefficients
    inside the 2/3 box are Hermitian, ``c(-k) = conj(c(k))``.  The nonlinear
    terms are evaluated with real transforms, which read only half of the
    spectrum and take the other half to be its conjugate.  ``run`` rejects
    initial data that breaks this, and each step keeps it to roundoff.

    The input state goes through the blow-up guards unless ``checked`` says
    the caller has done so (``run`` checks every state it steps from).
    """
    grid = state.a.grid
    if not checked:
        _check_state(state, config)
    prop = _propagator(grid, params.mu, params.nu, dt)
    pa, pv = prop(state.a.coeffs, state.v.coeffs)
    if config.linear_only:
        return FlowState(SpectralField(grid, pa), SpectralField(grid, pv),
                         state.t + dt)
    k1a, k1v = _cns_tendency(state.a, state.v, params)
    p1a, p1v = prop(k1a, k1v)
    mid_a = SpectralField(grid, pa + dt * p1a)
    mid_v = SpectralField(grid, pv + dt * p1v)
    k2a, k2v = _cns_tendency(mid_a, mid_v, params)
    a_new = SpectralField(grid, pa + 0.5 * dt * (p1a + k2a))
    v_new = SpectralField(grid, pv + 0.5 * dt * (p1v + k2v))
    return FlowState(a_new, v_new, state.t + dt)


def _ins_tendency(V: SpectralField) -> np.ndarray:
    """Projected transport term ``-P((V . grad) V)``: one batched inverse of
    the dealiased ``[V, grad V]``, one forward transform of the product."""
    grid = V.grid
    d = grid.d
    mask, ik, _ = _half_multipliers(grid)
    vh = _half(grid, V.coeffs) * mask
    s = _to_samples(np.stack([*vh] + [ik[j] * vh[i] for i in range(d)
                                      for j in range(d)]), grid)
    grad_v = s[d:].reshape((d, d) + grid.shape)  # [i, j] = d_j V_i
    adv = np.sum(s[None, :d] * grad_v, axis=1)
    adv_h = _to_half(adv, grid) * mask
    return leray_project(SpectralField(grid, -_full_spectrum(adv_h, grid))).coeffs


def step_ins(state: FlowState, mu: float, dt: float,
             config: StepperConfig = StepperConfig()) -> FlowState:
    """One Heun step of the incompressible system with exact viscous decay.

    The input velocity must be divergence-free; the output remains so
    because both the integrating factor and the projected nonlinearity
    preserve the constraint.  It must also be a real field, with Hermitian
    coefficients inside the 2/3 box (see :func:`step_cns`).  A non-finite
    velocity raises :class:`BlowupError`.
    """
    grid = state.v.grid
    if not np.all(np.isfinite(state.v.coeffs)):
        raise BlowupError(state.t, "non-finite field values")
    div_norm = lp_norm(divergence(state.v), 2)
    v_norm = lp_norm(state.v, 2)
    if div_norm > 1e-12 * max(v_norm, 1e-300):
        raise SpectralError(f"step_ins needs div V = 0 (got {div_norm:.3e})")
    decay = np.exp(-mu * grid.k2 * dt)
    pv = decay * state.v.coeffs
    if config.linear_only:
        return replace(state, v=SpectralField(grid, pv), t=state.t + dt)
    k1 = _ins_tendency(state.v)
    mid = SpectralField(grid, pv + dt * decay * k1)
    k2 = _ins_tendency(mid)
    v_new = SpectralField(grid, pv + 0.5 * dt * (decay * k1 + k2))
    return replace(state, v=v_new, t=state.t + dt)


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


def _adaptive_dt(grid: Grid, samples: np.ndarray, params: PhysicalParams | None,
                 config: StepperConfig, system: str) -> float:
    """Time step from the state's samples (as returned by :func:`_check_state`)."""
    if config.fixed_dt is not None:
        return config.fixed_dt
    vmax = _speed_max(samples, system)
    dt_adv = grid.dx / vmax if vmax > 0 else math.inf
    dt_visc = math.inf
    if system == "cns" and not config.linear_only and params is not None:
        a_s = samples[0]
        amax = float(np.max(np.abs(a_s / (1.0 + a_s))))
        if amax > 0:
            # explicit Heun stability for the variable-coefficient viscous
            # remainder ~ (a/(1+a)) nu Lap v on the dealiased band
            k2max = float(np.max(grid.k2[grid.dealias_mask]))
            dt_visc = 2.0 / (params.nu * amax * k2max)
    return config.cfl * min(dt_adv, config.dt_max, dt_visc)


def _require_real(f: SpectralField, name: str) -> None:
    """Reject coefficients that are not Hermitian where the real transforms
    of the steppers read them (inside the 2/3 box)."""
    box = dealias(f)
    defect = box.hermitian_defect()
    scale = float(np.max(np.abs(box.coeffs)))
    if defect > 1e-12 * scale:
        raise SpectralError(
            f"initial {name} is not a real field: Hermitian defect {defect:.3e} "
            f"inside the 2/3 box (max |c| = {scale:.3e})")


def run(initial: FlowState, params: PhysicalParams | None,
        config: StepperConfig, horizon: float, system: str = "cns",
        snap_times=None) -> Trajectory:
    """Advance to ``horizon`` with adaptive steps, recording snapshots.

    ``system`` selects the compressible ("cns") or incompressible ("ins")
    stepper; for "ins" the density component of the state is carried along
    unchanged.  When ``snap_times`` is given, steps are clipped so states are
    recorded exactly at those times (shared-time comparisons across runs);
    otherwise snapshots are taken every ``config.snapshot_stride`` steps.
    The initial fields must be real (Hermitian coefficients inside the 2/3
    box), else :class:`SpectralError` is raised.  Every state goes through
    the blow-up guards before it is stepped from or recorded.  Returns the
    trajectory with a termination cause of "horizon" or "blowup"; blow-ups
    are recorded as events, not raised.
    """
    if system not in ("cns", "ins"):
        raise SpectralError(f"unknown system '{system}'")
    _require_real(initial.v, "velocity")
    if system == "cns":
        _require_real(initial.a, "density")
    grid = initial.v.grid
    state = initial
    times = [state.t]
    states = [state]
    events = [(state.t, "start")]
    if snap_times is not None:
        pending = [s for s in sorted(snap_times) if s > state.t + 1e-13]
    else:
        pending = None
    steps = 0
    terminated = "horizon"
    try:
        samples = _check_state(state, config, system)
        while state.t < horizon - 1e-12:
            dt = _adaptive_dt(grid, samples, params, config, system)
            dt = min(dt, horizon - state.t)
            if pending:
                dt = min(dt, pending[0] - state.t)
            dt = float(dt)
            if system == "cns":
                state = step_cns(state, params, dt, config, checked=True)
            else:
                state = step_ins(state, params.mu if params else 1.0, dt, config)
            samples = _check_state(state, config, system)
            steps += 1
            record = False
            if pending is not None:
                if pending and abs(state.t - pending[0]) < 1e-10:
                    pending.pop(0)
                    record = True
            elif steps % config.snapshot_stride == 0:
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
