"""The time steps of ``run`` as the tests observe them: the ``dt`` of every
step, read where ``run`` hands the step to ``step_cns`` or ``step_ins``, and
``run``'s three ``dt`` rules written out on the samples of a state."""

import math

import numpy as np
import pytest

import bcns.solvers
from bcns.spectral import inverse_transform


def stepped_run(*args, **kwargs):
    """``run(*args, **kwargs)`` and the ``dt`` of each step it took, in order."""
    dts = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("step_cns", "step_ins"):
            def recorded(state, params, dt, *rest, _step=getattr(bcns.solvers, name), **kw):
                dts.append(dt)
                return _step(state, params, dt, *rest, **kw)
            mp.setattr(bcns.solvers, name, recorded)
        traj = bcns.solvers.run(*args, **kwargs)
    return traj, np.array(dts)


def dt_rules(state, params, config, system):
    """``cfl`` times each bound on a step from ``state``: ``dx`` over the
    largest speed (``cfl``), ``dt_max``, and ``2/(nu max|a/(1+a)| k2max)``
    (``dt_visc``, compressible runs only), ``k2max`` the largest ``|k|^2`` of
    the 2/3 box."""
    grid = state.v.grid
    v = inverse_transform(state.v)
    speed = math.sqrt(float(np.max(np.sum(v * v, axis=0))))
    a = inverse_transform(state.a) if system == "cns" else 0.0
    ratio = float(np.max(np.abs(a / (1.0 + a))))
    k2max = grid.d * (math.ceil(grid.N / 3) - 1) ** 2
    bounds = {"cfl": grid.dx / speed if speed > 0 else math.inf,
              "dt_max": config.dt_max,
              "dt_visc": 2.0 / (params.nu * ratio * k2max) if ratio > 0 else math.inf}
    return {rule: config.cfl * bound for rule, bound in bounds.items()}


def assert_equal_steps(dts, dt, count):
    """``count`` steps of ``dt``, bar the roundoff where a snapshot or the
    horizon clips one."""
    assert len(dts) == count
    np.testing.assert_allclose(dts, dt, rtol=1e-12, atol=0)


def steps_set_by(rule, traj, params, config, system="cns"):
    """The number of steps of a run that recorded every state, asserting
    that each is set by ``rule``, the smallest of :func:`dt_rules` on the
    state it starts from, and equals it (bar the roundoff of the samples'
    maxima); the last step may be clipped to the horizon."""
    steps = np.diff(traj.times)
    assert len(steps) >= 2
    for i, (state, dt) in enumerate(zip(traj.states, steps)):
        rules = dt_rules(state, params, config, system)
        assert min(rules, key=rules.get) == rule, (i, rules)
        last = i == len(steps) - 1
        assert (dt <= rules[rule] * (1 + 1e-12) if last
                else dt == pytest.approx(rules[rule], rel=1e-12, abs=0)), (i, dt, rules)
    return len(steps)
