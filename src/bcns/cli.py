"""Config-driven command line: simulate, sweep, lemmas, norms.

Config files are flat ``key = value`` text ('#' starts a comment).  Exit
codes: 0 success, 2 config error, 3 blow-up, 4 fit failure.  All outputs go
to the configured output directory, and identical config + seed produce
byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from itertools import pairwise
from pathlib import Path

import numpy as np

from . import lemmas as lemma_suite
from .bands import BesovIndex, _band_weights, band_lp_norms, besov_sum, build_partition
from .calculus import leray_project
from .diagnostics import (
    FitError,
    SweepResult,
    check_viscosities,
    fit_rate,
    limit_error,
    norm_ledger,
)
from .io import SnapshotError, read_snapshot, write_snapshot
from .lemmas import oscillatory_data, random_field
from .solvers import (
    HORIZON_TOL,
    BlowupError,
    FlowState,
    PhysicalParams,
    StepperConfig,
    Trajectory,
    run,
    taylor_green,
)
from .spectral import (
    SpectralError,
    forward_transform,
    make_grid,
    lp_norm,
    zeros,
)


class ConfigError(ValueError):
    pass


def _key(must: str, ok, **default):
    """A key with its own check: ``ok(value)`` holds, or the config error
    reads "key 'k' must <must>"."""
    return field(metadata={"must": must, "ok": ok}, **default)


def _lemma_ids(text: str) -> list:
    return [s.strip() for s in text.split(",") if s.strip()]


@dataclass
class RunConfig:
    """The config keys, one field each, named as the key.  Keys without a
    check of their own are checked by ``make_grid``, :meth:`params`
    and :meth:`stepper`, or where they are read."""

    d: int = 2
    N: int = 64
    mu: float = 1.0
    nu: float | None = None  # unset: 2 mu, i.e. lambda = 0
    nu_list: list[float] = _key(  # NaN fails too
        "rise strictly, finite and > 0", default_factory=list,
        ok=lambda v: all(a < b for a, b in pairwise([0.0, *v, math.inf])))
    gamma: float = 2.0
    p: float = _key("be >= 1", lambda p: p >= 1, default=2.0)  # NaN fails too
    T: float = _key("be finite and > 0", lambda t: 0 < t < math.inf, default=2.0)
    cfl: float = 0.4
    dt_max: float = 0.05
    snapshots: int = _key("be >= 2", lambda n: n >= 2, default=81)
    seed: int = _key("be >= 0", lambda s: s >= 0, default=0)
    initial: str = "taylor_green"
    amp: float = _key("be finite", math.isfinite, default=1.0)
    compressible_amp: float = _key("be finite", math.isfinite, default=0.0)
    a0_file: str = ""
    output_dir: str = "."
    system: str = _key("be both|cns|ins", lambda s: s in ("both", "cns", "ins"), default="both")
    write_snapshots: str = _key("be final|all|none", lambda s: s in ("final", "all", "none"),
                                default="final")
    vacuum_floor: float = 0.1
    trials: int = _key("be >= 1", lambda n: n >= 1, default=100)
    lemmas: str = _key(
        "list lemma ids from all, " + ", ".join(lemma_suite.CHECKS), default="all",
        ok=lambda s: bool(_lemma_ids(s)) and {"all", *lemma_suite.CHECKS} >= set(_lemma_ids(s)))

    def params(self, nu: float | None = None) -> PhysicalParams:
        """The physical parameters at ``nu``, by default the configured one."""
        if nu is None and self.nu is None:
            nu = 2.0 * self.mu
            if nu == math.inf and self.mu < math.inf:
                raise SpectralError(f"shear viscosity mu={self.mu} puts the default "
                                    "nu = 2 mu above the float range; set nu")
        elif nu is None:
            nu = self.nu
        return PhysicalParams(self.mu, nu, self.gamma)

    def stepper(self) -> StepperConfig:
        return StepperConfig(cfl=self.cfl, dt_max=self.dt_max,
                             vacuum_floor=self.vacuum_floor)


CONFIG_KEYS = {f.name: f for f in fields(RunConfig)}
_PARSE = {"int": int, "float": float, "float | None": float, "str": str,
          "list[float]": lambda s: [float(v) for v in s.split(",") if v.strip()]}


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Parse flat key = value text with line-precise diagnostics."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path} line {lineno}: unknown key '{key}'")
        try:
            setattr(cfg, key, _PARSE[CONFIG_KEYS[key].type](value))
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: bad value for "
                              f"'{key}': {value!r}") from exc
    _validate(cfg, path)
    return cfg


def _validate(cfg: RunConfig, path: str) -> None:
    for key, f in CONFIG_KEYS.items():
        value = getattr(cfg, key)
        if f.metadata and not f.metadata["ok"](value):
            raise ConfigError(f"{path}: key '{key}' must {f.metadata['must']}, "
                              f"got {value!r}")
    try:
        make_grid(cfg.d, cfg.N), cfg.stepper()
        for nu in cfg.nu_list or [cfg.nu]:  # members; nu (or 2 mu) only without them
            cfg.params(nu)
    except SpectralError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # the snapshot times as the runs get them (numpy refuses an absurd count here)
    if np.linspace(0.0, cfg.T, cfg.snapshots)[1] <= HORIZON_TOL:
        raise ConfigError(f"{path}: key 'T' must put snapshots over {HORIZON_TOL:g} apart, "
                          f"got T/(snapshots - 1) = {cfg.T / (cfg.snapshots - 1):g}")


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, path)


def _read_snapshot_key(key: str, path: str):
    try:
        return read_snapshot(path)[0]
    except (SnapshotError, OSError) as exc:
        raise ConfigError(f"key '{key}': cannot read snapshot {path}: {exc}") from exc


def initial_data(cfg: RunConfig):
    """Build (a0, v0) on the configured grid from the initial-data preset."""
    grid = make_grid(cfg.d, cfg.N)
    xs = grid.meshes()
    if cfg.initial == "taylor_green":
        v0 = taylor_green(grid, cfg.amp)
    elif cfg.initial.startswith("oscillatory:"):
        value = cfg.initial.split(":", 1)[1]
        try:
            eps = float(value)
        except ValueError as exc:
            raise ConfigError(f"initial preset 'oscillatory:' needs a number "
                              f"after the colon, got {value!r}") from exc
        osc = oscillatory_data(grid, eps)
        stack = np.zeros((grid.d,) + grid.shape)
        stack[0] = osc.samples()
        v0 = forward_transform(stack, grid) * cfg.amp
    elif cfg.initial == "random":
        rng = np.random.default_rng(cfg.seed)
        f = random_field(grid, rng, vector=True)
        sup = lp_norm(f, math.inf)
        v0 = f * (cfg.amp / sup if sup > 0 else 0.0)
    elif cfg.initial.startswith("file:"):
        snap_path = cfg.initial.split(":", 1)[1]
        f = _read_snapshot_key("initial", snap_path)
        if f.grid != grid or not f.is_vector:
            raise ConfigError(f"initial file {snap_path} does not hold a vector "
                              f"field on a {cfg.d}D N={cfg.N} grid")
        v0 = f
    else:
        raise ConfigError(f"unknown initial-data preset '{cfg.initial}'")
    if cfg.compressible_amp != 0.0:
        stack = np.zeros((grid.d,) + grid.shape)
        stack[0] = cfg.compressible_amp * np.sin(xs[0] + np.zeros(grid.shape))
        v0 = v0 + forward_transform(stack, grid)
    if cfg.a0_file:
        a0 = _read_snapshot_key("a0_file", cfg.a0_file)
        if a0.grid != grid or a0.is_vector:
            raise ConfigError(f"a0 file {cfg.a0_file} does not hold a scalar "
                              f"field on the configured grid")
    else:
        a0 = zeros(grid)
    return grid, a0, v0


def _fmt(x: float) -> str:
    return format(float(x), ".17e")


def _write_events(path: Path, tagged_events) -> None:
    with open(path, "w") as fh:
        for tag, events in tagged_events:
            for t, ev in events:
                fh.write(f"t={float(t)!r} event={tag}:{ev}\n")


def _write_ledger_csv(path: Path, ledger) -> None:
    with open(path, "w") as fh:
        fh.write("t,X,Y,Z,W\n")
        for i, t in enumerate(ledger.times):
            fh.write(",".join([_fmt(t), _fmt(ledger.X[i]), _fmt(ledger.Y[i]),
                               _fmt(ledger.Z[i]), _fmt(ledger.W[i])]) + "\n")


def _snapshot_series(outdir: Path, tag: str, traj: Trajectory, mode: str) -> None:
    if mode == "none":
        return
    indices = range(len(traj.times)) if mode == "all" else [len(traj.times) - 1]
    for i in indices:
        st = traj.states[i]
        suffix = f"{i:06d}" if mode == "all" else "final"
        write_snapshot(outdir / f"{tag}_v_{suffix}.snap", st.v, st.t)
        if tag == "cns":
            write_snapshot(outdir / f"{tag}_a_{suffix}.snap", st.a, st.t)


def _output_dir(cfg: RunConfig) -> Path:
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'output_dir': {exc}") from exc
    return Path(cfg.output_dir)


def cmd_simulate(cfg: RunConfig) -> int:
    params = cfg.params()
    grid, a0, v0 = initial_data(cfg)
    bands = build_partition(grid)
    outdir = _output_dir(cfg)
    stepcfg = cfg.stepper()
    snap_times = np.linspace(0.0, cfg.T, cfg.snapshots)
    runs = {}
    for tag, a_init, v_init in (("ins", zeros(grid), leray_project(v0)),
                                ("cns", a0, v0)):
        if cfg.system in ("both", tag):
            runs[tag] = run(FlowState(a_init, v_init, 0.0), params, stepcfg,
                            cfg.T, system=tag, snap_times=snap_times)
            _snapshot_series(outdir, tag, runs[tag], cfg.write_snapshots)
    _write_events(outdir / "events.log",
                  [(tag, traj.events) for tag, traj in runs.items()])
    names = {"ins": "incompressible reference", "cns": "compressible run"}
    blown = [names[tag] for tag, traj in runs.items() if traj.terminated == "blowup"]
    if blown:
        print(f"simulate: {' and '.join(blown)} terminated by blow-up "
              "(partial artifacts kept)", file=sys.stderr)
        return 3
    if len(runs) == 2:
        with warnings.catch_warnings():  # p outside its range: one line, no source
            warnings.showwarning = lambda msg, *_: print(f"simulate: {msg}", file=sys.stderr)
            ledger = norm_ledger(runs["cns"], runs["ins"], params, cfg.p, bands)
        _write_ledger_csv(outdir / "ledger.csv", ledger)
        print(f"M = {ledger.M:.6g}  smallness lhs = {ledger.smallness_lhs:.6g}  "
              f"rhs = {ledger.smallness_rhs:.6g}")
    return 0


def sweep_once(cfg: RunConfig) -> SweepResult:
    """One full viscosity sweep.  Viscosities that cannot carry the rate fit
    raise :class:`FitError` before any run; a reference blow-up (before any
    member runs) and a sweep whose every member blows up print their line and
    raise :class:`BlowupError` (the reference's or last member's time and event)."""
    if cfg.a0_file:
        raise ConfigError("sweep enforces a0 = 0; remove 'a0_file'")
    check_viscosities(cfg.nu_list)
    grid, a0, v0 = initial_data(cfg)
    bands = build_partition(grid)
    params0 = cfg.params(cfg.nu_list[0])
    stepcfg = cfg.stepper()
    snap_times = np.linspace(0.0, cfg.T, cfg.snapshots)
    V0 = leray_project(v0)
    traj_ins = run(FlowState(zeros(grid), V0, 0.0), params0, stepcfg, cfg.T,
                   system="ins", snap_times=snap_times)
    if traj_ins.terminated == "blowup":
        t, reason = traj_ins.events[-2]
        print(f"sweep: incompressible reference terminated by blow-up at t={t:.6g} "
              f"({reason}); no member run", file=sys.stderr)
        raise BlowupError(t, reason)
    nus, errors, excluded = [], [], []
    for nu in cfg.nu_list:
        params = cfg.params(nu)
        # resolve the fast acoustic transient (rate ~ nu on the data modes)
        member_cfg = replace(stepcfg, dt_max=min(stepcfg.dt_max, 0.8 / nu))
        traj = run(FlowState(a0, v0, 0.0), params, member_cfg, cfg.T,
                   system="cns", snap_times=snap_times)
        if traj.terminated != "horizon":
            excluded.append((nu, traj.events[-2][1]))
            print(f"sweep: nu={nu:g} excluded ({traj.events[-2][1]})",
                  file=sys.stderr)
            continue
        err = limit_error(traj, traj_ins, params, cfg.p, bands)
        nus.append(nu)
        errors.append(err)
    if not nus:
        print("sweep: every member terminated by blow-up; no rate fit", file=sys.stderr)
        raise BlowupError(*traj.events[-2])
    slope, resid = fit_rate(nus, [e.err_sup for e in errors])
    return SweepResult(nus, errors, slope, resid, excluded)


def cmd_sweep(cfg: RunConfig) -> int:
    outdir = _output_dir(cfg)
    try:
        result = sweep_once(cfg)
    except FitError as exc:
        print(f"sweep: fit failure: {exc}", file=sys.stderr)
        return 4
    except BlowupError:
        return 3
    with open(outdir / "sweep.csv", "w") as fh:
        fh.write("nu,err_density,err_sup,err_grad_l1,err_dt_l1\n")
        for nu, err in zip(result.nu_values, result.errors):
            fh.write(",".join([_fmt(nu), _fmt(err.err_density), _fmt(err.err_sup),
                               _fmt(err.err_grad_l1), _fmt(err.err_dt_l1)]) + "\n")
    with open(outdir / "fit.txt", "w") as fh:
        fh.write(f"slope {_fmt(result.slope)}\n")
        fh.write(f"residual {_fmt(result.fit_residual)}\n")
    print(f"sweep: slope = {result.slope:.4f} residual = {result.fit_residual:.4f}")
    return 0


def cmd_lemmas(cfg: RunConfig) -> int:
    outdir = _output_dir(cfg)
    wanted = _lemma_ids(cfg.lemmas)
    if "all" in wanted:
        wanted = list(lemma_suite.CHECKS)
    reports = []
    for name in wanted:
        reports += lemma_suite.CHECKS[name](cfg.trials, cfg.seed)
    with open(outdir / "lemmas.csv", "w") as fh:
        fh.write("lemma,params,max_ratio,median_ratio,stable\n")
        for r in reports:
            fh.write(f"{r.lemma},{r.params},{_fmt(r.max_ratio)},"
                     f"{_fmt(r.median_ratio)},{str(r.stable).lower()}\n")
    bad = [r.lemma for r in reports if not r.stable]
    print(f"lemmas: {len(reports)} reports, "
          f"{'all stable' if not bad else 'unstable: ' + ','.join(bad)}")
    return 0


def cmd_norms(snapshot: str, s: float, p: float, r: float) -> int:
    try:
        f, t = read_snapshot(snapshot)
    except (SnapshotError, OSError) as exc:
        print(f"norms: {exc}", file=sys.stderr)
        return 2
    idx = BesovIndex(s, p, r)
    bands = build_partition(f.grid)
    norms = band_lp_norms(f, p, bands)
    # a term or total out of range is inf (an empty band 0); main silences numpy
    weights = _band_weights(bands.j_min, bands.j_max, s)
    terms = np.where(norms > 0, weights * norms, 0.0)
    total = besov_sum(terms, replace(idx, s=0.0), bands)
    print(f"# snapshot t={t!r} d={f.grid.d} N={f.grid.N} rank={f.ncomp}")
    print(f"#    j   2^(js)*||Delta_j f||_p   (s={s}, p={p}, r={r})")
    for j, term in zip(bands.j_range, terms):
        print(f"{j:6d} {term:24.15f}")
    print(f" total {total:24.15f}")
    return 0


# a run that overflows ends on the guards' blow-up line, and `norms` prints inf
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcns",
        description="Pseudo-spectral compressible Navier-Stokes on the torus "
                    "with Littlewood-Paley diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "sweep", "lemmas"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None, help="override output_dir")
        sp.add_argument("--seed", type=int, default=None, help="override seed")
    spn = sub.add_parser("norms")
    spn.add_argument("snapshot")
    spn.add_argument("--s", type=float, default=0.0)
    spn.add_argument("--p", type=float, default=2.0)
    spn.add_argument("--r", type=float, default=1.0)
    args = parser.parse_args(argv)

    try:
        if args.command == "norms":
            return cmd_norms(args.snapshot, args.s, args.p, args.r)
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
            _validate(cfg, "--seed")
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_lemmas(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SpectralError, MemoryError) as exc:  # MemoryError: absurd sizes
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
