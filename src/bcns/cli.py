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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import lemmas as lemma_suite
from .bands import BesovIndex, band_lp_norms, besov_sum, build_partition
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


@dataclass
class RunConfig:
    d: int = 2
    N: int = 64
    mu: float = 1.0
    lam: float | None = None
    nu: float | None = None
    nu_list: list = field(default_factory=list)
    gamma: float = 2.0
    p: float = 2.0
    T: float = 2.0
    cfl: float = 0.4
    dt_max: float = 0.05
    snapshots: int = 81
    seed: int = 0
    initial: str = "taylor_green"
    amp: float = 1.0
    compressible_amp: float = 0.0
    a0_file: str = ""
    output_dir: str = "."
    system: str = "both"
    write_snapshots: str = "final"
    vacuum_floor: float = 0.1
    a_inf_max: float = 0.9
    trials: int = 100
    lemmas: str = "all"

    def resolved_nu(self) -> float:
        if self.nu is not None:
            return self.nu
        lam = 0.0 if self.lam is None else self.lam
        return lam + 2.0 * self.mu

    def params(self, nu: float | None = None) -> PhysicalParams:
        target = self.resolved_nu() if nu is None else nu
        return PhysicalParams.from_nu(self.mu, target, self.gamma)

    def stepper(self) -> StepperConfig:
        return StepperConfig(cfl=self.cfl, dt_max=self.dt_max,
                             vacuum_floor=self.vacuum_floor,
                             a_inf_max=self.a_inf_max)


_CONVERTERS = {
    "d": int, "N": int, "mu": float, "lambda": float, "nu": float,
    "gamma": float, "p": float, "T": float, "cfl": float, "dt_max": float,
    "snapshots": int, "seed": int, "initial": str, "amp": float,
    "compressible_amp": float, "a0_file": str, "output_dir": str,
    "system": str, "write_snapshots": str, "vacuum_floor": float,
    "a_inf_max": float, "trials": int, "lemmas": str, "nu_list": None,
}


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
        if key not in _CONVERTERS:
            raise ConfigError(f"{path} line {lineno}: unknown key '{key}'")
        try:
            if key == "nu_list":
                vals = [float(v) for v in value.split(",") if v.strip()]
                cfg.nu_list = vals
            elif key == "lambda":
                cfg.lam = float(value)
            else:
                setattr(cfg, key, _CONVERTERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: bad value for "
                              f"'{key}': {value!r}") from exc
    _validate(cfg, path)
    return cfg


def _validate(cfg: RunConfig, path: str) -> None:
    if cfg.d not in (2, 3):
        raise ConfigError(f"{path}: key 'd' must be 2 or 3, got {cfg.d}")
    if cfg.N % 2 or cfg.N < 8:
        raise ConfigError(f"{path}: key 'N' must be even and >= 8, got {cfg.N}")
    if not 0 < cfg.cfl < 1:
        raise ConfigError(f"{path}: key 'cfl' must lie in (0,1), got {cfg.cfl}")
    if any(b <= a for a, b in zip(cfg.nu_list, cfg.nu_list[1:])) or not all(
            0 < nu < math.inf for nu in cfg.nu_list):
        raise ConfigError(f"{path}: key 'nu_list' must rise strictly, finite and > 0")
    if cfg.system not in ("both", "cns", "ins"):
        raise ConfigError(f"{path}: key 'system' must be both|cns|ins")
    if cfg.write_snapshots not in ("final", "all", "none"):
        raise ConfigError(f"{path}: key 'write_snapshots' must be final|all|none")
    if cfg.snapshots < 2:
        raise ConfigError(f"{path}: key 'snapshots' must be >= 2")
    if not cfg.p >= 1:  # NaN fails too
        raise ConfigError(f"{path}: key 'p' must be >= 1, got {cfg.p}")
    if not 0 < cfg.T < math.inf:
        raise ConfigError(f"{path}: key 'T' must be finite and > 0, got {cfg.T}")
    if cfg.trials < 1:
        raise ConfigError(f"{path}: key 'trials' must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:
        raise ConfigError(f"{path}: key 'seed' must be >= 0, got {cfg.seed}")
    if not cfg.lemmas.replace(",", "").strip():
        raise ConfigError(f"{path}: key 'lemmas' selects no lemma")
    for name in cfg.lemmas.split(","):
        name = name.strip()
        if name and name != "all" and name not in lemma_suite.CHECKS:
            raise ConfigError(f"{path}: unknown lemma id '{name}' "
                              f"(valid: {', '.join(lemma_suite.CHECKS)})")
    for key in ("amp", "compressible_amp"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{path}: key '{key}' must be finite")
    try:
        cfg.params(), cfg.stepper()
    except SpectralError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    grid, a0, v0 = initial_data(cfg)
    bands = build_partition(grid)
    outdir = _output_dir(cfg)
    params = cfg.params()
    stepcfg = cfg.stepper()
    snap_times = np.linspace(0.0, cfg.T, cfg.snapshots)
    tagged = []
    traj_cns = traj_ins = None
    status = 0
    if cfg.system in ("both", "ins"):
        V0 = leray_project(v0)
        traj_ins = run(FlowState(zeros(grid), V0, 0.0), params, stepcfg, cfg.T,
                       system="ins", snap_times=snap_times)
        tagged.append(("ins", traj_ins.events))
        _snapshot_series(outdir, "ins", traj_ins, cfg.write_snapshots)
    if cfg.system in ("both", "cns"):
        traj_cns = run(FlowState(a0, v0, 0.0), params, stepcfg, cfg.T,
                       system="cns", snap_times=snap_times)
        tagged.append(("cns", traj_cns.events))
        _snapshot_series(outdir, "cns", traj_cns, cfg.write_snapshots)
        if traj_cns.terminated == "blowup":
            status = 3
    _write_events(outdir / "events.log", tagged)
    if traj_cns is not None and traj_ins is not None and status == 0:
        ledger = norm_ledger(traj_cns, traj_ins, params, cfg.p, bands)
        _write_ledger_csv(outdir / "ledger.csv", ledger)
        print(f"M = {ledger.M:.6g}  smallness lhs = {ledger.smallness_lhs:.6g}  "
              f"rhs = {ledger.smallness_rhs:.6g}")
    if status == 3:
        print("simulate: compressible run terminated by blow-up "
              "(partial artifacts kept)", file=sys.stderr)
    return status


def sweep_once(cfg: RunConfig):
    """One full viscosity sweep; returns (SweepResult, bands).  Viscosities
    that cannot carry the rate fit raise :class:`FitError` before any run."""
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
        err = limit_error(traj, traj_ins, cfg.p, bands, cfg.mu, nu)
        nus.append(nu)
        errors.append(err)
    slope, resid = fit_rate(nus, [e.err_sup for e in errors])
    return SweepResult(nus, errors, slope, resid, excluded), bands


def cmd_sweep(cfg: RunConfig) -> int:
    outdir = _output_dir(cfg)
    try:
        result, _ = sweep_once(cfg)
    except FitError as exc:
        print(f"sweep: fit failure: {exc}", file=sys.stderr)
        return 4
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
    wanted = [s.strip() for s in cfg.lemmas.split(",") if s.strip()]
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
    print(f"# snapshot t={t!r} d={f.grid.d} N={f.grid.N} rank={f.ncomp}")
    print(f"#    j   2^(js)*||Delta_j f||_p   (s={s}, p={p}, r={r})")
    for j, n in zip(bands.j_range, norms):
        print(f"{j:6d} {2.0**(j * s) * n:24.15f}")
    print(f" total {besov_sum(norms, idx, bands):24.15f}")
    return 0


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
    except SpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
