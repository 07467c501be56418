import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import bcns.cli
from bcns.bands import BesovIndex, besov_norm, build_partition
from bcns.cli import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    cmd_lemmas,
    cmd_norms,
    cmd_simulate,
    cmd_sweep,
    initial_data,
    load_config,
    main,
    parse_config,
    sweep_once,
)
from bcns.diagnostics import limit_error
from bcns.io import write_snapshot
from bcns.lemmas import (
    LemmaReport,
    check_oscillatory_scaling,
    oscillatory_norm,
)
from bcns.solvers import StepperConfig, taylor_green
from bcns.spectral import SpectralField, forward_transform, make_grid


SWEEP_CFG = """
d = 2
N = 16
mu = 1.0
gamma = 2.0
T = 0.4
snapshots = 11
cfl = 0.4
dt_max = 0.02
nu_list = 4, 16, 64, 256
compressible_amp = 0.2
seed = 1
"""


def test_parse_config_defaults_and_overrides():
    cfg = parse_config("N = 32\nmu = 0.5\nnu = 4.0\n")
    assert cfg.N == 32 and cfg.mu == 0.5 and cfg.params().nu == 4.0
    assert cfg.d == 2 and cfg.gamma == 2.0
    params = parse_config("mu = 0.5\n").params()  # nu unset: 2 mu, lambda = 0
    assert params.nu == 1.0


def test_config_keys_are_the_fields_without_an_alias():
    assert set(CONFIG_KEYS) == {f.name for f in fields(RunConfig)}
    assert len(CONFIG_KEYS) == 22


def test_stepper_config_is_the_three_stepping_keys():
    # no field without a key: the stepping a test drives is the stepping a config sets
    names = {f.name for f in fields(StepperConfig)}
    assert names == {"cfl", "dt_max", "vacuum_floor"} and names <= set(CONFIG_KEYS)
    cfg = parse_config("cfl = 0.3\ndt_max = 0.02\nvacuum_floor = 0.2\n")
    assert cfg.stepper() == StepperConfig(cfl=0.3, dt_max=0.02, vacuum_floor=0.2)


def test_lambda_key_is_unknown(tmp_path, capsys):
    # nu = lambda + 2 mu is the one viscosity input
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text("N = 16\nlambda = 3\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (f"config error: {cfgfile} line 2: "
                                       "unknown key 'lambda'\n")


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config("N = 32\nviscosty = 2\n", path="bad.cfg")
    assert "line 2" in str(err.value)
    assert "viscosty" in str(err.value)


def test_parse_config_bad_value():
    with pytest.raises(ConfigError) as err:
        parse_config("N = thirty\n")
    assert "'N'" in str(err.value)


def test_parse_config_validation_errors():
    with pytest.raises(ConfigError):
        parse_config("N = 15\n")
    with pytest.raises(ConfigError):
        parse_config("nu_list = 4, 2, 8\n")
    with pytest.raises(ConfigError):
        parse_config("lemmas = bogus\n")
    with pytest.raises(ConfigError):
        parse_config("cfl = 0\n")
    with pytest.raises(ConfigError):
        parse_config("d = 4\n")


def test_main_config_error_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("whatkey = 3\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 2
    rc = main(["simulate", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2


def test_simulate_writes_expected_artifacts(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(
        "N = 16\nT = 0.3\nsnapshots = 7\nnu = 6\ncompressible_amp = 0.2\n"
        f"output_dir = {tmp_path/'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 0
    out = tmp_path / "out"
    for name in ("ledger.csv", "events.log", "cns_v_final.snap",
                 "cns_a_final.snap", "ins_v_final.snap"):
        assert (out / name).exists(), name
    lines = (out / "ledger.csv").read_text().splitlines()
    assert lines[0] == "t,X,Y,Z,W"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # integral-type and sup-type columns are nondecreasing in time
    for col in range(1, 5):
        assert np.all(np.diff(rows[:, col]) >= -1e-13)
    events = (out / "events.log").read_text()
    assert "event=cns:start" in events and "t=" in events


def test_simulate_cns_only_with_all_snapshots(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(
        "N = 16\nT = 0.1\nsnapshots = 3\nnu = 4\nsystem = cns\n"
        f"write_snapshots = all\ncompressible_amp = 0.1\n"
        f"output_dir = {tmp_path/'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 0
    out = tmp_path / "out"
    snaps = sorted(p.name for p in out.glob("cns_v_*.snap"))
    assert snaps == ["cns_v_000000.snap", "cns_v_000001.snap",
                     "cns_v_000002.snap"]
    assert not (out / "ledger.csv").exists()  # needs both systems
    from bcns.io import read_snapshot

    _, t_last = read_snapshot(out / "cns_v_000002.snap")
    assert t_last == pytest.approx(0.1)


@pytest.mark.parametrize("N, eps", [(16, 0.25), (16, 0.5), (8, 0.5)])
def test_oscillatory_data_with_nyquist_content_simulates(tmp_path, capsys, N, eps):
    # the Leray projection leaves ~1e-12 of divergence on the Nyquist planes,
    # which the incompressible step's precondition does not measure
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"N = {N}\nT = 0.05\ninitial = oscillatory:{eps}\n"
                       f"output_dir = {tmp_path / 'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "out" / "ledger.csv").exists()


@pytest.mark.parametrize("text", ["N = 4194304\n", "N = 16\nsnapshots = 100000000000\n"])
def test_absurd_sizes_exit_2_with_a_message(tmp_path, capsys, text):
    # numpy refuses the allocation at once: exit 2, no traceback
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(text + "T = 0.05\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err and "Traceback" not in err


@pytest.mark.parametrize("nu", ["1e155", "1e300"])
def test_huge_volume_viscosity_simulates(tmp_path, capsys, nu):
    # the propagator and the ledger squared nu: past nu ~ 1.3e154 that raised
    # OverflowError, and at 1e154 the propagator tables were not finite
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"N = 16\nT = 0.05\nsnapshots = 3\nnu = {nu}\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().err
    assert "end:horizon" in (tmp_path / "o" / "events.log").read_text()
    ledger = np.loadtxt(tmp_path / "o" / "ledger.csv", delimiter=",", skiprows=1)
    assert np.isfinite(ledger).all()


def test_huge_shear_viscosity_simulates(tmp_path, capsys):
    # the ledger's smallness condition squared mu and M as Python floats:
    # mu = 1e200 raised OverflowError, and sqrt(mu nu) exp(-(M + M^2)) may be inf * 0
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text("N = 16\nT = 0.05\nsnapshots = 3\nmu = 1e200\nnu = 1e300\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert "end:horizon" in (tmp_path / "o" / "events.log").read_text()
    assert "nan" not in out.lower() and "smallness lhs = inf" in out


@pytest.mark.parametrize("tag", ["cns", "ins"])
def test_simulate_blowup_exit_code(tmp_path, capsys, tag):
    # the density leaves the guards in the compressible run; the velocity
    # overflows in the incompressible reference
    if tag == "cns":
        g = make_grid(2, 16)
        x, _ = g.meshes()
        snap = tmp_path / "a0.snap"
        write_snapshot(snap, forward_transform(0.95 * np.cos(x) + np.zeros(g.shape), g),
                       0.0)
        text = f"T = 0.3\nsnapshots = 5\nnu = 2\na0_file = {snap}\n"
        run_name = "compressible run"
    else:
        text = "T = 0.1\nsnapshots = 3\nsystem = ins\namp = 1e9\n"
        run_name = "incompressible reference"
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"N = 16\n{text}output_dir = {tmp_path/'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 3
    assert f"{run_name} terminated by blow-up" in capsys.readouterr().err
    events = (tmp_path / "out" / "events.log").read_text()  # partial artifacts kept
    assert f"event={tag}:blowup:" in events


def test_sweep_reference_blowup_exits_3_before_any_member(tmp_path, capsys,
                                                         monkeypatch):
    real_run = bcns.cli.run
    systems = []

    def counting_run(*args, system, **kwargs):
        systems.append(system)
        return real_run(*args, system=system, **kwargs)

    monkeypatch.setattr(bcns.cli, "run", counting_run)
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("N = 16\nT = 0.1\nsnapshots = 3\namp = 1e9\n"
                       "nu_list = 4, 16, 64, 256\n")
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert systems == ["ins"]
    assert "incompressible reference terminated by blow-up" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_sweep_whose_every_member_blows_up_exits_3(tmp_path, capsys):
    # the reference reaches T (gamma enters the compressible run only)
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("N = 16\nT = 0.01\nsnapshots = 3\nnu_list = 1, 10, 100\n"
                       "gamma = 1e300\n")
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        *(f"sweep: nu={nu} excluded (blowup:non-finite field values)"
          for nu in (1, 10, 100)),
        "sweep: every member terminated by blow-up; no rate fit"]
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_sweep_once_raises_the_package_blowup_error_on_a_reference_blowup():
    cfg = parse_config("N = 16\nT = 0.1\nsnapshots = 3\namp = 1e9\n"
                       "nu_list = 4, 16, 64, 256\n")
    with pytest.raises(bcns.BlowupError) as err:
        sweep_once(cfg)
    assert err.value.reason.startswith("blowup:")
    assert 0.0 <= err.value.t < 0.1


def test_sweep_csv_schema_and_determinism(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(SWEEP_CFG)
    rc1 = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "s1")])
    rc2 = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "s2")])
    assert rc1 == 0 and rc2 == 0
    csv1 = (tmp_path / "s1" / "sweep.csv").read_bytes()
    csv2 = (tmp_path / "s2" / "sweep.csv").read_bytes()
    assert csv1 == csv2
    fit1 = (tmp_path / "s1" / "fit.txt").read_bytes()
    fit2 = (tmp_path / "s2" / "fit.txt").read_bytes()
    assert fit1 == fit2
    header = csv1.decode().splitlines()[0]
    assert header == "nu,err_density,err_sup,err_grad_l1,err_dt_l1"
    rows = [ln.split(",") for ln in csv1.decode().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [4.0, 16.0, 64.0, 256.0]
    assert fit1.decode().startswith("slope ")


def test_sweep_limit_errors_read_the_members_parameters(monkeypatch):
    # 0.3 - 2 + 2 is not 0.3: the members step and are measured at the exact nu
    real_run = bcns.cli.run
    runs = []

    def recording_run(initial, params, *args, **kwargs):
        runs.append((params, real_run(initial, params, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(bcns.cli, "run", recording_run)
    cfg = parse_config("N = 16\nT = 0.05\nsnapshots = 3\ncompressible_amp = 0.2\n"
                       "nu_list = 0.3, 3, 30\n")
    result = sweep_once(cfg)
    (_, traj_ins), *members = runs
    assert [params.nu for params, _ in members] == result.nu_values == [0.3, 3.0, 30.0]
    bands = build_partition(make_grid(cfg.d, cfg.N))
    assert result.errors == [limit_error(traj, traj_ins, cfg.params(nu), cfg.p, bands)
                             for nu, (_, traj) in zip(cfg.nu_list, members)]


def test_sweep_too_few_viscosities(tmp_path, capsys, monkeypatch):
    # the fit's viscosity checks fail before the first run
    def no_run(*args, **kwargs):
        raise AssertionError("sweep ran a flow")

    monkeypatch.setattr(bcns.cli, "run", no_run)
    cfgfile = tmp_path / "sweep.cfg"
    for nu_list, message in (("4, 16", "at least 3 viscosity values"),
                             ("10, 20, 40", "span at least 1.5 decades")):
        cfgfile.write_text(f"N = 16\nnu_list = {nu_list}\n")
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert message in capsys.readouterr().err


def test_sweep_identical_stub_hits_fit_error(tmp_path, monkeypatch):
    # every compressible member returns the incompressible reference, so
    # all errors vanish and the rate fit must fail
    real_run = bcns.cli.run
    reference = []

    def run_stub(initial, params, config, horizon, system="cns", snap_times=None):
        if system == "ins":
            reference.append(real_run(initial, params, config, horizon,
                                      system=system, snap_times=snap_times))
        return reference[0]

    monkeypatch.setattr(bcns.cli, "run", run_stub)
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(SWEEP_CFG)
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 4


def test_sweep_rejects_a0_file(tmp_path):
    g = make_grid(2, 16)
    snap = tmp_path / "a0.snap"
    write_snapshot(snap, forward_transform(np.zeros(g.shape), g), 0.0)
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(SWEEP_CFG + f"a0_file = {snap}\n")
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_lemmas_csv_deterministic_and_filterable(tmp_path):
    cfgfile = tmp_path / "lem.cfg"
    cfgfile.write_text("trials = 12\nlemmas = composition\nseed = 3\n")
    rc1 = main(["lemmas", "--config", str(cfgfile), "--out", str(tmp_path / "l1")])
    rc2 = main(["lemmas", "--config", str(cfgfile), "--out", str(tmp_path / "l2")])
    assert rc1 == 0 and rc2 == 0
    b1 = (tmp_path / "l1" / "lemmas.csv").read_bytes()
    b2 = (tmp_path / "l2" / "lemmas.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "lemma,params,max_ratio,median_ratio,stable"
    assert all(ln.startswith("composition") for ln in lines[1:])

    # changed seed: ratios move, verdicts stay
    cfgfile.write_text("trials = 12\nlemmas = composition\nseed = 4\n")
    main(["lemmas", "--config", str(cfgfile), "--out", str(tmp_path / "l3")])
    b3 = (tmp_path / "l3" / "lemmas.csv").read_bytes()
    assert b3 != b1
    verd1 = [ln.rsplit(",", 1)[1] for ln in b1.decode().splitlines()[1:]]
    verd3 = [ln.rsplit(",", 1)[1] for ln in b3.decode().splitlines()[1:]]
    assert verd1 == verd3


def test_lemmas_unknown_id(tmp_path):
    cfgfile = tmp_path / "lem.cfg"
    cfgfile.write_text("lemmas = bernstein, nosuchlemma\n")
    rc = main(["lemmas", "--config", str(cfgfile)])
    assert rc == 2


def test_lemmas_dispatch_reads_the_module_binding(tmp_path, monkeypatch):
    # the check table must call whatever bcns.lemmas binds at run time
    stub = LemmaReport("stub_lemma", "x=1", 1.5, 0.25, True)
    monkeypatch.setattr(bcns.lemmas, "check_heat_regularity",
                        lambda seed: [stub])
    cfg = parse_config(f"lemmas = heat\noutput_dir = {tmp_path}\n")
    assert cmd_lemmas(cfg) == 0
    lines = (tmp_path / "lemmas.csv").read_text().splitlines()
    assert lines[1:] == ["stub_lemma,x=1,1.50000000000000000e+00,"
                         "2.50000000000000000e-01,true"]


@pytest.mark.parametrize("command, text, key", [
    ("simulate", "N = 16\nT = 0.1\nsnapshots = 3\ndt_max = 0\n", "dt_max"),
    ("simulate", "N = 16\nT = 0.1\nsnapshots = 3\ndt_max = -0.01\n", "dt_max"),
    ("sweep", SWEEP_CFG + "dt_max = 0\n", "dt_max"),
    ("simulate", "N = 16\nT = 0\n", "'T'"),
    ("simulate", "N = 16\nT = -1\n", "'T'"),
    ("simulate", "N = 16\nT = nan\n", "'T'"),
    ("simulate", "N = 16\nT = inf\n", "'T'"),
    ("lemmas", "trials = 0\nlemmas = product_laws\n", "'trials'"),
    ("lemmas", "trials = -3\nlemmas = composition\n", "'trials'"),
])
def test_bad_step_horizon_or_trials_exits_2(tmp_path, capsys, command, text,
                                            key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    rc = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, text, key", [
    ("simulate", "N = 16\nT = 0.05\ninitial = file:no_such.snap\n", "'initial'"),
    ("simulate", "N = 16\nT = 0.05\na0_file = no_such.snap\n", "'a0_file'"),
    ("lemmas", "seed = -1\nlemmas = heat\n", "'seed'"),
    ("simulate", "N = 16\nT = 0.05\nmu = nan\n", "mu="),
    # the default nu = 2 mu overflows: the message names mu, the key that is set
    ("simulate", "N = 16\nT = 0.05\nmu = 1e308\n",
     "shear viscosity mu=1e+308 puts the default nu = 2 mu above the float range"),
    ("simulate", "N = 16\nT = 0.05\nnu = nan\n", "nu ="),
    ("simulate", "N = 16\nT = 0.05\ngamma = nan\n", "gamma="),
    ("simulate", "N = 16\nT = 0.05\namp = nan\n", "'amp'"),
    ("simulate", "N = 16\nT = 0.05\ncompressible_amp = inf\n", "'compressible_amp'"),
    ("simulate", "N = 16\nT = 0.05\nvacuum_floor = nan\n", "vacuum_floor="),
    ("simulate", "N = 16\nT = 0.05\na_inf_max = -1\n", "unknown key 'a_inf_max'"),
    ("sweep", "N = 16\nT = 0.05\nnu_list = 10, 40, inf\n", "'nu_list'"),
    ("sweep", "N = 16\nT = 0.05\nnu_list = -1, 40, 160\n", "'nu_list'"),
    ("simulate", "N = 16\nT = 0.05\np = 0.5\n", "'p'"),
    ("sweep", "p = nan\nN = 16\nT = 0.05\nnu_list = 10, 40, 640\n", "'p'"),
    ("lemmas", "lemmas = ,\n", "'lemmas'"),
    ("simulate", "N = 16\nT = 0.05\ninitial = oscillatory:0\n", "eps"),
    ("simulate", "N = 16\nT = 0.05\ninitial = oscillatory:nan\n", "eps"),
    ("simulate", b"N = 16\nT = 0.05\n# \xe9t\xe9\n", "cannot read config"),
    ("lemmas", "lemmas = heat\n", "'output_dir'"),
])
def test_bad_parameter_or_unreadable_file_exits_2(tmp_path, capsys, command, text,
                                                  key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(text if isinstance(text, bytes) else text.encode())
    if key == "'output_dir'":  # the output directory names a regular file
        (tmp_path / "o").write_text("")
    rc = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "lemmas.cfg"
    cfgfile.write_text("lemmas = heat\n")
    rc = main(["lemmas", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
               "--seed", "-5"])
    assert rc == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _main_recording_warnings(capsys, argv):
    """``main(argv)`` with every warning recorded: exit code, stderr, warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, capsys.readouterr().err, [str(w.message) for w in caught]


@pytest.mark.parametrize("text, events", [
    # the speed overflows in both runs at t = 0; the pressure law overflows
    ("amp = 1e200\n", ["ins:start", "ins:blowup:velocity magnitude overflow",
                        "ins:end:blowup", "cns:start",
                        "cns:blowup:velocity magnitude overflow", "cns:end:blowup"]),
    ("gamma = 1e300\ncompressible_amp = 0.5\n",
     ["ins:start", "ins:end:horizon", "cns:start",
      "cns:blowup:non-finite field values", "cns:end:blowup"]),
])
def test_overflow_blowup_prints_only_its_line(tmp_path, capsys, text, events):
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"N = 16\nT = 0.1\nsnapshots = 3\n{text}")
    rc, err, caught = _main_recording_warnings(
        capsys, ["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 3 and caught == []
    assert len(err.splitlines()) == 1 and err.startswith("simulate: ")
    logged = (tmp_path / "o" / "events.log").read_text().splitlines()
    assert [ln.split(" event=", 1)[1] for ln in logged] == events


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("text", ["T = 1e-12\n", "T = 1e-11\nsnapshots = 81\n"])
def test_snapshot_spacing_within_the_horizon_tolerance_exits_2(tmp_path, capsys,
                                                               command, text):
    # run takes a time within HORIZON_TOL of the next snapshot as reached: the
    # runs would skip snapshots, and the ledger would lose rows
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"N = 16\nnu_list = 1, 10, 100\n{text}")
    rc = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "key 'T'" in err
    assert not (tmp_path / "o").exists()


def test_snapshot_spacing_above_the_horizon_tolerance_records_every_snapshot(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text("N = 16\nT = 1e-11\nsnapshots = 3\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len((tmp_path / "o" / "ledger.csv").read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize("p", ["inf", "1.5"])
def test_ledger_p_outside_its_range_prints_one_line(tmp_path, capsys, p):
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"N = 16\nT = 0.01\nsnapshots = 3\np = {p}\n")
    rc, err, caught = _main_recording_warnings(
        capsys, ["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0 and caught == []
    assert err.splitlines() == [f"simulate: integrability p={float(p)} outside the "
                                "supported range [2, 4.0) for d=2; computing anyway"]
    assert (tmp_path / "o" / "ledger.csv").exists()


EDGE_BASE = ("N = 16\nT = 0.01\nsnapshots = 3\nnu_list = 1, 10, 100\n"
             "trials = 10\nlemmas = bernstein\n")
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "1e308", "abc"]
# the stderr line that ends a run with each nonzero exit code
EDGE_PREFIXES = {2: ("config error: ", "error: "), 3: ("{command}: ",),
                 4: ("sweep: fit failure: ",)}


@pytest.mark.parametrize("key", list(CONFIG_KEYS))
@pytest.mark.parametrize("command", ["simulate", "sweep", "lemmas"])
def test_edge_values_end_on_one_line(tmp_path, capsys, monkeypatch, command, key):
    for value in EDGE_VALUES:
        text = EDGE_BASE + f"{key} = {value}\n"
        if key == "T" and value in ("1e300", "1e308"):  # valid; would step for minutes
            assert parse_config(text).T == float(value)
            continue
        case = tmp_path / value
        case.mkdir()
        monkeypatch.chdir(case)  # a relative output_dir lands here
        (case / "edge.cfg").write_text(text)
        rc, err, caught = _main_recording_warnings(capsys,
                                                   [command, "--config", "edge.cfg"])
        where = f"{command} {key} = {value}: exit {rc}, stderr {err!r}"
        assert rc in (0, 2, 3, 4), where
        assert caught == [] and "Warning:" not in err and "Traceback" not in err, where
        lines = err.splitlines()
        # the lines before the last are sweep's notes on excluded members
        assert all(re.match(r"sweep: nu=\S+ excluded \(", ln) for ln in lines[:-1]), where
        if rc:
            prefixes = tuple(s.format(command=command) for s in EDGE_PREFIXES[rc])
            assert lines and lines[-1].startswith(prefixes), where
        else:
            assert all(ln.startswith(f"{command}: ") for ln in lines), where


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_the_default_nu_is_refused_only_where_it_is_read(tmp_path, capsys, command):
    # the sweep's members take nu from nu_list; simulate reads the default 2 mu
    text = EDGE_BASE + "mu = 1e308\n"
    assert parse_config(text).nu_list == [1.0, 10.0, 100.0]
    (tmp_path / "edge.cfg").write_text(text)
    rc, err, caught = _main_recording_warnings(
        capsys, [command, "--config", str(tmp_path / "edge.cfg"), "--out", str(tmp_path / "o")])
    assert caught == [] and "Traceback" not in err
    if command == "sweep":
        assert rc == 3
        assert err.splitlines() == [
            *(f"sweep: nu={nu} excluded (blowup:non-finite field values)"
              for nu in (1, 10, 100)),
            "sweep: every member terminated by blow-up; no rate fit"]
    else:
        assert rc == 2 and not (tmp_path / "o").exists()
        assert err.splitlines() == ["error: shear viscosity mu=1e+308 puts the default "
                                    "nu = 2 mu above the float range; set nu"]


def test_norms_zero_field(tmp_path, capsys):
    g = make_grid(2, 16)
    snap = tmp_path / "z.snap"
    write_snapshot(snap, forward_transform(np.zeros(g.shape), g), 0.0)
    rc = main(["norms", str(snap)])
    assert rc == 0
    out = capsys.readouterr().out
    values = [float(ln.split()[-1]) for ln in out.splitlines()
              if not ln.startswith("#")]
    assert all(v == 0.0 for v in values)


def test_norms_cos_matches_besov(tmp_path, capsys):
    g = make_grid(2, 16)
    x, _ = g.meshes()
    f = forward_transform(np.cos(x) + np.zeros(g.shape), g)
    snap = tmp_path / "c.snap"
    write_snapshot(snap, f, 0.0)
    rc = main(["norms", str(snap), "--s", "0", "--p", "2", "--r", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    total = float([ln for ln in out.splitlines() if "total" in ln][0].split()[-1])
    b = build_partition(g)
    assert total == pytest.approx(besov_norm(f, BesovIndex(0, 2, 1), b),
                                  rel=1e-12)
    assert total == pytest.approx(2.0**-0.5, rel=1e-12)


@pytest.mark.parametrize("s, want", [
    # bands -1 .. 3: cos x lies in bands -1 and 0, cos 3x in band 1 only
    ("2000", [0.0, "finite", math.inf, 0.0, 0.0, math.inf]),
    ("-2000", [math.inf, "finite", 0.0, 0.0, 0.0, math.inf])])
def test_norms_out_of_range_terms_print_inf(tmp_path, capsys, s, want):
    g = make_grid(2, 16)
    c = np.zeros(g.spectral_shape, complex)
    c[1, 0] = c[-1, 0] = c[3, 0] = c[-3, 0] = 0.5  # cos x + cos 3x, exact
    snap = tmp_path / "c.snap"
    write_snapshot(snap, SpectralField(g, c), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["norms", str(snap), "--s", s])
    assert rc == 0
    out, err = capsys.readouterr()
    assert err == ""
    values = [float(ln.split()[-1]) for ln in out.splitlines()
              if not ln.startswith("#")]
    assert len(values) == len(want)
    for v, w in zip(values, want):
        if w == "finite":
            assert 0.0 < v < math.inf
        else:
            assert v == w


@pytest.mark.parametrize("flag, value", [("--p", "0.5"), ("--r", "0.5"),
                                         ("--p", "nan"), ("--s", "nan")])
def test_norms_bad_index_exits_2(tmp_path, capsys, flag, value):
    g = make_grid(2, 16)
    snap = tmp_path / "z.snap"
    write_snapshot(snap, forward_transform(np.zeros(g.shape), g), 0.0)
    rc = main(["norms", str(snap), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Besov indices need")


def test_readme_keys_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Keys:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [ln for ln in table.splitlines() if ln.startswith("| `")]
    keys = {k for ln in rows for k in re.findall(r"`([^`]+)`", ln.split("|")[1])}
    assert keys == set(CONFIG_KEYS)
    for key in keys:
        try:
            parse_config(f"{key} = 0\n")
        except ConfigError as exc:
            assert "unknown key" not in str(exc)


def test_readme_lemma_ids_match_check_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = next(ln for ln in readme.splitlines()
               if ln.startswith("| `trials`, `lemmas` |"))
    assert re.findall(r"`([^`]+)`", row.split("|")[3]) == list(bcns.lemmas.CHECKS)


def test_norms_corrupt_snapshot(tmp_path):
    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"NOTAMAGIC 2 16 1 0.0\n" + b"\x00" * 64)
    rc = main(["norms", str(bad)])
    assert rc == 2


def test_oscillatory_preset_matches_suite_table(tmp_path):
    # the simulate preset builds the same data the scaling check measures
    cfg = parse_config("N = 128\ninitial = oscillatory:0.25\np = 4\n")
    grid, a0, v0 = initial_data(cfg)
    b = build_partition(grid)
    comp0 = v0.components()[0]
    got = oscillatory_norm(comp0, 4.0, 1.0, b)
    from bcns.lemmas import oscillatory_data

    want = oscillatory_norm(oscillatory_data(grid, 0.25), 4.0, 1.0, b)
    assert got == pytest.approx(want, rel=1e-12)


def test_malformed_oscillatory_preset_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text("N = 16\ninitial = oscillatory:abc\n"
                       f"output_dir = {tmp_path / 'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'abc'" in err


def test_non_hermitian_file_initial_data_exits_2(tmp_path, capsys):
    g = make_grid(2, 16)
    c = np.zeros((2,) + g.shape, dtype=complex)
    c[0][1, 0] = 0.5  # cos-like mode without its conjugate partner at -k
    snap = tmp_path / "v0.snap"
    snap.write_bytes(b"BCNS1 2 16 2 0.0\n" + c.astype("<c16").tobytes())
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"N = 16\nT = 0.1\ninitial = file:{snap}\n"
                       f"output_dir = {tmp_path / 'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 2
    assert "not a real field" in capsys.readouterr().err


def test_non_finite_file_initial_data_exits_2(tmp_path, capsys):
    # NaN compares false with the symmetry tolerance: the data would be read
    # and both runs would end as blow-ups at t = 0 (exit 3)
    g = make_grid(2, 16)
    snap = tmp_path / "v0.snap"
    write_snapshot(snap, taylor_green(g), 0.0)
    raw = bytearray(snap.read_bytes())
    header = raw.index(b"\n") + 1
    raw[header + 16 * (g.N + 1):header + 16 * (g.N + 2)] = np.array(
        [complex(np.nan, 0.0)], "<c16").tobytes()  # component 0, k = (1, 1)
    snap.write_bytes(bytes(raw))
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"N = 16\nT = 0.1\ninitial = file:{snap}\n"
                       f"output_dir = {tmp_path / 'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err
