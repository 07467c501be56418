import math

import numpy as np
import pytest

from bcns.bands import BesovIndex, besov_norm, build_partition
from bcns.cli import (
    ConfigError,
    cmd_lemmas,
    cmd_norms,
    cmd_simulate,
    cmd_sweep,
    initial_data,
    load_config,
    main,
    parse_config,
)
from bcns.io import write_snapshot
from bcns.lemmas import check_oscillatory_scaling, oscillatory_norm
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
    cfg = parse_config("N = 32\nmu = 0.5\nlambda = 3.0\n")
    assert cfg.N == 32 and cfg.mu == 0.5 and cfg.lam == 3.0
    assert cfg.resolved_nu() == pytest.approx(4.0)
    assert cfg.d == 2 and cfg.gamma == 2.0


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


def test_simulate_blowup_exit_code(tmp_path):
    g = make_grid(2, 16)
    x, _ = g.meshes()
    a0 = forward_transform(0.95 * np.cos(x) + np.zeros(g.shape), g)
    snap = tmp_path / "a0.snap"
    write_snapshot(snap, a0, 0.0)
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(
        f"N = 16\nT = 0.3\nsnapshots = 5\nnu = 2\na0_file = {snap}\n"
        f"output_dir = {tmp_path/'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 3
    assert (tmp_path / "out" / "events.log").exists()  # partial artifacts kept


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


def test_sweep_too_few_viscosities(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("N = 16\nnu_list = 4, 16\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 4


def test_sweep_identical_stub_hits_fit_error(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(SWEEP_CFG + "test_stub = identical\n")
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
    write_snapshot(snap, SpectralField(g, c), 0.0)
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(f"N = 16\nT = 0.1\ninitial = file:{snap}\n"
                       f"output_dir = {tmp_path / 'out'}\n")
    rc = main(["simulate", "--config", str(cfgfile)])
    assert rc == 2
    assert "not a real field" in capsys.readouterr().err
