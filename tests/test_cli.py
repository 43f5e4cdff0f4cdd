import filecmp
import json

import numpy as np
import pytest

from pshlab.cli import ConfigError, main, parse_config, run
from pshlab.field_grid import load_field


BASE = """
command = envelope
backend = grid
resolution = 96
radius = 1.0
lambda = 0.25
tol = 1e-9

[potential]
builtin flat
"""


def test_parse_builtin():
    cfg = parse_config(BASE)
    assert cfg.command == "envelope"
    assert cfg.potential.name == "flat"
    assert cfg.lam == 0.25
    assert "c" in cfg.defaults_used


def test_parse_unknown_key_line_numbered():
    with pytest.raises(ConfigError, match="line 3: unknown key"):
        parse_config("command = envelope\nresolution = 96\nwibble = 2\n"
                     "[potential]\nbuiltin flat\n")


@pytest.mark.parametrize("key", ["threads", "lambda_count", "leaf_anchors",
                                 "k_max", "style", "quick"])
def test_parse_removed_keys_rejected(key):
    with pytest.raises(ConfigError, match=f"line 2: unknown key {key!r}"):
        parse_config(f"command = envelope\n{key} = 2\n[potential]\nbuiltin flat\n")


def test_threads_flag_removed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE)
    with pytest.raises(SystemExit):
        main(["envelope", "--config", str(cfg), "--threads", "2"])


def test_parse_lambda_exceeds_cutoff(tmp_path):
    # the check runs against the command that runs, so in `run`
    text = ("command = geodesic\nlambda = 0.9\nc = 0.5\n"
            "[potential]\nbuiltin flat\n")
    cfg = parse_config(text)
    with pytest.raises(ConfigError, match="lambda exceeds cutoff"):
        run(cfg, tmp_path / "geo")


def test_cutoff_checked_against_the_command_line(tmp_path):
    """A config without `command` run as `foliate` is refused before its
    slice family is solved: exit 1, no leaves."""
    cfg_file = tmp_path / "f.ini"
    cfg_file.write_text("resolution = 64\nlambdas = 0.3\nc = 0.2\n"
                        "[potential]\nbuiltin quartic\n")
    out = tmp_path / "fol"
    assert main(["foliate", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert not (out / "leaves").exists()


REINHARDT = "n = 2\nresolution = 32\nlambda = 0.2\n[potential]\nbuiltin reinhardt2\n"


def test_reinhardt_envelope_runs_on_the_configured_grid(tmp_path):
    """An n = 2 weight without `c` runs on the log-radial grid of the
    configured resolution, and the metadata says so."""
    cfg_file = tmp_path / "r.ini"
    cfg_file.write_text(REINHARDT)
    out = tmp_path / "env"
    assert main(["envelope", "--config", str(cfg_file), "--out", str(out)]) == 0
    header = (out / "envelope.csv").read_text().splitlines()[1]
    assert "resolution=32" in header and "style=log-radial" in header
    meta = dict(line.split(" = ", 1) for line in
                (out / "metadata.txt").read_text().splitlines())
    assert meta["style"] == "log-radial" and meta["c"] == "nan"


def test_reinhardt_geodesic_is_a_config_error(tmp_path):
    cfg_file = tmp_path / "r.ini"
    cfg_file.write_text(REINHARDT.replace("n = 2", "n = 2\nc = 0.5"))
    out = tmp_path / "geo"
    assert main(["geodesic", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert not (out / "FAILED").exists()


def test_parse_non_psh_potential():
    text = ("command = envelope\nresolution = 96\n"
            "[potential]\nreharm 1.0 2\n")
    with pytest.raises(ConfigError, match="plurisubharmonic"):
        parse_config(text)


@pytest.mark.parametrize("weight", ["builtin flat", "builtin reinhardt2"])
def test_parse_grid_the_pipeline_cannot_build(weight):
    with pytest.raises(ConfigError, match="resolution 8 < 16"):
        parse_config(f"resolution = 8\n[potential]\n{weight}\n")


def test_parse_missing_potential():
    with pytest.raises(ConfigError, match="potential"):
        parse_config("command = envelope\n")


def test_term_list_matches_builtin(tmp_path):
    term_text = BASE.replace("builtin flat", "polyrad 1.0 1")
    cfg_a = parse_config(BASE)
    cfg_b = parse_config(term_text)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(cfg_a, out_a) == 0
    assert run(cfg_b, out_b) == 0
    for name in ("envelope.csv", "deficit.csv", "boundary.csv"):
        assert (out_a / name).read_text() == (out_b / name).read_text()


def test_envelope_command_outputs_reparse(tmp_path):
    cfg = parse_config(BASE)
    out = tmp_path / "run"
    assert run(cfg, out) == 0
    env = load_field(out / "envelope.csv")
    assert env.grid.resolution == 96
    meta = dict(line.split(" = ", 1) for line in
                (out / "metadata.txt").read_text().splitlines())
    assert meta["backend"].startswith("grid")
    bd = np.loadtxt(out / "boundary.csv", delimiter=",", comments="#")
    r = np.hypot(bd[:, 0], bd[:, 1])
    assert np.all(np.abs(r - 0.5) < 3 * env.grid.h)


def test_determinism_bitwise(tmp_path):
    cfg = parse_config(BASE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run(cfg, out1)
    run(cfg, out2)
    for f in sorted(out1.iterdir()):
        assert (out2 / f.name).read_bytes() == f.read_bytes()


def test_flow_empty_lambdas_errors(tmp_path):
    text = BASE.replace("command = envelope", "command = flow")
    cfg = parse_config(text)
    with pytest.raises(ConfigError, match="lambdas"):
        run(cfg, tmp_path / "flow")


def test_flow_masses_table(tmp_path):
    text = BASE.replace("command = envelope", "command = flow") \
        + "lambdas = 0.1,0.2,0.3\n"
    # keys must precede the [potential] section
    text = ("command = flow\nbackend = grid\nresolution = 96\n"
            "lambdas = 0.1,0.2,0.3\ntol = 1e-9\n[potential]\nbuiltin flat\n")
    cfg = parse_config(text)
    out = tmp_path / "flow"
    assert run(cfg, out) == 0
    rows = np.loadtxt(out / "masses.csv", delimiter=",", comments="#")
    assert rows.shape == (3, 3)
    assert np.all(np.abs(rows[:, 1] - rows[:, 0]) < 8e-3)
    meta = dict(line.split(" = ", 1) for line in
                (out / "metadata.txt").read_text().splitlines())
    assert float(meta["lambda_certified"]) > 0.05


def _flow_masses(text, out):
    assert run(parse_config(text), out) == 0
    return np.loadtxt(out / "masses.csv", delimiter=",", comments="#")


def test_grid_flow_mass_is_the_boundary_circulation(tmp_path):
    """The pole's cell belongs to the equilibrium complement, so the
    complement's cut-cell mass is the d^c-circulation round its boundary."""
    rows = _flow_masses("command = flow\nbackend = grid\nresolution = 96\n"
                        "lambdas = 0.12,0.3\ntol = 1e-9\n[potential]\n"
                        "polyrad 1.0 1\nreharm 0.3 3\n", tmp_path / "flow")
    assert np.all(np.abs(rows[:, 1] - rows[:, 2]) < 1e-12)


def test_radial_flow_masses_are_the_pole_weights(tmp_path):
    """On the oracle backend the mass inside the exact circle is lam,
    within the benchmark's mass tolerance 2e-3."""
    rows = _flow_masses("command = flow\nresolution = 128\n"
                        "lambdas = 0.07,0.137,0.2\n[potential]\n"
                        "polyrad 1.0 1\npolyrad 0.08 2\n", tmp_path / "flow")
    assert np.all(np.abs(rows[:, 1] - rows[:, 0]) < 2e-3)


def test_grid_flow_is_the_single_lam_runs_bytewise(tmp_path):
    """A grid `flow` over three lam solves them as one family; each
    boundary file and masses row is byte for byte the one-lam run's."""
    head = "command = flow\nbackend = grid\nresolution = 64\ntol = 1e-9\n"
    weight = "[potential]\npolyrad 1.0 1\nreharm 0.25+0.1j 3\n"
    lams = ["0.1", "0.2", "0.3"]
    fam = tmp_path / "family"
    assert run(parse_config(head + f"lambdas = {','.join(lams)}\n" + weight),
               fam) == 0
    rows = (fam / "masses.csv").read_text().splitlines()
    for i, lam in enumerate(lams):
        one = tmp_path / f"one{i}"
        assert run(parse_config(head + f"lambdas = {lam}\n" + weight), one) == 0
        assert (fam / f"boundary_{i:03d}.csv").read_bytes() == \
            (one / "boundary_000.csv").read_bytes()
        assert rows[1 + i] == (one / "masses.csv").read_text().splitlines()[1]


def test_geodesic_command(tmp_path):
    text = ("command = geodesic\nbackend = oracle\nresolution = 96\n"
            "lambda_nodes = 16\nt_count = 48\nc = 0.6\n"
            "[potential]\nbuiltin flat\n")
    cfg = parse_config(text)
    out = tmp_path / "geo"
    assert run(cfg, out) == 0
    u = np.loadtxt(out / "u.csv", delimiter=",", comments="#")
    assert u.shape == (48, 96 * 96)
    assert (out / "slices" / "slice_000.csv").exists()
    meta = dict(line.split(" = ", 1) for line in
                (out / "metadata.txt").read_text().splitlines())
    assert float(meta["slope_consistency_gap"]) <= 0.6 / 16


def test_foliate_command(tmp_path):
    text = ("command = foliate\nbackend = oracle\nresolution = 96\n"
            "lambda_nodes = 24\nlambdas = 0.2\nc = 0.6\n"
            "anchor_rings = 2\nanchor_angles = 4\n"
            "[potential]\nbuiltin quartic\n")
    cfg = parse_config(text)
    out = tmp_path / "fol"
    assert run(cfg, out) == 0
    areas = np.loadtxt(out / "areas.csv", delimiter=",", comments="#")
    assert abs(areas[2] - areas[1]) < 2e-2   # area vs leaf level
    assert (out / "tubular.csv").exists()
    # the samples less one of each leaf in leaves/, then of the 2 x 4 net
    meta = dict(line.split(" = ", 1) for line in
                (out / "metadata.txt").read_text().splitlines())
    steps = [int(v) for v in meta["leaf_steps"].split(",")]
    files = sorted((out / "leaves").glob("leaf_*.csv"))
    assert len(files) == 1 and len(steps) == len(files) + 8
    for n, path in zip(steps, files):
        assert n == len(np.loadtxt(path, delimiter=",", comments="#")) - 1


def test_main_exit_codes(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(BASE)
    assert main(["envelope", "--config", str(cfg_file),
                 "--out", str(tmp_path / "ok")]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("command = envelope\nnope = 1\n[potential]\nbuiltin flat\n")
    assert main(["envelope", "--config", str(bad),
                 "--out", str(tmp_path / "x")]) == 1
    missing = tmp_path / "missing.cfg"
    assert main(["envelope", "--config", str(missing)]) == 1


def test_main_numerical_failure_exit_code(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(BASE.replace("tol = 1e-9",
                                     "tol = 1e-13\nmax_iters = 4"))
    code = main(["envelope", "--config", str(cfg_file),
                 "--out", str(tmp_path / "fail")])
    assert code == 2
    assert (tmp_path / "fail" / "FAILED").exists()


def test_grid_geodesic_honours_max_iters(tmp_path):
    """Every grid-backend command caps its active-set steps at `max_iters`."""
    cfg_file = tmp_path / "g.ini"
    cfg_file.write_text("backend = grid\nresolution = 32\nlambda_nodes = 4\n"
                        "t_count = 4\nc = 0.3\nmax_iters = 1\n[potential]\n"
                        "polyrad 1.0 1\nreharm 0.25+0.1j 3\n")
    out = tmp_path / "geo"
    assert main(["geodesic", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert (out / "FAILED").exists()


def test_success_clears_failure_marker(tmp_path):
    """A run that succeeds into a directory an earlier run failed in
    removes that run's FAILED marker."""
    failing, passing = tmp_path / "fail.cfg", tmp_path / "ok.cfg"
    failing.write_text(BASE.replace("tol = 1e-9",
                                    "tol = 1e-13\nmax_iters = 4"))
    passing.write_text(BASE)
    out = str(tmp_path / "out")
    assert main(["envelope", "--config", str(failing), "--out", out]) == 2
    assert (tmp_path / "out" / "FAILED").exists()
    assert main(["envelope", "--config", str(passing), "--out", out]) == 0
    assert not (tmp_path / "out" / "FAILED").exists()
