import json
import os
import subprocess
import sys

import numpy as np
import pytest

import metastab
from metastab.cli import main

SPIN_ARGS = ["--model", "builtin:spin_half", "--param", "gamma=1",
             "--param", "kappa=0.005", "--param", "omega=5.025"]


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_spectrum_builtin(capsys):
    code, out, _ = run_cli(["spectrum"] + SPIN_ARGS, capsys)
    assert code == 0
    data = json.loads(out)
    lam = sorted(tuple(v) for v in data["eigenvalues"])
    assert data["m_ss"] == 1
    got = np.array(sorted((re, im) for re, im in lam))
    want = np.array(sorted([(0.0, 0.0), (-0.005, 0.0),
                            (-0.5025, 5.025), (-0.5025, -5.025)]))
    assert np.max(np.abs(got - want)) < 1e-9


def test_distances_csv(tmp_path, capsys):
    out_file = tmp_path / "d.csv"
    code, _, _ = run_cli(["distances"] + SPIN_ARGS +
                         ["--tmin", "0.1", "--tmax", "100", "--points", "7",
                          "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# metastab ")
    assert "model=" in lines[0] and "seed=" in lines[0]
    assert lines[1] == "t,d_initial,d_stationary"
    assert len(lines) == 2 + 7
    t, di, ds = (float(x) for x in lines[2].split(","))
    assert t == pytest.approx(0.1)
    assert ds == pytest.approx(np.exp(-0.005 * 0.1), abs=1e-6)


def test_changes_csv(capsys):
    code, out, _ = run_cli(["changes"] + SPIN_ARGS +
                           ["--tmin", "10", "--tmax", "40", "--points", "3"],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "t_start,c_delta,threshold_lower,threshold_upper"
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(row["c_delta"]) > 0
    assert float(row["threshold_lower"]) + float(row["threshold_upper"]) == \
        pytest.approx(1.0, abs=1e-9)


def test_detect_spin(capsys):
    code, out, _ = run_cli(["detect"] + SPIN_ARGS + ["--cdelta-max", "0.1"],
                           capsys)
    assert code == 0
    data = json.loads(out)
    assert data["metastable_windows"]
    ts = data["timescales"]
    assert ts["tau_ss"] == pytest.approx(200.0, rel=1e-4)
    for w in data["metastable_windows"]:
        assert w["verdict"] == "Metastable"
        assert w["t_end"] >= 2 * w["t_start"]
        assert w["t_start"] > ts["tau_0"]
        assert w["t_end"] < ts["tau_ss"]


def test_detect_trivial_model_exits_2(tmp_path, capsys):
    model = {"dim": 2,
             "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [0.0, 0.0]]],
             "jumps": []}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(model))
    code, _, err = run_cli(["detect", "--model", "file:%s" % path,
                            "--cdelta-max", "0.1"], capsys)
    assert code == 2
    assert "trivial" in err


def test_malformed_model_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["spectrum", "--model", "file:%s" % path], capsys)
    assert code == 2
    assert "line" in err and "column" in err
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"hamiltonian": [[0.0]]}))
    code, _, err = run_cli(["spectrum", "--model", "file:%s" % path2], capsys)
    assert code == 2


def test_model_file_quantum_roundtrip(tmp_path, capsys):
    model = {"dim": 2,
             "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [0.0, 0.0]]],
             "jumps": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(model))
    code, out, _ = run_cli(["spectrum", "--model", "file:%s" % path], capsys)
    assert code == 0
    lam = json.loads(out)["eigenvalues"]
    reals = sorted(re for re, _ in lam)
    assert reals == pytest.approx([-1.0, -0.5, -0.5, 0.0], abs=1e-10)


def test_verify_bounds_spin_exits_0(tmp_path, capsys):
    out_file = tmp_path / "battery.csv"
    code, _, err = run_cli(["verify-bounds"] + SPIN_ARGS +
                           ["--tol", "1e-8", "--out", str(out_file)], capsys)
    assert code == 0, err
    lines = out_file.read_text().splitlines()
    assert lines[1] == "id,t,lhs,rhs,slack,pass"
    assert all(line.rsplit(",", 1)[1] == "1" for line in lines[2:])


def test_verify_bounds_json_pass_is_boolean(capsys):
    # numpy slacks must not turn "pass" into the string "True" or "False"
    code, out, err = run_cli(["verify-bounds", "--model",
                              "builtin:random_lindbladian", "--param", "dim=3",
                              "--param", "n_jumps=2", "--seed", "0",
                              "--format", "json"], capsys)
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert rows and all(type(row["pass"]) is bool for row in rows)


def test_heisenberg_csv(capsys):
    code, out, _ = run_cli(["heisenberg"] + SPIN_ARGS +
                           ["--observable", "sz", "--tmin", "1",
                            "--tmax", "400", "--points", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines[1].split(",")
    assert header[:2] == ["t", "distance_to_asymptotic"]
    first = dict(zip(header, lines[2].split(",")))
    assert float(first["distance_to_asymptotic"]) == pytest.approx(
        0.5 * np.exp(-0.005), abs=1e-9)


def test_classical_subcommands(tmp_path, capsys):
    code, out, _ = run_cli(["classical-spectrum", "--model",
                            "builtin:double_well", "--param", "fast=1",
                            "--param", "slow=0.001"], capsys)
    assert code == 0
    lam = json.loads(out)["eigenvalues"]
    assert sorted(re for re, _ in lam)[0] < -1.0

    edges = tmp_path / "chain.txt"
    edges.write_text("0 1 1.0\n1 0 1.0\n")
    code, out, _ = run_cli(["classical-distances", "--model",
                            "file:%s" % edges, "--tmin", "0.1", "--tmax", "2",
                            "--points", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    t, di, ds = (float(x) for x in lines[2].split(","))
    assert ds == pytest.approx(np.exp(-2 * 0.1), abs=1e-10)

    code, out, _ = run_cli(["classical-detect", "--model",
                            "builtin:double_well", "--param", "fast=1",
                            "--param", "slow=0.001"], capsys)
    assert code == 0
    assert json.loads(out)["metastable_windows"]


def test_classical_project(capsys):
    code, out, _ = run_cli(["classical-project", "--model",
                            "builtin:double_well", "--param", "fast=1",
                            "--param", "slow=0.001"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 2
    assert data["c_p"] < 0.5
    assert data["p_norm"] >= 1.0 - 1e-12


def test_quantum_model_rejected_by_classical_command(capsys):
    code, _, err = run_cli(["classical-spectrum", "--model",
                            "builtin:spin_half"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["verify-bounds",
                                     "classical-verify-bounds"])
@pytest.mark.parametrize("flag", [["--tmin", "1"], ["--tmax", "5"]])
def test_verify_bounds_grid_needs_tmin_and_tmax(command, flag, capsys):
    # a grid needs both ends; one flag alone is a usage error
    model = SPIN_ARGS if command == "verify-bounds" \
        else ["--model", "builtin:double_well"]
    code, out, err = run_cli([command] + model + flag, capsys)
    assert code == 2
    assert out == ""
    assert "--tmin" in err and "--tmax" in err


def test_determinism_same_seed(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(["verify-bounds"] + SPIN_ARGS +
                             ["--seed", "7", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_determinism_across_threads(tmp_path, capsys):
    a = tmp_path / "t1.json"
    b = tmp_path / "t8.json"
    for path, threads in ((a, "1"), (b, "8")):
        code, _, _ = run_cli(["detect"] + SPIN_ARGS +
                             ["--seed", "3", "--threads", threads,
                              "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "s.csv"
    monkeypatch.setenv("METASTAB_SEED", "99")
    code, _, _ = run_cli(["distances"] + SPIN_ARGS +
                         ["--seed", "1", "--tmin", "1", "--tmax", "2",
                          "--points", "2", "--out", str(out_file)], capsys)
    assert code == 0
    assert "seed=99" in out_file.read_text().splitlines()[0]


def test_usage_error_exits_2(capsys):
    code, _, err = run_cli(["spectrum", "--model", "builtin:nope"], capsys)
    assert code == 2
    code, _, err = run_cli(["spectrum", "--model", "builtin:spin_half",
                            "--param", "gamma"], capsys)
    assert code == 2
    code, out, err = run_cli(["spectrum", "--model",
                              "builtin:random_lindbladian", "--param",
                              "dim=2.5"], capsys)
    assert code == 2 and out == "" and "'dim' must be an integer" in err


@pytest.fixture
def norm_calls(monkeypatch):
    """Counts the maps the induced-norm oracle evaluates, model normalisation
    included: qubit closed forms and ascent maps, single or batched, each
    once. "ascents" counts top-level ascent calls, one per single map or
    batch."""
    import metastab.norms

    counts = {"maps": 0, "ascents": 0}
    depth = [0]
    ascents = metastab.norms._alternating_ascents
    qubit = metastab.norms._qubit_induced_norm

    def counted_ascents(Ms, *args, **kwargs):
        # batches above LOCKSTEP_MAPS recurse through this name in chunks
        if not depth[0]:
            counts["maps"] += len(Ms)
            counts["ascents"] += 1
        depth[0] += 1
        try:
            return ascents(Ms, *args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_qubit(M):
        counts["maps"] += 1
        return qubit(M)

    monkeypatch.setattr(metastab.norms, "_alternating_ascents",
                        counted_ascents)
    monkeypatch.setattr(metastab.norms, "_qubit_induced_norm", counted_qubit)
    return counts


RANDOM_D4_ARGS = ["--model", "builtin:random_lindbladian", "--param", "dim=4",
                  "--param", "n_jumps=2", "--seed", "0"]


def test_random_detect_norm_calls(norm_calls, capsys):
    # 1 model normalisation + 1 generator norm (reused for the dispersion)
    # + 28 in timescales (16 ident, 9 stat, 1 ident-stat, 2 warm-start
    # witnesses; each crossing is a scan or doubling bracket, then Brent)
    # + 24 scan probes, each failing at its first, far-end distance: 30
    # single ascents and one 24-map scan round
    code, _, _ = run_cli(["detect"] + RANDOM_D4_ARGS, capsys)
    assert code == 0
    assert norm_calls == {"maps": 54, "ascents": 31}


def test_spin_norm_calls(norm_calls, capsys):
    # detect: 1 generator norm + 16 in timescales + 1,479 in the scan + 87
    # in relaxation_times; verify-bounds: 1 generator norm + 16 in
    # timescales + 707 in its two window scans, whose probes stop at their
    # first over-budget distance, + 94 in relaxation_times + 692 in the
    # other battery rows
    code, _, _ = run_cli(["detect"] + SPIN_ARGS, capsys)
    assert code == 0
    assert norm_calls["maps"] == 1583
    norm_calls["maps"] = 0
    code, _, _ = run_cli(["verify-bounds"] + SPIN_ARGS, capsys)
    assert code == 0
    assert norm_calls["maps"] == 1510


def test_quantum_commands_load_no_scipy(tmp_path):
    # the quantum analyses run on numpy alone: scipy.linalg would add about
    # 0.12 s and 24 MB to every command's start-up, scipy.optimize more; the
    # classical commands load scipy.linalg for expm, never scipy.optimize
    model = tmp_path / "random_d3.json"
    model.write_text(json.dumps({"name": "random_lindbladian",
                                 "params": {"dim": 3, "n_jumps": 2},
                                 "seed": 0}))
    grid = "'--tmin', '1', '--tmax', '4', '--points', '3'"
    script = ("import contextlib, io, sys\n"
              "from metastab.cli import main\n"
              "spin = ['--model', 'builtin:spin_half']\n"
              "runs = [['detect'] + spin,\n"
              "        ['verify-bounds', '--format', 'json'] + spin,\n"
              "        ['spectrum'] + spin, ['project'] + spin,\n"
              "        ['distances', %s] + spin,\n"
              "        ['changes', %s] + spin,\n"
              "        ['heisenberg', %s] + spin,\n"
              "        ['detect', '--model', 'file:%s']]\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    for argv in runs:\n"
              "        assert main(argv) == 0, argv\n"
              "loaded = [m for m in sys.modules\n"
              "          if m == 'scipy' or m.startswith('scipy.')]\n"
              "assert not loaded, loaded\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['classical-detect', '--model',\n"
              "                 'builtin:double_well']) == 0\n"
              "assert 'scipy.optimize' not in sys.modules\n"
              % (grid, grid, grid, model))
    src = os.path.dirname(os.path.dirname(metastab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
