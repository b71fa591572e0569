import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import metastab
import metastab.cli
from metastab.cli import build_parser, main

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


def test_changes_with_a_negative_time_exits_2_with_its_message(capsys):
    # the window (t, ratio t) of a negative t also ends before it starts;
    # the negative time is the fault that is reported
    code, out, err = run_cli(["changes", "--model", "builtin:spin_half",
                              "--tmin", "-1", "--tmax", "5", "--points", "4",
                              "--spacing", "linear"], capsys)
    assert code == 2 and not out
    assert err == "error: the dynamics is a semigroup: t must be >= 0\n"


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


ZERO_MODELS = {
    False: {"dim": 2, "jumps": [],
            "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 0.0]]]},
    True: {"rates": [[0.0, 0.0], [0.0, 0.0]]}}


@pytest.mark.parametrize("classical", [False, True])
@pytest.mark.parametrize("command, message", [
    ("detect", "trivial dynamics: timescales require nontrivial dynamics"),
    ("project", "timescales require nontrivial dynamics"),
    ("verify-bounds",
     "trivial dynamics: bound battery requires nontrivial dynamics")])
def test_zero_generator_exits_2_with_its_message(classical, command, message,
                                                 tmp_path, capsys):
    # the zero generator has no decaying mode, so it is refused before any
    # search starts, with the message of the analysis that refuses it
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_MODELS[classical]))
    prefix = "classical-" if classical else ""
    code, out, err = run_cli([prefix + command, "--model", "file:%s" % path],
                             capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


UNDAMPED = "an undamped mode (Re lambda = 0) has no decay time"


@pytest.mark.parametrize("command", ["detect", "verify-bounds"])
def test_undamped_mode_exits_2_with_its_message(command, tmp_path, capsys):
    # H = S_z and no jumps: the coherences rotate at Re lambda = 0 forever,
    # so no timescale search has a decay time to start from
    path = tmp_path / "sz.json"
    path.write_text(json.dumps({"dim": 2, "jumps": [], "hamiltonian": [
        [[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]}))
    code, out, err = run_cli([command, "--model", "file:%s" % path], capsys)
    assert (code, out, err) == (2, "", "error: trivial dynamics: %s\n"
                                % UNDAMPED)


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
    # a non-integral or non-numeric dim is rejected, not truncated
    zero = [[0.0, 0.0], [0.0, 0.0]]
    for dim in (2.5, "two", [2]):
        path3 = tmp_path / "bad3.json"
        path3.write_text(json.dumps({"dim": dim, "hamiltonian": [zero, zero]}))
        code, out, err = run_cli(["spectrum", "--model", "file:%s" % path3],
                                 capsys)
        assert code == 2
        assert out == "" and "dim" in err


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


def strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError("non-standard JSON token %s" % token)
    return json.loads(text, parse_constant=reject)


def test_json_output_writes_non_finite_numbers_as_null(capsys):
    # a battery row whose hypotheses fail may have no numbers: they read
    # null, and the row still passes
    code, out, err = run_cli(["verify-bounds", "--model",
                              "builtin:random_lindbladian", "--param", "dim=3",
                              "--param", "n_jumps=2", "--seed", "0",
                              "--format", "json"], capsys)
    assert code == 0, err
    skipped = [row for row in strict_json(out)["rows"]
               if not row["applicable"]]
    assert any(row["lhs"] is None for row in skipped)
    assert all(row["pass"] is True for row in skipped)
    # the spin model's slow-drift condition has no finite bound
    code, out, err = run_cli(["project"] + SPIN_ARGS, capsys)
    assert code == 0, err
    check = strict_json(out)["condition_checks"]["slow_drift_cond"]
    assert check["bound"] is None and check["holds"] is False


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


def test_classical_spectrum_reports_eigvec_condition(tmp_path, capsys):
    code, out, _ = run_cli(["classical-spectrum", "--model",
                            "builtin:double_well"], capsys)
    assert code == 0
    data = json.loads(out)
    assert list(data)[-1] == "eigvec_condition"
    assert 1.0 <= data["eigvec_condition"] < 1e3
    # 0 -> 1 -> 2 -> 3 at equal rates: a Jordan block whose eigenvector
    # matrix is singular; JSON has no Infinity, so the value is null
    edges = tmp_path / "jordan.edges"
    edges.write_text("0 1 1.0\n1 2 1.0\n2 3 1.0\n")
    code, out, _ = run_cli(["classical-spectrum", "--model",
                            "file:%s" % edges], capsys)
    assert code == 0
    assert '"eigvec_condition": null' in out
    assert json.loads(out)["eigvec_condition"] is None


@pytest.mark.parametrize("name,text,message", [
    ("wrap.edges", "0 1 1.0\n-1 0 0.5\n", "line 2: negative state index"),
    ("nan.edges", "0 1 nan\n1 0 1.0\n", "rates must be finite"),
    ("empty.edges", "# no edges\n\n", "at least one state"),
    ("nan.json", "[[-1.0, NaN], [1.0, NaN]]", "rates must be finite"),
    ("dict.json", '{"rates": {"0": 1.0}}', "not 'dict'"),
    # numpy reads numeric strings and booleans as numbers; JSON does not
    ("string.json", '{"rates": [["-1", "1"], ["1", "-1"]]}',
     "rates must be numbers, got '-1'"),
    ("bool.json", "[[-1, true], [1, -1]]", "rates must be numbers, got True")])
def test_classical_model_file_rejects_bad_input(name, text, message, tmp_path,
                                                capsys):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(["classical-spectrum", "--model",
                              "file:%s" % path], capsys)
    assert code == 2
    assert out == "" and message in err


def test_quantum_model_rejected_by_classical_command(capsys):
    code, _, err = run_cli(["classical-spectrum", "--model",
                            "builtin:spin_half"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["verify-bounds",
                                     "classical-verify-bounds"])
@pytest.mark.parametrize("flag", [["--tmin", "1"], ["--tmax", "5"],
                                  ["--points", "5"], ["--spacing", "linear"]])
def test_verify_bounds_grid_needs_tmin_and_tmax(command, flag, capsys):
    # a grid needs both ends; one end alone, or a grid shape without a grid,
    # is a usage error
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


@pytest.mark.parametrize("param", ["gamma=nan", "omega=inf"])
def test_non_finite_model_parameter_exits_2(param, capsys):
    # rejected before any arithmetic on it: inf * 0 in the Hamiltonian
    # would warn, here an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["detect", "--model", "builtin:spin_half",
                                  "--param", param], capsys)
    assert code == 2 and out == ""
    assert err == "error: gamma, kappa and omega must be finite\n"


def test_non_finite_model_file_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "dim": 2, "hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        "jumps": [[[[0, 0], [1, 0]], [[0, 0], [float("nan"), 0]]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["detect", "--model", "file:%s" % path],
                               capsys)
    assert code == 2
    assert err == "error: %s: jump operators must have finite entries\n" % path


@pytest.mark.parametrize("where,entry", [
    ("hamiltonian", "1"), ("hamiltonian", True), ("jump operator", "1"),
    ("jump operator", True)])
def test_model_file_non_numeric_entry_exits_2(where, entry, tmp_path, capsys):
    # numpy would read "1" and true as the number 1
    H = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
    J = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    (H if where == "hamiltonian" else J)[1][1][0] = entry
    model, path = write_json(tmp_path, "entry.json", {
        "dim": 2, "hamiltonian": H, "jumps": [J]})
    code, out, err = run_cli(["spectrum", "--model", model], capsys)
    assert (code, out) == (2, "")
    assert err == "error: %s: %s entries must be numbers, got %r\n" % (
        path, where, entry)


@pytest.mark.parametrize("jumps", [5, None, {"J": [[[0, 0]]]}])
def test_model_file_jumps_not_an_array_exits_2(jumps, tmp_path, capsys):
    # a number or null raised a TypeError out of the CLI, and an object was
    # read as its keys
    model, path = write_json(tmp_path, "jumps.json", {
        "dim": 2, "hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        "jumps": jumps})
    code, out, err = run_cli(["spectrum", "--model", model], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: %s: jumps must be an array of [D][D][2] "
                   "matrices\n" % path)


@pytest.mark.parametrize("command", ["detect", "distances", "verify-bounds",
                                     "classical-detect"])
def test_negative_seed_exits_2(command, capsys):
    # rejected by the parser for every command, whether or not it draws
    # random numbers
    model = "builtin:double_well" if command.startswith("classical") \
        else "builtin:spin_half"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--model", model, "--seed", "-1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got '-1'" in err


def test_negative_seed_in_the_environment_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("METASTAB_SEED", "-1")
    code, _, err = run_cli(["spectrum"] + SPIN_ARGS, capsys)
    assert code == 2
    assert err == "METASTAB_SEED must be a non-negative integer\n"


# every float option of every subcommand, quantum and classical alike
FLOAT_OPTIONS = {
    "distances": ("--tmin", "--tmax"),
    "changes": ("--tmin", "--tmax", "--ratio"),
    "detect": ("--cdelta-max", "--ratio"),
    "project": ("--window", "--cdelta-max", "--ratio"),
    "verify-bounds": ("--tol", "--tmin", "--tmax"),
    "heisenberg": ("--tmin", "--tmax"),
}


def test_float_options_are_the_finite_ones():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        finite = {action.option_strings[0] for action in sub._actions
                  if action.type is metastab.cli._finite}
        floats = {action.option_strings[0] for action in sub._actions
                  if action.type is float}
        assert not floats, command
        assert finite == set(FLOAT_OPTIONS.get(
            command.replace("classical-", ""), ())), command


@pytest.mark.parametrize("command,option", [
    (prefix + command, option) for command, options in FLOAT_OPTIONS.items()
    for option in options for prefix in ("", "classical-")])
def test_non_finite_float_option_exits_2(command, option, capsys):
    # rejected by the parser: nan and inf are no times, ratios or tolerances
    model = "builtin:double_well" if command.startswith("classical") \
        else "builtin:spin_half"
    for value in ("nan", "inf", "-inf"):
        if option == "--window":
            if value == "-inf":
                continue  # argparse reads a leading '-' as an option
            tail = [option, "1", value]
        else:
            tail = [option + "=" + value]
        with pytest.raises(SystemExit) as exit_:
            main([command, "--model", model] + tail)
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: argument %s: must be a finite number, "
                            "got %r\n" % (option, value)), err


@pytest.mark.parametrize("command", ["changes", "classical-changes"])
def test_changes_ratio_not_above_one_exits_2(command, capsys, monkeypatch):
    # ratio 1 printed zero changes of empty windows, and a smaller ratio
    # exited with "window end before start"; neither reaches a norm now
    def norm_called(*args, **kwargs):
        raise AssertionError("a norm was evaluated")

    monkeypatch.setattr("metastab.norms._induced_norms", norm_called)
    monkeypatch.setattr("metastab.classical.l1_norm", norm_called)
    model = "builtin:double_well" if command.startswith("classical") \
        else "builtin:spin_half"
    for value in ("1", "0.5", "0", "-1"):
        code, out, err = run_cli([command, "--model", model,
                                  "--ratio=" + value], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --ratio must be above 1, got %r\n" \
            % float(value)


@pytest.mark.parametrize("command", ["detect", "project", "classical-detect",
                                     "classical-project"])
def test_scan_points_below_one_exits_2(command, capsys):
    model = "builtin:double_well" if command.startswith("classical") \
        else "builtin:spin_half"
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--model", model, "--scan-points=" + value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert ("argument --scan-points: must be a positive integer, got %r"
                % value) in err


@pytest.mark.parametrize("command", ["detect", "project", "classical-detect",
                                     "classical-project"])
def test_cdelta_max_outside_the_change_range_exits_2(command, capsys):
    # a change measure lies in [0, 2]; a budget outside it exits before any
    # window is scanned
    model = "builtin:double_well" if command.startswith("classical") \
        else "builtin:spin_half"
    for value in ("-1", "-0.001", "2.5"):
        code, out, err = run_cli([command, "--model", model,
                                  "--cdelta-max=" + value], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: c_delta_max must lie in [0, 2], the range of "
                       "a change measure, got %r\n" % float(value))


@pytest.mark.parametrize("command", ["verify-bounds",
                                     "classical-verify-bounds"])
def test_negative_tol_exits_2(command, capsys):
    # a usage error, not a battery whose every row fails
    model = "builtin:double_well" if command.startswith("classical") \
        else "builtin:spin_half"
    code, out, err = run_cli([command, "--model", model, "--tol", "-1"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == "error: tol must be non-negative, got -1.0\n"


@pytest.mark.parametrize("command", ["heisenberg", "classical-heisenberg"])
def test_observable_outside_its_choices_exits_2(command, capsys):
    model = "builtin:double_well" if command.startswith("classical") \
        else "builtin:spin_half"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--model", model, "--observable", "garbage"])
    assert exit_.value.code == 2
    assert "argument --observable: invalid choice: 'garbage'" in \
        capsys.readouterr().err


def test_observable_defaults_to_sz_on_quantum_models(capsys):
    grid = ["--tmin", "1", "--tmax", "10", "--points", "3"]
    code, default, _ = run_cli(["heisenberg"] + SPIN_ARGS + grid, capsys)
    assert code == 0
    code, sz, _ = run_cli(["heisenberg"] + SPIN_ARGS + grid +
                          ["--observable", "sz"], capsys)
    assert code == 0 and default == sz
    code, out, err = run_cli(["heisenberg", "--model",
                              "builtin:random_lindbladian", "--param",
                              "dim=3"] + grid, capsys)
    assert (code, out) == (2, "")
    assert err == "error: observable 'sz' needs a two-level model\n"


def test_classical_observable_is_the_basis_trajectory(capsys):
    args = ["classical-heisenberg", "--model", "builtin:double_well",
            "--tmin", "1", "--tmax", "10", "--points", "3"]
    code, default, _ = run_cli(args, capsys)
    assert code == 0
    code, basis, _ = run_cli(args + ["--observable", "basis"], capsys)
    assert code == 0 and default == basis
    for name in ("sz", "sx", "sy"):
        code, out, err = run_cli(args + ["--observable", name], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: observable %r needs a quantum model; "
                       "classical chains take basis\n" % name)


@pytest.mark.parametrize("command,name", [
    ("spectrum", "bin.json"), ("classical-spectrum", "bin.json"),
    ("classical-spectrum", "bin.txt")])
def test_model_file_that_is_not_utf8_exits_2(command, name, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli([command, "--model", "file:%s" % path], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: model file %s: not UTF-8 text (byte 0xff at "
                   "position 0)\n" % path)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return "file:%s" % path, str(path)


def test_classical_specifier_file_matches_builtin(tmp_path, capsys):
    # a named-model file loads for classical commands too, with the same
    # payload and so the same model hash as the builtin
    model, _ = write_json(tmp_path, "dw.json", {
        "name": "double_well", "params": {"fast": 1.0, "slow": 0.001}})
    runs = [run_cli(["classical-detect", "--model", model], capsys),
            run_cli(["classical-detect", "--model", "builtin:double_well",
                     "--param", "fast=1", "--param", "slow=0.001"], capsys)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and json.loads(runs[0][1])["metastable_windows"]


@pytest.mark.parametrize("command,name,kind", [
    ("spectrum", "double_well", "classical; use the classical-* subcommands"),
    ("classical-spectrum", "spin_half", "quantum; drop the classical- prefix")])
def test_specifier_of_the_other_kind_exits_2(command, name, kind, tmp_path,
                                             capsys):
    model, path = write_json(tmp_path, "m.json", {"name": name})
    code, out, err = run_cli([command, "--model", model], capsys)
    assert (code, out) == (2, "")
    assert err == "error: %s: model is %s\n" % (path, kind)


@pytest.mark.parametrize("command", ["spectrum", "classical-spectrum"])
def test_model_path_that_is_a_directory_exits_2(command, tmp_path, capsys):
    code, out, err = run_cli([command, "--model", "file:%s" % tmp_path],
                             capsys)
    assert (code, out) == (2, "")
    assert err == "error: model file %s: Is a directory\n" % tmp_path


def test_invalid_json_message_is_shared(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rates": [[0.0,\n  oops]]}')
    errs = set()
    for command in ("spectrum", "classical-spectrum"):
        code, out, err = run_cli([command, "--model", "file:%s" % path],
                                 capsys)
        assert (code, out) == (2, "")
        errs.add(err)
    assert errs == {"error: model file %s: invalid JSON at line 2 column 3\n"
                    % path}


@pytest.mark.parametrize("seed", [1.5, 7.0, True, -1, "7", None])
def test_specifier_seed_must_be_a_non_negative_integer(seed, tmp_path,
                                                       capsys):
    # the rule --seed applies to its text, on the JSON value: an integral
    # float, a boolean, a string or null is no seed
    model, path = write_json(tmp_path, "r.json", {
        "name": "random_lindbladian", "params": {"dim": 2, "n_jumps": 1},
        "seed": seed})
    code, out, err = run_cli(["spectrum", "--model", model, "--seed", "7"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == ("error: %s: seed must be a non-negative integer, got %s\n"
                   % (path, json.dumps(seed)))


def test_specifier_seed_builds_the_seeded_model(tmp_path, capsys):
    model, _ = write_json(tmp_path, "r.json", {
        "name": "random_lindbladian", "params": {"dim": 3, "n_jumps": 2},
        "seed": 7})
    code, out, _ = run_cli(["spectrum", "--model", model], capsys)
    assert code == 0
    from_file = json.loads(out)
    code, out, _ = run_cli(["spectrum", "--model",
                            "builtin:random_lindbladian", "--param", "dim=3",
                            "--param", "n_jumps=2", "--seed", "7"], capsys)
    assert code == 0
    assert from_file["eigenvalues"] == json.loads(out)["eigenvalues"]
    assert from_file["seed"] == 0  # the CLI seed still drives the analyses


@pytest.mark.parametrize("command,name,param,kind", [
    ("spectrum", "random_lindbladian", "n_jumps", "an integer"),
    ("spectrum", "spin_half", "gamma", "a number"),
    ("classical-spectrum", "double_well", "slow", "a number")])
def test_boolean_specifier_parameter_exits_2(command, name, param, kind,
                                             tmp_path, capsys):
    # JSON true is not read as 1
    model, path = write_json(tmp_path, "b.json",
                             {"name": name, "params": {param: True}})
    code, out, err = run_cli([command, "--model", model], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: %s: parameter %r must be %s, got True\n"
                   % (path, param, kind))


@pytest.mark.parametrize("spec,message", [
    ({"name": "random_lindbladian", "params": None},
     "params must be a JSON object"),
    ({"name": "random_lindbladian", "params": [["dim", 3]]},
     "params must be a JSON object"),
    ({"name": "spin_half", "params": {"gamma": None}},
     "parameter 'gamma' must be a number, got None"),
    ({"name": ["spin_half"]}, "unknown model ['spin_half']")])
def test_malformed_specifier_exits_2(spec, message, tmp_path, capsys):
    # each of these raised a TypeError out of the CLI
    model, path = write_json(tmp_path, "p.json", spec)
    code, out, err = run_cli(["spectrum", "--model", model], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: %s" % (path, message)), err


@pytest.fixture
def norm_calls(monkeypatch):
    """Counts the maps the induced-norm oracle evaluates, model normalisation
    included: qubit closed forms and ascent maps, single or batched, each
    once. "ascents" counts top-level ascent calls, one per single map or
    batch."""
    import metastab.norms

    counts = {"maps": 0, "ascents": 0}
    ascents = metastab.norms._alternating_ascents
    qubit = metastab.norms._qubit_induced_norms

    def counted_ascents(Ms, *args, **kwargs):
        # a single map reaches the kernel as a stack of one, a batch
        # directly; the kernel cuts its passes itself, without calls through
        # this name
        counts["maps"] += len(Ms)
        counts["ascents"] += 1
        return ascents(Ms, *args, **kwargs)

    def counted_qubit(Ms):
        counts["maps"] += len(Ms)
        return qubit(Ms)

    monkeypatch.setattr(metastab.norms, "_alternating_ascents",
                        counted_ascents)
    monkeypatch.setattr(metastab.norms, "_qubit_induced_norms", counted_qubit)
    return counts


RANDOM_D4_ARGS = ["--model", "builtin:random_lindbladian", "--param", "dim=4",
                  "--param", "n_jumps=2", "--seed", "0"]


def test_random_detect_norm_calls(norm_calls, monkeypatch, capsys):
    # 1 model normalisation, a single map; then timescales in 8 lockstep
    # rounds (15, 5, then 2, 2, 2, 2, 2, 1 for the two Brent searches). The
    # first round holds the generator norm (reused for the dispersion), the
    # identity-stationary and t = 0 stationary maps, the tau_0 scan's
    # certified prefix (t = 0 and 6 steps), 4 look-ahead points and the
    # first tau_ss doubling probe; the second the next 4 scan points and the
    # next probe. The crossing lies at the first of those 4, so 3 maps are
    # evaluated and never read. Then one 24-map scan round: every window
    # fails at its first, far-end distance, and each of the 24 maps is
    # certified over the budget at its first O-step, which stops its ascent
    import metastab.norms

    probes = []
    ascents = metastab.norms._alternating_ascents

    def recorded(Ms, *args, above=None, **kwargs):
        results = ascents(Ms, *args, above=above, **kwargs)
        if above is not None:
            probes.append((above, results))
        return results

    monkeypatch.setattr(metastab.norms, "_alternating_ascents", recorded)
    code, _, _ = run_cli(["detect"] + RANDOM_D4_ARGS, capsys)
    assert code == 0
    assert norm_calls == {"maps": 56, "ascents": 10}
    [(above, results)] = probes
    assert list(above) == [0.1] * 24 and len(results) == 24
    assert all(res.iterations == 1 and res.value > 0.1
               and not res.converged for res in results)


def test_random_battery_norm_calls(norm_calls, capsys):
    # the benchmark's D = 3 battery: 532 maps in 12 ascent calls. The model
    # normalisation is a single map. Then 8 lockstep rounds of the timescale
    # searches and the two exclusion-span crossings (16, 4, 4, 4, 4, 4, 1,
    # 1), which follow the last bits of the generator norm and of tau_0
    # (0.7442421808877799). The first round holds the generator norm, the
    # identity-stationary and t = 0 stationary maps, the tau_0 scan's
    # certified prefix (t = 0 and 7 steps), 4 look-ahead points, the last of
    # which brackets the crossing, and the first tau_ss doubling probe. The
    # exclusion spans' scan points are among the tau_0 scan's first-round
    # points, so only their Brent steps are new: 2 maps in each of the
    # next 5 rounds, beside the 2 of tau_0 and tau_ss. One screen round for
    # the two window scans, which share a lockstep (32 maps, each against
    # its scan's threshold; every window is over budget at its first
    # distance, which its first O-step certifies; none of these maps is
    # cached). Last come the battery's two lockstep phases, one round each
    # (266 and 195 maps). How many of their keys coincide bit for bit, with
    # others of the request or with cached ones, follows the last bits of
    # tau_0 and tau_ss
    # (15.376622953871486, with the projection window at 1.6914440134008584)
    code, _, _ = run_cli(["verify-bounds", "--model",
                          "builtin:random_lindbladian", "--param", "dim=3",
                          "--param", "n_jumps=2", "--seed", "0"], capsys)
    assert code == 0
    assert norm_calls == {"maps": 532, "ascents": 12}


def test_spin_norm_calls(norm_calls, capsys):
    # detect: 1 generator norm + 16 in timescales + 1,228 in the scan + 91
    # in relaxation_times; verify-bounds: 1 generator norm + 16 in
    # timescales + 440 in its two window scans, whose screens stop at their
    # first over-budget distance, + 96 in relaxation_times + 533 in the
    # other battery rows. Each window supremum refined inside its grid
    # takes 8 or 9 steps of the bounded maximiser (modes.brent_max).
    # Prefetches batch the exact qubit norm too, so the crossing searches'
    # SCAN_AHEAD look-ahead maps past each crossing are evaluated and never
    # read: 2 in timescales, and 4 (detect) or 3 (verify-bounds) in
    # relaxation_times
    code, _, _ = run_cli(["detect"] + SPIN_ARGS, capsys)
    assert code == 0
    assert norm_calls["maps"] == 1336
    norm_calls["maps"] = 0
    code, _, _ = run_cli(["verify-bounds"] + SPIN_ARGS, capsys)
    assert code == 0
    assert norm_calls["maps"] == 1086


def test_analyses_evaluate_no_map_through_the_single_getter(monkeypatch,
                                                            capsys):
    # every analysis requests the maps it reads, in lockstep rounds, so on a
    # quantum backend no read misses the cache (a miss would evaluate its
    # map alone, in DynamicsBackend._norm_of): not in spin detect and
    # verify-bounds, nor in the D = 3 battery. At D = 2 the maximiser steps
    # (modes.brent_max) of windows classified together share a closed-form
    # call, and 29 (detect) and 12 (verify-bounds) calls hold a single map
    import metastab.norms
    import metastab.regimes
    from metastab.models import random_lindbladian
    from metastab.spectral_meta import bound_battery

    calls = {"misses": 0, "single": 0}
    norm_of = metastab.regimes.DynamicsBackend._norm_of
    qubit = metastab.norms._qubit_induced_norms

    def counted_norm_of(self, key):
        calls["misses"] += key not in self._norm_cache
        return norm_of(self, key)

    def counted_qubit(Ms):
        calls["single"] += len(Ms) == 1
        return qubit(Ms)

    monkeypatch.setattr(metastab.regimes.DynamicsBackend, "_norm_of",
                        counted_norm_of)
    monkeypatch.setattr(metastab.norms, "_qubit_induced_norms", counted_qubit)
    for command, singles in (("detect", 29), ("verify-bounds", 12)):
        calls.update(misses=0, single=0)
        code, _, _ = run_cli([command] + SPIN_ARGS, capsys)
        assert code == 0
        assert calls == {"misses": 0, "single": singles}
    dyn = metastab.regimes.QuantumBackend(model=random_lindbladian(3, 2,
                                                                   seed=0))
    bound_battery(dyn, seed=0, scan_points=8, n_grid=17)
    assert len(dyn._norm_cache) > 100 and calls["misses"] == 0


def test_quantum_commands_load_no_scipy(tmp_path):
    # the analyses run on numpy alone: scipy.linalg would add about 0.12 s
    # and 24 MB to every command's start-up, scipy.optimize more. A chain
    # evolves on the spectral core as a quantum model does; only a
    # defective chain (here 0 -> 1 -> 2 at equal rates) loads scipy.linalg
    # for expm, and no command loads scipy.optimize
    model = tmp_path / "random_d3.json"
    model.write_text(json.dumps({"name": "random_lindbladian",
                                 "params": {"dim": 3, "n_jumps": 2},
                                 "seed": 0}))
    defective = tmp_path / "jordan.edges"
    defective.write_text("0 1 1.0\n1 2 1.0\n")
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
              "        ['detect', '--model', 'file:%s'],\n"
              "        ['classical-detect', '--model', 'builtin:double_well'],\n"
              "        ['classical-verify-bounds', '--model',\n"
              "         'builtin:double_well']]\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    for argv in runs:\n"
              "        assert main(argv) == 0, argv\n"
              "loaded = [m for m in sys.modules\n"
              "          if m == 'scipy' or m.startswith('scipy.')]\n"
              "assert not loaded, loaded\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['classical-changes', '--model', 'file:%s',\n"
              "                 %s]) == 0\n"
              "assert 'scipy.linalg' in sys.modules\n"
              "assert 'scipy.optimize' not in sys.modules\n"
              % (grid, grid, grid, model, defective, grid))
    src = os.path.dirname(os.path.dirname(metastab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
