import importlib.util
import json
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools")


def write_outputs(root, c_delta=0.05, verdict="Metastable", n_windows=1,
                  pass_flag="1", row_id="change2_all", exit_code=0,
                  norm_calls=70):
    """A small directory shaped as tools/cli_outputs.py writes one."""
    os.makedirs(root / "models")
    (root / "models" / "chain.json").write_text(json.dumps({"rates": [
        [-1.0, 1.0], [1.0, -1.0]]}))
    window = {"t_start": 5.0, "t_end": 20.0, "verdict": verdict,
              "c_delta": c_delta, "validity_flags": {"basic_cutoff": True}}
    (root / "spin-detect.json").write_text(json.dumps({
        "timescales": {"tau_0": 0.13, "tau_dprime": None},
        "metastable_windows": [window] * n_windows}))
    (root / "spin-verify-bounds.csv").write_text(
        "# metastab 0.1.0 model=37f6e07555c475d3 seed=0\n"
        "id,t,lhs,rhs,slack,pass\n"
        "%s,0.5,%r,0.1,0.05,%s\n" % (row_id, c_delta, pass_flag)
        + "0_exp,1,0.25,0.5,0.25,1\n")
    (root / "status.txt").write_text(
        "spin-detect.json exit 0 ''\n"
        "spin-verify-bounds.csv exit %d ''\n" % exit_code)
    (root / "counts.txt").write_text(
        "spin-detect.json norm_calls 82 maps 1336 single 29\n"
        "spin-verify-bounds.csv norm_calls %d maps 1086 single 20\n"
        % norm_calls)


def compare(old, new):
    done = subprocess.run([sys.executable,
                           os.path.join(TOOLS, "compare_outputs.py"),
                           str(old), str(new)],
                          capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_compare_outputs_reports_moves_and_lists_changed_conclusions(
        tmp_path):
    write_outputs(tmp_path / "old")
    write_outputs(tmp_path / "same")
    code, report = compare(tmp_path / "old", tmp_path / "same")
    assert code == 0
    assert report == ["%s: identical" % name for name in (
        "counts.txt", os.path.join("models", "chain.json"),
        "spin-detect.json", "spin-verify-bounds.csv", "status.txt")]
    # a move of the value alone: reported, and the exit code stays 0
    write_outputs(tmp_path / "moved", c_delta=0.05 * (1 + 1e-9))
    code, report = compare(tmp_path / "old", tmp_path / "moved")
    assert code == 0
    assert "spin-detect.json: largest relative move 1e-09 at " \
        "metastable_windows[0].c_delta" in report
    assert "spin-verify-bounds.csv: largest relative move 1e-09 at " \
        "[0].lhs" in report
    assert not [line for line in report if line.startswith("CHANGED")]
    # each changed conclusion is listed, and the exit code is 1
    for kwargs, listed in [
            ({"verdict": "NotMetastable"},
             "CHANGED spin-detect.json: metastable_windows[0].verdict "
             "'Metastable' -> 'NotMetastable'"),
            ({"n_windows": 2}, "CHANGED spin-detect.json: window count "
                               "1 -> 2"),
            ({"pass_flag": "0"}, "CHANGED spin-verify-bounds.csv: "
                                 "[0].pass True -> False"),
            ({"row_id": "change2_ss"},
             "CHANGED spin-verify-bounds.csv: row ids ['change2_all'] -> "
             "['change2_ss']"),
            ({"exit_code": 1}, "CHANGED spin-verify-bounds.csv: exit code "
                               "0 -> 1")]:
        new = tmp_path / next(iter(kwargs))
        write_outputs(new, **kwargs)
        code, report = compare(tmp_path / "old", new)
        assert code == 1 and listed in report, (kwargs, report)
    os.remove(tmp_path / "moved" / "status.txt")
    code, report = compare(tmp_path / "old", tmp_path / "moved")
    assert code == 1
    assert "CHANGED status.txt: only in %s" % (tmp_path / "old") in report


def test_compare_outputs_notes_count_moves_without_listing_a_change(
        tmp_path):
    # counts.txt moves are noted, never listed as changed conclusions, and
    # neither is the file missing from one side (outputs written before it)
    write_outputs(tmp_path / "old")
    write_outputs(tmp_path / "fewer", norm_calls=53)
    code, report = compare(tmp_path / "old", tmp_path / "fewer")
    assert code == 0
    assert "counts.txt: largest relative move 0.243 at " \
        "spin-verify-bounds.csv norm_calls" in report
    assert report[-1] == "NOTE counts.txt: spin-verify-bounds.csv " \
        "norm_calls 70 -> 53"
    assert not [line for line in report if line.startswith("CHANGED")]
    os.remove(tmp_path / "old" / "counts.txt")
    code, report = compare(tmp_path / "old", tmp_path / "fewer")
    assert code == 0
    assert report[-1] == "NOTE counts.txt: only in %s" % (tmp_path / "fewer")


def load_cli_outputs():
    spec = importlib.util.spec_from_file_location(
        "cli_outputs", os.path.join(TOOLS, "cli_outputs.py"))
    cli_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_outputs)
    return cli_outputs


def test_cli_outputs_runs_every_subcommand(tmp_path):
    cli_outputs = load_cli_outputs()
    paths = cli_outputs.write_models(str(tmp_path), 0)
    commands = {argv[0] for _, argv in cli_outputs.runs(paths)}
    assert commands == set(cli_outputs.cli.build_parser()._command_specs)


def test_cli_outputs_counts_the_norm_calls_of_each_output(tmp_path):
    # one line per output: its induced-norm calls, maps and single-map
    # calls, which a quantum command makes, its classical maps, each one
    # l1_norm call of a classical command, and the full results it builds:
    # the model normalisation's and the generator's on random4, the
    # generator's on the double well
    cli_outputs = load_cli_outputs()
    cli_outputs.runs = lambda paths: [
        ("random4-detect.json", ["detect", "--model",
                                 "file:" + paths["random4"]]),
        ("double-well-detect.json",
         ["classical-detect", "--model", "builtin:double_well"])]
    induced_norms = cli_outputs.norms._induced_norms
    l1_norm = cli_outputs.classical.l1_norm
    result_init = cli_outputs.norms.InducedNormResult.__init__
    assert cli_outputs.main([str(tmp_path)]) == 0
    assert cli_outputs.norms._induced_norms is induced_norms
    assert cli_outputs.classical.l1_norm is l1_norm
    assert cli_outputs.norms.InducedNormResult.__init__ is result_init
    assert (tmp_path / "counts.txt").read_text() == (
        "random4-detect.json norm_calls 10 maps 55 single 2 "
        "classical_maps 0 results 2\n"
        "double-well-detect.json norm_calls 0 maps 0 single 0 "
        "classical_maps 2959 results 1\n")
