import json
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools")


def write_outputs(root, c_delta=0.05, verdict="Metastable", n_windows=1,
                  pass_flag="1", row_id="change2_all", exit_code=0):
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
        os.path.join("models", "chain.json"), "spin-detect.json",
        "spin-verify-bounds.csv", "status.txt")]
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
