"""Write a fixed set of CLI outputs into a directory, for byte-identity checks.

    python3 tools/cli_outputs.py OUTDIR [--seed N]

Each output is one in-process ``metastab.cli.main`` call with ``--out``; the
exit code and standard error of every call go to ``OUTDIR/status.txt``, and
the model files the calls read to ``OUTDIR/models``. metastab is imported
from the environment (PYTHONPATH), or from this checkout's ``src`` when the
environment has none, so one copy of this script can write the outputs of
two checkouts:

    PYTHONPATH=old/src python3 tools/cli_outputs.py out-old
    PYTHONPATH=src python3 tools/cli_outputs.py out-new
    diff -r out-old out-new

tools/compare_outputs.py reports how far numbers moved between two such
directories and which conclusions changed.
"""
import argparse
import contextlib
import io
import json
import math
import os
import sys

import numpy as np

try:
    import metastab.cli as cli
except ImportError:
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import metastab.cli as cli

SPIN = ["--model", "builtin:spin_half", "--param", "gamma=1",
        "--param", "kappa=0.005", "--param", "omega=5.025"]
CHAIN_SIZES = (8, 64)


def three_level_double_well(slow=0.01):
    """Levels 0 and 1 exchange at rate 1, level 2 couples to level 1 at the
    slow rate both ways; Hamiltonian diag(0, 0.3, 0.7). As a model file."""
    def pairs(M):
        return [[[float(z.real), float(z.imag)] for z in row] for row in M]

    def jump(i, j, rate):
        L = np.zeros((3, 3), dtype=complex)
        L[i, j] = math.sqrt(rate)
        return pairs(L)

    return {"dim": 3, "hamiltonian": pairs(np.diag([0.0, 0.3, 0.7])),
            "jumps": [jump(1, 0, 1.0), jump(0, 1, 1.0), jump(2, 1, slow),
                      jump(1, 2, slow)]}


def two_cluster_chain(n, rng):
    """Two equal clusters, uniform(0.5, 1.5) rates inside and 1e-3 times
    that between them (column convention), as the benchmark draws them."""
    Q = rng.uniform(0.5, 1.5, size=(n, n))
    half = n // 2
    same = np.zeros((n, n), dtype=bool)
    same[:half, :half] = same[half:, half:] = True
    Q = np.where(same, Q, 1e-3 * Q)
    np.fill_diagonal(Q, 0.0)
    Q -= np.diag(Q.sum(axis=0))
    return Q


def write_models(models, seed):
    os.makedirs(models, exist_ok=True)
    paths = {}

    def dump(name, data):
        paths[name] = os.path.join(models, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(data, fh)

    for dim in (3, 4):
        dump("random%d" % dim, {"name": "random_lindbladian",
                                "params": {"dim": dim, "n_jumps": 2},
                                "seed": 0})
    dump("three-level", three_level_double_well())
    for n in CHAIN_SIZES:
        dump("chain%d" % n, {"rates": two_cluster_chain(
            n, np.random.default_rng([seed, n])).tolist()})
    return paths


def runs(paths):
    """(output file name, argv) of every output."""
    changes = ["--tmin", "10", "--tmax", "40", "--points", "8"]
    out = [("spin-detect.json", ["detect"] + SPIN),
           ("spin-verify-bounds.csv", ["verify-bounds"] + SPIN),
           ("spin-verify-bounds.json",
            ["verify-bounds", "--format", "json"] + SPIN),
           ("spin-project.json", ["project"] + SPIN),
           ("spin-changes.csv", ["changes"] + SPIN + changes)]
    random3 = ["--model", "file:" + paths["random3"]]
    out += [("random3-detect.json", ["detect"] + random3),
            ("random3-verify-bounds.csv", ["verify-bounds"] + random3),
            ("random3-verify-bounds.json",
             ["verify-bounds", "--format", "json"] + random3),
            ("random3-changes.csv", ["changes"] + random3
             + ["--tmin", "1", "--tmax", "20", "--points", "8"]),
            ("random4-detect.json",
             ["detect", "--model", "file:" + paths["random4"]])]
    three = ["--model", "file:" + paths["three-level"]]
    out += [("three-level-detect.json", ["detect"] + three),
            ("three-level-verify-bounds.csv", ["verify-bounds"] + three)]
    well = ["--model", "builtin:double_well"]
    out += [("double-well-detect.json", ["classical-detect"] + well),
            ("double-well-verify-bounds.csv",
             ["classical-verify-bounds"] + well)]
    for n in CHAIN_SIZES:
        chain = ["--model", "file:" + paths["chain%d" % n]]
        out += [("chain%d-detect.json" % n, ["classical-detect"] + chain),
                ("chain%d-verify-bounds.csv" % n,
                 ["classical-verify-bounds"] + chain)]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    paths = write_models(os.path.join(args.outdir, "models"), args.seed)
    status = []
    for name, command in runs(paths):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(command + ["--seed", str(args.seed), "--out",
                                       os.path.join(args.outdir, name)])
        status.append("%s exit %d %r\n" % (name, code, err.getvalue()))
    with open(os.path.join(args.outdir, "status.txt"), "w") as fh:
        fh.writelines(status)
    return 0


if __name__ == "__main__":
    sys.exit(main())
