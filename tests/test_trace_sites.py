"""bench/tracing.py wraps analysis functions by name at every module that
looks them up. Each of those names must stay defined where the tracer
expects it, or the benchmark's traced runs fail before they start."""
import importlib
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def _tracing():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)


def test_every_trace_site_resolves_and_is_restored():
    tracing = _tracing()
    import metastab.cli

    originals = [(tracing._resolve(site), attr) for _, _, sites
                 in tracing.TARGETS for site, attr in sites]
    before = [owner.__dict__[attr] for owner, attr in originals]
    patcher = tracing.installed(tracing.Tracer())
    with patcher:
        assert len(patcher._saved) == len(originals)
        assert metastab.cli.classify_regime is not before[
            originals.index((metastab.cli, "classify_regime"))]
    assert [owner.__dict__[attr] for owner, attr in originals] == before
