"""Self-check of the benchmark's deterministic counters: two traced runs of
the same workload and seed give identical counts. Timings are not asserted.

    python3 -m pytest bench/test_counters.py
"""
import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
DETERMINISTIC = ("norms.calls", "norms.best_iters", "regimes.distance_calls.",
                 "superop.evolution_calls", "classical.evolution_calls")


def traced_counters(workload, seed=0):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if name.startswith(DETERMINISTIC)}


@pytest.mark.parametrize("workload",
                         ["spin-cli", "random-battery", "classical-chains"])
def test_counters_repeat_exactly(workload):
    first = traced_counters(workload)
    assert first["norms.calls"] + first["classical.evolution_calls"] > 0
    assert traced_counters(workload) == first


def test_spin_battery_matches_roadmap_baseline():
    # ROADMAP Baseline: one spin-model battery makes 1,819 norm calls
    assert traced_counters("spin-cli")["norms.calls_verify_bounds"] == 1819
