"""Adjoint-picture evolution of observables, max-norm change measures, and
quasi-conserved-observable witnesses, on a dynamics backend of either
family: its adjoint maps a Hermitian operator (or a classical f vector)."""
from dataclasses import dataclass

import numpy as np

from .modes import brent_max, _run_search
from .regimes import _window_grid


@dataclass(frozen=True)
class ObservableTrajectory:
    initial: np.ndarray
    times: np.ndarray
    values: list
    asymptotic: np.ndarray


def evolve_observable(dyn, obs, t):
    """Heisenberg-picture observable at time t: the adjoint of the backend's
    evolution map (which reuses the biorthogonal mode pairs) applied to obs."""
    return dyn.adjoint(obs, dyn.evolution_matrix(t))


def asymptotic_observable(dyn, obs):
    """Conserved limit of the adjoint evolution (stationary projection)."""
    return dyn.adjoint(obs, dyn.stationary_matrix())


def observable_trajectory(dyn, obs, times):
    vals = [evolve_observable(dyn, obs, float(t)) for t in times]
    return ObservableTrajectory(initial=np.asarray(obs),
                                times=np.asarray(times, dtype=float),
                                values=vals,
                                asymptotic=asymptotic_observable(dyn, obs))


def observable_change(dyn, obs, t_start, t_end, n_grid=33):
    """Windowed max-norm change of an observable, normalized by its initial
    max norm; bounded above by the full change measure of the dynamics.

    The grid maximum is refined by modes.brent_max between its grid
    neighbours. Unlike regimes._refined_sup, this refines a maximum at the
    grid's first or last point too, inside the one grid interval beside it:
    an observable's change can oscillate, and there the search does beat
    the endpoint grid value."""
    norm0 = dyn.observable_max_norm(obs)
    if norm0 == 0.0:
        raise ValueError("zero observable")
    if t_end < t_start:
        raise ValueError("window end before start")
    if t_end == t_start:
        return 0.0
    o_start = evolve_observable(dyn, obs, t_start)
    f = lambda t: dyn.observable_max_norm(
        o_start - evolve_observable(dyn, obs, t)) / norm0
    ts = _window_grid(t_start, t_end, n_grid)
    vals = [f(t) for t in ts]
    k = int(np.argmax(vals))
    a = ts[max(0, k - 1)]
    b = ts[min(len(ts) - 1, k + 1)]
    _, v_ref = _run_search(brent_max(f, a, b))
    return float(max(vals[k], v_ref))


def quasi_conserved_witness(dyn, t_start, t_end, t_probe, n_grid=33):
    """Observable that drifts negligibly through a metastable window.

    Built from the witness observable of the induced-norm computation of
    ||e^{t_probe L} - P_ss||, pushed to the adjoint picture: the difference
    between its Heisenberg value at t_probe and its conserved limit. Returns
    (observable, measured drift); the drift obeys
    3 c / upper_threshold(c) up to optimizer tolerance.
    """
    if not t_start <= t_probe <= t_end / 2.0:
        raise ValueError("probe time must lie in [t_start, t_end/2]")
    M = dyn.evolution_matrix(t_probe) - dyn.stationary_matrix()
    res = dyn.norm_results([M])[0]
    if res.value <= 1e-9:
        raise ValueError("dynamics already stationary at the probe time; "
                         "no nontrivial quasi-conserved witness exists")
    O0 = dyn.adjoint(res.witness_observable, M)
    norm0 = dyn.observable_max_norm(O0)
    ts = _window_grid(0.0, t_end, n_grid)
    drift = max(dyn.observable_max_norm(evolve_observable(dyn, O0, float(t))
                                        - O0) / norm0
                for t in ts)
    return O0, float(drift)
