"""Adjoint-picture evolution of observables, max-norm change measures, and
quasi-conserved-observable witnesses."""
from dataclasses import dataclass

import numpy as np

from .modes import brent_max, _run_search
from .operators import is_hermitian, max_norm
from .regimes import _window_grid
from .superop import unvec, vec


@dataclass(frozen=True)
class ObservableTrajectory:
    initial: np.ndarray
    times: np.ndarray
    values: list
    asymptotic: np.ndarray


def evolve_observable(spec, obs, t):
    """Heisenberg-picture observable at time t, via the adjoint of the
    spectral evolution (exactly reuses the biorthogonal mode pairs)."""
    obs = np.asarray(obs, dtype=complex)
    if not is_hermitian(obs, rtol=1e-10):
        raise ValueError("observable must be Hermitian")
    if t < 0:
        raise ValueError("the dynamics is a semigroup: t must be >= 0")
    out = unvec(spec.adjoint_evolution_matrix(t) @ vec(obs), spec.dim)
    return (out + out.conj().T) / 2


def asymptotic_observable(spec, obs):
    """Conserved limit of the adjoint evolution (stationary projection)."""
    obs = np.asarray(obs, dtype=complex)
    P = spec.projector_matrix(spec.m_ss)
    out = unvec(P.conj().T @ vec(obs), spec.dim)
    return (out + out.conj().T) / 2


def observable_trajectory(spec, obs, times):
    vals = [evolve_observable(spec, obs, float(t)) for t in times]
    return ObservableTrajectory(initial=np.asarray(obs, dtype=complex),
                                times=np.asarray(times, dtype=float),
                                values=vals,
                                asymptotic=asymptotic_observable(spec, obs))


def observable_change(spec, obs, t_start, t_end, n_grid=33):
    """Windowed max-norm change of an observable, normalized by its initial
    max norm; bounded above by the full change measure of the dynamics.

    The grid maximum is refined by modes.brent_max between its grid
    neighbours. Unlike regimes._refined_sup, this refines a maximum at the
    grid's first or last point too, inside the one grid interval beside it:
    an observable's change can oscillate, and there the search does beat
    the endpoint grid value."""
    obs = np.asarray(obs, dtype=complex)
    norm0 = max_norm(obs)
    if norm0 == 0.0:
        raise ValueError("zero observable")
    if t_end < t_start:
        raise ValueError("window end before start")
    if t_end == t_start:
        return 0.0
    o_start = evolve_observable(spec, obs, t_start)
    f = lambda t: max_norm(o_start - evolve_observable(spec, obs, t)) / norm0
    ts = _window_grid(t_start, t_end, n_grid)
    vals = [f(t) for t in ts]
    k = int(np.argmax(vals))
    a = ts[max(0, k - 1)]
    b = ts[min(len(ts) - 1, k + 1)]
    _, v_ref = _run_search(brent_max(f, a, b))
    return float(max(vals[k], v_ref))


def quasi_conserved_witness(dyn, spec, t_start, t_end, t_probe, n_grid=33):
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
    # adjoint action of (e^{tL} - P_ss) on the witness observable
    O0 = unvec(M.conj().T @ vec(res.witness_observable), spec.dim)
    O0 = (O0 + O0.conj().T) / 2
    norm0 = max_norm(O0)
    ts = _window_grid(0.0, t_end, n_grid)
    drift = max(max_norm(evolve_observable(spec, O0, float(t)) - O0) / norm0
                for t in ts)
    return O0, float(drift)
