"""Operational regime analysis: distances to the initial and asymptotic
limits, the windowed change measure, timescales, and metastability verdicts.

Everything is phrased against an abstract dynamics backend so that the same
machinery runs on quantum models (induced trace norms: exact for qubits,
from the alternating optimizer above) and on classical rate matrices (exact
l1-induced norms).
"""
import copy
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .modes import (SCAN_AHEAD, brent_max, change_thresholds, crossing,
                    known_ends_zeroin, _run_search)
from . import norms as _norms
from .operators import is_hermitian, max_norm, trace_norm
from .superop import build_liouvillian, spectral_decompose, unvec, vec

# cutoff constants of the verdict logic, with their governing condition
CUTOFF_BASIC = 0.25                     # threshold roots exist
CUTOFF_INITIAL_TAIL = (-1.0 + math.sqrt(2.0)) / 2.0   # 0.2071..., d_I dichotomy on (t'/2, t']
CUTOFF_FINAL_TAIL = -2.0 + math.sqrt(5.0)             # 0.2360..., d_ss dichotomy on (t'/2, t']
CUTOFF_RELAXATION = (1.0 - 1.0 / math.e) / math.e     # 0.2325..., relaxation-time definitions
CUTOFF_LINEAR_GROWTH = (3.0 * math.log(1.5) - 1.0) / 2.0  # 0.1082..., growth-inverse domain
VERDICT_GUARD = 1e-4
# evolution matrices a backend keeps, least recently used evicted first
EVO_CACHE_SIZE = 256


class TrivialDynamicsError(ValueError):
    """Raised when an operation requires nontrivial dynamics (||L|| > 0)."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation grid, log- or linearly spaced."""

    t_min: float
    t_max: float
    n_points: int = 50
    spacing: str = "log"

    def __post_init__(self):
        if self.spacing not in ("log", "linear"):
            raise ValueError("spacing must be 'log' or 'linear'")
        if self.spacing == "log" and self.t_min <= 0:
            raise ValueError("log spacing requires t_min > 0")
        if not self.t_max > self.t_min:
            raise ValueError("t_max must exceed t_min")
        if self.n_points < 2:
            raise ValueError("need at least two grid points")

    def times(self):
        if self.spacing == "log":
            return np.geomspace(self.t_min, self.t_max, self.n_points)
        return np.linspace(self.t_min, self.t_max, self.n_points)


class DynamicsBackend:
    """Contractive dynamics on one sorted eigensystem, with an induced norm.

    A backend holds the SpectralData of its generator (eigenvalues, mode
    pairs, stationary count, valid cuts) and derives every regime quantity
    from it, evolutions included: e^{tL} = V diag(e^{t lambda}) V^-1.
    Subclasses supply the generator matrix and norm_results, the one norm
    primitive (exact or a lower bound) that evaluates every map, in a
    prefetch or on a read miss. Evolution matrices, slow projectors and norm
    values are cached, the last keyed by the matrix expression, so repeated
    grid sweeps are cheap; the evolution cache keeps the EVO_CACHE_SIZE most
    recently used times. The generator's InducedNormResult is kept apart,
    computed once, by generator_norm_result or by a prefetch of the key
    ("gen",). unconverged_keys holds the cache keys (and ("gen",) for the
    generator) whose lower bound stopped at the iteration cap before
    converging. Subclasses also supply the observable picture: adjoint, the
    Heisenberg image of an observable under a map, and observable_max_norm.
    """

    def __init__(self, spectral, identity):
        self.spectral = spectral
        self.dim = spectral.dim
        self._eye = identity
        self._norm_cache = {}
        self._certificates = {}
        self._generator_norm = None
        self._evo_cache = {}
        self._projectors = {}
        self.unconverged_keys = set()

    def _evolve(self, t):
        return self.spectral.evolution_matrix(t)

    # --- supplied by subclasses ------------------------------------------------
    def generator_matrix(self):
        raise NotImplementedError

    def norm_results(self, Ms, above=None):
        """The norms of the map matrices in Ms (a sequence or a stack) as a
        norms.InducedNormBatch: per-map arrays of values, exact and
        converged flags, iterations and restart values, and batch[k], map
        k's InducedNormResult with its witnesses, built when it is read.
        Each map's result is that of a call with it alone; with above, one
        threshold per map, a map may stop early once a lower bound exceeds
        it (norms._induced_norms)."""
        raise NotImplementedError

    def random_observable(self, rng):
        """Random Hermitian observable (or classical f vector), unit max norm."""
        raise NotImplementedError

    def correlator_matrix(self, obs):
        """Matrix of the measurement superoperator encoding obs correlations."""
        raise NotImplementedError

    def observable_max_norm(self, obs):
        """Max norm of an observable (or classical f vector)."""
        raise NotImplementedError

    def adjoint(self, obs, M):
        """Heisenberg image of obs under the map with matrix M."""
        raise NotImplementedError

    # --- spectral primitives ---------------------------------------------------
    def evolution_matrix(self, t):
        cache = self._evo_cache
        E = cache.pop(t, None)
        if E is None:
            E = self._evolve(t)
            if len(cache) >= EVO_CACHE_SIZE:
                del cache[next(iter(cache))]
        cache[t] = E
        return E

    def identity_matrix(self):
        return self._eye

    def stationary_matrix(self):
        return self.slow_projector_matrix(self.m_ss)

    def slow_projector_matrix(self, m):
        """Projection onto the m slowest modes, built once per cut: at most
        n_modes + 1 are kept, and an invalid cut raises on every call."""
        P = self._projectors.get(m)
        if P is None:
            P = self._projectors[m] = self._slow_projector(m)
        return P

    def _slow_projector(self, m):
        return self.spectral.projector_matrix(m)

    def eigenvalues(self):
        """Generator eigenvalues sorted by decreasing real part."""
        return self.spectral.eigenvalues

    @property
    def m_ss(self):
        return self.spectral.m_ss

    def valid_cuts(self):
        return self.spectral.valid_cuts()

    def with_stationary(self, P):
        """Copy of this backend whose stationary projection is P.

        The copy shares the spectrum, the slow projectors and the generator
        norm, which do not depend on P, but starts with empty norm and
        evolution caches, so norms computed under P never reach this backend.
        """
        view = copy.copy(self)
        view._norm_cache, view._certificates, view._evo_cache = {}, {}, {}
        view.unconverged_keys = self.unconverged_keys & {("gen",)}
        view.stationary_matrix = lambda: P
        return view

    # --- derived quantities ---------------------------------------------------
    def _norm_map(self, key):
        """Matrix of the map whose norm the cache key names.

        A read miss and a prefetch both build their maps here, so a cached
        value does not depend on which of them computed it. A pair key
        ("pair", t1, t2) has t1 < t2 and names E(t1) - E(t2); ("gen",)
        names the generator.
        """
        family, *args = key
        if family == "gen":
            return self.generator_matrix()
        E, I = self.evolution_matrix, self.identity_matrix()
        if family == "pair":
            return E(args[0]) - E(args[1])
        if family == "ident":
            return E(args[0]) - I
        if family == "stat":
            return E(args[0]) - self.stationary_matrix()
        if family == "ident-stat":
            return I - self.stationary_matrix()
        P = self.slow_projector_matrix(args[0])
        if family == "proj":
            return E(args[1]) - P
        if family == "drift":
            return P @ (E(args[1]) - I)
        if family == "fast":
            return (I - P) @ E(args[1])
        if family == "pnorm":
            return P
        if family == "ipnorm":
            return I - P
        if family == "pgen":
            return P @ self.generator_matrix()
        raise KeyError(key)

    def _norm_of(self, key):
        if key not in self._norm_cache:
            self._evaluate({key: math.inf})
        return self._norm_cache[key]

    def _uncached(self, keys):
        """The maps of keys left to evaluate, each once, as a dict in
        request order from key to threshold (inf: the full value). A
        comparison ("above", c, t1, t2) is its pair at threshold c, settled
        by a certificate above c; a map requested twice keeps the larger
        threshold. Pairs go in canonical order, the zero distance left out."""
        if isinstance(keys, dict):  # a round's todo, filtered already
            return keys
        todo = {}
        for key in keys:
            above = math.inf
            if key[0] == "above":
                above, key = key[1], ("pair",) + key[2:]
            if key[0] == "pair":
                t1, t2 = key[1:]
                if t1 > t2:
                    key = ("pair", t2, t1)
                if t1 == t2 or self._certificates.get(key, above) > above:
                    continue
            elif key == ("gen",) and self._generator_norm is not None:
                continue
            if key in self._norm_cache or todo.get(key, -math.inf) >= above:
                continue
            todo[key] = above
        return todo

    def _evaluate(self, todo):
        """Evaluate the maps of todo, a dict of _uncached, as given in one
        norm_results call, each against its threshold, and keep them from
        the batch's arrays: each value in the norm cache, and for ("gen",)
        the whole result apart, the only result the batch builds. A key is
        noted if its ascent stopped before converging. An inexact value over
        the threshold, a certificate, is kept apart to settle comparisons,
        and not noted. No batch outlives the call."""
        if not todo:
            return
        # the maps go straight into one stack, without a list of copies
        Ms = np.empty((len(todo),) + self._eye.shape, dtype=self._eye.dtype)
        for i, key in enumerate(todo):
            Ms[i] = self._norm_map(key)
        above = np.fromiter(todo.values(), float)
        batch = self.norm_results(
            Ms, above=above if np.isfinite(above).any() else None)
        for k, ((key, threshold), value, exact, converged) in enumerate(zip(
                todo.items(), batch.values.tolist(), batch.exact.tolist(),
                batch.converged.tolist())):
            if value > threshold and not exact:
                self._certificates[key] = value
                continue
            if not converged:
                self.unconverged_keys.add(key)
            if key == ("gen",):
                self._generator_norm = batch[k]
            else:
                self._norm_cache[key] = value

    def prefetch(self, keys):
        """Cache hint: evaluate the norms of the uncached keys in one batch.

        keys is an iterable, read at most once, of norm-cache keys such as
        ("ident", t), ("proj", m, t), ("gen",), ("pair", t1, t2) or
        ("above", c, t1, t2), pairs in either order (equal times name the
        zero distance), or a todo of _uncached. Each value equals, bit for
        bit, the one a read miss would compute, so a prefetch never changes
        a result; it only saves per-call overhead. lockstep calls it once
        per round with the round's todo, filtered already; the classical
        backend, whose _uncached holds no keys, evaluates nothing here.
        """
        self._evaluate(self._uncached(keys))

    def exceeds(self, t1, t2, threshold):
        """Whether distance(t1, t2) > threshold: the answer to the comparison
        key ("above", threshold, t1, t2), which a read miss evaluates alone."""
        pair = ("pair", min(t1, t2), max(t1, t2))
        if pair not in self._norm_cache:
            self._evaluate(self._uncached([("above", threshold) + pair[1:]]))
        return (pair in self._certificates and pair not in self._norm_cache
                or self.distance(t1, t2) > threshold)

    def distance(self, t1, t2):
        """Induced-norm distance between the evolution maps at two times."""
        if t1 == t2:
            return 0.0
        return self._norm_of(("pair", min(t1, t2), max(t1, t2)))

    def distance_to_identity(self, t):
        return self._norm_of(("ident", t))

    def distance_to_stationary(self, t):
        return self._norm_of(("stat", t))

    def generator_norm_result(self):
        """InducedNormResult of the generator, computed once."""
        if self._generator_norm is None:
            self._evaluate({("gen",): math.inf})
        return self._generator_norm

    def liouvillian_norm(self):
        return self.generator_norm_result().value

    def stationary_distance(self):
        return self._norm_of(("ident-stat",))

    def projector_distance(self, m, t):
        return self._norm_of(("proj", m, t))

    def slow_drift(self, m, t):
        return self._norm_of(("drift", m, t))

    def fast_residual(self, m, t):
        return self._norm_of(("fast", m, t))

    def projector_norm(self, m):
        return self._norm_of(("pnorm", m))

    def complement_norm(self, m):
        return self._norm_of(("ipnorm", m))

    def projected_generator_norm(self, m):
        return self._norm_of(("pgen", m))

    def max_imag(self):
        lam = self.eigenvalues()
        return float(np.max(np.abs(lam.imag))) if lam.size else 0.0

    def slowest_decay_rate(self):
        """-Re of the leading non-stationary eigenvalue."""
        lam = self.eigenvalues()
        if self.m_ss >= lam.size:
            raise TrivialDynamicsError("no decaying modes")
        return float(-lam[self.m_ss].real)

    def fastest_decay_rate(self):
        lam = self.eigenvalues()
        return float(-lam[-1].real)


class QuantumBackend(DynamicsBackend):
    """Quantum dynamics backend; norms are exact at D = 2 and come from the
    alternating optimizer at D >= 3. Its norm_results is one call of the
    dispatcher norms._induced_norms, so a prefetched batch and a read miss
    take one path."""

    def __init__(self, model, seed=0):
        liouvillian = build_liouvillian(model)
        super().__init__(spectral_decompose(liouvillian),
                         np.eye(liouvillian.dim ** 2, dtype=complex))
        self.model = model
        self.liouvillian = liouvillian
        self.seed = seed

    def generator_matrix(self):
        return self.liouvillian.matrix

    def norm_results(self, Ms, above=None):
        return _norms._induced_norms(Ms, self.dim, seed=self.seed, above=above)

    def random_observable(self, rng):
        G = rng.normal(size=(self.dim, self.dim)) \
            + 1j * rng.normal(size=(self.dim, self.dim))
        O = (G + G.conj().T) / 2.0
        return O / max_norm(O)

    def observable_max_norm(self, obs):
        return max_norm(obs)

    def correlator_matrix(self, obs):
        return _norms.correlator_superop(obs).matrix

    def adjoint(self, obs, M):
        obs = np.asarray(obs, dtype=complex)
        if not is_hermitian(obs, rtol=1e-10):
            raise ValueError("observable must be Hermitian")
        out = unvec(M.conj().T @ vec(obs), self.dim)
        return (out + out.conj().T) / 2


@dataclass(frozen=True)
class RegimeVerdict:
    """Window classification against the threshold dichotomies."""

    t_start: float
    t_end: float
    c_delta: float
    c_delta2: float
    argmax_t: float
    d_initial_at_start: float
    d_stationary_at_end: float
    threshold_lower: float
    threshold_upper: float
    verdict: str
    validity_flags: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TimescaleReport:
    """Shortest and longest dynamics timescales with crossing diagnostics.

    The window-relative relaxation times are attached when a metastable
    window is available (see relaxation_times)."""

    tau_0: float | None
    tau_ss: float | None
    tau_dprime: float | None = None
    tau_prime: float | None = None
    tau_0_residual: float | None = None
    tau_ss_residual: float | None = None
    absent: dict = field(default_factory=dict)

    def with_relaxation(self, tau_dprime, tau_prime):
        return replace(self, tau_dprime=tau_dprime, tau_prime=tau_prime)


def _window_grid(t_start, t_end, n_points=33):
    return np.geomspace(t_start, t_end, n_points) if t_start > 0 \
        else np.linspace(t_start, t_end, n_points)


def decay_time(rate):
    """1 / rate, the time scale of a mode that decays at rate. An undamped
    mode (Re lambda = 0) has none: TrivialDynamicsError."""
    if not rate > 0:
        raise TrivialDynamicsError("an undamped mode (Re lambda = 0) has no "
                                   "decay time")
    return 1.0 / rate


def keyed(key, search):
    """search, which requests times (modes.zeroin, crossing, brent_max), as a
    search that requests the norm-cache key key(t) of each time t; a time
    whose key is None, one that search reads without a map, is left out."""
    while True:
        try:
            ts = next(search)
        except StopIteration as stop:
            return stop.value
        yield filter(None, map(key, ts))


def _read(keys):
    """The search that requests keys, once, for its caller to read."""
    yield keys


def together(dyn, searches):
    """Independent searches as one search returning their results in order.
    Each round advances every unfinished search to its next request with maps
    left (dyn._uncached; a nested todo passes as is) and yields the merged
    todo, each map at its largest threshold; a request with none left (all
    cached, or on a backend that does not batch) is answered at once."""
    results = [None] * len(searches)
    live = list(enumerate(searches))
    while live:
        todo, waiting = {}, []
        for i, search in live:
            try:
                while not (request := dyn._uncached(next(search))):
                    pass
            except StopIteration as stop:
                results[i] = stop.value
                continue
            for key, above in request.items():
                todo[key] = max(todo.get(key, above), above)
            waiting.append((i, search))
        live = waiting
        if live:
            yield todo
    return results


def lockstep(dyn, searches):
    """Run independent searches together to their ends, one prefetch (one
    batched norm call on a quantum backend) per round; returns their
    results in order. A search is a generator of the kind modes.zeroin
    describes, which yields the norm-cache keys it reads next, then reads
    them through the backend's getters. Every analysis reads its maps so,
    each round's keys filtered once, where its leaf searches yield them."""
    return _run_search(together(dyn, searches), dyn.prefetch)


def _refined_sup(f, key, ts):
    """f on the grid ts, in one request, and modes.brent_max on
    [t_{k-1}, t_{k+1}] around an interior grid maximum k, as a search that
    requests the norm-cache key key(t) of each time t. Returns (grid values,
    k, refined t, refined value); at the first or last grid point the grid
    point is its own refinement, as brent_max never evaluates the bracket's
    ends. The refined value may fall below the grid maximum, which callers
    then keep."""
    yield map(key, ts)
    vals = [f(t) for t in ts]
    k = int(np.argmax(vals))
    if k in (0, len(ts) - 1):
        return vals, k, ts[k], vals[k]
    t_ref, v_ref = yield from keyed(key, brent_max(f, ts[k - 1], ts[k + 1]))
    return vals, k, t_ref, v_ref


def cutoff_flags(c_delta):
    """Which cutoffs of the verdict logic a change measure passes."""
    return {
        "basic_cutoff": c_delta < CUTOFF_BASIC - VERDICT_GUARD,
        "initial_tail_cutoff": c_delta < CUTOFF_INITIAL_TAIL - VERDICT_GUARD,
        "final_tail_cutoff": c_delta < CUTOFF_FINAL_TAIL - VERDICT_GUARD,
        "relaxation_cutoff": c_delta <= CUTOFF_RELAXATION - VERDICT_GUARD,
        "linear_growth_cutoff": c_delta <= CUTOFF_LINEAR_GROWTH - VERDICT_GUARD,
    }


def grid_change_search(dyn, ts):
    """The change measure on the window grid ts, from ts[0] to ts[-1], as
    a search (_refined_sup of the distance from ts[0]). Returns (value,
    argmax time)."""
    t_start = ts[0]
    vals, k, t_ref, v_ref = yield from _refined_sup(
        lambda t: dyn.distance(t_start, t), lambda t: ("pair", t_start, t), ts)
    if v_ref >= vals[k]:
        return float(v_ref), float(t_ref)
    return float(vals[k]), float(ts[k])


def change_search(dyn, t_start, t_end, n_grid=33):
    """change_measure as a search."""
    if t_start < 0:
        raise ValueError("the dynamics is a semigroup: t must be >= 0")
    if t_end < t_start:
        raise ValueError("window end before start")
    if t_end == t_start:
        return 0.0, t_start
    return (yield from grid_change_search(
        dyn, _window_grid(t_start, t_end, n_grid)))


def change_measure(dyn, t_start, t_end, n_grid=33):
    """Windowed change sup_{t in [t_start, t_end]} ||e^{t_start L} - e^{t L}||.

    Contractivity reduces the pair supremum to distances from the window
    start. Evaluated on a log grid (one batched sweep), then refined by
    Brent's bounded maximiser (modes.brent_max) between the neighbours of
    an interior grid maximum, one map per step. Returns (value, argmax
    time); the value is never below the grid maximum.
    """
    return lockstep(dyn, [change_search(dyn, t_start, t_end, n_grid)])[0]


def doubling_search(dyn, t_start, t_end, n_grid=33):
    """sup_{t in [t_start, t_end/2]} ||e^{tL} - e^{2tL}||, the doubling-change
    variant that may tighten the thresholds, as a search; 0 when the window
    is shorter than its doubled start."""
    if t_end < 2 * t_start:
        return 0.0
    vals, k, _, v_ref = yield from _refined_sup(
        lambda t: dyn.distance(t, 2 * t), lambda t: ("pair", t, 2 * t),
        _window_grid(t_start, t_end / 2.0, n_grid))
    return float(max(vals[k], v_ref))


def state_change_measure(dyn, rho0, t_start, t_end, n_grid=33):
    """Windowed trace-norm change of the quantum trajectory from rho0."""
    ts = _window_grid(t_start, t_end, n_grid)
    v0 = dyn.evolution_matrix(t_start) @ vec(rho0)
    vals = [trace_norm((dyn.evolution_matrix(t) @ vec(rho0) - v0)
                       .reshape(dyn.dim, dyn.dim, order="F")) for t in ts]
    return float(np.max(vals))


def observable_average_change(dyn, rho0, obs, t_start, t_end, n_grid=129):
    """Windowed change of Tr(obs rho_t), normalized by the observable max norm."""
    ts = _window_grid(t_start, t_end, n_grid)
    w = vec(obs.conj().T)
    traj = [np.vdot(w, dyn.evolution_matrix(t) @ vec(rho0)).real for t in ts]
    return float((np.max(traj) - np.min(traj)) / max_norm(obs))


def crossing_scan_step(dyn):
    """Scan step for first crossings of the distance to the identity: 1/40 of
    the fastest decay time, capped at 0.35 / max |Im lambda| so that the scan
    resolves the fastest oscillation."""
    step = decay_time(dyn.fastest_decay_rate()) / 40.0
    if dyn.max_imag() > 0:
        step = min(step, 0.35 / dyn.max_imag())
    return step


def identity_sure_time(dyn, target):
    """A time up to which the distance to the identity lies below target.

    By contractivity ||E(t) - I|| <= t ||L||, and the induced norm ||L||
    is at most sqrt(D) times the spectral norm of the generator matrix
    (||x||_2 <= ||x||_1 <= sqrt(D) ||x||_2 on the state space). The factor
    1 - 1e-6 keeps computed distances clear of round-off."""
    return (1.0 - 1e-6) * target / (
        math.sqrt(dyn.dim) * np.linalg.norm(dyn.generator_matrix(), 2))


def _generator_check(dyn, message):
    """The search that opens timescale_search: it requests the generator,
    then raises TrivialDynamicsError(message) on a generator norm of at
    most 1e-14."""
    yield [("gen",)]
    if dyn.liouvillian_norm() <= 1e-14:
        raise TrivialDynamicsError(message)


def identity_crossing(dyn, target, span):
    """First crossing of the distance to the identity with target, up to
    span times the fastest decay time, as a search: a crossing scan whose
    first request holds every scan point before identity_sure_time. The
    scan starts from ||E(0) - I|| = 0, taken as 0: the map at t = 0 is never
    requested, since its norm would be round-off alone."""
    return (yield from keyed(lambda t: ("ident", t) if t else None, crossing(
        lambda t: dyn.distance_to_identity(t) if t else 0.0, target,
        span * decay_time(dyn.fastest_decay_rate()), crossing_scan_step(dyn),
        identity_sure_time(dyn, target))))


def _tau_0_search(dyn, target):
    """The shortest timescale as a search: crossing scans up to 1.05 times
    the fastest decay time, then twice that, and so on up to 64 times, until
    one locates a crossing. The first request holds the identity-stationary
    map, which decides whether the distance reaches the target, and on
    decaying dynamics the first scan's first request. Returns (tau_0,
    residual), or (None, why it is absent)."""
    f = dyn.distance_to_identity
    scans = (identity_crossing(dyn, target, 1.05 * 2 ** j) for j in range(7))
    request = [("ident-stat",)]
    if dyn.fastest_decay_rate() > 0:
        scan = next(scans)
        request.extend(next(scan))
        scans = itertools.chain([scan], scans)
    yield request
    if dyn.stationary_distance() < target - 1e-12:
        return None, ("distance to identity saturates at %.6g < 1 - 1/e"
                      % dyn.stationary_distance())
    for scan in scans:
        tau = yield from scan
        if tau is not None:
            return tau, abs(f(tau) - target)
    return None, "no crossing of 1 - 1/e located"


def _tau_ss_search(dyn, target):
    """The final relaxation time as a search: a doubling bracket of the
    distance to the stationary projection from 1 / (slowest decay rate),
    then zeroin. The first request holds the distance at t = 0 and, on
    decaying dynamics, the first probe. Returns (tau_ss, residual), or
    (None, why it is absent)."""
    f = dyn.distance_to_stationary
    rate = dyn.slowest_decay_rate()
    request = [("stat", 0.0)]
    if rate > 0:
        request.append(("stat", 1.0 / rate))
    yield request
    t_lo = 0.0
    if f(t_lo) <= target:
        return None, "distance to stationary starts at %.6g <= 1/e" % f(t_lo)
    t_hi = decay_time(rate)
    for k in range(40):
        if k:
            yield [("stat", t_hi)]
        if f(t_hi) < target:
            tau = yield from keyed(lambda t: ("stat", t), known_ends_zeroin(
                lambda t: f(t) - target, t_lo, t_hi))
            return tau, abs(f(tau) - target)
        t_lo = t_hi
        t_hi *= 2.0
    return None, ("distance to stationary still %.6g > 1/e at t = %.3g"
                  % (f(t_lo), t_lo))


def timescale_search(dyn, message="timescales require nontrivial dynamics"):
    """timescales as a search, which returns its TimescaleReport.

    The generator check and the tau_0 and tau_ss searches run together. The
    first round holds the generator norm and the two maps that decide
    whether the tau_0 and tau_ss searches run at all, and, on decaying
    dynamics (a positive decay rate), the tau_0 scan's first request and
    the first tau_ss probe. A caller may run independent searches of its
    own in the same lockstep. Raises TrivialDynamicsError(message) when the
    dynamics has no decaying mode (before any request) or a generator norm
    of at most 1e-14 (after the first round), and TrivialDynamicsError on
    an undamped mode (see decay_time) once a search needs its decay time.
    """
    if dyn.m_ss >= dyn.eigenvalues().size:
        raise TrivialDynamicsError(message)
    _, *found = yield from together(dyn, [
        _generator_check(dyn, message), _tau_0_search(dyn, 1.0 - 1.0 / math.e),
        _tau_ss_search(dyn, 1.0 / math.e)])
    report = {"absent": {}}
    for name, (tau, residual) in zip(("tau_0", "tau_ss"), found):
        if tau is None:
            report["absent"][name], residual = residual, None
        report[name], report[name + "_residual"] = tau, residual
    return TimescaleReport(**report)


def timescales(dyn):
    """First crossings defining the shortest and final relaxation timescales.

    The shortest timescale is the first time the distance to the identity
    reaches 1 - 1/e (a crossing scan, since the distance may oscillate, then
    Brent). The final relaxation time is the first time the distance to the
    stationary projection decays to 1/e (monotone: a doubling bracket, then
    Brent). Runs timescale_search: the two searches run together, and
    their first round also holds the generator norm and the two maps that
    decide whether they run at all. The scan's first request holds every
    scan point before identity_sure_time, all of which it evaluates, and
    each request hints SCAN_AHEAD points past them, so on a quantum backend
    up to SCAN_AHEAD - 1 maps past the crossing are evaluated and never
    read; on a saturating branch, so are the first round's scan points and
    probe.
    """
    return lockstep(dyn, [timescale_search(dyn)])[0]


def check_window(t_start, t_end):
    """The rule of every classified or separated window (ValueError)."""
    if not t_end >= 2 * t_start > 0:
        raise ValueError("window must satisfy t_end >= 2 t_start > 0")


def verdict_search(dyn, t_start, t_end, n_grid=33, with_doubling=True):
    """classify_regime as a search: the change measure, the doubling change
    (nan without with_doubling) and the two end distances together, then,
    when the change measure passes the basic cutoff, both distance curves
    over the window grid in one request."""
    check_window(t_start, t_end)
    ts = _window_grid(t_start, t_end, n_grid)
    searches = [grid_change_search(dyn, ts),
                _read([("ident", t_start), ("stat", t_end)])]
    if with_doubling:
        searches.append(doubling_search(dyn, t_start, t_end, n_grid))
    (c_delta, argmax_t), _, *doubling = yield from together(dyn, searches)
    c_doubling = doubling[0] if with_doubling else math.nan
    d_init_start = dyn.distance_to_identity(t_start)
    d_stat_end = dyn.distance_to_stationary(t_end)

    flags = cutoff_flags(c_delta)
    if not flags["basic_cutoff"]:
        return RegimeVerdict(t_start, t_end, c_delta, c_doubling, argmax_t,
                             d_init_start, d_stat_end, math.nan, math.nan,
                             "Indeterminate",
                             {**flags, "gating_cutoff": "1/4"})

    lower, upper = change_thresholds(c_delta)
    first_half = ts <= t_end / 2.0 + 1e-12 * t_end
    yield [(family, t) for family in ("ident", "stat") for t in ts]
    d_init = np.array([dyn.distance_to_identity(t) for t in ts])
    d_stat = np.array([dyn.distance_to_stationary(t) for t in ts])

    up_init = np.where(first_half, upper, upper - c_delta)
    lo_init = np.where(first_half, lower, lower + c_delta)
    up_stat = np.where(first_half, upper, upper - c_delta)

    init_upper_branch = bool(np.all(d_init >= up_init - VERDICT_GUARD))
    init_lower_branch = bool(np.all(d_init <= lo_init + VERDICT_GUARD))
    stat_upper_branch = bool(np.all(d_stat >= up_stat - VERDICT_GUARD))
    stat_lower_branch = bool(np.all(d_stat <= lower + VERDICT_GUARD))

    if init_lower_branch:
        verdict = "Initial"
    elif stat_lower_branch:
        verdict = "Final"
    elif init_upper_branch and stat_upper_branch:
        if flags["initial_tail_cutoff"] and flags["final_tail_cutoff"]:
            verdict = "Metastable"
        else:
            verdict = "Indeterminate"
            flags["gating_cutoff"] = ("(-1+sqrt(2))/2"
                                      if not flags["initial_tail_cutoff"]
                                      else "-2+sqrt(5)")
    else:
        verdict = "Indeterminate"

    return RegimeVerdict(t_start, t_end, c_delta, c_doubling, argmax_t,
                         d_init_start, d_stat_end, lower, upper,
                         verdict, flags)


def classify_regime(dyn, t_start, t_end, n_grid=33, with_doubling=True):
    """Classify a window as Initial / Final / Metastable / Indeterminate.

    The change measure fixes threshold roots (lower, upper); the distance to
    the identity and to the stationary projection must stay within one branch
    of their dichotomies across the window, with the upper thresholds relaxed
    by the change measure on the second half of the window. Cutoff constants
    carry a guard band against discretization of the supremum. Runs
    verdict_search: the change searches and the two end distances advance
    together, then both distance curves are read as one sweep.
    """
    return lockstep(dyn, [verdict_search(dyn, t_start, t_end, n_grid,
                                         with_doubling)])[0]


def scan_metastable(dyn, c_delta_max=0.1, ratio=2.0, grid=None, n_grid=33,
                    n_scan=24, merge=True):
    """Slide windows (t, ratio t) over a grid and return Metastable verdicts.

    Runs scan_search in one lockstep, on n_scan window starts from 1.05
    tau_0 to tau_ss / ratio unless grid gives them. Each window is first
    screened on a coarse grid: one with any distance d(t, s) above
    c_delta_max is dropped without classification. The screen requests
    comparison keys, so a quantum backend stops each such ascent once a
    lower bound exceeds c_delta_max and caches no such map. Windows
    classified Metastable with a change measure above c_delta_max are
    dropped too. Adjacent Metastable windows are merged when the merged span
    still classifies Metastable. Output is ordered by ascending window start.
    """
    if ratio < 2.0:
        raise ValueError("ratio must be at least 2 (pronounced time regime)")
    if not 0.0 <= c_delta_max <= 2.0:
        raise ValueError("c_delta_max must lie in [0, 2], the range of a "
                         "change measure, got %r" % (c_delta_max,))
    if grid is None:
        scales = timescales(dyn)
        if scales.tau_0 is None or scales.tau_ss is None:
            raise TrivialDynamicsError("cannot bracket scan grid without "
                                       "timescales")
        lo = scales.tau_0 * 1.05
        hi = scales.tau_ss / ratio
        if hi <= lo:
            return []
        grid = np.geomspace(lo, hi, n_scan)
    return lockstep(dyn, [scan_search(dyn, grid, c_delta_max, ratio, n_grid,
                                      merge)])[0]


def _screen(dyn, t, ratio, c_delta_max, n_probe):
    """Whether no d(t, s) on the window's probe grid exceeds c_delta_max, as
    a search: one comparison per request, far end first, up to an excess."""
    for s in _window_grid(t, ratio * t, n_probe)[::-1]:
        yield [("above", c_delta_max, t, s)]
        if dyn.exceeds(t, s, c_delta_max):
            return False
    return True


def _merge_search(dyn, run, c_delta_max, n_grid):
    """A run of adjacent verdicts merged greedily, as a search: a window
    grows while the merged span stays Metastable within the budget."""
    merged, i = [], 0
    while i < len(run):
        best, i = run[i], i + 1
        while i < len(run):
            span = yield from verdict_search(dyn, best.t_start, run[i].t_end,
                                             n_grid, with_doubling=False)
            if span.verdict != "Metastable" or span.c_delta > c_delta_max:
                break
            best, i = span, i + 1
        merged.append(best)
    return merged


def scan_search(dyn, grid, c_delta_max=0.1, ratio=2.0, n_grid=33, merge=True):
    """scan_metastable on the window starts grid, as a search in four
    phases that each run one search per window or run together: the
    screens, the verdicts of the windows that pass, the merges of each run
    of adjacent hits, and the final windows' doubling changes. A distance depends on its
    arguments alone (fixed restart seeds), so neither the batching nor the
    order changes any value a later analysis computes."""
    grid = np.sort(np.asarray(grid, dtype=float))
    n_probe = max(7, n_grid // 2)
    passed = yield from together(dyn, [
        _screen(dyn, t, ratio, c_delta_max, n_probe) for t in grid])
    alive = [i for i, ok in enumerate(passed) if ok]
    verdicts = yield from together(dyn, [
        verdict_search(dyn, grid[i], ratio * grid[i], n_grid,
                       with_doubling=False) for i in alive])
    hits = [(i, v) for i, v in zip(alive, verdicts)
            if v.verdict == "Metastable" and v.c_delta <= c_delta_max]
    if not merge:
        return [v for _, v in hits]
    runs = [[v for _, (_, v) in run] for _, run in itertools.groupby(
        enumerate(hits), lambda hit: hit[1][0] - hit[0])]
    merged = yield from together(dyn, [
        _merge_search(dyn, run, c_delta_max, n_grid) for run in runs])
    final = [v for run in merged for v in run]
    doubling = yield from together(dyn, [
        doubling_search(dyn, v.t_start, v.t_end, n_grid) for v in final])
    return [replace(v, c_delta2=c2) for v, c2 in zip(final, doubling)]


def _onset_search(dyn, t_start, t_end, target):
    """The onset of the long-time dynamics as a search: a geometric bracket
    of the distance to the window start map from t_start, its probes
    requested SCAN_AHEAD at a time, then zeroin.

    After a metastable window the distance grows essentially monotonically
    (fast-mode wiggles are bounded by the in-window change), so the bracket
    locates the crossing."""
    f = lambda t: dyn.distance(t_start, t) - target
    pair = lambda t: ("pair", t_start, t)
    t_lo, f_lo = t_start, f(t_start)
    horizon = max(t_end, 2 * t_start)
    for _ in range(80):
        probes = np.geomspace(t_lo, horizon, 24)[1:].tolist()
        for j, t_hi in enumerate(probes):
            if j % SCAN_AHEAD == 0:
                yield map(pair, probes[j:j + SCAN_AHEAD])
            f_hi = f(t_hi)
            if f_lo * f_hi <= 0.0:
                return (yield from keyed(pair, known_ends_zeroin(f, t_lo,
                                                                 t_hi)))
            t_lo, f_lo = t_hi, f_hi
        horizon *= 8.0
        if horizon > 1e9 * t_start:
            break
        # give up early when the distance, below the target since t_start
        # (f_lo < 0), can no longer reach it
        yield [("stat", t_lo), ("stat", t_start)]
        if dyn.distance_to_stationary(t_lo) \
                + dyn.distance_to_stationary(t_start) < target - 1e-9:
            break
    return None


def relaxation_search(dyn, t_start, t_end, c_delta):
    """relaxation_times as a search: the crossing scan and the onset search
    (_onset_search) together. Raises its ValueErrors before any request."""
    if not t_end > t_start > 0:
        raise ValueError("relaxation times require a window with "
                         "t_end > t_start > 0")
    if c_delta > CUTOFF_RELAXATION:
        raise ValueError("relaxation times require c_delta <= (1 - 1/e)/e")
    lower, _ = change_thresholds(c_delta)
    step = t_start / 50.0
    if dyn.max_imag() > 0:
        step = min(step, 0.35 / dyn.max_imag())
    # distance decreases from ~d_I(t_start) towards 0 at t -> t_start
    scan = crossing(lambda t: dyn.distance(t_start, t), 1.0 / math.e - lower,
                    t_max=t_start, step=step)
    onset = _onset_search(dyn, t_start, t_end, 1.0 - 1.0 / math.e - lower)
    tau_dprime, tau_prime = yield from together(
        dyn, [keyed(lambda t: ("pair", t_start, t), scan), onset])
    return (None if tau_dprime is None else float(tau_dprime),
            None if tau_prime is None else float(tau_prime))


def relaxation_times(dyn, t_start, t_end, c_delta):
    """Initial relaxation time and the onset time of the long-time dynamics.

    The first is the shortest time at which the distance to the window start
    map reaches 1/e - lower threshold; the second the shortest t >= t_start
    at which it reaches 1 - 1/e - lower threshold. The first is found by a
    crossing scan, then Brent; the second by a geometric bracket, then
    Brent (_onset_search). Runs relaxation_search: the two searches run
    together, and both hint SCAN_AHEAD points per request. Requires a
    window t_end > t_start > 0 and the change measure to be below the
    relaxation cutoff.
    """
    return lockstep(dyn, [relaxation_search(dyn, t_start, t_end, c_delta)])[0]


def distinguishability_bounds(c_delta):
    """Holevo-Helstrom error floor and Fuchs-van de Graaf fidelity bracket
    for states separated by at most c_delta in trace norm."""
    min_error = 0.5 - c_delta / 4.0
    fidelity_low = 1.0 - c_delta / 2.0
    fidelity_high = 1.0 - (c_delta / 2.0) ** 2
    return min_error, fidelity_low, fidelity_high
