"""Operational regime analysis: distances to the initial and asymptotic
limits, the windowed change measure, timescales, and metastability verdicts.

Everything is phrased against an abstract dynamics backend so that the same
machinery runs on quantum models (induced trace norms: exact for qubits,
from the alternating optimizer above) and on classical rate matrices (exact
l1-induced norms).
"""
import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .modes import (SCAN_AHEAD, change_thresholds, crossing,
                    known_ends_zeroin)
from . import norms as _norms
from .operators import max_norm, trace_norm
from .superop import build_liouvillian, spectral_decompose, vec

# cutoff constants of the verdict logic, with their governing condition
CUTOFF_BASIC = 0.25                     # threshold roots exist
CUTOFF_INITIAL_TAIL = (-1.0 + math.sqrt(2.0)) / 2.0   # 0.2071..., d_I dichotomy on (t'/2, t']
CUTOFF_FINAL_TAIL = -2.0 + math.sqrt(5.0)             # 0.2360..., d_ss dichotomy on (t'/2, t']
CUTOFF_RELAXATION = (1.0 - 1.0 / math.e) / math.e     # 0.2325..., relaxation-time definitions
CUTOFF_LINEAR_GROWTH = (3.0 * math.log(1.5) - 1.0) / 2.0  # 0.1082..., growth-inverse domain
VERDICT_GUARD = 1e-4
# evolution matrices a backend keeps, least recently used evicted first
EVO_CACHE_SIZE = 256
# relative bracket width at which a golden-section refinement stops
GOLDEN_REL_TOL = 1e-6


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
    Subclasses supply the generator matrix and the norm (norm_result, exact
    or a lower bound). Evolution matrices, slow projectors and norm values
    are cached, the last keyed by the matrix expression, so repeated grid
    sweeps are cheap; the evolution cache keeps the EVO_CACHE_SIZE most
    recently used times. The generator's InducedNormResult is kept apart,
    computed once. unconverged_keys holds the cache keys (and ("gen",) for
    the generator) whose lower bound stopped at the iteration cap before
    converging.
    """

    def __init__(self, spectral, identity):
        self.spectral = spectral
        self.dim = spectral.dim
        self._eye = identity
        self._norm_cache = {}
        self._generator_norm = None
        self._evo_cache = {}
        self._projectors = {}
        self.unconverged_keys = set()

    def _evolve(self, t):
        return self.spectral.evolution_matrix(t)

    # --- supplied by subclasses ------------------------------------------------
    def generator_matrix(self):
        raise NotImplementedError

    def norm_result(self, M):
        """InducedNormResult of an arbitrary map matrix."""
        raise NotImplementedError

    def random_observable(self, rng):
        """Random Hermitian observable (or classical f vector), unit max norm."""
        raise NotImplementedError

    def correlator_matrix(self, obs):
        """Matrix of the measurement superoperator encoding obs correlations."""
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

    def matrix_norm(self, M):
        """Induced norm of an arbitrary map matrix (exact or lower bound)."""
        return self.norm_result(M).value

    def matrix_norms(self, Ms):
        """matrix_norm of each matrix in Ms, batched on a quantum backend;
        each value equals matrix_norm's bit for bit."""
        return [self.matrix_norm(M) for M in Ms]

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
        view._norm_cache, view._evo_cache = {}, {}
        view.unconverged_keys = self.unconverged_keys & {("gen",)}
        view.stationary_matrix = lambda: P
        return view

    # --- derived quantities ---------------------------------------------------
    def _norm_map(self, key):
        """Matrix of the map whose norm the cache key names.

        The single getters and prefetch both build their maps here, so a
        cached value does not depend on which of them computed it. A pair
        key ("pair", t1, t2) has t1 < t2 and names E(t1) - E(t2).
        """
        family, *args = key
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
        value = self._norm_cache.get(key)
        if value is None:
            value = self._norm_cache[key] = self.matrix_norm(
                self._norm_map(key))
        return value

    def prefetch(self, keys):
        """Cache hint: evaluate the norms of the uncached keys in one batch.

        keys is an iterable, read at most once, of norm-cache keys such as
        ("ident", t), ("proj", m, t) or ("pair", t1, t2), the last in either
        order (equal times name the zero distance). Each value equals, bit for bit, the one the single
        getter would compute, so a prefetch never changes a result; it only
        saves per-call overhead for keys that are evaluated later anyway,
        with one exception: the look-ahead of a crossing search (see
        modes.crossing) may hint up to SCAN_AHEAD - 1 keys past its
        crossing, which are evaluated and never read. A caller that only
        compares distances with a threshold asks exceeds instead.
        A no-op here, and so on the classical backend, whose exact l1 norm has
        no per-call overhead to save; a quantum backend evaluates the keys
        in one norm call at every D.
        """

    def exceeds(self, pairs, threshold):
        """Whether distance(t1, t2) > threshold, for each (t1, t2) of pairs.

        The answer is always that comparison. Here, and so on the classical
        backend, it is made on the distances themselves; a quantum backend
        evaluates the uncached pairs in one norm call that may stop a map
        early, once a lower bound on its norm settles the answer.
        """
        return [self.distance(t1, t2) > threshold for t1, t2 in pairs]

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
            self._generator_norm = self.norm_result(self.generator_matrix())
            if not self._generator_norm.converged:
                self.unconverged_keys.add(("gen",))
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
    alternating optimizer at D >= 3, through one dispatcher
    (norms._induced_norms) for single maps and prefetched batches alike."""

    def __init__(self, model=None, liouvillian=None, spectral=None, seed=0):
        if liouvillian is None:
            if model is None:
                raise ValueError("provide a model or a liouvillian")
            liouvillian = build_liouvillian(model)
        super().__init__(spectral or spectral_decompose(liouvillian),
                         np.eye(liouvillian.dim ** 2, dtype=complex))
        self.model = model
        self.liouvillian = liouvillian
        self.seed = seed

    def generator_matrix(self):
        return self.liouvillian.matrix

    def norm_result(self, M):
        return _norms._induced_norm_matrix(M, self.dim, seed=self.seed)

    def _store(self, key, result):
        """Cache result's value under key; note the key if the ascent
        stopped before converging."""
        if not result.converged:
            self.unconverged_keys.add(key)
        self._norm_cache[key] = result.value
        return result.value

    def _norm_of(self, key):
        value = self._norm_cache.get(key)
        if value is None:
            value = self._store(key, self.norm_result(self._norm_map(key)))
        return value

    def _evaluate(self, keys, above=None):
        """(key, InducedNormResult) for each uncached key of keys, each
        once, pairs in canonical order and the zero distance left out, from
        one norm call; above is passed on to norms._induced_norms."""
        todo = {}
        for key in keys:
            if key[0] == "pair":
                t1, t2 = key[1:]
                if t1 == t2:
                    continue
                key = ("pair", min(t1, t2), max(t1, t2))
            if key not in self._norm_cache:
                todo[key] = None
        if not todo:
            return []
        # the maps go straight into one stack, without a list of copies
        n = self.dim * self.dim
        Ms = np.empty((len(todo), n, n), dtype=complex)
        for i, key in enumerate(todo):
            Ms[i] = self._norm_map(key)
        return zip(todo, _norms._induced_norms(Ms, self.dim, seed=self.seed,
                                               above=above))

    def prefetch(self, keys):
        for key, res in self._evaluate(keys):
            self._store(key, res)

    def exceeds(self, pairs, threshold):
        # a lower bound above the threshold settles its pair without being
        # the pair's distance: it is neither cached nor flagged, and a later
        # distance() evaluates the map in full. Exact values (D = 2) and
        # values at or below the threshold, full ascents, are cached as a
        # prefetch caches them
        pairs = [(min(t1, t2), max(t1, t2)) for t1, t2 in pairs]
        certified = set()
        for key, res in self._evaluate(
                [("pair",) + pair for pair in pairs], above=threshold):
            if res.value > threshold and not res.exact:
                certified.add(key[1:])
            else:
                self._store(key, res)
        return [pair in certified or self.distance(*pair) > threshold
                for pair in pairs]

    def matrix_norms(self, Ms):
        return [res.value for res in
                _norms._induced_norms(Ms, self.dim, seed=self.seed)]

    def random_observable(self, rng):
        G = rng.normal(size=(self.dim, self.dim)) \
            + 1j * rng.normal(size=(self.dim, self.dim))
        O = (G + G.conj().T) / 2.0
        return O / max_norm(O)

    def observable_max_norm(self, obs):
        return max_norm(obs)

    def correlator_matrix(self, obs):
        return _norms.correlator_superop(obs).matrix


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


def _golden_refine(f, a, b):
    """Golden-section maximization of f on [a, b], at most 80 steps or down
    to a bracket of GOLDEN_REL_TOL relative width."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        if (b - a) <= GOLDEN_REL_TOL * max(abs(a), abs(b), 1e-300):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _refined_sup(f, ts):
    """f on the grid ts, and its golden-section refinement on
    [t_{k-1}, t_{k+1}] around the grid maximum k. Returns (grid values, k,
    refined t, refined value).

    Only an interior maximum is refined. At the first or last grid point the
    grid point is its own refinement: golden section never evaluates the
    bracket's ends, and there it has only ever tied the grid value.
    """
    vals = [f(t) for t in ts]
    k = int(np.argmax(vals))
    if k in (0, len(ts) - 1):
        return vals, k, ts[k], vals[k]
    t_ref, v_ref = _golden_refine(f, ts[k - 1], ts[k + 1])
    return vals, k, t_ref, v_ref


def change_keys(t_start, t_end, n_grid=33):
    """Norm-cache keys of the change_measure grid on [t_start, t_end].

    Like every key helper, a generator: the keys are built only when a
    backend that batches reads them, never on an exact backend."""
    for t in _window_grid(t_start, t_end, n_grid):
        yield ("pair", t_start, t)


def doubling_keys(t_start, t_end, n_grid=33):
    """Norm-cache keys of the change_measure_doubling grid; none when the
    window is shorter than its doubled start."""
    if t_end >= 2 * t_start:
        for t in _window_grid(t_start, t_end / 2.0, n_grid):
            yield ("pair", t, 2 * t)


def verdict_keys(t_start, t_end, n_grid=33, with_doubling=True):
    """Norm-cache keys classify_regime evaluates on every window: the change
    grids and the two end distances."""
    yield from change_keys(t_start, t_end, n_grid)
    if with_doubling:
        yield from doubling_keys(t_start, t_end, n_grid)
    yield ("ident", t_start)
    yield ("stat", t_end)


def curve_keys(t_start, t_end, n_grid=33):
    """Norm-cache keys of the distance curves to the identity and to the
    stationary projection over the window grid, which classify_regime
    evaluates when its change measure passes the basic cutoff."""
    ts = _window_grid(t_start, t_end, n_grid)
    for family in ("ident", "stat"):
        for t in ts:
            yield (family, t)


def cutoff_flags(c_delta):
    """Which cutoffs of the verdict logic a change measure passes."""
    return {
        "basic_cutoff": c_delta < CUTOFF_BASIC - VERDICT_GUARD,
        "initial_tail_cutoff": c_delta < CUTOFF_INITIAL_TAIL - VERDICT_GUARD,
        "final_tail_cutoff": c_delta < CUTOFF_FINAL_TAIL - VERDICT_GUARD,
        "relaxation_cutoff": c_delta <= CUTOFF_RELAXATION - VERDICT_GUARD,
        "linear_growth_cutoff": c_delta <= CUTOFF_LINEAR_GROWTH - VERDICT_GUARD,
    }


def change_measure(dyn, t_start, t_end, n_grid=33):
    """Windowed change sup_{t in [t_start, t_end]} ||e^{t_start L} - e^{t L}||.

    Contractivity reduces the pair supremum to distances from the window
    start. Evaluated on a log grid (one batched sweep), then
    refined by golden section around an interior grid maximum. Returns
    (value, argmax time).
    """
    if t_end < t_start:
        raise ValueError("window end before start")
    if t_end == t_start:
        return 0.0, t_start
    ts = _window_grid(t_start, t_end, n_grid)
    dyn.prefetch(change_keys(t_start, t_end, n_grid))
    vals, k, t_ref, v_ref = _refined_sup(lambda t: dyn.distance(t_start, t),
                                         ts)
    if v_ref >= vals[k]:
        return float(v_ref), float(t_ref)
    return float(vals[k]), float(ts[k])


def change_measure_doubling(dyn, t_start, t_end, n_grid=33):
    """sup_{t in [t_start, t_end/2]} ||e^{tL} - e^{2tL}||, the doubling-change
    variant that may tighten the thresholds."""
    if t_end < 2 * t_start:
        return 0.0
    ts = _window_grid(t_start, t_end / 2.0, n_grid)
    dyn.prefetch(doubling_keys(t_start, t_end, n_grid))
    vals, k, _, v_ref = _refined_sup(lambda t: dyn.distance(t, 2 * t), ts)
    return float(max(vals[k], v_ref))


def state_change_measure(spec, rho0, t_start, t_end, n_grid=33):
    """Windowed trace-norm change of the trajectory started from rho0."""
    ts = _window_grid(t_start, t_end, n_grid)
    v0 = spec.evolution_matrix(t_start) @ vec(rho0)
    vals = [trace_norm((spec.evolution_matrix(t) @ vec(rho0) - v0)
                       .reshape(spec.dim, spec.dim, order="F")) for t in ts]
    return float(np.max(vals))


def observable_average_change(spec, rho0, obs, t_start, t_end, n_grid=129):
    """Windowed change of Tr(obs rho_t), normalized by the observable max norm."""
    ts = _window_grid(t_start, t_end, n_grid)
    w = vec(obs.conj().T)
    traj = [np.vdot(w, spec.evolution_matrix(t) @ vec(rho0)).real for t in ts]
    return float((np.max(traj) - np.min(traj)) / max_norm(obs))


def crossing_scan_step(dyn):
    """Scan step for first crossings of the distance to the identity: 1/40 of
    the fastest decay time, capped at 0.35 / max |Im lambda| so that the scan
    resolves the fastest oscillation."""
    step = (1.0 / dyn.fastest_decay_rate()) / 40.0
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


def lockstep(dyn, searches):
    """Run independent searches together, one prefetch per round.

    searches is a list of (family, search) pairs: search a generator of the
    kind modes.zeroin describes, which yields the times it evaluates next
    and then evaluates them itself, and family the key prefix, such as
    ("ident",) or ("pair", t_start), that makes a time a norm-cache key.
    Each round advances every unfinished search to its next request and
    sends the keys of all requests to one prefetch (one batched norm call
    on a quantum backend, nothing on the classical one). Returns the
    searches' results in order.
    """
    results = [None] * len(searches)
    live = list(enumerate(searches))
    while live:
        requests, waiting = [], []
        for i, (family, search) in live:
            try:
                requests.append((family, next(search)))
                waiting.append((i, (family, search)))
            except StopIteration as stop:
                results[i] = stop.value
        dyn.prefetch(family + (t,) for family, ts in requests for t in ts)
        live = waiting
    return results


def _tau_0_search(dyn, target):
    """The shortest timescale as a search: the crossing scan of the
    distance to the identity up to 1.05 / (fastest decay rate), its range
    doubled until a crossing is located. Returns (tau_0, residual), or
    (None, why it is absent)."""
    f = dyn.distance_to_identity
    if dyn.stationary_distance() < target - 1e-12:
        return None, ("distance to identity saturates at %.6g < 1 - 1/e"
                      % dyn.stationary_distance())
    # guaranteed crossing before 1/(fastest decay rate)
    t_hi = 1.0 / dyn.fastest_decay_rate()
    step = crossing_scan_step(dyn)
    t_sure = identity_sure_time(dyn, target)
    t_top = t_hi
    while t_top <= 64 * t_hi:
        tau = yield from crossing(f, target, 1.05 * t_top, step, t_sure)
        if tau is not None:
            return tau, abs(f(tau) - target)
        t_top *= 2
    return None, "no crossing of 1 - 1/e located"


def _tau_ss_search(dyn, target):
    """The final relaxation time as a search: a doubling bracket of the
    distance to the stationary projection from 1 / (slowest decay rate),
    then zeroin. Returns (tau_ss, residual), or (None, why it is absent)."""
    f = dyn.distance_to_stationary
    t_lo = 0.0
    if f(t_lo) <= target:
        return None, "distance to stationary starts at %.6g <= 1/e" % f(t_lo)
    t_hi = 1.0 / dyn.slowest_decay_rate()
    for _ in range(40):
        yield (t_hi,)
        if f(t_hi) < target:
            tau = yield from known_ends_zeroin(lambda t: f(t) - target,
                                               t_lo, t_hi)
            return tau, abs(f(tau) - target)
        t_lo = t_hi
        t_hi *= 2.0
    return None, ("distance to stationary still %.6g > 1/e at t = %.3g"
                  % (f(t_lo), t_lo))


def timescales(dyn):
    """First crossings defining the shortest and final relaxation timescales.

    The shortest timescale is the first time the distance to the identity
    reaches 1 - 1/e (a crossing scan, since the distance may oscillate, then
    Brent). The final relaxation time is the first time the distance to the
    stationary projection decays to 1/e (monotone: a doubling bracket, then
    Brent). The two searches run in lockstep, after one round for the two
    maps that decide whether they run at all. The scan's first request
    holds every scan point before identity_sure_time, all of which it
    evaluates, and each request hints SCAN_AHEAD points past them, so on a
    quantum backend up to SCAN_AHEAD - 1 maps past the crossing are
    evaluated and never read.
    """
    lam = dyn.eigenvalues()
    if dyn.liouvillian_norm() <= 1e-14 or dyn.m_ss >= lam.size:
        raise TrivialDynamicsError("timescales require nontrivial dynamics")
    dyn.prefetch([("ident-stat",), ("stat", 0.0)])
    found = lockstep(dyn, [(("ident",), _tau_0_search(dyn, 1.0 - 1.0 / math.e)),
                           (("stat",), _tau_ss_search(dyn, 1.0 / math.e))])
    report = {"absent": {}}
    for name, (tau, residual) in zip(("tau_0", "tau_ss"), found):
        if tau is None:
            report["absent"][name], residual = residual, None
        report[name], report[name + "_residual"] = tau, residual
    return TimescaleReport(**report)


def classify_regime(dyn, t_start, t_end, n_grid=33, with_doubling=True):
    """Classify a window as Initial / Final / Metastable / Indeterminate.

    The change measure fixes threshold roots (lower, upper); the distance to
    the identity and to the stationary projection must stay within one branch
    of their dichotomies across the window, with the upper thresholds relaxed
    by the change measure on the second half of the window. Cutoff constants
    carry a guard band against discretization of the supremum. The maps of
    the change grids and end distances are prefetched as one sweep, and so
    are those of both distance curves.
    """
    if not t_end >= 2 * t_start > 0:
        raise ValueError("window must satisfy t_end >= 2 t_start > 0")
    dyn.prefetch(verdict_keys(t_start, t_end, n_grid, with_doubling))
    c_delta, argmax_t = change_measure(dyn, t_start, t_end, n_grid=n_grid)
    c_doubling = change_measure_doubling(dyn, t_start, t_end, n_grid=n_grid) \
        if with_doubling else math.nan
    d_init_start = dyn.distance_to_identity(t_start)
    d_stat_end = dyn.distance_to_stationary(t_end)

    flags = cutoff_flags(c_delta)
    if not flags["basic_cutoff"]:
        return RegimeVerdict(t_start, t_end, c_delta, c_doubling, argmax_t,
                             d_init_start, d_stat_end, math.nan, math.nan,
                             "Indeterminate",
                             {**flags, "gating_cutoff": "1/4"})

    lower, upper = change_thresholds(c_delta)
    ts = _window_grid(t_start, t_end, n_grid)
    first_half = ts <= t_end / 2.0 + 1e-12 * t_end
    dyn.prefetch(curve_keys(t_start, t_end, n_grid))
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


def scan_metastable(dyn, c_delta_max=0.1, ratio=2.0, grid=None, n_grid=33,
                    n_scan=24, merge=True):
    """Slide windows (t, ratio t) over a grid and return Metastable verdicts.

    Each window is first probed on a coarse grid: a window with any distance
    d(t, s) above c_delta_max is dropped without classification, and its
    probe stops at the first such distance. The probe runs in rounds across
    windows, one dyn.exceeds call (a batched norm call) per round for the
    next distance of every window still within budget. It needs only the
    comparison, so a quantum backend stops each probe map's ascent once a
    lower bound exceeds c_delta_max and caches no such map. The windows that
    pass are then classified in grid order. Windows classified Metastable
    with a change measure above c_delta_max are dropped too. Adjacent
    Metastable windows are merged when the merged span still classifies
    Metastable. Output is ordered by ascending window start.
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
    else:
        grid = np.asarray(grid, dtype=float)

    grid = np.sort(grid)

    # far end first, where the distance is usually largest. The maps are
    # those of a window-by-window probe, and a distance depends on its
    # arguments alone (fixed restart seeds), so neither the batching nor the
    # order changes any value a later analysis computes
    n_probe = max(7, n_grid // 2)
    probes = [_window_grid(t, ratio * t, n_probe)[::-1] for t in grid]
    alive = range(len(grid))
    for k in range(n_probe):
        over = dyn.exceeds([(grid[i], probes[i][k]) for i in alive],
                           c_delta_max)
        alive = [i for i, out in zip(alive, over) if not out]
    verdicts = [(i, classify_regime(dyn, grid[i], ratio * grid[i],
                                    n_grid=n_grid, with_doubling=False))
                for i in alive]
    hits = [(i, v) for i, v in verdicts
            if v.verdict == "Metastable" and v.c_delta <= c_delta_max]
    if not hits:
        return []
    if not merge:
        return [v for _, v in hits]

    # merge runs of adjacent grid windows greedily, keeping every reported
    # window Metastable and within the change budget
    out = []
    run = [hits[0]]
    for item in hits[1:]:
        if item[0] == run[-1][0] + 1:
            run.append(item)
        else:
            out.extend(_merge_run(dyn, [v for _, v in run], c_delta_max, n_grid))
            run = [item]
    out.extend(_merge_run(dyn, [v for _, v in run], c_delta_max, n_grid))
    return sorted(out, key=lambda v: v.t_start)


def _merge_run(dyn, run, c_delta_max, n_grid):
    merged = []
    i = 0
    while i < len(run):
        best = run[i]
        j = i + 1
        while j < len(run):
            span = classify_regime(dyn, best.t_start, run[j].t_end,
                                   n_grid=n_grid, with_doubling=False)
            if span.verdict == "Metastable" and span.c_delta <= c_delta_max:
                best = span
                j += 1
            else:
                break
        merged.append(best)
        i = j
    # final windows are reported with the doubling-change variant filled in
    return [classify_regime(dyn, v.t_start, v.t_end, n_grid=n_grid)
            for v in merged]


def _onset_search(dyn, t_start, t_end, target):
    """The onset of the long-time dynamics as a search: a geometric bracket
    of the distance to the window start map from t_start, its probes hinted
    SCAN_AHEAD at a time, then zeroin.

    After a metastable window the distance grows essentially monotonically
    (fast-mode wiggles are bounded by the in-window change), so the bracket
    locates the crossing."""
    f = lambda t: dyn.distance(t_start, t) - target
    t_lo, f_lo = t_start, f(t_start)
    horizon = max(t_end, 2 * t_start)
    for _ in range(80):
        probes = np.geomspace(t_lo, horizon, 24)[1:].tolist()
        for j, t_hi in enumerate(probes):
            if j % SCAN_AHEAD == 0:
                yield probes[j:j + SCAN_AHEAD]
            f_hi = f(t_hi)
            if f_lo * f_hi <= 0.0:
                return (yield from known_ends_zeroin(f, t_lo, t_hi))
            t_lo, f_lo = t_hi, f_hi
        horizon *= 8.0
        if horizon > 1e9 * t_start:
            break
        # give up early when the distance can no longer reach the target
        if f_lo < 0 and dyn.distance_to_stationary(t_lo) \
                + dyn.distance_to_stationary(t_start) < target - 1e-9:
            break
    return None


def relaxation_times(dyn, t_start, t_end, c_delta):
    """Initial relaxation time and the onset time of the long-time dynamics.

    The first is the shortest time at which the distance to the window start
    map reaches 1/e - lower threshold; the second the shortest t >= t_start
    at which it reaches 1 - 1/e - lower threshold. The first is found by a
    crossing scan, then Brent; the second by a geometric bracket, then
    Brent (_onset_search). The two searches run in lockstep, and both hint
    SCAN_AHEAD points per request. Requires the change measure to be below
    the relaxation cutoff.
    """
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
    family = ("pair", t_start)
    tau_dprime, tau_prime = lockstep(dyn, [(family, scan), (family, onset)])
    return (None if tau_dprime is None else float(tau_dprime),
            None if tau_prime is None else float(tau_prime))


def distinguishability_bounds(c_delta):
    """Holevo-Helstrom error floor and Fuchs-van de Graaf fidelity bracket
    for states separated by at most c_delta in trace norm."""
    min_error = 0.5 - c_delta / 4.0
    fidelity_low = 1.0 - c_delta / 2.0
    fidelity_high = 1.0 - (c_delta / 2.0) ** 2
    return min_error, fidelity_low, fidelity_high
