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

from .modes import bracketed_root, change_thresholds, first_crossing
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
    from it. Subclasses supply only the dynamics (_evolve, generator_matrix)
    and the norm (norm_result, exact or a lower bound). Evolution matrices
    and norm values are cached, the latter keyed by the matrix expression,
    so repeated grid sweeps are cheap.
    """

    def __init__(self, spectral, identity):
        self.spectral = spectral
        self.dim = spectral.dim
        self._eye = identity
        self._norm_cache = {}
        self._evo_cache = {}
        self._warm_cache = {}

    # --- supplied by subclasses ------------------------------------------------
    def _evolve(self, t):
        raise NotImplementedError

    def generator_matrix(self):
        raise NotImplementedError

    def norm_result(self, M, warm=None):
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
        E = self._evo_cache.get(t)
        if E is None:
            E = self._evo_cache[t] = self._evolve(t)
        return E

    def identity_matrix(self):
        return self._eye

    def stationary_matrix(self):
        return self.slow_projector_matrix(self.m_ss)

    def slow_projector_matrix(self, m):
        return self.spectral.projector_matrix(m)

    def matrix_norm(self, M, warm=None):
        """Induced norm of an arbitrary map matrix (exact or lower bound)."""
        return self.norm_result(M, warm=warm).value

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

        The copy shares the spectrum but starts with empty caches, so norms
        and warm starts computed under P never reach this backend.
        """
        view = copy.copy(self)
        view._norm_cache, view._warm_cache, view._evo_cache = {}, {}, {}
        view.stationary_matrix = lambda: P
        return view

    # --- derived quantities ---------------------------------------------------
    def _family_warm(self, family):
        """Warm-start witness for a map family, or None."""
        return None

    def _norm_map(self, key):
        """(matrix, warm start) of the map whose norm the cache key names.

        The single getters and prefetch both build their maps here, so a
        cached value does not depend on which of them computed it. A pair
        key ("pair", t1, t2) has t1 < t2 and names E(t1) - E(t2).
        """
        family, *args = key
        E, I = self.evolution_matrix, self.identity_matrix()
        if family == "pair":
            return E(args[0]) - E(args[1]), None
        if family == "ident":
            return E(args[0]) - I, self._family_warm("ident")
        if family == "stat":
            return (E(args[0]) - self.stationary_matrix(),
                    self._family_warm("stat"))
        if family == "ident-stat":
            return I - self.stationary_matrix(), None
        P = self.slow_projector_matrix(args[0])
        if family == "proj":
            return E(args[1]) - P, None
        if family == "drift":
            return P @ (E(args[1]) - I), None
        if family == "fast":
            return (I - P) @ E(args[1]), None
        if family == "pnorm":
            return P, None
        if family == "ipnorm":
            return I - P, None
        if family == "pgen":
            return P @ self.generator_matrix(), None
        raise KeyError(key)

    def _norm_of(self, key):
        value = self._norm_cache.get(key)
        if value is None:
            M, warm = self._norm_map(key)
            value = self._norm_cache[key] = self.matrix_norm(M, warm=warm)
        return value

    def prefetch(self, keys):
        """Cache hint: evaluate the norms of the uncached keys in one batch.

        keys are norm-cache keys such as ("ident", t), ("proj", m, t) or
        ("pair", t1, t2), the last in either order (equal times name the
        zero distance). Each value equals, bit for bit, the one the single
        getter would compute, so a prefetch never changes a result; it only
        saves per-call overhead for keys that are evaluated later anyway.
        A no-op here and on every backend with exact norms.
        """

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
        result = self._norm_cache.get(("gen",))
        if result is None:
            result = self._norm_cache[("gen",)] = self.norm_result(
                self.generator_matrix())
        return result

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
    alternating optimizer at D >= 3."""

    def __init__(self, model=None, liouvillian=None, spectral=None,
                 zero_tol=None, restarts=None, max_iter=_norms.DEFAULT_MAX_ITER,
                 rel_tol=_norms.DEFAULT_REL_TOL, seed=0):
        if liouvillian is None:
            if model is None:
                raise ValueError("provide a model or a liouvillian")
            liouvillian = build_liouvillian(model)
        super().__init__(
            spectral or spectral_decompose(liouvillian, zero_tol=zero_tol),
            np.eye(liouvillian.dim ** 2, dtype=complex))
        self.model = model
        self.liouvillian = liouvillian
        self.restarts = restarts
        self.max_iter = max_iter
        self.rel_tol = rel_tol
        self.seed = seed

    def _family_warm(self, family):
        """Reference witness of the identity or stationary family.

        Computed once per family at a time fixed by the spectrum, so every
        call in the family starts from the same witness whatever the order of
        calls.
        """
        if family not in self._warm_cache:
            lam = self.spectral.eigenvalues
            witness = None
            if self.spectral.m_ss < lam.size:
                if family == "ident":
                    t_ref = 1.0 / max(-lam.real[-1], 1e-300)
                    M = self.evolution_matrix(t_ref) - self._eye
                else:
                    t_ref = 1.0 / max(-lam.real[self.spectral.m_ss], 1e-300)
                    M = self.evolution_matrix(t_ref) - self.stationary_matrix()
                witness = self.norm_result(M).witness_state
            self._warm_cache[family] = witness
        return self._warm_cache[family]

    def _evolve(self, t):
        return self.spectral.evolution_matrix(t)

    def generator_matrix(self):
        return self.liouvillian.matrix

    def norm_result(self, M, warm=None):
        return _norms._induced_norm_matrix(
            M, self.dim, restarts=self.restarts, max_iter=self.max_iter,
            rel_tol=self.rel_tol, seed=self.seed, warm=warm)

    def prefetch(self, keys):
        # the qubit norm is an exact closed form; the ascent runs at D >= 3
        if self.dim < 3:
            return
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
            return
        maps = [self._norm_map(key) for key in todo]
        results = _norms._alternating_ascents(
            [M for M, _ in maps], self.dim, restarts=self.restarts,
            max_iter=self.max_iter, rel_tol=self.rel_tol, seed=self.seed,
            warms=[warm for _, warm in maps])
        for key, res in zip(todo, results):
            self._norm_cache[key] = res.value

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


def _golden_refine(f, a, b, rel_tol=1e-6, max_iter=80):
    """Golden-section maximization of f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if (b - a) <= rel_tol * max(abs(a), abs(b), 1e-300):
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


def _golden_path(a, b, rel_tol=1e-6, max_iter=80):
    """The points _golden_refine(f, a, b) visits, in order, when f rises
    across them: a replay of its own arithmetic with a rising stand-in f."""
    path = []

    def rising(t):
        path.append(t)
        return len(path)

    _golden_refine(rising, a, b, rel_tol=rel_tol, max_iter=max_iter)
    return path


def _refined_sup(dyn, f, key, ts, rel_tol=1e-6):
    """f on the grid ts, and its golden-section refinement around the grid
    maximum. Returns (grid values, argmax index, refined t, refined value).

    f(t) is the backend norm under the cache key key(t), so the grid is
    prefetched as one batch. When the grid maximum is the last point, the
    points the refinement visits if f keeps rising (_golden_path) are
    prefetched too; the refinement then reads them from the cache and
    evaluates singly from the first point the prediction missed, so no
    value depends on the prediction.
    """
    dyn.prefetch([key(t) for t in ts])
    vals = [f(t) for t in ts]
    k = int(np.argmax(vals))
    a = ts[max(0, k - 1)]
    b = ts[min(len(ts) - 1, k + 1)]
    if k == len(ts) - 1:
        dyn.prefetch([key(t) for t in _golden_path(a, b, rel_tol)])
    t_ref, v_ref = _golden_refine(f, a, b, rel_tol=rel_tol)
    return vals, k, t_ref, v_ref


def change_measure(dyn, t_start, t_end, n_grid=33, refine_rel_tol=1e-6):
    """Windowed change sup_{t in [t_start, t_end]} ||e^{t_start L} - e^{t L}||.

    Contractivity reduces the pair supremum to distances from the window
    start. Evaluated on a log grid (one batched sweep at D >= 3), then
    refined by golden section around the grid maximum. Returns (value,
    argmax time).
    """
    if t_end < t_start:
        raise ValueError("window end before start")
    if t_end == t_start:
        return 0.0, t_start
    ts = _window_grid(t_start, t_end, n_grid)
    vals, k, t_ref, v_ref = _refined_sup(
        dyn, lambda t: dyn.distance(t_start, t),
        lambda t: ("pair", t_start, t), ts, rel_tol=refine_rel_tol)
    if v_ref >= vals[k]:
        return float(v_ref), float(t_ref)
    return float(vals[k]), float(ts[k])


def change_measure_doubling(dyn, t_start, t_end, n_grid=33):
    """sup_{t in [t_start, t_end/2]} ||e^{tL} - e^{2tL}||, the doubling-change
    variant that may tighten the thresholds."""
    if t_end < 2 * t_start:
        return 0.0
    ts = _window_grid(t_start, t_end / 2.0, n_grid)
    vals, k, _, v_ref = _refined_sup(
        dyn, lambda t: dyn.distance(t, 2 * t), lambda t: ("pair", t, 2 * t),
        ts)
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


def timescales(dyn, t_probe_max=None):
    """First crossings defining the shortest and final relaxation timescales.

    The shortest timescale is the first time the distance to the identity
    reaches 1 - 1/e (first_crossing: a scan, since the distance may
    oscillate, then Brent). The final relaxation time is the first time the
    distance to the stationary projection decays to 1/e (monotone: a
    doubling bracket, then bracketed_root).
    """
    lam = dyn.eigenvalues()
    if dyn.liouvillian_norm() <= 1e-14 or dyn.m_ss >= lam.size:
        raise TrivialDynamicsError("timescales require nontrivial dynamics")

    target_0 = 1.0 - 1.0 / math.e
    absent = {}
    tau_0 = tau_ss = None
    res_0 = res_ss = None

    if dyn.stationary_distance() < target_0 - 1e-12:
        absent["tau_0"] = ("distance to identity saturates at %.6g < 1 - 1/e"
                           % dyn.stationary_distance())
    else:
        # guaranteed crossing before 1/(fastest decay rate)
        t_hi = 1.0 / dyn.fastest_decay_rate() if t_probe_max is None else t_probe_max
        step = t_hi / 40.0
        if dyn.max_imag() > 0:
            step = min(step, 0.35 / dyn.max_imag())
        f = dyn.distance_to_identity
        t_cross = None
        t_top = t_hi
        while t_cross is None and t_top <= 64 * t_hi:
            t_cross = first_crossing(f, target_0, t_max=1.05 * t_top,
                                     step=step)
            t_top *= 2
        if t_cross is None:
            absent["tau_0"] = "no crossing of 1 - 1/e located"
        else:
            tau_0 = float(t_cross)
            res_0 = abs(f(tau_0) - target_0)

    target_ss = 1.0 / math.e
    t_lo = 0.0
    d_lo = dyn.distance_to_stationary(0.0)
    if d_lo <= target_ss:
        absent["tau_ss"] = "distance to stationary starts at %.6g <= 1/e" % d_lo
    else:
        t_hi = 1.0 / dyn.slowest_decay_rate()
        bracketed = False
        for _ in range(40):
            if dyn.distance_to_stationary(t_hi) < target_ss:
                bracketed = True
                break
            t_lo = t_hi
            t_hi *= 2.0
        if not bracketed:
            absent["tau_ss"] = ("distance to stationary still %.6g > 1/e at "
                                "t = %.3g" % (dyn.distance_to_stationary(t_lo),
                                              t_lo))
        else:
            tau_ss = bracketed_root(
                lambda t: dyn.distance_to_stationary(t) - target_ss, t_lo, t_hi)
            res_ss = abs(dyn.distance_to_stationary(tau_ss) - target_ss)

    return TimescaleReport(tau_0=tau_0, tau_ss=tau_ss,
                           tau_0_residual=res_0, tau_ss_residual=res_ss,
                           absent=absent)


def classify_regime(dyn, t_start, t_end, n_grid=33, guard=VERDICT_GUARD,
                    with_doubling=True):
    """Classify a window as Initial / Final / Metastable / Indeterminate.

    The change measure fixes threshold roots (lower, upper); the distance to
    the identity and to the stationary projection must stay within one branch
    of their dichotomies across the window, with the upper thresholds relaxed
    by the change measure on the second half of the window. Cutoff constants
    carry a guard band against discretization of the supremum. The grids of
    both distances are prefetched as one sweep (batched at D >= 3).
    """
    if not t_end >= 2 * t_start > 0:
        raise ValueError("window must satisfy t_end >= 2 t_start > 0")
    c_delta, argmax_t = change_measure(dyn, t_start, t_end, n_grid=n_grid)
    c_doubling = change_measure_doubling(dyn, t_start, t_end, n_grid=n_grid) \
        if with_doubling else math.nan
    d_init_start = dyn.distance_to_identity(t_start)
    d_stat_end = dyn.distance_to_stationary(t_end)

    flags = {
        "basic_cutoff": c_delta < CUTOFF_BASIC - guard,
        "initial_tail_cutoff": c_delta < CUTOFF_INITIAL_TAIL - guard,
        "final_tail_cutoff": c_delta < CUTOFF_FINAL_TAIL - guard,
        "relaxation_cutoff": c_delta <= CUTOFF_RELAXATION - guard,
        "linear_growth_cutoff": c_delta <= CUTOFF_LINEAR_GROWTH - guard,
    }

    if not flags["basic_cutoff"]:
        return RegimeVerdict(t_start, t_end, c_delta, c_doubling, argmax_t,
                             d_init_start, d_stat_end, math.nan, math.nan,
                             "Indeterminate",
                             {**flags, "gating_cutoff": "1/4"})

    lower, upper = change_thresholds(c_delta)
    ts = _window_grid(t_start, t_end, n_grid)
    first_half = ts <= t_end / 2.0 + 1e-12 * t_end
    dyn.prefetch([(family, t) for family in ("ident", "stat") for t in ts])
    d_init = np.array([dyn.distance_to_identity(t) for t in ts])
    d_stat = np.array([dyn.distance_to_stationary(t) for t in ts])

    up_init = np.where(first_half, upper, upper - c_delta)
    lo_init = np.where(first_half, lower, lower + c_delta)
    up_stat = np.where(first_half, upper, upper - c_delta)

    init_upper_branch = bool(np.all(d_init >= up_init - guard))
    init_lower_branch = bool(np.all(d_init <= lo_init + guard))
    stat_upper_branch = bool(np.all(d_stat >= up_stat - guard))
    stat_lower_branch = bool(np.all(d_stat <= lower + guard))

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
    windows, one prefetch (a batched ascent at D >= 3) per round for the
    next distance of every window still within budget; the windows that
    pass are then classified in grid order. Windows classified Metastable
    with a change measure above c_delta_max are dropped too. Adjacent
    Metastable windows are merged when the merged span still classifies
    Metastable. Output is ordered by ascending window start.
    """
    if ratio < 2.0:
        raise ValueError("ratio must be at least 2 (pronounced time regime)")
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
    # arguments alone (no warm start, fixed restart seeds), so neither the
    # batching nor the order changes any value a later analysis computes
    n_probe = max(7, n_grid // 2)
    probes = [_window_grid(t, ratio * t, n_probe)[::-1] for t in grid]
    alive = range(len(grid))
    for k in range(n_probe):
        dyn.prefetch([("pair", grid[i], probes[i][k]) for i in alive])
        alive = [i for i in alive
                 if not dyn.distance(grid[i], probes[i][k]) > c_delta_max]
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


def relaxation_times(dyn, t_start, t_end, c_delta):
    """Initial relaxation time and the onset time of the long-time dynamics.

    The first is the shortest time at which the distance to the window start
    map reaches 1/e - lower threshold; the second the shortest t >= t_start
    at which it reaches 1 - 1/e - lower threshold. The first is found by
    first_crossing (a scan, then Brent), the second by a geometric bracket
    and bracketed_root. Requires the change measure to be below the
    relaxation cutoff.
    """
    if c_delta > CUTOFF_RELAXATION:
        raise ValueError("relaxation times require c_delta <= (1 - 1/e)/e")
    lower, _ = change_thresholds(c_delta)
    f = lambda t: dyn.distance(t_start, t)

    target_d = 1.0 / math.e - lower
    step = t_start / 50.0
    if dyn.max_imag() > 0:
        step = min(step, 0.35 / dyn.max_imag())
    # distance decreases from ~d_I(t_start) towards 0 at t -> t_start
    tau_dprime = first_crossing(f, target_d, t_max=t_start, step=step)

    target_p = 1.0 - 1.0 / math.e - lower
    # after a metastable window the distance grows essentially monotonically
    # (fast-mode wiggles are bounded by the in-window change), so a geometric
    # bracket plus bracketed_root locates the crossing
    tau_prime = None
    t_lo, f_lo = t_start, f(t_start) - target_p
    horizon = max(t_end, 2 * t_start)
    for _ in range(80):
        probes = np.geomspace(t_lo, horizon, 24)[1:]
        for t_hi in probes:
            f_hi = f(float(t_hi)) - target_p
            if f_lo * f_hi <= 0.0:
                tau_prime = bracketed_root(lambda t: f(t) - target_p,
                                           t_lo, float(t_hi))
                break
            t_lo, f_lo = float(t_hi), f_hi
        if tau_prime is not None:
            break
        horizon *= 8.0
        if horizon > 1e9 * t_start:
            break
        # give up early when the distance can no longer reach the target
        if f_lo < 0 and dyn.distance_to_stationary(t_lo) \
                + dyn.distance_to_stationary(t_start) < target_p - 1e-9:
            break
    return (None if tau_dprime is None else float(tau_dprime),
            None if tau_prime is None else float(tau_prime))


def distinguishability_bounds(c_delta):
    """Holevo-Helstrom error floor and Fuchs-van de Graaf fidelity bracket
    for states separated by at most c_delta in trace norm."""
    min_error = 0.5 - c_delta / 4.0
    fidelity_low = 1.0 - c_delta / 2.0
    fidelity_high = 1.0 - (c_delta / 2.0) ** 2
    return min_error, fidelity_low, fidelity_high
