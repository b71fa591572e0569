"""Spectral side of metastability: eigenvalue-change bounds, separation
detection, slow-mode projection error analysis, and the executable battery of
inequalities tying the operational quantities to the spectrum. Every
function reads its spectrum (eigenvalues, m_ss, valid cuts) and its norms
from one dynamics backend, quantum or classical.

Every inequality is evaluated as a row (id, t, lhs, rhs) normalized to the
form lhs <= rhs; failures are data, not exceptions. Rows whose hypotheses do
not hold are emitted as inapplicable so a report never silently drops a
check.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .modes import change_thresholds, linear_growth_inverse
# change_measure, classify_regime, relaxation_times, scan_metastable and
# timescales are unused here, but bench/tracing.py wraps them at every module
# that imported them
from .regimes import (CUTOFF_RELAXATION, change_measure, change_search,
                      classify_regime, grid_change_search, identity_crossing,
                      lockstep, relaxation_search, relaxation_times,
                      scan_metastable, scan_search, timescale_search,
                      timescales, together, verdict_search,
                      TrivialDynamicsError, check_window, _read,
                      _refined_sup, _window_grid)

# tolerance of the separation branch tests on e^{t Re lambda}
SEPARATION_GUARD = 1e-9


class SeparationInconsistencyError(ValueError):
    """An eigenvalue fits neither the initial nor the final branch; usually a
    sign that the measured change is an optimizer underestimate."""

    def __init__(self, k, eigenvalue):
        self.k = k
        self.eigenvalue = eigenvalue
        super().__init__(
            "eigenvalue #%d = %s satisfies neither branch of the separation "
            "dichotomy" % (k, eigenvalue))


def spectrum_change_bound_check(dyn, t1, t2):
    """Margins ||e^{t1 L} - e^{t2 L}|| - |e^{t1 lam_k} - e^{t2 lam_k}| per k.

    All margins are nonnegative up to norm-evaluation error: the dynamics
    changes at least as much as each eigenvalue of the evolution operator.
    """
    lam = dyn.eigenvalues()
    dist = dyn.distance(t1, t2)
    return dist - np.abs(np.exp(t1 * lam) - np.exp(t2 * lam))


@dataclass(frozen=True)
class SeparationReport:
    m: int
    window: tuple
    c_delta: float
    classification: tuple
    ratio_real: float | None
    ratio_real_bound: float | None
    ratio_imag: float | None
    ratio_imag_bound: float | None
    imag_rate_bound: float | None
    slack_initial: float
    slack_final: float
    slack_imag: float | None


def detect_separation(dyn, t_start, t_end, c_delta):
    """Assign every eigenvalue to the initial or final branch of the window.

    Initial branch: e^{t_end Re lam} >= upper_threshold(c)^2; final branch:
    e^{t_start Re lam} <= lower_threshold(c). The cut index m is the unique
    branch boundary consistent with the decreasing-real-part order and with
    conjugate pairs; an unclassifiable eigenvalue raises
    SeparationInconsistencyError.
    """
    check_window(t_start, t_end)
    if not c_delta < 0.25:
        raise ValueError("separation detection requires c_delta < 1/4")
    lam = dyn.eigenvalues()
    lower, upper = change_thresholds(c_delta)
    init_ok = np.exp(t_end * lam.real) >= upper ** 2 - SEPARATION_GUARD
    final_ok = np.exp(t_start * lam.real) <= lower + SEPARATION_GUARD

    for k in range(lam.size):
        if not (init_ok[k] or final_ok[k]):
            raise SeparationInconsistencyError(k, lam[k])

    candidates = [m for m in dyn.valid_cuts()
                  if np.all(init_ok[:m]) and np.all(final_ok[m:])]
    if not candidates:
        # some eigenvalue sits in both regions in a pair-splitting pattern
        k = int(np.argmin(init_ok))
        raise SeparationInconsistencyError(k, lam[k])
    # the smallest consistent cut: eigenvalues that already qualify as final
    # are not dragged into the slow block
    m = candidates[0]
    classification = tuple("initial" if k < m else "final"
                           for k in range(lam.size))
    slack_initial = float(np.min(np.exp(t_end * lam.real[:m]) - upper ** 2)) \
        if m > 0 else math.inf
    slack_final = float(np.min(lower - np.exp(t_start * lam.real[m:]))) \
        if m < lam.size else math.inf

    imag_cap = math.asin(min(1.0, c_delta / upper))
    imag_rate_bound = imag_cap / (t_end - t_start)
    max_imag_slow = float(np.max(np.abs(lam.imag[:m]))) if m > 0 else 0.0
    slack_imag = imag_rate_bound - max_imag_slow

    ratio_real = ratio_real_bound = None
    ratio_imag = ratio_imag_bound = None
    if dyn.m_ss < m < lam.size:
        rate_slow = -lam.real[m - 1]
        rate_fast = -lam.real[m]
        ratio_real = float(rate_slow / rate_fast)
        ratio_real_bound = float((t_start / t_end)
                                 * math.log(upper ** 2) / math.log(lower))
        ratio_imag = float(max_imag_slow / rate_fast)
        ratio_imag_bound = float((t_start / (t_end - t_start))
                                 * imag_cap / (-math.log(lower)))
    return SeparationReport(m=m, window=(t_start, t_end), c_delta=c_delta,
                            classification=classification,
                            ratio_real=ratio_real,
                            ratio_real_bound=ratio_real_bound,
                            ratio_imag=ratio_imag,
                            ratio_imag_bound=ratio_imag_bound,
                            imag_rate_bound=imag_rate_bound,
                            slack_initial=slack_initial,
                            slack_final=slack_final,
                            slack_imag=slack_imag)


@dataclass(frozen=True)
class BoundRow:
    id: str
    t: float
    lhs: float
    rhs: float
    applicable: bool = True
    note: str = ""

    @property
    def slack(self):
        return self.rhs - self.lhs

    def passed(self, tol):
        # a Python bool, also for numpy slacks, so JSON writes true / false
        return bool((not self.applicable) or self.slack >= -tol)


@dataclass(frozen=True)
class SpectralProjectionReport:
    m: int
    window: tuple
    extended_end: float
    c_delta: float
    c_delta_rebound: float
    c_p: float
    p_norm: float
    complement_norm: float
    projected_generator_norm: float
    slow_drift_sup: float
    fast_residual_sup: float
    times: np.ndarray
    proj_distance: np.ndarray
    slow_drift: np.ndarray
    fast_residual: np.ndarray
    condition_checks: dict
    rows: tuple
    contradiction: str | None = None

    def bound_slacks(self):
        out = {}
        for row in self.rows:
            if row.applicable:
                key = row.id
                out[key] = min(out.get(key, math.inf), row.slack)
        return out


def projection_search(dyn, m, t_start, t_end, n_grid=33, tol=1e-8):
    """spectral_projection_report as a search: its change searches, the
    supremum of the projection error and every other map it reads, in one
    lockstep. The window must have t_end > t_start (ValueError)."""
    if not t_end > t_start:
        raise ValueError("window end before start" if t_end < t_start
                         else "zero-length window: t_end must exceed t_start")
    lam = dyn.eigenvalues()
    t_ext = max(t_end, 4.0 * t_start)   # the window extended to 4x its start
    nontrivial_fast = m < lam.size
    nontrivial_slow = m > dyn.m_ss
    ts = _window_grid(t_start, t_ext, n_grid)
    half = [float(t) for t in ts[: max(2, len(ts) // 2)]]
    reads = [(family, m, float(t)) for family in ("drift", "fast")
             for t in ts]
    reads.append(("drift", m, 2.0 * t_start))
    reads += [("fast", m, n * t) for t in half for n in (2, 3)]
    reads += [("pnorm", m), ("ipnorm", m), ("pgen", m)]
    if nontrivial_fast and nontrivial_slow:
        reads += [(family, float(t)) for family in ("ident", "stat")
                  for t in ts]
    searches = [change_search(dyn, t_start, t_end, n_grid),
                _refined_sup(lambda t: dyn.projector_distance(m, t),
                             lambda t: ("proj", m, t), ts),
                _read(reads)]
    if t_ext > t_end:
        searches.append(grid_change_search(dyn, ts))
    (c_orig, _), (proj_vals, k, _, v_ref), _, *extension = \
        yield from together(dyn, searches)
    if extension:
        n_seg = math.ceil((t_ext - t_start) / (t_end - t_start))
        c_rebound = n_seg * c_orig
        c_delta, _ = extension[0]
    else:
        c_rebound = c_orig
        c_delta = c_orig

    proj_sup = float(max(proj_vals[k], v_ref))
    proj_vals = np.asarray(proj_vals)
    drift_vals = np.asarray([dyn.slow_drift(m, float(t)) for t in ts])
    fast_vals = np.asarray([dyn.fast_residual(m, float(t)) for t in ts])
    drift_sup = float(drift_vals.max())
    fast_sup = float(fast_vals.max())
    c_p = proj_sup
    p_norm = dyn.projector_norm(m)
    ip_norm = dyn.complement_norm(m)
    pl_norm = dyn.projected_generator_norm(m)

    rows = []
    add = rows.append

    # triangle decomposition of the projection error, pointwise on the grid
    for t, pv, dv, fv in zip(ts, proj_vals, drift_vals, fast_vals):
        add(BoundRow("C_P_triangle", float(t), float(pv), float(dv + fv)))

    # conditions under which the projection is pinned to the slow modes
    cond = {}
    basic = c_delta < 0.25
    two_c = 2.0 * c_delta < 0.25
    drift_2t = dyn.slow_drift(m, 2.0 * t_start)
    fast_1t = dyn.fast_residual(m, t_start)
    if two_c:
        _, up2 = change_thresholds(2.0 * c_delta)
        cond["slow_drift_cond"] = (drift_2t, up2, bool(drift_2t <= up2 + tol))
    else:
        cond["slow_drift_cond"] = (drift_2t, math.nan, False)
    if basic:
        lo1, up1 = change_thresholds(c_delta)
        cond["fast_residual_cond"] = (fast_1t, up1, bool(fast_1t <= up1 + tol))
    else:
        cond["fast_residual_cond"] = (fast_1t, math.nan, False)
    conds_hold = cond["slow_drift_cond"][2] and cond["fast_residual_cond"][2]

    # dichotomy lower branches at the doubled window start
    long_enough3 = t_ext >= 3.0 * t_start - 1e-12 * t_start
    ip1_ok = p1_ok = False
    if basic and long_enough3 and conds_hold:
        lo1, up1 = change_thresholds(c_delta)
        arg_ip = c_delta * math.sqrt(up1)
        arg_p = c_delta * (1.0 + math.sqrt(up1))
        fast_2t = dyn.fast_residual(m, 2.0 * t_start)
        if arg_ip <= 0.25:
            rhs = change_thresholds(arg_ip)[0]
            add(BoundRow("IP1", 2.0 * t_start, fast_2t, rhs))
            ip1_ok = fast_2t <= rhs + tol
        if arg_p <= 0.25:
            rhs = change_thresholds(arg_p)[0]
            add(BoundRow("P1", 2.0 * t_start, drift_2t, rhs))
            p1_ok = drift_2t <= rhs + tol
    if not (basic and long_enough3 and conds_hold):
        add(BoundRow("IP1", 2.0 * t_start, math.nan, math.nan, applicable=False,
                     note="needs window end >= 3x start, change below 1/4, "
                          "and both pinning conditions"))
        add(BoundRow("P1", 2.0 * t_start, math.nan, math.nan, applicable=False,
                     note="needs window end >= 3x start, change below 1/4, "
                          "and both pinning conditions"))

    # norm of the projection once pinned
    if ip1_ok and p1_ok and two_c:
        lo1, _ = change_thresholds(c_delta)
        lo2, _ = change_thresholds(2.0 * c_delta)
        add(BoundRow("Pnorm2", math.nan, p_norm, 1.0 + lo1 + lo2))
    else:
        add(BoundRow("Pnorm2", math.nan, p_norm, math.nan, applicable=False,
                     note="lower dichotomy branches not established"))

    # weighted dichotomies across the window
    long_enough4 = t_ext >= 4.0 * t_start - 1e-12 * t_start
    w_p = p_norm * c_delta
    w_ip = ip_norm * c_delta
    p_better_ok = long_enough4 and p1_ok and w_p < 0.25
    ip_better_ok = long_enough4 and ip1_ok and w_ip < 0.25
    if p_better_ok:
        lo_w, _ = change_thresholds(w_p)
        for t, v in zip(ts, drift_vals):
            rhs = lo_w if t <= t_ext / 2.0 + 1e-12 * t_ext else lo_w + w_p
            add(BoundRow("P_better", float(t), float(v), rhs))
    else:
        add(BoundRow("P_better", math.nan, math.nan, math.nan, applicable=False,
                     note="needs window end >= 4x start, pinned projection, "
                          "and projector-weighted change below 1/4"))
    if ip_better_ok:
        lo_w, _ = change_thresholds(w_ip)
        for t, v in zip(ts, fast_vals):
            add(BoundRow("IP_better", float(t), float(v), lo_w))
    else:
        add(BoundRow("IP_better", math.nan, math.nan, math.nan, applicable=False,
                     note="needs window end >= 4x start, pinned projection, "
                          "and complement-weighted change below 1/4"))
    if p_better_ok and ip_better_ok:
        rhs = (change_thresholds(w_p)[0] + change_thresholds(w_ip)[0] + c_delta)
        add(BoundRow("C_P_better", math.nan, c_p, rhs))
    else:
        add(BoundRow("C_P_better", math.nan, math.nan, math.nan,
                     applicable=False, note="weighted dichotomies unavailable"))

    # growth of the slow-drift before/through the window
    for t, v in zip(ts, drift_vals):
        x = t * pl_norm
        upper_growth = math.exp(x) - 1.0 if x < 700 else math.inf
        add(BoundRow("0_exp_P", float(t), float(v), upper_growth))
        lower_growth = 2.0 * x - math.exp(x) + 1.0 if x < 700 else -math.inf
        add(BoundRow("0_exp_P_lower", float(t), lower_growth, float(v)))
    growth_max = 1.5 * math.log(1.5) - 0.5
    if w_p <= growth_max and p_better_ok:
        add(BoundRow("P_lin3", math.nan, (t_ext - t_start) * pl_norm,
                     linear_growth_inverse(w_p, 1.5)))
    else:
        add(BoundRow("P_lin3", math.nan, math.nan, math.nan, applicable=False,
                     note="projector-weighted change outside the growth-"
                          "inverse domain or projection not pinned"))

    # decay of the fast residual
    for t in half:
        for n in (2, 3):
            add(BoundRow("ss_exp_P", t, dyn.fast_residual(m, n * t),
                         dyn.fast_residual(m, t) ** n))

    # projection-error versions of the change and distance bounds
    add(BoundRow("C_P3", math.nan, c_delta, 2.0 * c_p))
    for t, v in zip(ts, drift_vals):
        add(BoundRow("C_P_P", float(t), float(v), (1.0 + c_p) * c_p))
    for t, v in zip(ts, fast_vals):
        add(BoundRow("C_P_IP", float(t), float(v), (2.0 + c_p) * c_p))

    contradiction = None
    if nontrivial_fast and nontrivial_slow:
        for t in ts:
            add(BoundRow("dist_0_P", float(t), 1.0 - c_p,
                         dyn.distance_to_identity(float(t))))
            add(BoundRow("dist_ss_P", float(t), 1.0 - c_p,
                         dyn.distance_to_stationary(float(t))))
        if 0.0 < c_p < 1.0:
            add(BoundRow("spectral_P", math.nan, -math.log(c_p),
                         t_start * (-lam.real[m])))
            add(BoundRow("spectral_P", math.nan,
                         t_ext * (-lam.real[m - 1]), -math.log(1.0 - c_p)))
    else:
        which = "all modes" if not nontrivial_fast else "stationary modes only"
        contradiction = ("projection onto %s: the approximation error equals "
                         "the distance curve itself, contradicting the "
                         "distance lower bounds on a metastable window" % which)
        add(BoundRow("dist_0_P", math.nan, math.nan, math.nan, applicable=False,
                     note=contradiction))
        add(BoundRow("dist_ss_P", math.nan, math.nan, math.nan, applicable=False,
                     note=contradiction))
        add(BoundRow("spectral_P", math.nan, math.nan, math.nan,
                     applicable=False, note=contradiction))

    return SpectralProjectionReport(
        m=m, window=(t_start, t_end), extended_end=t_ext, c_delta=c_delta,
        c_delta_rebound=c_rebound, c_p=c_p, p_norm=p_norm,
        complement_norm=ip_norm, projected_generator_norm=pl_norm,
        slow_drift_sup=drift_sup, fast_residual_sup=fast_sup,
        times=np.asarray(ts, dtype=float), proj_distance=proj_vals,
        slow_drift=drift_vals, fast_residual=fast_vals,
        condition_checks=cond, rows=tuple(rows), contradiction=contradiction)


def spectral_projection_report(dyn, m, t_start, t_end, n_grid=33, tol=1e-8):
    """Slow-mode projection error analysis on a window.

    The window is extended to end at 4x its start when shorter (the change
    measure of the extension is recomputed directly and also bounded by the
    linear-extension estimate). All weighted-dichotomy bounds gate on the
    numerically verified conditions rather than on their loosest a-priori
    constants. Runs projection_search: every map known before it starts is
    read as one batched sweep, and the Brent steps (modes.brent_max) of its
    three suprema advance together.
    """
    return lockstep(dyn, [projection_search(dyn, m, t_start, t_end, n_grid,
                                            tol)])[0]


@dataclass(frozen=True)
class BoundBatteryReport:
    rows: tuple
    tol: float
    context: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(row.passed(self.tol) for row in self.rows)

    def failed_rows(self):
        return [row for row in self.rows if not row.passed(self.tol)]

    def failed_ids(self):
        return sorted({row.id for row in self.failed_rows()})

    def applicable_ids(self):
        return sorted({row.id for row in self.rows if row.applicable})

    def csv_rows(self):
        yield ("id", "t", "lhs", "rhs", "slack", "pass")
        for row in self.rows:
            yield (row.id, "%.12g" % row.t, "%.12g" % row.lhs,
                   "%.12g" % row.rhs, "%.12g" % row.slack,
                   "1" if row.passed(self.tol) else "0")


def gap_cut(dyn):
    """Deterministic slow-mode cut at the largest real-part gap; used when no
    separation is detected so the unconditional projection bounds still get
    exercised."""
    lam = dyn.eigenvalues()
    cuts = [m for m in dyn.valid_cuts() if dyn.m_ss <= m < lam.size]
    if not cuts:
        return dyn.m_ss
    return max(cuts, key=lambda m: (lam.real[m - 1] - lam.real[m]
                                    if m > 0 else -lam.real[m], -m))


def default_battery_grid(tau_0, tau_ss):
    """33 log-spaced times from tau_0 / 20 to 2 tau_ss."""
    return np.geomspace(0.05 * tau_0, 2.0 * tau_ss, 33)


def _relaxation_search(dyn, verdict):
    """relaxation_search on the window of verdict when it is Metastable
    below the relaxation cutoff; (None, None) otherwise or on a ValueError."""
    if verdict.verdict == "Metastable" and verdict.c_delta <= CUTOFF_RELAXATION:
        try:
            return (yield from relaxation_search(
                dyn, verdict.t_start, verdict.t_end, verdict.c_delta))
        except ValueError:
            pass
    return None, None


def bound_battery(dyn, grid=None, tol=1e-8, seed=0, window=None, window4=None,
                  n_grid=33, scan_points=16):
    """Evaluate the full inequality battery on one dynamics backend.

    Emits one row per (inequality, evaluation point); a row passes when its
    slack is >= -tol or its hypotheses do not hold (marked inapplicable).
    Runs one lockstep per link of its chain of dependencies: the timescales
    (regimes.timescale_search) and, on decaying dynamics, the two
    exclusion-span crossings; the ratio-2 and ratio-4 window scans
    (regimes.scan_search); once the windows are known, the battery's own
    row maps, the whole ratio-2 verdict (regimes.verdict_search) and the
    change searches of the ratio-4 and the exclusion windows; once those
    fix which rows apply, the projection report with its ratio-4
    extension, the probe rows and, on a metastable ratio-2 window, its
    relaxation times (regimes.relaxation_search). The projection report
    searches the ratio-4 change again, from the cache.
    """
    if not tol >= 0:
        raise ValueError("tol must be non-negative, got %r" % (tol,))
    lam = dyn.eigenvalues()
    # the exclusion windows' lengths at a small accuracy: first crossings of
    # the distance to the identity up to twice the fastest decay time
    accuracies = (0.05, 0.15)
    crossings = [identity_crossing(dyn, c_acc, 2.0) for c_acc in accuracies]
    # the crossings need the fastest decay time: on dynamics that do not
    # decay they run alone, below, after the checks that come first
    decays = dyn.fastest_decay_rate() > 0
    scales, *spans = lockstep(dyn, [timescale_search(
        dyn, "bound battery requires nontrivial dynamics")]
        + (crossings if decays else []))
    gen_norm = dyn.liouvillian_norm()
    tau_0, tau_ss = scales.tau_0, scales.tau_ss

    if grid is None:
        if tau_0 is None or tau_ss is None:
            raise TrivialDynamicsError("cannot build a default grid without "
                                       "both timescales")
        grid = default_battery_grid(tau_0, tau_ss)
    grid = np.asarray(grid, dtype=float)

    span = math.sqrt(tau_0 * tau_ss) if (tau_0 and tau_ss) else float(grid[len(grid) // 2])
    if tau_0 is not None and tau_ss is not None:
        scan2 = np.geomspace(tau_0 * 1.05, max(tau_ss / 2.0, tau_0 * 1.2),
                             scan_points)
        scan4 = np.geomspace(tau_0 * 1.05, max(tau_ss / 4.0, tau_0 * 1.2),
                             scan_points)
    else:
        scan2 = scan4 = np.geomspace(grid[0], grid[-1] / 4.0, scan_points)
    # the window scans that no given window replaces share one lockstep
    scans = [(window, 2.0, CUTOFF_RELAXATION, scan2),
             (window4, 4.0, 0.24, scan4)]
    hits = iter(lockstep(dyn, [
        scan_search(dyn, g, c_max, ratio, max(9, n_grid // 3), merge=False)
        for given, ratio, c_max, g in scans if given is None]))

    def chosen(given, ratio):
        """(start, end, not a fallback): the given window, the scan's
        smallest-change hit, or a window centered between the timescales."""
        if given is not None:
            return (*given, True)
        best = min(next(hits), default=None,
                   key=lambda v: (v.c_delta, v.t_start))
        if best is None:
            return span / math.sqrt(ratio), span * math.sqrt(ratio), False
        return best.t_start, best.t_end, True

    w2_start, w2_end, w2_found = chosen(window, 2.0)
    w4_start, w4_end, w4_found = chosen(window4, 4.0)

    # stage 3, once the windows and the exclusion spans are known; the
    # random pairs are all four drawn first, t1 then t2, pair by pair
    sub = [float(t) for t in grid[:: max(1, len(grid) // 6)]]
    rng = np.random.default_rng([int(seed), 101])
    pairs = [(float(rng.uniform(grid[0], grid[-1])),
              float(rng.uniform(grid[0], grid[-1]))) for _ in range(4)]
    spans = list(zip(accuracies, spans if decays else lockstep(dyn, crossings)))
    exclusion = [(span0, shift * span0) for _, span0 in spans
                 if span0 is not None for shift in (2.5, 8.0)]
    t_probe = 0.9 * w2_start
    reads = [(family, t) for family in ("ident", "stat") for t in grid]
    reads += [("pair", t, 2.0 * t) for t in grid]
    for t in sub:
        reads += [("ident", n * t) for n in (2, 3, 4)]
        reads += [("stat", n * t) for n in (2, 3)]
        reads.append(("pair", t, t + t / 2.0))
    reads += [("pair", t1, t2) for t1, t2 in pairs]
    reads += [("ident-stat",), ("pair", t_probe, w2_start)]
    reads += [("ident", t_s) for _, t_s in exclusion]
    _, w2_verdict, (c4, _), *c_exclusion = lockstep(dyn, [
        _read(reads), verdict_search(dyn, w2_start, w2_end, n_grid),
        change_search(dyn, w4_start, w4_end, n_grid)] + [
        change_search(dyn, t_s, t_s + span0, 13) for span0, t_s in exclusion])
    c2 = w2_verdict.c_delta

    # the change measures and the ratio-4 cut fix which rows apply
    c2_ok = c2 < 0.25
    sep = None
    if c4 < 0.25:
        try:
            sep = detect_separation(dyn, w4_start, w4_end, c4)
        except SeparationInconsistencyError:
            pass
    m4 = gap_cut(dyn) if sep is None else sep.m
    d_probe = dyn.distance(t_probe, w2_start)
    probe_ns = prime_ts = None
    if c2_ok and d_probe < 1.0 and abs(w2_start - t_probe) <= w2_end - w2_start:
        probe_ns = [n for n in (2, 3)
                    if abs(w2_start - (n - 1) * t_probe) <= w2_end - w2_start
                    and n * t_probe <= w2_end]
    if c2_ok:
        prime_ts = [t for t in (w2_start, 0.5 * (w2_start + w2_end / 2.0))
                    if not t > w2_end / 2.0]

    # stage 4, while the evolutions of the change grids above are cached;
    # the rows keep their place below
    reads = [("pair", n * t_probe, w2_start) for n in probe_ns or ()]
    reads += [("pair", n * t, w2_start) for t in prime_ts or ()
              for n in (1, 2, 3)]
    proj_report, _, (tau_dp, tau_p) = lockstep(dyn, [
        projection_search(dyn, m4, w4_start, w4_end, n_grid, tol),
        _read(reads), _relaxation_search(dyn, w2_verdict)])

    rows = []
    add = rows.append
    d_init = np.asarray([dyn.distance_to_identity(t) for t in grid])
    d_stat = np.asarray([dyn.distance_to_stationary(t) for t in grid])
    d_doubling = np.asarray([dyn.distance(t, 2.0 * t) for t in grid])

    def safe_exp(x):
        return math.exp(x) if x < 700 else math.inf

    for t, di, ds, d2 in zip(grid, d_init, d_stat, d_doubling):
        add(BoundRow("change2_all", float(t), di * (1.0 - di), float(d2)))
        add(BoundRow("change2_ss", float(t), ds * (1.0 - ds), float(d2)))
        add(BoundRow("0_exp", float(t), float(di), safe_exp(t * gen_norm) - 1.0))
        lower = 2.0 * t * gen_norm - safe_exp(t * gen_norm) + 1.0
        add(BoundRow("0_exp2", float(t), lower, float(di)))
        lam_t = np.exp(t * lam)
        add(BoundRow("change_spectral_0", float(t),
                     float(np.max(np.abs(lam_t - 1.0))), float(di)))
        if dyn.m_ss < lam.size:
            add(BoundRow("change_spectral_ss", float(t),
                         float(np.max(np.abs(lam_t[dyn.m_ss:]))), float(ds)))

    for t in sub:
        di = dyn.distance_to_identity(t)
        for n in (2, 3, 4):
            add(BoundRow("0_lin", t, dyn.distance_to_identity(n * t), n * di))
        ds = dyn.distance_to_stationary(t)
        for n in (2, 3):
            add(BoundRow("ss_exp", t, dyn.distance_to_stationary(n * t), ds ** n))
        dt = t / 2.0
        lhs = (2.0 - di) * dt * gen_norm - safe_exp(dt * gen_norm) + 1.0
        add(BoundRow("all_lin", t, lhs, dyn.distance(t, t + dt)))
        margins = spectrum_change_bound_check(dyn, t, 2.0 * t)
        add(BoundRow("change_spectral", t, float(-np.min(margins)), 0.0))

    for t1, t2 in pairs:
        margins = spectrum_change_bound_check(dyn, t1, t2)
        add(BoundRow("change_spectral", t1, float(-np.min(margins)), 0.0))

    add(BoundRow("IPss", 0.0, 1.0, dyn.stationary_distance()))
    add(BoundRow("IPss", 1.0, dyn.stationary_distance(), 2.0))

    if tau_0 is not None:
        add(BoundRow("spectral_tau", math.nan, tau_0 * (-lam.real[-1]), 1.0))
        add(BoundRow("spectral_tau", math.nan, -lam.real[-1], gen_norm))
    if tau_ss is not None and dyn.m_ss < lam.size:
        add(BoundRow("spectral_tau", math.nan, 1.0,
                     tau_ss * (-lam.real[dyn.m_ss])))

    # ratio-2 window rows
    add(BoundRow("cdelta_bounded", math.nan, c2, 2.0))

    if probe_ns is not None:
        for n in probe_ns:
            rhs = d_probe ** n + 2.0 * c2 / (1.0 - d_probe)
            add(BoundRow("dprime_exp", n * t_probe,
                         dyn.distance(n * t_probe, w2_start), rhs))
    else:
        add(BoundRow("dprime_exp", math.nan, math.nan, math.nan,
                     applicable=False,
                     note="probe distance not below one or window too short"))

    if prime_ts is not None:
        for t in prime_ts:
            base = dyn.distance(t, w2_start) + c2
            for n in (2, 3):
                add(BoundRow("prime_lin", float(n * t),
                             dyn.distance(n * t, w2_start) + c2, n * base))
    else:
        add(BoundRow("prime_lin", math.nan, math.nan, math.nan,
                     applicable=False, note="change measure above 1/4"))

    # correlator chains: two-point measurements separated by window multiples
    if c2_ok:
        rng_obs = np.random.default_rng([int(seed), 202])
        O1 = dyn.random_observable(rng_obs)
        O2 = dyn.random_observable(rng_obs)
        C1 = dyn.correlator_matrix(O1)
        C2 = dyn.correlator_matrix(O2)
        span_w = w2_end - w2_start
        multiples = ((1, 1), (1, 2), (2, 1))
        changes = []
        for (n1, n2) in multiples:
            t11, t21 = w2_start, w2_start + n1 * span_w
            t12, t22 = w2_start, w2_start + n2 * span_w
            M1 = C2 @ dyn.evolution_matrix(t12) @ C1 @ dyn.evolution_matrix(t11)
            M2 = C2 @ dyn.evolution_matrix(t22) @ C1 @ dyn.evolution_matrix(t21)
            changes.append(M1 - M2)
        norm_prod = dyn.observable_max_norm(O1) * dyn.observable_max_norm(O2)
        for (n1, n2), res in zip(multiples, dyn.norm_results(changes)):
            add(BoundRow("meta_corr", float(n1 + n2), res.value / norm_prod,
                         (n1 + n2) * c2))
    else:
        add(BoundRow("meta_corr", math.nan, math.nan, math.nan,
                     applicable=False, note="change measure above 1/4"))

    # shifted-initial-regime exclusion: windows whose length equals the
    # first-crossing time of the identity distance at a small accuracy
    for c_acc, span0 in spans:
        if span0 is None:
            add(BoundRow("inherited_exclusion", math.nan, math.nan, math.nan,
                         applicable=False,
                         note="no first crossing at accuracy %g" % c_acc))
            continue
        for shift in (2.5, 8.0):
            t_s = shift * span0
            c_w, _ = c_exclusion.pop(0)
            d_at = dyn.distance_to_identity(t_s)
            lhs = (1.0 - d_at) * d_at - c_acc * (1.0 - c_acc)
            add(BoundRow("inherited_exclusion", t_s, lhs,
                         math.ceil(t_s / span0) * c_w))

    # relaxation times and their ratio bound
    if tau_p is not None and tau_dp is not None:
        lo2, _ = change_thresholds(c2)
        add(BoundRow("tau_prime_ratio", math.nan,
                     math.floor((1.0 - 1.0 / math.e - lo2) / c2) + 1.0,
                     tau_p / w2_start))
        order_tol = 1e-5
        if tau_0 is not None:
            add(BoundRow("tau_order", 0.0, tau_0 / tau_dp - 1.0, order_tol))
        add(BoundRow("tau_order", 1.0, tau_dp / w2_start - 1.0, order_tol))
        add(BoundRow("tau_order", 2.0, w2_end / tau_p - 1.0, order_tol))
        if tau_ss is not None:
            add(BoundRow("tau_order", 3.0, tau_p / tau_ss - 1.0, order_tol))
    else:
        add(BoundRow("tau_prime_ratio", math.nan, math.nan, math.nan,
                     applicable=False,
                     note="no metastable ratio-2 window below the relaxation "
                          "cutoff"))

    # separation and slow-mode projection rows on the ratio-4 window; without
    # a consistent separation the unconditional projection bounds still run
    # on the largest-gap cut
    if sep is not None:
        add(BoundRow("meta_lambda", math.nan, 0.0, sep.slack_initial))
        add(BoundRow("meta_lambda", math.nan, 0.0, sep.slack_final))
    rows.extend(proj_report.rows)

    # relaxation-time vs spectrum bounds, on the window that defined them
    if tau_dp is not None and c2 < 0.25:
        try:
            sep2 = detect_separation(dyn, w2_start, w2_end, c2)
            if sep2.m < lam.size:
                add(BoundRow("spectral_tau2", math.nan, 1.0,
                             tau_dp * (-lam.real[sep2.m])))
            if sep2.m > dyn.m_ss and tau_p is not None:
                add(BoundRow("spectral_tau2", math.nan,
                             tau_p * (-lam.real[sep2.m - 1]), 1.0))
        except SeparationInconsistencyError:
            pass

    context = {
        "liouvillian_norm": gen_norm,
        "tau_0": tau_0, "tau_ss": tau_ss,
        "tau_dprime": tau_dp, "tau_prime": tau_p,
        "window2": (w2_start, w2_end), "window2_scanned": w2_found,
        "c_delta2": c2, "window2_verdict": w2_verdict.verdict,
        "window4": (w4_start, w4_end), "window4_scanned": w4_found,
        "c_delta4": c4, "m4": m4, "separated": sep is not None,
        "projection": proj_report,
    }
    return BoundBatteryReport(rows=tuple(rows), tol=tol, context=context)
