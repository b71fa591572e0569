"""Closed-form single-mode theory: threshold roots, inverse growth bounds,
and per-mode regime boundaries for decaying (real or spiraling) modes; and
the searches behind them, the regime timescales and the window suprema, as
generators (zeroin, crossing, brent_max) that regimes.lockstep can run
together. zeroin and brent_max port scipy.optimize's brentq and fminbound
step for step, without the cost of importing scipy.optimize."""
import math
from dataclasses import dataclass

import numpy as np

# scan points a crossing search hints per request past its certified prefix
SCAN_AHEAD = 4
# absolute tolerance of brent_max, relative to its bracket's larger end
SUP_REL_TOL = 1e-6


def change_thresholds(c):
    """Roots (lower, upper) of x(1 - x) = c, the split of a decaying mode into
    near-final and near-initial values once its logarithmic-scale change is
    at most c. Defined for 0 <= c <= 1/4; the pair sums to 1 and multiplies
    to c at machine precision.
    """
    if not 0.0 <= c <= 0.25:
        raise ValueError("threshold split exists only for 0 <= c <= 1/4, got %r" % c)
    s = math.sqrt(1.0 - 4.0 * c)
    return (1.0 - s) / 2.0, (1.0 + s) / 2.0


def linear_growth_inverse(value, slope):
    """Invert f(x) = slope*x - e^x + 1 on its increasing branch [0, ln(slope)].

    One bracketed_root on [0, ln(slope)]. The domain endpoint is
    f(ln(slope)) = slope*ln(slope) - slope + 1.
    """
    if slope <= 1.0:
        raise ValueError("slope must exceed 1")
    x_hi = math.log(slope)
    v_max = slope * x_hi - slope + 1.0
    if value < 0.0 or value > v_max + 1e-15:
        raise ValueError("value %r outside the invertible range [0, %r]" % (value, v_max))
    if value >= v_max:
        return x_hi
    return bracketed_root(lambda x: slope * x - math.exp(x) + 1.0 - value,
                          0.0, x_hi)


def inverse_bound(which, value):
    """Inverse bound functions for the initial-regime growth inequalities.

    'E1' inverts 2x - e^x + 1 (domain value <= 2 ln 2 - 1), 'E2' inverts
    (3/2)x - e^x + 1 (domain value <= (3 ln(3/2) - 1)/2).
    """
    slopes = {"E1": 2.0, "E2": 1.5}
    if which not in slopes:
        raise ValueError("which must be 'E1' or 'E2'")
    return linear_growth_inverse(value, slopes[which])


E1_DOMAIN_MAX = 2.0 * math.log(2.0) - 1.0
E2_DOMAIN_MAX = (3.0 * math.log(1.5) - 1.0) / 2.0


@dataclass(frozen=True)
class ModeRegimes:
    """Regime boundaries of a single decaying mode at accuracy c."""

    lam: complex
    c: float
    t_initial: float
    t_final: float
    imag_bound: float | None


def _run_search(search, hint=lambda request: None):
    """Run a search generator to its end and return its result, passing
    each request to hint (by default, dropping it)."""
    while True:
        try:
            hint(next(search))
        except StopIteration as stop:
            return stop.value


def zeroin(f, a, b):
    """Root of f in the bracket [a, b] by Brent's method (Brent 1973), as a
    search generator.

    A search yields the times it evaluates f at next, as a cache hint for a
    caller that batches maps (regimes.lockstep, through regimes.keyed), and
    then evaluates f itself;
    its result is the generator's return value. zeroin yields [a, b], then
    each iterate, and evaluates exactly the times it yields.

    A step-for-step port of the zeroin variant in scipy.optimize.brentq: it
    returns brentq's float for xtol = 1e-12 * max(|a|, |b|, 1e-300) and
    rtol = 4 eps, without the memory and start-up cost of importing
    scipy.optimize. Returns an endpoint where f is zero; raises ValueError
    when f(a) and f(b) have the same sign and RuntimeError when 100
    iterations do not converge.
    """
    xtol = 1e-12 * max(abs(a), abs(b), 1e-300)
    rtol = 4.0 * float(np.finfo(float).eps)
    xpre, xcur = float(a), float(b)
    yield (xpre, xcur)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):  # a sign change: new bracket
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        # interpolate (secant, or inverse quadratic through three points)
        # when that step is short enough; otherwise bisect
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
        if stry is not None \
                and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        yield (xcur,)
        fcur = float(f(xcur))
    raise RuntimeError("bracketed_root: no convergence in 100 iterations")


def known_ends_zeroin(f, a, b):
    """zeroin on a bracket whose ends the caller has evaluated already: its
    first request, [a, b], is skipped."""
    search = zeroin(f, a, b)
    next(search)
    return search


def bracketed_root(f, a, b):
    """Root of f in the bracket [a, b]: zeroin run to its end."""
    return _run_search(zeroin(f, a, b))


def crossing(f, target, t_max, step, t_sure=0.0):
    """First t in (0, t_max] with f(t) = target, as a search generator (see
    zeroin): a scan for the first sign change of f - target from t = 0, then
    zeroin on that step.

    The scan's first request holds every scan point up to t_sure, where the
    caller knows f to lie below target, and SCAN_AHEAD points more; each
    later request holds the next SCAN_AHEAD points. Only the points up to
    the crossing are evaluated, so past t_sure a request hints at most
    SCAN_AHEAD - 1 points that the scan never evaluates. The scan step must
    resolve oscillations of f; returns None when no sign change of
    f - target is found up to t_max.
    """
    steps = max(int(np.ceil(t_max / step)), 0)

    def at(k):
        return min(k * step, t_max) if k else 0.0

    sure = 1
    while sure <= steps and at(sure) <= t_sure:
        sure += 1
    hinted = 0
    f_lo = None
    for k in range(steps + 1):
        if k == hinted:
            hinted = min(max(k, sure) + SCAN_AHEAD, steps + 1)
            yield map(at, range(k, hinted))
        t_hi = at(k)
        f_hi = f(t_hi) - target
        if k and f_lo * f_hi <= 0.0 and (f_hi >= 0.0 or f_lo >= 0.0):
            return (yield from known_ends_zeroin(lambda t: f(t) - target,
                                                 at(k - 1), t_hi))
        f_lo = f_hi
    return None


def brent_max(f, a, b):
    """Maximum of f on [a, b] by Brent's bounded method (Brent 1973, ch. 5),
    as a search generator (see zeroin). It yields one time per request and
    evaluates exactly the times it yields, never a or b. Returns (t, f(t))
    at its best point.

    A step-for-step port of scipy.optimize.fminbound run on -f, with
    xtol = SUP_REL_TOL * max(|a|, |b|): a parabola through the three best
    points where it steps inside the bracket and shortens it fast enough,
    a golden-section step into the longer side otherwise; no step is
    shorter than tol = sqrt(eps) |t| + xtol / 3 at the best point t. It
    stops once both ends of the bracket lie within 2 tol of t, or after 500
    evaluations.
    """
    xatol = SUP_REL_TOL * max(abs(a), abs(b))
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(a), float(b)
    # xf is the best point, nfc the second best, fulc the previous nfc;
    # fx, fnfc and ffulc hold -f there
    xf = nfc = fulc = a + golden_mean * (b - a)
    yield (xf,)
    fx = fnfc = ffulc = -f(xf)
    num = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        yield (x,)
        fu = -f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, -fx


def first_crossing(f, target, t_max, step):
    """First t in (0, t_max] with f(t) = target: crossing run to its end.

    The scan step must resolve oscillations of f; returns None when no sign
    change of f - target is found up to t_max.
    """
    return _run_search(crossing(f, target, t_max, step))


def mode_regimes(lam, c):
    """Initial/final regime boundaries of the mode e^{t lam}.

    The final regime starts at -ln(c)/(-Re lam). For a real mode the initial
    regime ends at -ln(1-c)/(-Re lam); for a complex mode it ends at the first
    time |e^{t lam} - 1| = c, which is found numerically and obeys the
    arcsin(c/(1-c)) bound on t |Im lam| for c <= 1/2.
    """
    lam = complex(lam)
    if lam.real >= 0.0:
        raise ValueError("not a decaying mode: Re lam must be negative")
    if not 0.0 < c < 1.0:
        raise ValueError("accuracy c must lie in (0, 1)")
    rate = -lam.real
    t_final = -math.log(c) / rate
    if abs(lam.imag) <= 1e-300:
        t_initial = -math.log1p(-c) / rate
        imag_bound = None
    else:
        step = min(0.01 / abs(lam), 0.1 / abs(lam.imag))
        f = lambda t: abs(np.exp(t * lam) - 1.0)
        t_initial = first_crossing(f, c, t_max=10.0 * t_final, step=step)
        if t_initial is None:
            t_initial = -math.log1p(-c) / rate
        imag_bound = (math.asin(c / (1.0 - c)) / abs(lam.imag)) if c <= 0.5 else None
    return ModeRegimes(lam=lam, c=c, t_initial=float(t_initial),
                       t_final=float(t_final), imag_bound=imag_bound)
