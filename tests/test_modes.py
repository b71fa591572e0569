import math

import numpy as np
import pytest
import scipy.optimize

from metastab.modes import (E1_DOMAIN_MAX, E2_DOMAIN_MAX, SCAN_AHEAD,
                            bracketed_root, change_thresholds, crossing,
                            first_crossing, golden, inverse_bound,
                            linear_growth_inverse, mode_regimes, zeroin)


def test_threshold_endpoints():
    assert change_thresholds(0.0) == (0.0, 1.0)
    lo, hi = change_thresholds(0.25)
    assert lo == pytest.approx(0.5, abs=1e-15)
    assert hi == pytest.approx(0.5, abs=1e-15)


def test_threshold_value():
    lo, hi = change_thresholds(0.1)
    assert lo == pytest.approx(0.1127016653792583, abs=1e-12)
    assert hi == pytest.approx(0.8872983346207417, abs=1e-12)


def test_threshold_identities_random():
    rng = np.random.default_rng(0)
    for c in rng.uniform(0.0, 0.25, 1000):
        lo, hi = change_thresholds(c)
        assert abs(lo + hi - 1.0) <= 1e-14
        assert abs(lo * hi - c) <= 1e-14


def test_threshold_domain():
    with pytest.raises(ValueError):
        change_thresholds(0.26)
    with pytest.raises(ValueError):
        change_thresholds(-1e-12)


def test_inverse_bound_zero():
    assert inverse_bound("E1", 0.0) == pytest.approx(0.0, abs=1e-12)
    assert inverse_bound("E2", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_inverse_bound_domain_endpoint():
    assert inverse_bound("E1", E1_DOMAIN_MAX) == pytest.approx(math.log(2.0),
                                                              abs=1e-12)
    assert inverse_bound("E2", E2_DOMAIN_MAX) == pytest.approx(math.log(1.5),
                                                              abs=1e-12)
    with pytest.raises(ValueError):
        inverse_bound("E1", E1_DOMAIN_MAX + 1e-6)
    with pytest.raises(ValueError):
        inverse_bound("E2", E2_DOMAIN_MAX + 1e-6)


def test_inverse_bound_against_dense_scan():
    # oracle: invert by scanning the defining function on a fine grid
    target = 0.05
    xs = np.linspace(0.0, math.log(1.5), 400001)
    fs = 1.5 * xs - np.exp(xs) + 1.0
    x_scan = xs[np.searchsorted(fs, target)]
    assert inverse_bound("E2", target) == pytest.approx(x_scan, abs=1e-5)


def test_inverse_bound_roundtrip():
    rng = np.random.default_rng(1)
    for c in rng.uniform(0.0, E1_DOMAIN_MAX, 200):
        x = inverse_bound("E1", c)
        assert abs(2.0 * x - math.exp(x) + 1.0 - c) <= 1e-10
    for c in rng.uniform(0.0, E2_DOMAIN_MAX, 200):
        x = inverse_bound("E2", c)
        assert abs(1.5 * x - math.exp(x) + 1.0 - c) <= 1e-10


def test_inverse_bound_ratio_bounds():
    rng = np.random.default_rng(2)
    r1 = math.log(2.0) / (2.0 * math.log(2.0) - 1.0)
    r2 = 2.0 * math.log(1.5) / (3.0 * math.log(1.5) - 1.0)
    for c in rng.uniform(1e-6, E1_DOMAIN_MAX, 100):
        assert 1.0 - 1e-9 <= inverse_bound("E1", c) / c <= r1 + 1e-9
    for c in rng.uniform(1e-6, E2_DOMAIN_MAX, 100):
        assert 1.0 - 1e-9 <= inverse_bound("E2", c) / c <= r2 + 1e-9


def test_linear_growth_inverse_validation():
    with pytest.raises(ValueError):
        linear_growth_inverse(0.1, slope=1.0)
    with pytest.raises(ValueError):
        inverse_bound("E3", 0.1)


def test_mode_regimes_real():
    reg = mode_regimes(-1.0, 0.1)
    assert reg.t_initial == pytest.approx(-math.log(0.9), abs=1e-12)
    assert reg.t_final == pytest.approx(math.log(10.0), abs=1e-12)
    assert reg.imag_bound is None


def test_mode_regimes_small_accuracy_limits():
    prev_initial, prev_final = None, None
    for c in (0.2, 0.1, 0.05, 0.01):
        reg = mode_regimes(-1.0, c)
        if prev_initial is not None:
            assert reg.t_initial < prev_initial
            assert reg.t_final > prev_final
        prev_initial, prev_final = reg.t_initial, reg.t_final
    assert mode_regimes(-1.0, 1e-9).t_initial < 2e-9


def test_mode_regimes_complex_spin_fast_mode():
    lam = complex(-0.5025, 5.025)
    reg = mode_regimes(lam, 0.1)
    # first crossing of |e^{t lam} - 1| = 0.1 found numerically
    assert abs(abs(np.exp(reg.t_initial * lam) - 1.0) - 0.1) < 1e-9
    for t in np.linspace(1e-6, reg.t_initial * 0.999, 200):
        assert abs(np.exp(t * lam) - 1.0) < 0.1 + 1e-9
    assert reg.t_initial <= math.asin(0.1 / 0.9) / 5.025 + 1e-9
    assert reg.imag_bound == pytest.approx(math.asin(0.1 / 0.9) / 5.025,
                                           abs=1e-12)


def test_mode_regimes_rejects_growing_mode():
    with pytest.raises(ValueError):
        mode_regimes(0.5, 0.1)
    with pytest.raises(ValueError):
        mode_regimes(-1.0, 0.0)


def test_real_mode_change_product_identity():
    for lam in (-0.3, -1.0, -4.0):
        ts = np.linspace(0.0, 20.0, 500)
        vals = np.exp(ts * lam) - np.exp(2 * ts * lam)
        assert np.all(vals <= 0.25 + 1e-15)
        x = np.exp(ts * lam)
        assert np.max(np.abs(vals - x * (1.0 - x))) < 1e-14


def test_threshold_consistency_dense_grid():
    lam, c = -1.0, 0.08
    lo, hi = change_thresholds(c)
    for t in np.linspace(1e-4, 12.0, 4000):
        x = math.exp(t * lam)
        change = x - x * x
        if change <= c:
            assert x >= hi - 1e-12 or x <= lo + 1e-12
        else:
            assert lo - 1e-12 < x < hi + 1e-12


def test_complex_mode_necessary_conditions():
    lam = complex(-0.4, 3.0)
    c = 0.12
    lo, hi = change_thresholds(c)
    ts = np.linspace(1e-4, 25.0, 8000)
    for t in ts:
        if abs(np.exp(t * lam) - np.exp(2 * t * lam)) <= c:
            x = math.exp(t * lam.real)
            assert x <= lo + 1e-9 or x >= hi - 1e-9
    # on the initial branch, bounded changes over all sub-intervals confine
    # the accumulated phase
    t_ok = []
    for t in ts:
        if math.exp(t * lam.real) < hi:
            continue
        dts = np.linspace(0.0, t, 200)
        if np.all(np.abs(np.exp(t * lam) - np.exp((t + dts) * lam)) <= c):
            t_ok.append(t)
    t_max = max(t_ok)
    assert t_max * abs(lam.imag) <= math.asin(c / hi) + 1e-6


def test_first_crossing_oscillatory():
    f = lambda t: math.sin(3.0 * t)
    t = first_crossing(f, 0.5, t_max=5.0, step=0.01)
    assert t == pytest.approx(math.asin(0.5) / 3.0, abs=1e-9)
    assert first_crossing(f, 2.0, t_max=5.0, step=0.01) is None


def _smooth_brackets(seed=0, per_family=80):
    """Seeded (f, a, b) brackets over smooth functions with a sign change."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(per_family):
        c = rng.uniform(-1.0, 1.0, 4)
        w, phase = rng.uniform(0.5, 5.0), rng.uniform(0.0, 3.0)
        shift, level = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 0.38)
        slope, x0 = rng.uniform(5.0, 200.0), rng.uniform(-1.0, 1.0)
        fams = [lambda x, c=c: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
                lambda x, w=w, p=phase: math.sin(w * x + p) - 0.3,
                lambda x, s=shift: math.exp(x) - 1.5 + s,
                lambda x, v=level: 2.0 * x - math.exp(x) + 1.0 - v,
                lambda x, k=slope, x0=x0: math.tanh(k * (x - x0))]
        for f in fams:
            for a, b in np.sort(rng.uniform(-3.0, 3.0, (3, 2)), axis=1):
                if f(a) * f(b) < 0.0:
                    cases.append((f, float(a), float(b)))
    # the bracket first_crossing's scan hands over for sin(3t) = 0.5
    cases.append((lambda t: math.sin(3.0 * t) - 0.5, 17 * 0.01, 18 * 0.01))
    return cases


def test_bracketed_root_matches_brentq_bit_for_bit():
    cases = _smooth_brackets()
    assert len(cases) > 400
    for f, a, b in cases:
        xtol = 1e-12 * max(abs(a), abs(b), 1e-300)
        want = scipy.optimize.brentq(f, a, b, xtol=xtol,
                                     rtol=4 * np.finfo(float).eps)
        assert bracketed_root(f, a, b) == want, (a, b)
    sin_case = cases[-1]
    assert first_crossing(lambda t: math.sin(3.0 * t), 0.5, t_max=5.0,
                          step=0.01) == bracketed_root(*sin_case)


def drive(search, f):
    """Run a search one request at a time; returns its result, its requests
    and the times at which it evaluated f, each tagged with the number of
    requests made before that evaluation."""
    requests, evaluated = [], []

    def logged(t):
        evaluated.append((t, len(requests)))
        return f(t)

    search = search(logged)
    while True:
        try:
            requests.append(list(next(search)))
        except StopIteration as stop:
            return stop.value, requests, evaluated


def test_zeroin_requests_exactly_what_it_evaluates():
    cases = _smooth_brackets()
    for f, a, b in cases:
        root, requests, evaluated = drive(lambda g: zeroin(g, a, b), f)
        assert root == bracketed_root(f, a, b), (a, b)
        # each request names the times evaluated next, before they are
        assert [t for ts in requests for t in ts] == [t for t, _ in evaluated]
        asked = 0
        for k, ts in enumerate(requests, 1):
            assert [n for _, n in evaluated[asked:asked + len(ts)]] \
                == [k] * len(ts)
            asked += len(ts)


@pytest.mark.parametrize("t_sure, n_unread", [(0.0, 2), (0.1, 0), (0.16, 2)])
def test_crossing_hints_ahead_of_its_scan(t_sure, n_unread):
    # sin(3t) = 0.5 at t = 0.1745..., in the 18th step of 0.01; the
    # requests after the first start at max(t_sure steps + 1, 1) + 4k
    f = lambda t: math.sin(3.0 * t)
    t_star, requests, evaluated = drive(
        lambda g: crossing(g, 0.5, 5.0, 0.01, t_sure), f)
    assert t_star == first_crossing(f, 0.5, t_max=5.0, step=0.01)
    # every point the scan evaluates was requested before it, and the first
    # request holds every point up to t_sure
    seen = set()
    for t, n in evaluated:
        assert t in {s for ts in requests[:n] for s in ts}
        seen.add(t)
    assert [t for t in requests[0] if t <= t_sure] \
        == [k * 0.01 if k else 0.0 for k in range(int(t_sure / 0.01) + 1)]
    unread = {t for ts in requests for t in ts} - seen
    assert len(unread) == n_unread <= SCAN_AHEAD - 1
    assert all(t > t_star for t in unread)
    # past the scan, zeroin's requests are evaluated one by one
    assert all(len(ts) == 1 for ts in requests[-3:])


@pytest.mark.parametrize("f, a, b", [
    (lambda t: -(t - 1.31) ** 2, 1.125, 1.375),
    (lambda t: math.sin(3.0 * t), 0.4, 0.7),
    (lambda t: t, 2.0, 3.0)])
def test_golden_requests_exactly_what_it_evaluates(f, a, b):
    # what lockstep relies on to batch golden steps: two points first, then
    # one per step, each evaluated right after it is requested and never a
    # bracket end
    (t_max, v_max), requests, evaluated = drive(lambda g: golden(g, a, b), f)
    assert [len(ts) for ts in requests] == [2] + [1] * (len(requests) - 1)
    assert [t for ts in requests for t in ts] == [t for t, _ in evaluated]
    assert [n for _, n in evaluated] == [1, 1] + list(range(2, len(requests)
                                                            + 1))
    assert a < min(t for t, _ in evaluated) <= max(t for t, _ in evaluated) < b
    assert t_max in [t for t, _ in evaluated] and v_max == f(t_max)


def test_crossing_without_crossing_requests_every_point_once():
    f = lambda t: math.sin(3.0 * t)
    assert drive(lambda g: crossing(g, 2.0, 0.1, 0.01, 0.05), f)[0] is None
    _, requests, evaluated = drive(
        lambda g: crossing(g, 2.0, 0.1, 0.01, 0.05), f)
    flat = [t for ts in requests for t in ts]
    assert flat == [t for t, _ in evaluated]
    assert len(flat) == 11 and flat[-1] == 0.1
    assert [len(ts) for ts in requests] == [10, 1]


def test_bracketed_root_returns_a_python_float():
    # a delta-sized last step must not turn the iterate into np.float64
    c = 3 / 197
    root = bracketed_root(lambda x: (x - c) ** 3 + (x - c), 0.0, 1.0)
    assert type(root) is float
    assert root == 0.015228426395968005


def test_bracketed_root_endpoints_sign_and_cap():
    f = lambda x: x * x - 0.25
    assert bracketed_root(f, 0.5, 2.0) == 0.5
    assert bracketed_root(f, 0.0, 0.5) == 0.5
    with pytest.raises(ValueError):
        bracketed_root(f, 1.0, 2.0)
    # (x - 0.3)^9 is so flat at its root that brentq also stops at the cap
    steep = lambda x: (x - 0.3) ** 9
    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(steep, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(RuntimeError):
        bracketed_root(steep, -1.0, 1.0)
