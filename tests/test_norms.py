import functools

import numpy as np
import pytest
import scipy.optimize

from metastab.models import SPIN_Z, random_lindbladian
from metastab.models import SPIN_X, SPIN_Y
from metastab import norms
from metastab.norms import (DEFAULT_BURN_IN, DEFAULT_KEEP_AFTER_BURN_IN,
                            DEFAULT_MAX_ITER, _alternating_ascent,
                            _alternating_ascents, _block_product,
                            _coordinate_maps, _coords, _eigvalsh3,
                            _induced_norm_matrix, _matrices, _newton_model,
                            _newton_model3, _newton_step, _newton_step3,
                            _pure_state_coords, _sign_step, _sign_step3,
                            _state_rows, _states,
                            _tangent_basis, _top_eigvec, _top_eigvec3,
                            correlator_superop, induced_norm_sampling_oracle,
                            induced_trace_norm, max_norm_induced,
                            measurement_superop_norm)
from metastab.operators import max_norm, trace_norm
from metastab.superop import (Superoperator, build_liouvillian, evolution,
                              spectral_decompose, stationary_projector, unvec,
                              vec)

from conftest import bloch_map, spin_mode_distance, random_hermitian


def identity_minus_stationary(spec):
    P = spec.projector_matrix(spec.m_ss)
    return Superoperator(spec.dim, np.eye(spec.dim ** 2) - P,
                         hermiticity_preserving=True)


def test_zero_superoperator():
    X = Superoperator(2, np.zeros((4, 4)), hermiticity_preserving=True)
    res = induced_trace_norm(X)
    assert res.value == 0.0
    assert induced_norm_sampling_oracle(X, 100) == 0.0


def test_identity_minus_stationary_is_one(spin_spectral):
    res = induced_trace_norm(identity_minus_stationary(spin_spectral))
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_evolution_norm_is_one(spin_spectral):
    for t in (0.0, 0.4, 17.0):
        res = induced_trace_norm(evolution(spin_spectral, t))
        assert res.value == pytest.approx(1.0, abs=1e-10)


def test_spin_distance_to_stationary_at_unit_slow_time(spin_spectral):
    E = evolution(spin_spectral, 200.0).matrix
    P = stationary_projector(spin_spectral).matrix
    X = Superoperator(2, E - P, hermiticity_preserving=True)
    res = induced_trace_norm(X)
    assert res.value == pytest.approx(np.exp(-1.0), abs=1e-9)
    # independent oracle: spectral norm of the 3x3 Bloch map difference
    assert res.value == pytest.approx(np.linalg.svd(bloch_map(X.matrix),
                                                    compute_uv=False)[0],
                                      abs=1e-9)


def test_spin_pair_distance_matches_mode_formula(spin_spectral):
    rng = np.random.default_rng(8)
    for _ in range(6):
        t1, t2 = rng.uniform(0.0, 30.0, 2)
        X = Superoperator(2, spin_spectral.evolution_matrix(t1)
                          - spin_spectral.evolution_matrix(t2),
                          hermiticity_preserving=True)
        res = induced_trace_norm(X)
        assert res.value == pytest.approx(spin_mode_distance(t1, t2), abs=1e-7)


def test_optimizer_matches_bloch_oracle_on_grid(spin_spectral):
    # independent oracle: largest singular value of the 3x3 Bloch map of the
    # identity-annihilating difference maps, over a 50-point log time grid.
    # Near singular-value crossings the ascent rate degrades like the
    # singular-value ratio, so the iteration budget is extended here.
    P = stationary_projector(spin_spectral).matrix
    eye = np.eye(4)
    for t in np.geomspace(1e-3, 1e3, 50):
        E = spin_spectral.evolution_matrix(float(t))
        for M in (E - P, E - eye):
            oracle = np.linalg.svd(bloch_map(M), compute_uv=False)[0]
            res = _alternating_ascent(M, 2, max_iter=20000)
            assert abs(res.value - oracle) < 1e-6


def test_witness_reproduces_value(spin_spectral):
    E = evolution(spin_spectral, 35.0).matrix
    P = stationary_projector(spin_spectral).matrix
    X = Superoperator(2, E - P, hermiticity_preserving=True)
    res = induced_trace_norm(X)
    psi = res.witness_state
    out = X.apply(np.outer(psi, psi.conj()))
    assert trace_norm(out) == pytest.approx(res.value, abs=1e-9)
    # the witness observable is the sign operator of the optimal output
    assert np.trace(res.witness_observable @ out).real == pytest.approx(
        res.value, abs=1e-9)
    assert max_norm(res.witness_observable) == pytest.approx(1.0, abs=1e-10)


def test_requires_hermiticity_preserving():
    X = Superoperator(2, np.eye(4), hermiticity_preserving=False)
    with pytest.raises(ValueError):
        induced_trace_norm(X)
    with pytest.raises(TypeError):
        induced_trace_norm(np.eye(4))


def test_decay_subspace_saturates_stationary_distance():
    # a decay subspace pushes the distance between the identity and the
    # stationary projection to its ceiling of 2
    from metastab.superop import QuantumModel, build_liouvillian, spectral_decompose

    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    spec = spectral_decompose(build_liouvillian(
        QuantumModel(hamiltonian=np.zeros((2, 2)), jumps=(lower,))))
    res = induced_trace_norm(identity_minus_stationary(spec))
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_sampling_oracle_concentrates(spin_spectral):
    X = identity_minus_stationary(spin_spectral)
    assert induced_norm_sampling_oracle(X, 100000, seed=3) >= 0.999


def test_optimizer_dominates_sampling_random_d3():
    spec = spectral_decompose(build_liouvillian(random_lindbladian(3, 2, seed=21)))
    X = Superoperator(3, spec.evolution_matrix(0.8) - spec.evolution_matrix(2.5),
                      hermiticity_preserving=True)
    opt = induced_trace_norm(X).value
    sam = induced_norm_sampling_oracle(X, 20000, seed=5)
    assert sam <= opt + 1e-9


def test_duality_with_max_norm_optimizer():
    rng = np.random.default_rng(11)
    for seed in (31, 32):
        spec = spectral_decompose(build_liouvillian(
            random_lindbladian(2, 2, seed=seed)))
        t1, t2 = rng.uniform(0.2, 4.0, 2)
        M = spec.evolution_matrix(t1) - spec.evolution_matrix(t2)
        direct = induced_trace_norm(
            Superoperator(2, M, hermiticity_preserving=True)).value
        dual = max_norm_induced(
            Superoperator(2, M.conj().T, hermiticity_preserving=True))
        assert dual == pytest.approx(direct, abs=1e-6)


def test_nonconvergence_is_flagged_not_raised(spin_spectral):
    E = evolution(spin_spectral, 5.0).matrix
    P = stationary_projector(spin_spectral).matrix
    res = _alternating_ascent(E - P, 2, max_iter=1)
    assert res.converged is False
    assert res.value > 0


def test_measurement_norm_von_neumann():
    assert measurement_superop_norm("von_neumann", SPIN_Z) == pytest.approx(0.5)


def test_measurement_norm_correlator_identity():
    assert measurement_superop_norm("correlator", np.eye(3)) == pytest.approx(1.0)


def test_measurement_norm_povm_bound():
    kraus = [np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)]
    assert measurement_superop_norm("povm", (kraus, [1.0, -1.0])) == \
        pytest.approx(1.0, abs=1e-12)


def test_povm_completeness_enforced():
    kraus = [np.eye(2), np.eye(2)]
    with pytest.raises(ValueError):
        measurement_superop_norm("povm", (kraus, [1.0, 1.0]))


def test_correlator_superop_norm_equals_max_norm():
    rng = np.random.default_rng(12)
    O = random_hermitian(rng, 2)
    C = correlator_superop(O)
    res = induced_trace_norm(C)
    assert res.value == pytest.approx(max_norm(O), abs=1e-8)


def test_restart_dispersion_reported(spin_spectral):
    X = identity_minus_stationary(spin_spectral)
    res = induced_trace_norm(X)
    assert res.restart_values.size == res.restarts_used
    assert res.restart_dispersion >= 0.0


# --- lockstep ascent over several maps ---------------------------------------

# maps per burn-in pass in the tests of this module: the mixed stack below
# spans two to three passes of this size, fewer maps than the module's bound
MIXED_STACK_PASS_MAPS = 32


@pytest.fixture(autouse=True)
def mixed_stack_passes(monkeypatch):
    monkeypatch.setattr(norms, "LOCKSTEP_MAPS", MIXED_STACK_PASS_MAPS)


@functools.lru_cache(maxsize=None)
def mixed_map_stack(dim):
    """About 2.5 burn-in passes of map matrices of one random model: pair,
    ident, stat, proj and drift maps, maps that keep 1, 2 or 3 chains after
    burn-in, and the degenerate maps. Returns a read-only (T, D^2, D^2)
    stack."""
    from metastab.regimes import QuantumBackend

    dyn = QuantumBackend(model=random_lindbladian(dim, 2, seed=3), seed=0)
    m = dyn.valid_cuts()[-2]
    keys = []
    for t in np.geomspace(0.05, 40.0, 13):
        keys += [("pair", t, 2.0 * t), ("pair", 0.5 * t, t), ("ident", t),
                 ("stat", t), ("proj", m, t), ("drift", m, t)]
    ts = np.geomspace(0.01, 100.0, 40)
    keys += [("stat", ts[k]) for k in (24, 26, 27)]
    keys += [("pair", ts[38], 2.0 * ts[38]), ("pair", ts[38], 1.5 * ts[38])]
    stack = np.array(degenerate_maps(dim) + [dyn._norm_map(key) for key in keys])
    assert 2 * norms.LOCKSTEP_MAPS < len(stack) < 3 * norms.LOCKSTEP_MAPS
    stack.flags.writeable = False
    return stack


@functools.lru_cache(maxsize=None)
def single_map_ascents(dim, max_iter):
    return [_alternating_ascent(M, dim, max_iter=max_iter)
            for M in mixed_map_stack(dim)]


def stack_size(W):
    """Matrices (or chains) in a step's stack: complex stacks hold one per
    leading index, real coordinate rows one per column."""
    return len(W) if np.iscomplexobj(W) else W.shape[1]


def step_traffic(run, monkeypatch):
    """The steps run() takes, in order, as (step, matrices, masked, sent):
    the name of the step function, the size of its stack, the matrices
    _eigvalsh3 masked in it (closed forms only) and the matrices it sent to
    np.linalg.eigh (for a closed form, those of its fallback)."""
    steps, open_steps = [], []
    eigvalsh3, eigh = norms._eigvalsh3, np.linalg.eigh

    def masked(W, *args):
        lam, needs_eigh = eigvalsh3(W, *args)
        open_steps[-1][2] += int(needs_eigh.sum())
        return lam, needs_eigh

    def counted_eigh(H):
        if open_steps:
            open_steps[-1][3] += len(H)
        return eigh(H)

    def counted(name):
        step = getattr(norms, name)

        def take_step(W, *args):
            if open_steps:          # the eigh fallback of a closed form
                return step(W, *args)
            open_steps.append([name, stack_size(W), 0, 0])
            try:
                return step(W, *args)
            finally:
                steps.append(tuple(open_steps.pop()))
        return take_step

    with monkeypatch.context() as patch:
        patch.setattr(norms, "_eigvalsh3", masked)
        patch.setattr(np.linalg, "eigh", counted_eigh)
        for name in ("_sign_step3", "_top_eigvec3", "_sign_step",
                     "_top_eigvec", "_newton_step", "_newton_step3"):
            patch.setattr(norms, name, counted(name))
        run()
    return steps


def chains_after_burn_in(M, dim, monkeypatch):
    """Chains of the single-map ascent of M that go on after burn-in: the
    stack of its first O-step after the cull (0 when none is left)."""
    steps = step_traffic(lambda: _alternating_ascent(M, dim), monkeypatch)
    sizes = [n for name, n, *_ in steps if name.startswith("_sign_step")]
    return sizes[DEFAULT_BURN_IN] if len(sizes) > DEFAULT_BURN_IN else 0


def burn_in_stops(M, dim, monkeypatch):
    """The distinct iterations at which restarts of the single-map ascent of
    M converge inside burn-in. A burn-in block keeps all restarts of its
    map, one column each, so column j of every burn-in O-step is restart j."""
    name = "_sign_step3" if dim == 3 else "_sign_step"
    step, rows = getattr(norms, name), []

    def recorded(W):
        vals, obs = step(W)
        rows.append(vals)
        return vals, obs

    with monkeypatch.context() as patch:
        patch.setattr(norms, name, recorded)
        _alternating_ascent(M, dim)
    vals = np.array(rows[:DEFAULT_BURN_IN - 1])
    prev = np.vstack([np.zeros(vals.shape[1]), vals[:-1]])
    still = np.abs(vals - prev) > norms.REL_TOL * np.maximum(1.0, vals)
    return set(np.argmin(still, axis=0)[~still.all(axis=0)] + 1)


@pytest.mark.parametrize("dim", [3, 4])
def test_mixed_stack_covers_every_survivor_count(dim, monkeypatch):
    # the lockstep tests below see maps that stop inside burn-in and maps
    # that keep each possible number of chains after it, and maps whose
    # restarts converge at two or more burn-in iterations, so that a block
    # steps on with inert columns
    stack = mixed_map_stack(dim)
    counts = {chains_after_burn_in(M, dim, monkeypatch) for M in stack}
    assert counts == {0, 1, 2, 3, DEFAULT_KEEP_AFTER_BURN_IN}
    assert any(res.converged and res.iterations < DEFAULT_BURN_IN
               for res in single_map_ascents(dim, DEFAULT_MAX_ITER))
    assert any(len(burn_in_stops(M, dim, monkeypatch)) >= 2 for M in stack)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("max_iter", [DEFAULT_MAX_ITER, 28, 10])
def test_lockstep_ascent_equals_single_map_ascent(dim, max_iter):
    # every map of a stack (across burn-in passes, and through the shared
    # pass after burn-in) gets, bit for bit, the result of its own
    # single-map call, in either stack order: no map's cull, convergence or
    # products see another map's chains. Below burn-in (max_iter 10) no
    # chain reaches the shared pass
    stack = mixed_map_stack(dim)
    single = single_map_ascents(dim, max_iter)
    for order in (1, -1):
        batch = _alternating_ascents(stack[::order], dim, max_iter=max_iter)
        assert len(batch) == len(stack)
        for got, want in zip(batch, single[::order]):
            assert_same_result(got, want)
    if max_iter < DEFAULT_MAX_ITER:
        # the capped runs stop unconverged on some maps
        assert not all(res.converged for res in single)
    if max_iter < DEFAULT_BURN_IN:
        assert all(res.iterations <= max_iter for res in single)


def newton_step_name(dim):
    """The Newton step the ascent takes at dimension D."""
    return "_newton_step3" if dim == 3 else "_newton_step"


def newton_call_maps(run, dim, monkeypatch):
    """The Newton step calls run() makes, in order, as (O-steps before the
    call, the map of each of its chains, from the Newton image's blocks)."""
    name = "_sign_step3" if dim == 3 else "_sign_step"
    newton_name = newton_step_name(dim)
    sign_step, newton_step = getattr(norms, name), getattr(norms, newton_name)
    block_product = norms._block_product
    o_steps, calls, open_calls = [0], [], []

    def counted(W):
        o_steps[0] += 1
        return sign_step(W)

    def newton(*args):
        open_calls.append([])
        try:
            return newton_step(*args)
        finally:
            calls.append((o_steps[0], open_calls.pop()))

    def product(mats, x, maps):
        if open_calls:
            open_calls[-1].extend(maps.tolist())
        return block_product(mats, x, maps)

    with monkeypatch.context() as patch:
        patch.setattr(norms, name, counted)
        patch.setattr(norms, newton_name, newton)
        patch.setattr(norms, "_block_product", product)
        run()
    return calls


@pytest.mark.parametrize("dim", [3, 4])
def test_shared_pass_holds_every_leader_with_one_newton_call_per_round(
        dim, monkeypatch):
    # after burn-in the leaders of every map in the call share one pass from
    # its first round, and each round makes one Newton call on all the
    # chains that try, with the same result as each map's own call
    stack = mixed_map_stack(dim)
    single = single_map_ascents(dim, DEFAULT_MAX_ITER)
    leaders = sum(chains_after_burn_in(M, dim, monkeypatch) for M in stack)
    block_product, shared_products = norms._block_product, []

    def product(mats, x, maps):
        if x.shape[1] == maps.size:     # one chain per block: the shared pass
            shared_products.append(maps.size)
        return block_product(mats, x, maps)

    monkeypatch.setattr(norms, "_block_product", product)
    batch = []
    calls = newton_call_maps(
        lambda: batch.extend(_alternating_ascents(stack, dim)), dim,
        monkeypatch)
    assert len(batch) == len(stack)
    for got, want in zip(batch, single):
        assert_same_result(got, want)
    rounds = [o_steps for o_steps, _ in calls]
    assert rounds and len(set(rounds)) == len(rounds)
    assert shared_products[0] == leaders


@pytest.mark.parametrize("dim", [3, 4])
def test_ascent_above_a_threshold_certifies_and_leaves_other_maps_alone(dim):
    # with above, a map stops at its first O-step value above it, in burn-in
    # (here at the first O-step too) or in the shared pass: a lower bound
    # above the threshold, unconverged, the same in the stack as alone. The
    # full value exceeds the threshold iff the map is certified, and every
    # other map gets its single-map result bit for bit
    stack = mixed_map_stack(dim)
    single = single_map_ascents(dim, DEFAULT_MAX_ITER)
    values = np.array([res.value for res in single])
    slowest = max(range(len(single)), key=lambda k: single[k].iterations)
    certified_at = set()
    for above in (float(np.median(values)), values[slowest] * (1 - 1e-6)):
        for order in (1, -1):
            batch = _alternating_ascents(stack[::order], dim,
                                         above=np.full(len(stack), above))
            for M, got, want in zip(stack[::order], batch, single[::order]):
                if want.value <= above:
                    assert_same_result(got, want)
                    continue
                assert above < got.value <= want.value + 1e-12
                assert not got.converged
                assert got.iterations <= want.iterations
                certified_at.add(got.iterations)
                if order == 1:
                    assert_same_result(got, _alternating_ascents(
                        [M], dim, above=np.array([above]))[0])
    assert 1 in certified_at
    assert max(certified_at) > DEFAULT_BURN_IN
    # one threshold per map, inf where the full value is asked for: each
    # map's result is that of a call with it alone at its own threshold
    thresholds = np.where(np.arange(len(stack)) % 2, np.inf,
                          float(np.median(values)))
    batch = _alternating_ascents(stack, dim, above=thresholds)
    for M, above, got in zip(stack, thresholds, batch):
        assert_same_result(got, _alternating_ascents(
            [M], dim, above=np.array([above]))[0])
    assert any(not res.converged for res in batch[::2])


def test_ascent_above_a_threshold_leaves_the_qubit_norm_exact(spin_spectral):
    M = identity_minus_stationary(spin_spectral).matrix
    exact = norms._induced_norms([M], 2)[0]
    assert_same_result(norms._induced_norms([M], 2, above=np.zeros(1))[0],
                       exact)


def test_lockstep_ascent_of_no_maps():
    assert _alternating_ascents([], 3) == []


def assert_same_result(a, b):
    for name in ("value", "iterations", "restarts_used", "converged", "exact"):
        assert type(getattr(a, name)) is type(getattr(b, name)), name
        assert getattr(a, name) == getattr(b, name), name
    for name in ("witness_state", "witness_observable", "restart_values"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def assert_batch_reads(batch, full):
    """batch[k] equals full[k], a full result of map k, field by field and
    bit for bit, read in reverse order; its value, flags, iterations and
    restart values are those of the batch's arrays, which a read of values
    alone takes without building a witness. The witness stacks are built on
    the first read."""
    assert len(batch) == len(full)
    values = batch.values.tolist()
    assert batch._stacks is None
    for k in reversed(range(len(batch))):
        got = batch[k]
        assert_same_result(got, full[k])
        assert (got.value, got.exact, got.converged, got.iterations) == (
            values[k], batch.exact[k], batch.converged[k],
            batch.iterations[k])
        assert got.restart_values.tobytes() == \
            batch.restart_values[k].tobytes()
        assert got.restarts_used == batch.restart_values.shape[1]
    assert batch._stacks is not None or not len(batch)


def assert_witness_reproduces(res, M, dim):
    """res's witness state and observable give its value on the map M."""
    X = Superoperator(dim, M, hermiticity_preserving=True)
    out = X.apply(np.outer(res.witness_state, res.witness_state.conj()))
    out = (out + out.conj().T) / 2
    assert np.trace(res.witness_observable @ out).real == pytest.approx(
        res.value, abs=1e-12)


def test_qubit_batch_builds_each_full_result_when_read(spin_spectral):
    # every branch of the closed form (sphere, affine, hard case, the three
    # sign operators) in one stack; each read result is that of a call on
    # its map alone
    E, P = spin_spectral.evolution_matrix, \
        stationary_projector(spin_spectral).matrix
    T = np.zeros((4, 4))
    T[0, 0], T[0, 1:], T[1:, 1:] = -0.5, (1.0, 2.0, 0.0), 0.01 * np.eye(3)
    stack = np.array([E(0.3) - P, E(2.0) - np.eye(4), np.zeros((4, 4)),
                      np.eye(4), -np.eye(4), map_of_pauli_transfer(T)]
                     + [M for _, M, _ in random_qubit_maps(2, seed=5)])
    batch = norms._induced_norms(stack, 2)
    full = [norms._qubit_induced_norms([M])[0] for M in stack]
    assert_batch_reads(batch, full)
    assert batch.exact.all() and batch.converged.all()
    assert not batch.iterations.any()
    for M, res in zip(stack, full):
        assert_witness_reproduces(res, M, 2)


def test_ascent_batch_builds_each_full_result_when_read():
    # a D = 3 stack with above, certificates among its maps: each read
    # result is that of a call on its map alone at its own threshold
    stack = mixed_map_stack(3)[:16]
    full = single_map_ascents(3, DEFAULT_MAX_ITER)[:16]
    above = np.where(np.arange(16) % 2, np.inf,
                     float(np.median([res.value for res in full])))
    batch = _alternating_ascents(stack, 3, above=above)
    certified = batch.values > above
    assert certified.any() and not batch.converged[certified].any()
    assert_batch_reads(batch, [_alternating_ascents(
        [M], 3, above=np.array([a]))[0] for M, a in zip(stack, above)])
    for M, res in zip(stack, batch):
        assert_witness_reproduces(res, M, 3)


def test_classical_batch_builds_each_full_result_when_read():
    # the exact l1 value with a basis-vector witness: the column of largest
    # absolute sum and the signs of its entries
    from metastab.classical import ClassicalBackend
    from metastab.models import three_state_double_well

    dyn = ClassicalBackend(three_state_double_well(1.0, 1e-3))
    rng = np.random.default_rng(2)
    stack = [dyn.generator_matrix(), dyn.evolution_matrix(2.0) - np.eye(3)]
    stack += list(rng.normal(size=(4, 3, 3)))
    full = []
    for M in stack:
        j = int(np.argmax(np.abs(M).sum(axis=0)))
        value = float(np.abs(M).sum(axis=0).max())
        full.append(norms.InducedNormResult(
            value=value, witness_state=np.eye(3)[:, j],
            witness_observable=np.sign(M[:, j]), iterations=0,
            restarts_used=1, converged=True,
            restart_values=np.array([value]), exact=True))
    assert_batch_reads(dyn.norm_results(stack), full)
    assert_batch_reads(dyn.norm_results(stack, above=np.zeros(6)), full)


def test_batches_of_no_maps():
    from metastab.classical import ClassicalBackend, ClassicalGenerator

    dyn = ClassicalBackend(ClassicalGenerator(np.array([[-1.0, 1.0],
                                                        [1.0, -1.0]])))
    for batch in (norms._induced_norms([], 2), norms._induced_norms([], 3),
                  dyn.norm_results([])):
        assert len(batch) == 0 and batch == [] and list(batch) == []
        assert batch.values.shape == batch.converged.shape == (0,)
        assert batch.restart_values.shape[0] == 0
        with pytest.raises(IndexError):
            batch[0]


def degenerate_maps(dim):
    """Map matrices whose X(psi psi^dag) is degenerate for every psi: the
    zero map, the identity map and rho -> Tr(rho) I / dim."""
    flat_eye = vec(np.eye(dim))
    return [np.zeros((dim * dim, dim * dim), dtype=complex),
            np.eye(dim * dim, dtype=complex),
            np.outer(flat_eye, flat_eye.conj()) / dim]


def test_lockstep_ascent_with_degenerate_maps_equals_single_map_ascent():
    # degenerate maps take eigh on every closed-form step at D = 3; placed
    # between ordinary maps, every map still gets its single-map result bit
    # for bit, in either order
    mixed = mixed_map_stack(3)
    single = single_map_ascents(3, DEFAULT_MAX_ITER)
    assert [res.value for res in single[:3]] == pytest.approx([0.0, 1.0, 1.0],
                                                              abs=1e-12)
    order = [3, 0, 4, 1, 5, 2]
    for k in (order, order[::-1]):
        batch = _alternating_ascents(mixed[k], 3)
        for got, j in zip(batch, k):
            assert_same_result(got, single[j])


def test_d3_ascent_sends_eigh_only_the_masked_matrices(monkeypatch):
    # at D = 3 every coordinate step, in burn-in and after it, is a closed
    # form that passes to eigh exactly the matrices _eigvalsh3 masks; after
    # burn-in the Newton steps come on top, and they send eigh nothing. For
    # the map I - P of a random model the psi-step matrix is
    # O - Tr(O sigma) I, with the degenerate spectrum of a sign operator, so
    # every psi-step goes to eigh, and the ascent runs past burn-in
    from metastab.regimes import QuantumBackend

    dyn = QuantumBackend(model=random_lindbladian(3, 2, seed=0), seed=0)
    M = dyn._norm_map(("ident-stat",))
    steps = step_traffic(lambda: _alternating_ascent(M, 3), monkeypatch)
    coordinate = [step for step in steps if step[0] != "_newton_step3"]
    assert all(name.endswith("3") and masked == sent
               for name, _, masked, sent in coordinate)
    # one O-step and one psi-step per iteration; burn-in ends with the
    # psi-step of its last iteration, and the Newton steps follow psi-steps
    burn_in = coordinate[:2 * DEFAULT_BURN_IN]
    after = coordinate[2 * DEFAULT_BURN_IN:]
    assert len(after) > 2
    assert all(sent for *_, sent in burn_in[1::2] + after[1::2])
    assert [name for name, *_ in steps[:2 * DEFAULT_BURN_IN]] == \
        [name for name, *_ in burn_in]
    newton = [k for k, step in enumerate(steps) if step[0] == "_newton_step3"]
    assert newton and all(steps[k - 1][0] == "_top_eigvec3" for k in newton)
    assert all(steps[k][3] == 0 for k in newton)
    # in a batch too, degenerate maps included: the shared pass takes the
    # same steps
    stack = np.concatenate([mixed_map_stack(3), M[None]])
    steps = step_traffic(lambda: _alternating_ascents(stack, 3), monkeypatch)
    assert all(name.endswith("3") and masked == sent
               for name, _, masked, sent in steps
               if name != "_newton_step3")
    assert sum(sent for *_, sent in steps) > 0
    newton = [sent for name, _, _, sent in steps if name == "_newton_step3"]
    assert newton and not any(newton)


def test_d4_ascent_never_reaches_the_closed_forms(monkeypatch):
    steps = step_traffic(lambda: _alternating_ascents(mixed_map_stack(4), 4),
                         monkeypatch)
    assert steps and not any(name.endswith("3") for name, *_ in steps)


# --- Newton polish after burn-in ---------------------------------------------

def herm_image(M, dim):
    """rho -> Herm X(rho) for a stack of rho, X the map with matrix M."""
    def image(rho):
        n = rho.shape[0]
        W = rho.transpose(0, 2, 1).reshape(n, dim * dim) @ M.T
        W = W.reshape(n, dim, dim).transpose(0, 2, 1)
        return (W + W.conj().transpose(0, 2, 1)) / 2
    return image


def trace_norm_values(image, states):
    """||Herm X(psi psi^dag)||_1 for each row psi of states, by eigvalsh."""
    rho = states[:, :, None] * states[:, None, :].conj()
    return np.abs(np.linalg.eigvalsh(image(rho))).sum(axis=1)


def newton_model(M, dim, psi):
    """(b, g, H) of the Newton model of the map M at the unit states psi
    (n, D), on the path the ascent takes: _newton_model3 on coordinate rows
    at D = 3, with O from the closed-form sign step, and _newton_model with
    O from eigh at D >= 4. Returned as (n, 2D - 2, D), (n, 2D - 2) and
    (n, 2D - 2, 2D - 2) arrays."""
    if dim == 3:
        R, R_dual = _coordinate_maps(M[None])
        rows = _state_rows(psi)
        W = R[0] @ _pure_state_coords(rows)
        O = _sign_step3(W)[1]
        b, g, H = _newton_model3(rows, W, O, R_dual[0] @ O,
                                 lambda x: R[0] @ x)
        return ((b[:, :3] + 1j * b[:, 3:]).transpose(2, 0, 1), g.T,
                H.transpose(2, 0, 1))
    image, adjoint = herm_image(M, dim), herm_image(M.conj().T, dim)
    W = image(psi[:, :, None] * psi[:, None, :].conj())
    return _newton_model(psi, W, adjoint(_sign_step(W)[1]), image)


@pytest.mark.parametrize("dim", [3, 4])
def test_newton_model_matches_finite_differences(dim):
    # gradient and Hessian of f(psi) = ||Herm X(psi psi^dag)||_1 in the
    # tangent basis, against central differences of f along the retraction
    # normalize(psi + x.b), at random states where no eigenvalue of W lies
    # within 1e-2 of 0, so that the sign pattern is stable and f smooth
    spec = spectral_decompose(build_liouvillian(
        random_lindbladian(dim, 2, seed=3)))
    M = spec.evolution_matrix(0.5) - spec.evolution_matrix(2.0)
    image = herm_image(M, dim)
    rng = np.random.default_rng(2)
    k, h, checked = 2 * dim - 2, 1e-4, 0
    while checked < 5:
        psi = rng.normal(size=(1, dim)) + 1j * rng.normal(size=(1, dim))
        psi /= np.linalg.norm(psi)
        lam = np.linalg.eigvalsh(image(psi[:, :, None] * psi[:, None, :].conj()))
        if np.abs(lam).min() <= 1e-2:
            continue
        checked += 1
        b, g, H = newton_model(M, dim, psi)
        # b is an orthonormal real basis of the tangent space at psi
        assert b.shape == (1, k, dim)
        assert np.abs((b[0].conj() @ b[0].T).real - np.eye(k)).max() <= 1e-14
        assert np.abs(b[0].conj() @ psi[0]).max() <= 1e-14

        def f(x):
            state = psi[0] + x @ b[0]
            return trace_norm_values(image, state[None] / np.linalg.norm(
                state))[0]

        E = h * np.eye(k)
        g_fd = np.array([f(E[l]) - f(-E[l]) for l in range(k)]) / (2 * h)
        H_fd = np.array([[f(E[l] + E[m]) - f(E[l] - E[m]) - f(E[m] - E[l])
                          + f(-E[l] - E[m]) for m in range(k)]
                         for l in range(k)]) / (4 * h * h)
        assert np.abs(g_fd - g[0]).max() <= 1e-6 * np.abs(g[0]).max()
        assert np.abs(H_fd - H[0]).max() <= 1e-5 * np.abs(H[0]).max()


def closed_form_newton_cases():
    """label -> (states (n, 3), O-step matrices W (n, 3, 3), psi-step
    matrices A (n, 3, 3), real 9 x 9 coordinate image). The model takes W,
    A and the image as given, so W and A need not come from the image.
    "stable": states near the witness of a random model's map and random
    states, with no eigenvalue of W within 1e-2 ||W|| of 0, and W, A and
    the image of that map, as in the ascent; the others are random states
    with W of a given spectrum, random A and a random image: "same_sign"
    (the Daleckii-Krein term is 0), "near_pair" (a lone eigenvalue and a
    same-sign pair within 1e-2 or less, the flat maps' (-2/3, 1/3, 1/3)
    among them, masked or not) and "masked" (matrices that _eigvalsh3
    passes to eigh, the zero matrix and multiples of I included)."""
    rng = np.random.default_rng(8)

    def random_states(n):
        psi = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        return psi / np.linalg.norm(psi, axis=1)[:, None]

    spec = spectral_decompose(build_liouvillian(
        random_lindbladian(3, 2, seed=3)))
    M = spec.evolution_matrix(0.5) - spec.evolution_matrix(2.0)
    R, R_dual = _coordinate_maps(M[None])
    witness = _alternating_ascent(M, 3).witness_state
    psi = np.concatenate([witness + 1e-2 * random_states(30),
                          random_states(30)])
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    W = R[0] @ _pure_state_coords(_state_rows(psi))
    lam = np.linalg.eigvalsh(_matrices(W))
    stable = np.abs(lam).min(axis=1) > 1e-2 * np.abs(lam).max(axis=1)
    O = _sign_step3(W)[1]
    cases = {"stable": (psi[stable], _matrices(W[:, stable]),
                        _matrices(R_dual[0] @ O[:, stable]), R[0])}
    spectra = {
        "same_sign": [[0.3, 1.1, 2.0], [-0.5, -1.4, -3.0], [1.0, 2.0, 3.0]],
        "near_pair": [[-2 / 3, 1 / 3, 1 / 3], [-2 / 3, 1 / 3, 1 / 3 + 1e-12],
                      [-2 / 3, 1 / 3, 1 / 3 + 2e-3], [1.0, 1.0 + 1e-8, -0.7],
                      [1.0, 1.0 + 1e-2, -0.7], [-2.0, 0.5, 0.5 - 1e-4],
                      [0.4, -0.9, -0.9]],
        "masked": [[0.0, 0.0, 0.0], [2.5, 2.5, 2.5], [-0.3, -0.3, -0.3],
                   [0.7, 0.7, -0.2], [-1.0, 3.0, -1.0],
                   [1.0, 1.0 + 1e-10, -0.7], [-2.0, 0.5, 0.5 - 1e-12]],
    }
    for label, values in spectra.items():
        n = len(values)
        W = np.array([rotated(rng, v) for v in values])
        A = np.array([random_hermitian(rng, 3) for _ in range(n)])
        cases[label] = (random_states(n), W, A, rng.normal(size=(9, 9)))
    return cases


@pytest.mark.parametrize("label", ["stable", "same_sign", "near_pair",
                                   "masked"])
def test_closed_form_newton_model_matches_newton_model(label):
    # _newton_model3, from the coordinate rows and the sign operator alone,
    # against _newton_model, which takes eigh of W: the same basis, and g
    # and H within 1e-12 of the size of their terms; and _newton_step3's
    # verdict on H (the pivots of -H) equals eigh's wherever the smallest
    # eigenvalue of -H lies more than 1e-12 ||H|| from 0
    psi, W, A, R = closed_form_newton_cases()[label]
    n = len(psi)
    rows, Wc, Ac = _state_rows(psi), _coords(W), _coords(A)

    def image(x):
        return R @ x

    masked = _eigvalsh3(Wc)[1]
    if label == "masked":
        assert masked.all()
    elif label == "near_pair":
        assert masked.any() and not masked.all()
    O = _sign_step3(Wc)[1]
    b3, g3, H3 = _newton_model3(rows, Wc, O, Ac, image)
    _, definite = _newton_step3(rows, Wc, O, Ac, image)
    b, g, H = _newton_model(psi, W, A, lambda rho: _matrices(image(
        _coords(rho))))
    assert np.abs((b3[:, :3] + 1j * b3[:, 3:]).transpose(2, 0, 1) - b).max() \
        <= 1e-15
    g3, H3 = g3.T, H3.transpose(2, 0, 1)
    g_scale = 2 * np.abs(A).max(axis=(1, 2))
    H_scale = np.abs(H).max(axis=(1, 2))
    assert np.all(np.abs(g3 - g).max(axis=1) <= 1e-12 * g_scale)
    assert np.all(np.abs(H3 - H).max(axis=(1, 2)) <= 1e-12 * H_scale)
    mu = np.linalg.eigvalsh(-H)[:, 0]
    clear = np.abs(mu) > 1e-12 * H_scale
    assert np.array_equal(definite[clear], mu[clear] > 0)
    if label == "stable":
        assert n >= 40 and clear.all()
        assert 0 < definite.sum() < n
    if label == "same_sign":
        # no lone eigenvalue: H is 2 Re<b_l, A b_m> - 2 f I alone
        f = np.abs(np.linalg.eigvalsh(W)).sum(axis=1)
        first = 2 * (b.conj() @ A @ b.transpose(0, 2, 1)).real
        assert np.all(np.abs(H3 + 2 * f[:, None, None] * np.eye(4) - first)
                      .max(axis=(1, 2)) <= 1e-12 * H_scale)


@pytest.mark.parametrize("dim", [3, 4])
def test_newton_step_does_not_depend_on_the_stack(dim):
    # what the lockstep ascent relies on: a chain gets the same candidate
    # and the same verdict on its Hessian, bit for bit, alone and in a
    # stack, at any position. Chains at the witnesses of the mixed stack's
    # maps (mostly definite) alternate with chains at random states
    maps = mixed_map_stack(dim)[3:43]
    witnesses = [res.witness_state
                 for res in single_map_ascents(dim, DEFAULT_MAX_ITER)[3:43]]
    rng = np.random.default_rng(6)
    psi = rng.normal(size=(40, dim)) + 1j * rng.normal(size=(40, dim))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    psi[::2] = witnesses[::2]
    k = 2 * dim - 2
    R, R_dual = _coordinate_maps(maps)

    def per_chain(mats, x):     # one plain product per chain's block
        h = x.shape[1] // len(mats)
        return np.concatenate([m @ x[:, i * h:(i + 1) * h]
                               for i, m in enumerate(mats)], axis=1)

    def step(lo, hi):
        if dim == 3:
            rows = _state_rows(psi[lo:hi])
            W = per_chain(R[lo:hi], _pure_state_coords(rows))
            O = _sign_step3(W)[1]
            return _newton_step3(rows, W, O, per_chain(R_dual[lo:hi], O),
                                 lambda x: per_chain(R[lo:hi], x))

        def image(rho):         # each chain's block of rows, by its map
            return np.concatenate([herm_image(maps[lo + i // k], dim)(
                rho[i:i + k]) for i in range(0, len(rho), k)])

        rho = psi[lo:hi, :, None] * psi[lo:hi, None, :].conj()
        W = np.concatenate([herm_image(M, dim)(r[None])
                            for M, r in zip(maps[lo:hi], rho)])
        A = np.concatenate([herm_image(M.conj().T, dim)(O[None])
                            for M, O in zip(maps[lo:hi], _sign_step(W)[1])])
        cand, definite = _newton_step(psi[lo:hi].copy(), W, A, image)
        return cand.T, definite

    cand, definite = step(0, len(psi))
    assert definite[::2].sum() > definite[1::2].sum()
    for j in range(len(psi)):
        for lo, hi in ((j, j + 1), (max(0, j - 2), j + 3)):
            c, d = step(lo, hi)
            assert c[:, j - lo].tobytes() == cand[:, j].tobytes()
            assert d[j - lo] == definite[j]


def test_tangent_basis_where_psi_has_no_first_component():
    psi = np.array([[0.0, 0.6, 0.8j], [1.0, 0.0, 0.0], [-1j, 0.0, 0.0]])
    U = _tangent_basis(psi)
    for u, p in zip(U, psi):
        assert np.abs(u.conj() @ u.T - np.eye(2)).max() <= 1e-15
        assert np.abs(u.conj() @ p).max() <= 1e-15


@pytest.mark.parametrize("dim", [3, 4])
def test_newton_polish_takes_every_branch(dim, monkeypatch):
    # on the mixed stack the shared pass takes Newton candidates that raise
    # the value (accepted), candidates below the chain's value (turned
    # back), and indefinite Hessians (the chain backs off): the lockstep
    # tests above compare each path with the single-map call bit for bit
    seen = []
    name = newton_step_name(dim)
    newton_step = getattr(norms, name)

    def recorded(*args):
        cand, definite = newton_step(*args)
        psi, image = args[0], args[-1]
        k = 2 * dim - 2

        def values(states):     # image takes 2D - 2 rows per chain
            if dim == 3:
                x = np.repeat(_pure_state_coords(states), k, axis=1)
                out = _matrices(image(x)[:, ::k])
            else:
                rho = states[:, :, None] * states[:, None, :].conj()
                out = image(np.repeat(rho, k, axis=0))[::k]
            return np.abs(np.linalg.eigvalsh(out)).sum(axis=1)

        seen.append((definite, values(psi), values(cand)))
        return cand, definite

    monkeypatch.setattr(norms, name, recorded)
    _alternating_ascents(mixed_map_stack(dim), dim)
    definite, before, after = (np.concatenate(x) for x in zip(*seen))
    gain = ((after - before) / before)[definite]
    assert (~definite).any()
    assert (gain > 1e-12).sum() > (gain < -1e-12).sum() > 0


def test_newton_back_off_doubles(monkeypatch):
    # a chain whose Hessian is never definite tries Newton again after
    # waiting 1, 2, 4, ... rounds: in rounds 1, 3, 6, 11, 20, ... after
    # burn-in, and never in the round it stops in
    def indefinite(psi, W, O, A, image):
        return psi, np.zeros(psi.shape[1], dtype=bool)

    monkeypatch.setattr(norms, "_newton_step3", indefinite)
    M = mixed_map_stack(3)[65]
    steps = step_traffic(
        lambda: _alternating_ascent(M, 3, keep_after_burn_in=1), monkeypatch)
    after = [name for name, *_ in steps[2 * DEFAULT_BURN_IN:]]
    rounds = after.count("_sign_step3")
    tried = [after[:k].count("_sign_step3")
             for k, name in enumerate(after) if name == "_newton_step3"]
    expected, r, wait = [], 1, 1
    while r < rounds:
        expected.append(r)
        r, wait = r + wait + 1, 2 * wait
    assert len(expected) >= 7
    assert tried == expected


@pytest.mark.parametrize("dim", [3, 4])
def test_witness_pairs_reproduce_polished_values(dim):
    # every reported value, polished or not, is Tr[O X(psi psi^dag)] of its
    # witness pair, O the sign operator of X(psi psi^dag), and it is the
    # largest restart value
    results = single_map_ascents(dim, DEFAULT_MAX_ITER)
    for M, res in zip(mixed_map_stack(dim), results):
        assert res.value == res.restart_values.max()
        psi, O = res.witness_state, res.witness_observable
        W = herm_image(M, dim)(np.outer(psi, psi.conj())[None])[0]
        scale = max(1.0, res.value)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.trace(O @ W).real - res.value) <= 1e-12 * scale
        assert abs(trace_norm(W) - res.value) <= 1e-12 * scale
        assert np.abs(O @ O - np.eye(dim)).max() <= 1e-12
    # ties go to the lowest restart: every restart of the zero map stops at
    # 0 on its first O-step, and the witness is the first seed, e_1
    zero = results[0]
    assert not zero.restart_values.any()
    e_1 = np.eye(dim, dtype=complex)[0]
    assert zero.witness_state.tobytes() == e_1.tobytes()


# --- closed-form 3 x 3 steps -------------------------------------------------

def rotated(rng, eigenvalues):
    """Exactly Hermitian U diag(eigenvalues) U^dag, U random unitary."""
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    U, _ = np.linalg.qr(G)
    H = (U * np.asarray(eigenvalues, dtype=float)) @ U.conj().T
    return (H + H.conj().T) / 2


def closed_form_cases():
    """label -> (stack of Hermitian 3 x 3 matrices, whether they take eigh)."""
    rng = np.random.default_rng(11)
    near = []
    for delta in (1e-8, 1e-10, 1e-12, 1e-14):
        near += [rotated(rng, [1.0, 1.0 + delta, -0.7]),
                 rotated(rng, [-2.0, 0.5, 0.5 - delta]),
                 rotated(rng, [-delta / 2, delta / 2, 1.0])]
    scales = 10.0 ** rng.uniform(-6, 3, size=200)
    return {
        "random": (np.array([random_hermitian(rng, 3) * scale
                             for scale in scales]), False),
        "near_degenerate": (np.array(near), True),
        "degenerate": (np.array(
            [np.zeros((3, 3)), 2.5 * np.eye(3), -0.3 * np.eye(3),
             np.diag([0.7, 0.7, -0.2]), np.diag([-1.0, 3.0, -1.0]),
             rotated(rng, [0.4, -0.9, -0.9])], dtype=complex), True),
        "same_sign": (np.array([rotated(rng, [0.3, 1.1, 2.0]),
                                rotated(rng, [-0.5, -1.4, -3.0]),
                                np.diag([1.0, 2.0, 3.0]).astype(complex)]),
                      False),
        "lone_sign_near_zero": (np.array(
            [rotated(rng, [-1e-9, 0.4, 1.0]), rotated(rng, [1e-9, -0.5, -1.2]),
             rotated(rng, [-1e-12, 0.3, 0.9]),
             rotated(rng, [2e-12, -0.6, -1.0])]), False),
        "underflow": (np.array([random_hermitian(rng, 3) * 1e-120]), True),
    }


@pytest.mark.parametrize("label", list(closed_form_cases()))
def test_closed_form_steps_match_eigh(label):
    W, takes_eigh = closed_form_cases()[label]
    c = _coords(W)
    ref = np.linalg.eigvalsh(W)[:, ::-1]
    scale = np.abs(ref).max(axis=1)
    lam, needs_eigh = _eigvalsh3(c)
    assert np.all(needs_eigh == takes_eigh)
    closed = ~needs_eigh
    assert np.all(np.abs(lam.T - ref)[closed] <= 1e-12 * scale[closed, None])

    values, obs = _sign_step3(c)
    ref_values, ref_obs = _sign_step(W)
    assert obs.shape == c.shape
    assert np.all(np.abs(values - ref_values) <= 1e-12 * scale)
    assert np.abs(_matrices(obs) - ref_obs).max() <= 1e-12
    if label == "same_sign":
        assert np.array_equal(_matrices(obs),
                              np.sign(ref[:, :1, None]) * np.eye(3))

    psi = _states(_top_eigvec3(c))
    assert np.allclose(np.linalg.norm(psi, axis=1), 1.0, rtol=0, atol=1e-14)
    overlap = np.abs(np.einsum("ri,ri->r", psi.conj(), _top_eigvec(W)))
    assert np.all(overlap >= 1 - 1e-12)


def test_closed_form_steps_do_not_depend_on_the_stack():
    # what the lockstep ascent relies on: a matrix gets the same bits alone,
    # in a short stack and in a long one, at any position
    c = _coords(np.concatenate([stack for stack, _ in
                                closed_form_cases().values()]))
    values, obs = _sign_step3(c)
    psi = _top_eigvec3(c)
    for k in range(c.shape[1]):
        for lo, hi in ((k, k + 1), (max(0, k - 2), k + 3)):
            v, o = _sign_step3(c[:, lo:hi].copy())
            p = _top_eigvec3(c[:, lo:hi].copy())
            j = k - lo
            assert v[j].tobytes() == values[k].tobytes()
            assert o[:, j].tobytes() == obs[:, k].tobytes()
            assert p[:, j].tobytes() == psi[:, k].tobytes()


# --- real Hermitian coordinates ----------------------------------------------

def herm_adjoint_image(M, dim):
    """O -> Herm X^dag(O) for a stack of O, X^dag the map with matrix M^dag
    in column stacking."""
    return herm_image(M.conj().T, dim)


@pytest.mark.parametrize("dim", [3, 4])
def test_coordinate_maps_reproduce_the_complex_products(dim):
    # R and R_dual act on coordinates as Herm X and Herm X^dag act on
    # Hermitian matrices, for maps that need not preserve Hermiticity
    rng = np.random.default_rng(4)
    n = dim * dim
    Ms = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    R, R_dual = _coordinate_maps(Ms)
    assert R.shape == R_dual.shape == (5, n, n) and R.dtype == float
    H = np.array([random_hermitian(rng, dim) for _ in range(7)])
    for M, r, r_dual in zip(Ms, R, R_dual):
        scale = np.abs(M).max()
        got = _matrices(r @ _coords(H))
        assert np.abs(got - herm_image(M, dim)(H)).max() <= 1e-13 * scale
        got = _matrices(r_dual @ _coords(H))
        assert np.abs(got - herm_adjoint_image(M, dim)(H)).max() \
            <= 1e-13 * scale


@pytest.mark.parametrize("dim", [3, 4, 6])
def test_coordinates_round_trip(dim):
    rng = np.random.default_rng(9)
    H = np.array([random_hermitian(rng, dim) for _ in range(5)])
    c = _coords(H)
    assert c.shape == (dim * dim, 5) and c.flags.c_contiguous
    assert np.array_equal(_matrices(c), H)
    psi = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
    rows = _state_rows(psi)
    assert rows.shape == (2 * dim, 5) and rows.flags.c_contiguous
    assert np.array_equal(_states(rows), psi)
    rho = psi[:, :, None] * psi[:, None, :].conj()
    assert np.abs(_matrices(_pure_state_coords(rows)) - rho).max() <= 1e-14 \
        * np.abs(rho).max()


@pytest.mark.parametrize("dim", [3, 4])
def test_stacked_products_equal_the_plain_products(dim):
    # what the lockstep ascent relies on: each block of columns, of the
    # height of a burn-in block (restarts), a shared-pass chain (1) or a
    # Newton image (2D - 2 tangent rows), gets exactly the plain 2-D product
    # of its map with the block alone, whatever the other blocks and maps
    rng = np.random.default_rng(5)
    m = dim * dim
    mats = rng.normal(size=(6, m, m))
    for h in (max(16, 4 * dim), 1, 2 * dim - 2):
        for maps in ([0, 3, 1, 3, 5, 2], [4], [2]):
            maps = np.array(maps)
            x = rng.normal(size=(m, maps.size * h))
            if maps.size == 1:      # a single block, on rows in any layout
                x = np.asfortranarray(x)
            out = _block_product(mats, x, maps)
            assert out.shape == x.shape and out.flags.c_contiguous
            for g, k in enumerate(maps):
                block = x[:, g * h:(g + 1) * h]
                alone = mats[k] @ block.copy()
                assert out[:, g * h:(g + 1) * h].copy().tobytes() == \
                    alone.tobytes()


# --- exact qubit norm on the backend path ------------------------------------

PAULI_VECS = np.array([vec(np.eye(2)), vec(2 * SPIN_X), vec(2 * SPIN_Y),
                       vec(2 * SPIN_Z)]).T


def map_of_pauli_transfer(T):
    """Superoperator matrix M with T = S^dag M S / 2 (S = Pauli vec basis)."""
    return PAULI_VECS @ T @ PAULI_VECS.conj().T / 2


def random_pauli_transfer(rng, kind):
    """Real 4 x 4 Pauli transfer matrix [[a, b], [c, B]] of one of four kinds:
    generic; hard case (a = b = 0, top singular value of B repeated, c = 0 or
    c with no component on the top right singular space), returned with its
    exact norm; affine part |a| + |b| dominant; B small."""
    T = rng.normal(size=(4, 4))
    if kind == "hard":
        # variants: c = 0; c orthogonal to the top space, in a rotated frame
        # (g_top zero up to round-off) or in the axis frame (g_top exactly 0)
        variant = rng.integers(3)
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        W, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if variant == 2:
            U = W = np.eye(3)
        x, gamma = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        if variant == 0:
            gamma = 0.0
        T[0, :] = 0.0
        T[1:, 1:] = U @ np.diag([1.3, 1.3, x]) @ W
        T[1:, 0] = gamma * U[:, 2]
        # max over unit r of 1.69 (1 - r3^2) + (gamma + x r3)^2; the
        # maximizer r3 = x gamma / (1.69 - x^2) lies inside [-1, 1]
        return T, np.sqrt(1.69 + gamma ** 2 + (x * gamma) ** 2 / (1.69 - x ** 2))
    if kind == "affine":
        T[0, 0] *= 3.0
        T[0, 1:] *= 5.0
    elif kind == "small_B":
        T[1:, 1:] *= 0.01
    return T, None


QUBIT_KINDS = ("generic", "hard", "affine", "small_B")


def random_qubit_maps(n_per_kind, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_per_kind):
        for kind in QUBIT_KINDS:
            T, exact = random_pauli_transfer(rng, kind)
            yield kind, map_of_pauli_transfer(T), exact


def test_qubit_backend_distances_are_exact(spin_backend):
    rng = np.random.default_rng(4)
    for _ in range(10):
        t1, t2 = (float(t) for t in rng.uniform(0.0, 300.0, 2))
        assert spin_backend.distance(t1, t2) == pytest.approx(
            spin_mode_distance(t1, t2), abs=1e-12)
        assert spin_backend.distance_to_identity(t1) == pytest.approx(
            spin_mode_distance(t1, 0.0), abs=1e-12)
        # both modes have decayed to exactly 0.0 in double precision at 1e6
        assert spin_backend.distance_to_stationary(t1) == pytest.approx(
            spin_mode_distance(t1, 1e6), abs=1e-12)
    res = spin_backend.norm_results([spin_backend.generator_matrix()])[0]
    assert res.exact and res.converged and res.iterations == 0
    assert res.restart_dispersion == 0.0


def dual_upper_bound(M):
    """Upper bound on the induced norm of a qubit map from Lagrangian
    duality, independent of the secular-equation solver: with the Pauli
    transfer matrix [[a, b], [c, B]] and g = B^T c, every mu above
    lambda_max(B^T B) gives max_{|r|=1} |c + B r|^2 <= mu + |c|^2
    + g.(mu - B^T B)^{-1} g; the affine part is at most |a| + |b|."""
    T = (PAULI_VECS.conj().T @ M @ PAULI_VECS).real / 2
    a, b, c, B = T[0, 0], T[0, 1:], T[1:, 0], T[1:, 1:]
    A, g = B.T @ B, B.T @ c
    lmax = np.linalg.eigvalsh(A)[-1]

    def dual(s):
        mu = lmax + s
        return mu + c @ c + g @ np.linalg.solve(mu * np.eye(3) - A, g)

    # the minimizing s lies in (0, |g|]; the hard case has it at 0
    s_lo = 1e-12 * max(1.0, lmax)
    best = scipy.optimize.minimize_scalar(
        dual, bounds=(s_lo, s_lo + np.linalg.norm(g)), method="bounded",
        options={"xatol": 1e-14}).fun
    return max(abs(a) + np.linalg.norm(b), np.sqrt(min(best, dual(s_lo))))


def test_qubit_closed_form_against_ascent_oracle_and_dual_bound():
    n_hard = 0
    for kind, M, known in random_qubit_maps(130, seed=17):
        exact = _induced_norm_matrix(M, 2)
        assert exact.exact
        assert exact.value >= _alternating_ascent(M, 2).value - 1e-12, kind
        X = Superoperator(2, M, hermiticity_preserving=True)
        assert exact.value >= induced_norm_sampling_oracle(X, 2000) - 1e-12
        upper = dual_upper_bound(M)
        assert upper - 1e-9 <= exact.value <= upper + 1e-12, kind
        if known is not None:
            n_hard += 1
            assert exact.value == pytest.approx(known, abs=1e-12)
    assert n_hard == 130


def test_qubit_closed_form_matches_converged_ascent_on_lindblad_maps(
        spin_spectral):
    # the ascent stalls in local maxima of unphysical maps (above), but on
    # evolution differences of Lindblad dynamics it reaches the optimum
    rng = np.random.default_rng(9)
    specs = [spin_spectral] + [spectral_decompose(build_liouvillian(
        random_lindbladian(2, 2, seed=seed))) for seed in (40, 41, 42)]
    for spec in specs:
        for _ in range(10):
            t1, t2 = rng.uniform(0.0, 50.0, 2)
            M = spec.evolution_matrix(t1) - spec.evolution_matrix(t2)
            exact = _induced_norm_matrix(M, 2).value
            assert exact >= _alternating_ascent(M, 2).value - 1e-12
            assert exact <= _alternating_ascent(M, 2, max_iter=20000).value + 1e-8


def test_qubit_norms_of_a_mixed_stack_equal_their_stacks_of_one(
        spin_spectral):
    # the stacked closed form: each map's value and witnesses equal, bit for
    # bit, those of the map alone, whichever branch it takes and however
    # long its secular iteration runs beside the others
    E = spin_spectral.evolution_matrix
    P = stationary_projector(spin_spectral).matrix
    maps = [E(t1) - E(t2)
            for t1, t2 in ((0.1, 0.4), (2.0, 30.0), (5.0, 800.0))]
    maps += [E(t) - np.eye(4) for t in (0.05, 3.0)]
    maps += [E(t) - P for t in (0.3, 35.0)]
    maps += [M for _, M, _ in random_qubit_maps(4, seed=21)]
    special = {}
    for name, a, b, c, B in [
            ("zero", 0.0, 0.0, 0.0, np.zeros((3, 3))),
            ("b = 0", 0.4, 0.0, (0.3, -0.2, 0.1), np.diag([0.5, -0.7, 0.2])),
            # g = B^T c has no component on the doubly degenerate top
            # eigenvector of B^T B
            ("hard", 0.0, 0.0, (0.0, 0.0, 0.2), np.diag([1.3, 1.3, 0.5])),
            ("affine", -0.5, (1.0, 2.0, 0.0), 0.01, 0.01 * np.eye(3)),
            ("identity", 1.0, 0.0, 0.0, np.diag([0.2, 0.1, 0.3])),
            ("minus identity", -1.0, 0.0, 0.0, np.diag([0.2, 0.1, 0.3]))]:
        T = np.zeros((4, 4))
        T[0, 0], T[0, 1:], T[1:, 0], T[1:, 1:] = a, b, c, B
        special[name] = len(maps)
        maps.append(map_of_pauli_transfer(T))
    stack = np.array(maps)
    results = norms._induced_norms(stack, 2)
    assert len(results) == len(maps)
    for k, res in enumerate(results):
        one = norms._qubit_induced_norms(stack[k:k + 1])[0]
        assert res.exact and res.converged and res.iterations == 0
        assert (np.float64(res.value).tobytes()
                == np.float64(one.value).tobytes())
        assert res.witness_state.tobytes() == one.witness_state.tobytes()
        assert (res.witness_observable.tobytes()
                == one.witness_observable.tobytes())
        assert res.restart_values.tolist() == [res.value]
    value = {name: results[k].value for name, k in special.items()}
    assert value["zero"] == 0.0
    assert value["hard"] == pytest.approx(
        np.sqrt(1.69 + 0.04 + 0.01 / 1.44), abs=1e-12)
    assert value["affine"] == pytest.approx(0.5 + np.sqrt(5.0), abs=1e-12)
    assert value["identity"] == value["minus identity"] == 1.0
    # the sign operator's three branches: I, -I and, on the spin maps
    # (a = 0, b = 0), a reflection
    obs = [res.witness_observable for res in results]
    assert obs[special["identity"]].tolist() == np.eye(2).tolist()
    assert obs[special["minus identity"]].tolist() == (-np.eye(2)).tolist()
    assert obs[special["affine"]].tolist() == (-np.eye(2)).tolist()
    for O in obs[:7]:
        assert np.linalg.eigvalsh(O) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_qubit_witness_reproduces_value(spin_spectral):
    P = stationary_projector(spin_spectral).matrix
    spin_maps = [spin_spectral.evolution_matrix(t) - P for t in (0.3, 35.0)]
    maps = spin_maps + [M for _, M, _ in random_qubit_maps(25, seed=3)]
    for M in maps:
        res = _induced_norm_matrix(M, 2)
        X = Superoperator(2, M, hermiticity_preserving=True)
        psi = res.witness_state
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        out = X.apply(np.outer(psi, psi.conj()))
        assert trace_norm(out) == pytest.approx(res.value, abs=1e-12)
        assert np.trace(res.witness_observable @ out).real == pytest.approx(
            res.value, abs=1e-12)
        assert max_norm(res.witness_observable) == pytest.approx(1.0, abs=1e-12)


def test_induced_trace_norm_is_exact_at_d2(spin_spectral):
    # the public norm takes the backends' qubit closed form, not the ascent
    X = identity_minus_stationary(spin_spectral)
    res = induced_trace_norm(X)
    assert res.exact is True
    assert res.value == _induced_norm_matrix(X.matrix, 2).value


def test_max_norm_induced_is_the_adjoint_trace_norm():
    # a non-unital evolution map: X(I) != I, so the max-norm-induced norm of
    # X exceeds its induced trace norm (1, trace preservation); only the
    # adjoint's trace norm bounds every ratio ||X(O)||_max / ||O||_max
    spec = spectral_decompose(build_liouvillian(random_lindbladian(3, 2, seed=5)))
    X = Superoperator(3, spec.evolution_matrix(1.0), hermiticity_preserving=True)
    assert max_norm(X.apply(np.eye(3))) > 1.0 + 1e-3
    value = max_norm_induced(X)
    rng = np.random.default_rng(17)
    for _ in range(200):
        O = random_hermitian(rng, 3)
        assert value >= max_norm(X.apply(O)) / max_norm(O) - 1e-9
