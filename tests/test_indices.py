import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feedrank import indices
from feedrank.errors import DataError, IndexabilityError, NumericalError
from feedrank.indices import compute_indices, constants_a, format_rank_grid, occupancy, rank_states
from feedrank.states import BinSpec
from feedrank.transitions import TransitionModel, build_model
from oracles import gittins_restart, greedy_indices_reference

# Two-state fixture: p1 = [[0.3, 0.7], [0.6, 0.4]], epsilon = 0.25,
# beta = 0.9. Occupancies solve a 2x2 system by hand:
#   S = {0}: V = (470/173, 270/173)
#   S = {1}: V = (630/319, 1030/319)
#   A for S = {0}: (508/319, 157/319)
# Monte Carlo cross-check (400k trajectories, 400 steps, seed 20260815):
#   V^{0} means (2.7170850755, 1.5620737392), ses (1.495e-3, 1.406e-3)
#   V^{1} means (1.9719415325, 3.2268242632), ses (1.643e-3, 1.751e-3)
TWO_STATE_P1 = np.array([[0.3, 0.7], [0.6, 0.4]])


def two_state_model():
    return build_model(TWO_STATE_P1, epsilon=0.25, beta=0.9)


def random_model(rng, n, beta=0.9, epsilon=None):
    p1 = rng.dirichlet(np.ones(n), size=n)
    eps = rng.uniform(0, 1, size=n) if epsilon is None else epsilon
    return build_model(p1, epsilon=eps, beta=beta)


def test_occupancy_full_and_empty_anchors():
    rng = np.random.default_rng(11)
    for n in (2, 5, 8):
        model = random_model(rng, n)
        horizon = 1.0 / (1.0 - model.beta)
        v_full = occupancy(np.ones(n, dtype=bool), model)
        v_empty = occupancy(np.zeros(n, dtype=bool), model)
        assert np.all(np.abs(v_full - horizon) < 1e-10)
        assert np.all(np.abs(v_empty) < 1e-10)


def test_occupancy_two_state_exact_and_vs_monte_carlo():
    model = two_state_model()
    v = occupancy([0], model)
    assert v[0] == pytest.approx(470 / 173, abs=1e-10)
    assert v[1] == pytest.approx(270 / 173, abs=1e-10)
    assert abs(v[0] - 2.7170850755) < 3 * 1.495e-3
    assert abs(v[1] - 1.5620737392) < 3 * 1.406e-3
    w = occupancy([1], model)
    assert w[0] == pytest.approx(630 / 319, abs=1e-10)
    assert w[1] == pytest.approx(1030 / 319, abs=1e-10)
    assert abs(w[0] - 1.9719415325) < 3 * 1.643e-3
    assert abs(w[1] - 3.2268242632) < 3 * 1.751e-3


def test_occupancy_bounds_and_residual():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        model = random_model(rng, n)
        mask = rng.random(n) < 0.5
        v = occupancy(mask, model)
        horizon = 1.0 / (1.0 - model.beta)
        assert np.all(v >= -1e-12)
        assert np.all(v <= horizon + 1e-9)
        p_mixed = np.where(mask[:, None], model.p1, model.p0)
        residual = v - (mask.astype(float) + model.beta * (p_mixed @ v))
        assert np.abs(residual).max() <= 1e-10 * horizon


def test_occupancy_rejects_undiscounted_model():
    # occupancy needs beta < 1; no TransitionModel holds another beta.
    for beta in (1.0, 2.0, np.nan):
        with pytest.raises(DataError, match="beta"):
            occupancy([0], TransitionModel(p1=TWO_STATE_P1, p0=TWO_STATE_P1, beta=beta))


def test_occupancy_accepts_index_lists_and_masks():
    model = two_state_model()
    assert np.array_equal(occupancy([0], model),
                          occupancy(np.array([True, False]), model))
    with pytest.raises(ValueError):
        occupancy([2], model)


def test_constants_two_state_exact():
    model = two_state_model()
    a = constants_a([0], model)
    assert a[0] == pytest.approx(508 / 319, abs=1e-10)
    assert a[1] == pytest.approx(157 / 319, abs=1e-10)


def test_constants_identical_speeds_give_one():
    rng = np.random.default_rng(5)
    model = random_model(rng, 6, epsilon=1.0)
    for trial in range(5):
        mask = rng.random(6) < 0.5
        a = constants_a(mask, model)
        assert np.array_equal(a, np.ones(6))


def test_constants_approach_one_for_tiny_discount():
    rng = np.random.default_rng(6)
    model = random_model(rng, 5, beta=1e-8)
    a = constants_a([0, 2], model)
    assert np.all(np.abs(a - 1.0) < 1e-7)


def test_single_state_index_is_reward():
    model = build_model(np.array([[1.0]]), epsilon=0.3, beta=0.9)
    table = compute_indices(model, [0.7])
    assert table.g[0] == 0.7
    assert list(table.sweep.pi_order) == [0]


def test_equal_rewards_give_equal_indices_exactly():
    rng = np.random.default_rng(9)
    model = random_model(rng, 7)
    table = compute_indices(model, np.full(7, 0.37))
    assert np.all(table.g == 0.37)
    assert np.all(table.sweep.y_values[1:] == 0.0)
    # Ties extract in ascending state order.
    assert list(table.sweep.pi_order) == list(range(7))


def test_indices_nonincreasing_along_extraction():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        model = random_model(rng, n)
        rewards = rng.uniform(0, 1, size=n)
        table = compute_indices(model, rewards)
        extracted_g = table.g[table.sweep.pi_order]
        assert np.all(np.diff(extracted_g) <= 1e-12)
        assert np.array_equal(extracted_g, np.cumsum(table.sweep.y_values))


def test_replay_matches_g_exactly():
    # The sweep's trace replays g: g[pi_order] is the running sum of y_values.
    rng = np.random.default_rng(13)
    model = random_model(rng, 6)
    table = compute_indices(model, rng.uniform(0, 1, size=6))
    sweep = table.sweep
    assert sorted(sweep.pi_order) == list(range(6))
    assert np.array_equal(table.g[sweep.pi_order], np.cumsum(sweep.y_values))


def test_reward_scaling_scales_indices():
    rng = np.random.default_rng(17)
    model = random_model(rng, 6)
    rewards = rng.uniform(0, 1, size=6)
    t1 = compute_indices(model, rewards)
    t2 = compute_indices(model, 2.0 * rewards)
    assert np.allclose(t2.g, 2.0 * t1.g, rtol=1e-13)
    assert list(t1.sweep.pi_order) == list(t2.sweep.pi_order)


def test_first_extraction_is_max_reward():
    rng = np.random.default_rng(19)
    model = random_model(rng, 8)
    rewards = rng.uniform(0, 1, size=8)
    table = compute_indices(model, rewards)
    top = int(table.sweep.pi_order[0])
    assert rewards[top] == rewards.max()
    assert table.g[top] == pytest.approx(rewards.max())


def test_gittins_reduction_small_chain():
    # With epsilon = 0 the non-displayed chain freezes and G must order
    # states like classical Gittins indices (restart-formulation oracle).
    rng = np.random.default_rng(29)
    p1 = rng.dirichlet(np.ones(4), size=4)
    rewards = rng.uniform(0, 1, size=4)
    model = build_model(p1, epsilon=0.0, beta=0.9)
    table = compute_indices(model, rewards)
    nu = gittins_restart(p1, rewards, beta=0.9)
    for i in range(4):
        for j in range(4):
            if nu[i] > nu[j] + 1e-8:
                assert table.g[i] > table.g[j]


def test_indexability_violation_raises():
    # Hand-built counterexample outside the dual-speed family: state 1
    # jumps to the absorbing top state when displayed but drops to the
    # reward-1 state when idle, making its constant negative once state
    # 0 is extracted.
    p1 = np.array([[1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0],
                   [0.0, 0.0, 1.0]])
    p0 = np.array([[1.0, 0.0, 0.0],
                   [1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0]])
    model = TransitionModel(p1=p1, p0=p0, beta=0.9)
    with pytest.raises(IndexabilityError) as exc_info:
        compute_indices(model, [1.0, 0.5, 0.0])
    err = exc_info.value
    assert err.state == 1
    assert err.value == pytest.approx(-8.0)
    assert err.active_set == [1, 2]


def test_dual_speed_models_are_indexable():
    # For p0 derived from p1 by the slowdown rule, every maximization
    # step sees constants >= 1, so the sweep never raises.
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        model = random_model(rng, n, beta=float(rng.uniform(0.05, 0.99)))
        table = compute_indices(model, rng.uniform(0, 1, size=n))
        assert np.isfinite(table.g).all()


def test_rank_states_breaks_ties_by_state_index():
    assert rank_states(np.array([0.5, 0.9, 0.5, 1.0])) == [3, 1, 0, 2]
    g = np.random.default_rng(43).choice([0.0, 0.25, 1.0], size=401)  # long runs of ties
    assert rank_states(g) == sorted(range(401), key=lambda i: (-g[i], i))


def test_format_rank_grid_mentions_every_state():
    bins = BinSpec((1, 2, 3), (0.0, 1.0, float("inf")))
    rng = np.random.default_rng(41)
    model = random_model(rng, bins.n_states)
    table = compute_indices(model, rng.uniform(0, 1, size=bins.n_states))
    text = format_rank_grid(table.g, bins)
    assert "state 0 rank:" in text
    assert text.count("\n") >= bins.n_popularity_bins + 1


def test_format_rank_grid_text_with_ties():
    # States 1..4 are (1,1), (1,2), (2,1), (2,2); tied g values rank by lowest state.
    bins = BinSpec((1, 2, 3), (0.0, 1.0, float("inf")))
    g = np.array([0.5, 0.9, 0.5, 1.0, 0.9])
    assert format_rank_grid(g, bins) == "\n".join([
        "state ranks by priority index (1 = ranked first)",
        "pop\\nov   1   2",
        "      2   5   3",
        "      1   2   1",
        "state 0 rank: 4",
    ])


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.05, max_value=0.98))
def test_occupancy_residual_property(seed, beta):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    model = random_model(rng, n, beta=beta)
    mask = rng.random(n) < 0.5
    v = occupancy(mask, model)
    p_mixed = np.where(mask[:, None], model.p1, model.p0)
    residual = v - (mask.astype(float) + beta * (p_mixed @ v))
    assert np.abs(residual).max() <= 1e-10 / (1.0 - beta)


def assert_matches_reference(model, rewards):
    """G to 1e-10 and the extracted ratios to 1e-12 of the O(n^4) sweep."""
    table = compute_indices(model, rewards)
    g, _, y_values = greedy_indices_reference(model.p1, model.p0, model.beta, rewards)
    assert np.abs(table.g - g).max() <= 1e-10
    assert np.abs(table.sweep.y_values - y_values).max() <= 1e-12
    return table


def test_sweep_matches_reference_on_criterion_1_chains():
    # The chains of acceptance criterion 1, drawn the same way.
    rng = np.random.default_rng(20260815)
    for beta, n_chains in ((0.9, 100), (0.5, 20), (0.99, 20)):
        for _ in range(n_chains):
            n = int(rng.integers(4, 9))
            p1 = rng.dirichlet(np.ones(n), size=n)
            rewards = rng.uniform(0, 1, size=n)
            assert_matches_reference(build_model(p1, epsilon=0.0, beta=beta), rewards)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       n=st.integers(min_value=1, max_value=40),
       beta=st.floats(min_value=0.05, max_value=0.995),
       epsilon=st.sampled_from(["scalar", "per-state", "zero", "one"]),
       sparse=st.booleans())
def test_sweep_matches_reference_property(seed, n, beta, epsilon, sparse):
    rng = np.random.default_rng(seed)
    p1 = rng.dirichlet(np.ones(n), size=n)
    if sparse:
        # Fitted chains are sparse: keep one to three targets per row.
        for row in p1:
            row[rng.permutation(n)[int(rng.integers(1, 4)):]] = 0.0
        p1 /= p1.sum(axis=1, keepdims=True)
    eps = {"scalar": rng.uniform(0, 1), "per-state": rng.uniform(0, 1, size=n),
           "zero": 0.0, "one": 1.0}[epsilon]
    table = assert_matches_reference(build_model(p1, epsilon=eps, beta=beta),
                                     rng.uniform(0, 1, size=n))
    assert table.sweep.refactorizations == 0


def test_sweep_reports_the_smallest_constant():
    # Outside the dual-speed family: once state 0 is extracted, state 1
    # keeps A = 19/109, the smallest constant of the sweep.
    p1 = np.array([[1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0],
                   [0.0, 0.0, 1.0]])
    p0 = np.array([[1.0, 0.0, 0.0],
                   [0.01, 0.99, 0.0],
                   [0.0, 0.0, 1.0]])
    model = TransitionModel(p1=p1, p0=p0, beta=0.9)
    sweep = compute_indices(model, [1.0, 0.5, 0.0]).sweep
    assert sweep.min_a == pytest.approx(19 / 109, abs=1e-12)
    assert sweep.min_a == pytest.approx(constants_a([1, 2], model)[1], abs=1e-12)
    assert (sweep.min_a_state, sweep.min_a_step) == (1, 1)
    assert (sweep.refinements, sweep.refactorizations) == (0, 0)
    assert sweep.describe().startswith("sweep: smallest A = 0.174312 (state 1, step 1)")


def test_sweep_reports_its_smallest_pivot_and_largest_residual():
    # Each pivot is the ratio of the occupancy system's determinants after
    # and before one extraction (the matrix determinant lemma).
    model = random_model(np.random.default_rng(5), 8)
    sweep = compute_indices(model, np.linspace(0, 1, 8)).sweep
    m = np.eye(8) - model.beta * model.p0
    ratios = []
    for state in sweep.pi_order[:-1]:
        before = np.linalg.det(m)
        m[state] = np.eye(8)[state] - model.beta * model.p1[state]
        ratios.append(abs(np.linalg.det(m) / before))
    assert sweep.min_pivot == pytest.approx(min(ratios), rel=1e-9)
    assert 0 <= sweep.max_residual <= indices.RESIDUAL_TOL_FACTOR / (1 - model.beta)


def test_absorbing_rows_skip_the_update_and_its_pivot():
    # An absorbing state has equal p1 and p0 rows, so extracting it leaves
    # the occupancy matrix as it is: no update, and no pivot of exactly 1.
    p1 = np.random.default_rng(8).dirichlet(np.ones(6), size=6)
    p1[[1, 4]] = np.eye(6)[[1, 4]]
    model = build_model(p1, epsilon=0.3, beta=0.9)
    rewards = np.linspace(0, 1, 6)
    table = compute_indices(model, rewards)
    m = np.eye(6) - model.beta * model.p0
    ratios = []
    for state in table.sweep.pi_order[:-1]:
        before = np.linalg.det(m)
        m[state] = np.eye(6)[state] - model.beta * model.p1[state]
        if state not in (1, 4):
            ratios.append(abs(np.linalg.det(m) / before))
    assert table.sweep.min_pivot == pytest.approx(min(ratios), rel=1e-9)
    assert table.sweep.min_pivot > 1
    g, _, _ = greedy_indices_reference(model.p1, model.p0, model.beta, rewards)
    assert np.abs(table.g - g).max() <= 1e-10
    # With every row absorbing no step updates anything.
    sweep = compute_indices(build_model(np.eye(3), epsilon=0.3, beta=0.9), rewards[:3]).sweep
    assert sweep.min_pivot == np.inf
    assert "smallest pivot = inf" in sweep.describe()


BLOCK = indices._BLOCK


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("absorbing", [False, True], ids=["moving", "absorbing"])
def test_blocked_sweep_matches_reference_across_block_boundaries(n, sparse, absorbing):
    # The pending updates fold into the inverse every BLOCK steps; absorbing
    # rows make no update, so they shift the fold to a later step.
    rng = np.random.default_rng([n, sparse, absorbing])
    p1 = rng.dirichlet(np.ones(n), size=n)
    if sparse:
        for row in p1:
            row[rng.permutation(n)[int(rng.integers(1, 4)):]] = 0.0
        p1 /= p1.sum(axis=1, keepdims=True)
    if absorbing:
        rows = rng.choice(n, size=n // 6, replace=False)
        p1[rows] = np.eye(n)[rows]
    model = build_model(p1, epsilon=0.2, beta=0.9)
    rewards = rng.uniform(0, 1, size=n)
    table = compute_indices(model, rewards)
    g, pi_order, _ = greedy_indices_reference(model.p1, model.p0, model.beta, rewards)
    assert np.array_equal(table.sweep.pi_order, pi_order)
    assert np.abs(table.g - g).max() <= 1e-10
    assert (table.sweep.refinements, table.sweep.refactorizations) == (0, 0)


def test_refactorization_drops_the_pending_terms(monkeypatch):
    # Fail one step's residual three updates past a fold: the sweep factors
    # afresh with three terms pending, and must solve the later steps with
    # the fresh inverse alone.
    n = BLOCK + 8
    rng = np.random.default_rng(4)
    model = random_model(rng, n)
    rewards = rng.uniform(0, 1, size=n)
    system = indices._OccupancySystem
    refine, factor = system._refine, system._factor
    calls, pending = [], []

    def fail_once(self, b):
        calls.append(refine(self, b))
        v, residual = calls[-1]
        return (v, np.inf) if len(calls) == BLOCK + 3 else (v, residual)

    def counted_factor(self):
        before = getattr(self, "pending", None)
        factor(self)
        pending.append((before, self.pending))

    monkeypatch.setattr(system, "_refine", fail_once)
    monkeypatch.setattr(system, "_factor", counted_factor)
    table = compute_indices(model, rewards)
    assert pending == [(None, 0), (3, 0)]
    assert (table.sweep.refinements, table.sweep.refactorizations) == (0, 1)
    g, pi_order, _ = greedy_indices_reference(model.p1, model.p0, model.beta, rewards)
    assert np.array_equal(table.sweep.pi_order, pi_order)
    assert np.abs(table.g - g).max() <= 1e-10


def test_failed_residual_refines_refactors_then_raises(monkeypatch):
    refines, factors = [], []
    system = indices._OccupancySystem
    refine, factor = system._refine, system._factor

    def counted_refine(self, b):
        before = self.refinements
        result = refine(self, b)
        refines.append(self.refinements - before)
        return result

    def counted_factor(self):
        factors.append(self.m.copy())
        factor(self)

    monkeypatch.setattr(indices, "RESIDUAL_TOL_FACTOR", 0.0)
    monkeypatch.setattr(system, "_refine", counted_refine)
    monkeypatch.setattr(system, "_factor", counted_factor)
    model = random_model(np.random.default_rng(3), 6)
    with pytest.raises(NumericalError, match="exceeds tolerance"):
        compute_indices(model, np.linspace(0, 1, 6))
    # The set-up factorization, then one fresh one after the refinements failed.
    assert len(factors) == 2
    assert refines == [indices._MAX_REFINEMENTS] * 2


@pytest.mark.parametrize("solve", [
    lambda model: occupancy([0, 2], model),
    lambda model: compute_indices(model, np.linspace(0, 1, 6)),
], ids=["occupancy", "compute_indices"])
def test_unmet_residual_raises_the_same_error_from_both_entry_points(monkeypatch, solve):
    monkeypatch.setattr(indices, "RESIDUAL_TOL_FACTOR", 0.0)
    with pytest.raises(NumericalError, match=r"^occupancy residual \S+ exceeds tolerance "
                                             r"0\.000e\+00$"):
        solve(random_model(np.random.default_rng(3), 6))


def test_undiscounted_model_is_rejected_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a linear system")

    monkeypatch.setattr(np.linalg, "inv", no_solve)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    with pytest.raises(DataError, match=r"beta must lie in \(0, 1\)"):
        compute_indices(TransitionModel(p1=TWO_STATE_P1, p0=TWO_STATE_P1, beta=1.0),
                        [1.0, 0.5])
