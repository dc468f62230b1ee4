import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from trendcast import learning
from trendcast.core import Graph, Trend, random_graph
from trendcast.learning import (
    DegeneratePrefixError,
    _SUBRANGES,
    _TOLERANCE,
    LearnConfig,
    _InfluenceTable,
    _table,
    estimate_alpha,
    fit,
    log_likelihood,
)
from trendcast.proximity import ProximityConfig, ProximityMap

from oracles import (
    _INVPHI,
    PairTable,
    _golden_max,
    einsum_slot_fill,
    golden_fit,
    naive_influences,
    naive_log_likelihood,
    naive_total_integral,
    random_instance,
    target_ordered_influences,
)
from study import PROBE, planted_trend, probe_setup


def test_log_likelihood_matches_naive_reference():
    rng = np.random.default_rng(1)
    for trial in range(12):
        graph, prox, trend = random_instance(seed=trial, max_nodes=80, max_actions=40)
        t_star = float(trend.times[-1])
        tau = float(rng.uniform(0.3, 4.0))
        alpha = float(rng.uniform(0.05, 2.0))
        fast = log_likelihood(trend, prox, tau, alpha, t_star)
        slow = naive_log_likelihood(trend, prox, tau, alpha, t_star, graph.node_count)
        assert fast == pytest.approx(slow, rel=1e-9)


def test_estimate_alpha_matches_naive_denominator():
    graph, prox, trend = random_instance(seed=9, max_nodes=50, max_actions=30)
    t_star = float(trend.times[-1]) + 0.5
    tau = 1.7
    naive_h = naive_total_integral(trend, prox, tau, t_star, graph.node_count)
    events = int(np.count_nonzero(trend.times > trend.times[0]))  # the first time's actions are conditioned on
    assert estimate_alpha(trend, prox, tau, t_star) == pytest.approx(events / naive_h, rel=1e-9)


def test_closed_form_alpha_is_the_likelihood_maximizer():
    rng = np.random.default_rng(5)
    for trial in range(8):
        graph, prox, trend = random_instance(seed=40 + trial, max_nodes=60, max_actions=30)
        t_star = float(trend.times[-1])
        tau = float(rng.uniform(0.3, 3.0))
        alpha_hat = estimate_alpha(trend, prox, tau, t_star)
        res = minimize_scalar(
            lambda a: -log_likelihood(trend, prox, tau, a, t_star),
            bounds=(alpha_hat / 50.0, alpha_hat * 50.0),
            method="bounded",
            options={"xatol": alpha_hat * 1e-10, "maxiter": 500},
        )
        assert res.x == pytest.approx(alpha_hat, rel=1e-6)


def test_fit_result_satisfies_substitution_identity():
    graph, prox, trend = random_instance(seed=3, max_nodes=60, max_actions=50)
    t_star = float(trend.times[-1])
    result = fit(trend, prox, t_star)
    assert result.log_likelihood == log_likelihood(trend, prox, result.tau, result.alpha, t_star)
    assert result.alpha == estimate_alpha(trend, prox, result.tau, t_star)


def test_fit_finds_the_profile_maximum():
    graph, prox, trend = random_instance(seed=17, max_nodes=60, max_actions=60)
    t_star = float(trend.times[-1])
    config = LearnConfig(tau_range=(1e-2, 1e2))
    result = fit(trend, prox, t_star, config)
    taus = np.geomspace(1e-2, 1e2, 300)
    values = [
        log_likelihood(trend, prox, float(t), estimate_alpha(trend, prox, float(t), t_star), t_star)
        for t in taus
    ]
    assert result.log_likelihood >= max(values) - 1e-6 * abs(max(values))


def test_fit_is_deterministic():
    graph, prox, trend = random_instance(seed=23, max_nodes=40, max_actions=30)
    t_star = float(trend.times[-1])
    a = fit(trend, prox, t_star)
    b = fit(trend, prox, t_star)
    assert (a.alpha, a.tau, a.log_likelihood, a.evaluations) == (b.alpha, b.tau, b.log_likelihood, b.evaluations)


def test_fit_scale_covariance():
    graph, prox, trend = random_instance(seed=29, max_nodes=40, max_actions=40)
    t_star = float(trend.times[-1])
    c = 3.0
    scaled = Trend(trend.nodes.copy(), trend.times * c)
    config = LearnConfig(tau_range=(1e-3, 1e3))
    scaled_config = LearnConfig(tau_range=(1e-3 * c, 1e3 * c))
    base = fit(trend, prox, t_star, config)
    other = fit(scaled, prox, t_star * c, scaled_config)
    assert other.tau == pytest.approx(c * base.tau, rel=1e-5)
    assert other.alpha == pytest.approx(base.alpha / c, rel=1e-5)


def test_fit_evaluation_count_is_bounded():
    graph, prox, trend = random_instance(seed=31, max_nodes=40, max_actions=30)
    t_star = float(trend.times[-1])
    with pytest.warns(UserWarning, match="edge of the tau search range"):
        result = fit(trend, prox, t_star, LearnConfig(tau_range=(1e-3, 1e3)))
    width = (math.log(1e3) - math.log(1e-3)) / _SUBRANGES
    per_start = math.ceil(math.log(_TOLERANCE / width) / math.log(_INVPHI)) + 3
    assert result.evaluations <= _SUBRANGES * per_start


@pytest.mark.parametrize("flat", [False, True])
def test_fit_counts_every_pass_of_the_influence_table(monkeypatch, flat):
    # The peaked instance takes the slope-root search; the flat one, whose
    # every influence is floored, probes only the cut points.
    if flat:
        prox = ProximityMap(Graph.from_edges([], 3), ProximityConfig(kind="sp"))
        trend, t_star = Trend(np.asarray([0, 1, 2]), np.asarray([0.0, 1.0, 2.0])), 3.0
    else:
        graph, prox, trend = random_instance(seed=17, max_nodes=60, max_actions=60)
        t_star = float(trend.times[-1])
    passes = 0
    influences = _InfluenceTable._influences

    def counted(self, tau):
        nonlocal passes
        passes += 1
        return influences(self, tau)

    monkeypatch.setattr(_InfluenceTable, "_influences", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the flat profile peaks on the bracket edge
        result = fit(trend, prox, t_star)
    assert passes == result.evaluations


def test_golden_section_breaks_ties_toward_smaller_x():
    x, fx, evals = _golden_max(lambda x: 1.0, 0.0, 1.0, 1e-6)
    assert x < 0.5
    assert fx == 1.0
    assert evals <= math.ceil(math.log(1e-6) / math.log(_INVPHI)) + 3


def test_degenerate_prefixes_raise():
    graph, prox, trend = random_instance(seed=2, max_nodes=20, max_actions=10)
    with pytest.raises(DegeneratePrefixError):
        fit(trend, prox, float(trend.times[0]) - 1.0)  # empty prefix
    single = Trend(trend.nodes[:1].copy(), trend.times[:1].copy())
    with pytest.raises(DegeneratePrefixError):
        fit(single, prox, float(single.times[0]) + 1.0)  # one action
    ties = Trend(trend.nodes[:4].copy(), np.full(4, 5.0))
    with pytest.raises(DegeneratePrefixError):
        fit(ties, prox, 5.0)  # all mass at t_star


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_invalid_alpha_tau_and_t_star_are_rejected(bad):
    graph, prox, trend = random_instance(seed=2, max_nodes=20, max_actions=10)
    t_star = float(trend.times[-1])
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        estimate_alpha(trend, prox, bad, t_star)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        log_likelihood(trend, prox, bad, 1.0, t_star)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        log_likelihood(trend, prox, 1.0, bad, t_star)
    if not math.isfinite(bad):
        with pytest.raises(ValueError, match="t_star must be finite"):
            estimate_alpha(trend, prox, 1.0, bad)
        with pytest.raises(ValueError, match="t_star must be finite"):
            log_likelihood(trend, prox, 1.0, 1.0, bad)


def test_estimate_alpha_rejects_a_zero_influence_integral():
    graph, prox, trend = random_instance(seed=2, max_nodes=20, max_actions=10)
    ties = Trend(trend.nodes[:4].copy(), np.full(4, 5.0))
    with pytest.raises(DegeneratePrefixError, match="integral is zero"):
        estimate_alpha(ties, prox, 1.0, 5.0)


def test_zero_epsilon_with_orphan_action_raises():
    # Node 2 is isolated, so its action after t0 has no predecessor that
    # reaches it; with epsilon = 0 that event's rate is zero.
    prox = ProximityMap(Graph.from_edges([(0, 1)], 3), ProximityConfig(kind="sp", b=1.0))
    trend = Trend(np.asarray([0, 1, 2]), np.asarray([0.0, 1.0, 2.0]))
    with pytest.raises(DegeneratePrefixError, match="epsilon"):
        log_likelihood(trend, prox, 1.0, 1.0, 3.0, epsilon=0.0)
    log_likelihood(Trend(trend.nodes[:2], trend.times[:2]), prox, 1.0, 1.0, 3.0, epsilon=0.0)


def test_actions_at_t0_are_conditioned_on_not_scored():
    # Every action at or before t0 feeds H and later influences but adds no
    # log term; a prefix with no action after t0 has no event to score.
    prox = ProximityMap(Graph.from_edges([(0, 1), (1, 2)], 3), ProximityConfig(kind="sp", b=1.0))
    trend = Trend(np.asarray([0, 1, 2, 1]), np.asarray([0.0, 0.0, 1.0, 2.0]))
    table = _table(trend, prox, 3.0)
    assert (table.events, table.n_events) == (2, 2)
    tau, alpha = 1.5, 0.7
    h = naive_influences(trend, prox, tau)
    h_total = naive_total_integral(trend, prox, tau, 3.0, 3)
    expected = sum(math.log(alpha * x) for x in h[2:]) - alpha * h_total
    assert log_likelihood(trend, prox, tau, alpha, 3.0) == pytest.approx(expected, rel=1e-12)
    assert estimate_alpha(trend, prox, tau, 3.0) == pytest.approx(2 / h_total, rel=1e-12)
    # An explicit t0 moves the conditioning set: at t0 = 1.0 only the last action is an event.
    assert estimate_alpha(trend, prox, tau, 3.0, t0=1.0) == pytest.approx(1 / h_total, rel=1e-12)
    with pytest.raises(DegeneratePrefixError, match="no action after t0"):
        estimate_alpha(trend, prox, tau, 3.0, t0=2.0)
    with pytest.raises(DegeneratePrefixError, match="no action after t0"):
        fit(Trend(trend.nodes[:2], trend.times[:2]), prox, 3.0)


@pytest.mark.parametrize(
    ("nodes", "times", "t_star", "what"),
    [
        ([0, 1, 2, 0], [0.0, 1.0, 2.0, 3.0], 1e306, "the tau bracket [1e+303, inf]"),
        ([0, 1, 2], [0.0, 5e-324, 5e-324], 5e-324, "the tau bracket [0.0, "),
        ([0, 1, 2], [0.0, 1e-310, 2e-310], 2e-310, "the tau bracket [2e-313, "),
        ([0, 1, 2], [-1e308, 0.0, 1e308], 1e308, "the elapsed times"),
        ([0] + [1, 2] * 20, [0.0] + [3e-305] * 40, 3e-305, "alpha = n_events / H = inf"),
    ],
    ids=["bracket-overflows", "bracket-underflows-to-zero", "bracket-subnormal", "elapsed-overflows",
         "alpha-overflows"],
)
def test_fit_refuses_a_span_outside_the_float_range_before_any_warning(nodes, times, t_star, what):
    # Every step from the span to the fitted alpha must stay a finite normal
    # float; where one cannot, the fit raises one error naming the span.
    prox = ProximityMap(Graph.from_edges([(0, 1), (1, 2), (2, 0)], 3), ProximityConfig(kind="sp"))
    trend = Trend(np.asarray(nodes), np.asarray(times))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="observation span") as caught:
            fit(trend, prox, t_star)
    assert what in str(caught.value) and "--tau-range" in str(caught.value)


def test_learn_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(tau_range=(2.0, 1.0))


# Timestamps on a 0.25 grid in [0, 10]: ties are common, and every positive
# gap is at least 0.25, so tau below 0.25 / 750 underflows every term whose
# actions are not tied. Above TAU_NORMAL_MIN every term exp(-dt/tau) * score
# stays a normal float (dt/tau <= 200, scores >= 1e-12); in between lies the
# subnormal band, where any reordering of the sum moves the surviving bits.
TIME_STEP = 0.25
TAU_NORMAL_MIN = 0.05


@st.composite
def likelihood_cases(draw):
    node_count = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(node_count) for v in range(u + 1, node_count)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        config = ProximityConfig(kind="sp", b=draw(st.floats(0.3, 4.0)))
    else:
        config = ProximityConfig(kind="rw", p=draw(st.floats(0.1, 0.9)))
    prox = ProximityMap(Graph.from_edges(edges, node_count), config)
    # Sizes around the block size B = ceil(sqrt(n)): n = 1, 2 (n = B),
    # 3 (n = B + 1), full square prefixes k*k and one action past them.
    n = draw(
        st.one_of(
            st.integers(1, 5),
            st.integers(2, 7).flatmap(lambda k: st.sampled_from([k * k, k * k + 1])),
            st.integers(6, 60),
        )
    )
    nodes = draw(st.lists(st.integers(0, node_count - 1), min_size=n, max_size=n))
    steps = sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))
    size = math.isqrt(n - 1) + 1
    if n > size and draw(st.booleans()):
        steps[size] = steps[size - 1]  # tie across the first block boundary
    times = np.asarray(steps, dtype=np.float64) * TIME_STEP
    if draw(st.booleans()):
        tau = draw(st.floats(TAU_NORMAL_MIN, 20.0))
    else:
        tau = TIME_STEP / draw(st.floats(750.0, 1e6))
    alpha = draw(st.floats(0.05, 5.0))
    return prox, Trend(np.asarray(nodes), times), tau, alpha


def _slot_case(nodes: list[int]) -> tuple[ProximityMap, Trend, float, float]:
    """Nine actions (blocks of three) on the path 0 - 1 and an isolated node 2."""
    prox = ProximityMap(Graph.from_edges([(0, 1)], 3), ProximityConfig(kind="sp", b=1.0))
    times = np.arange(len(nodes)) * 2 * TIME_STEP
    return prox, Trend(np.asarray(nodes), times), 1.0, 0.5


def _has_event(case) -> bool:
    """A case with an action after its first time: the likelihood, conditioned on that time's actions, scores it."""
    return case[1].times[-1] > case[1].times[0]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(likelihood_cases().filter(_has_event))
# Slot (block 0, node 1): one feed (action 0) and six reads.
@example(_slot_case([0, 2, 2, 1, 1, 1, 1, 1, 1]))
# Slot (block 0, node 1): three feeds and one read (action 6).
@example(_slot_case([0, 0, 0, 2, 2, 2, 1, 2, 2]))
def test_block_table_matches_pairwise_references(case):
    prox, trend, tau, alpha = case
    t_star = 10.5
    pairs = PairTable(trend, prox, t_star)
    # k_i = sum_j s_ij D_ij exp(-D_ij / tau), the lagged sums behind the slope.
    lagged = np.bincount(
        pairs.pair_target,
        weights=pairs.pair_weight * pairs.pair_dt * np.exp(-pairs.pair_dt / tau),
        minlength=pairs.n,
    )
    node_count = prox.graph.node_count
    # Each slot path in turn, whatever the size rule would choose.
    for dense in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learning, "_dense_slots", lambda acting, entries: dense)
            table = _table(trend, prox, t_star)
            assert (table._p is not None) == dense
            shipped = table.influences(tau)
            for reference in (
                np.asarray(naive_influences(trend, prox, tau)),
                pairs.influences(tau),
            ):
                assert np.array_equal(shipped == 0.0, reference == 0.0)
                nonzero = reference != 0.0
                rel = np.abs(shipped[nonzero] - reference[nonzero]) / reference[nonzero]
                assert np.all(rel <= 1e-9)
            k = table._influences(tau)[1]
            assert np.array_equal(k == 0.0, lagged == 0.0)
            nonzero = lagged != 0.0
            assert np.all(np.abs(k[nonzero] - lagged[nonzero]) <= 1e-9 * lagged[nonzero])
            value = log_likelihood(trend, prox, tau, alpha, t_star)
            for reference in (
                naive_log_likelihood(trend, prox, tau, alpha, t_star, node_count),
                pairs.evaluate(tau, alpha, 1e-9),
            ):
                assert abs(value - reference) <= 1e-9 * abs(reference)


@pytest.mark.parametrize(
    ("nodes", "edges", "b", "actions", "dense"),
    [
        (200, 600, 2.0, 1500, True),  # learn-dense's shape: m^2 = 4e4 cells, about 3e5 row entries
        (10_000, 20_000, 10.0, 2000, False),  # forecast-sparse's: m^2 = 3e6 cells, about 1e4 row entries
    ],
    ids=["learn-dense", "forecast-sparse"],
)
def test_size_rule_sends_benchmark_shapes_to_their_slot_path(nodes, edges, b, actions, dense):
    graph = random_graph(nodes, edges, seed=5)
    rng = np.random.default_rng(5)
    trend = Trend(rng.integers(0, graph.node_count, actions), np.sort(rng.uniform(0.0, 10.0, actions)))
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=b))
    assert (_table(trend, prox, 10.0)._p is not None) == dense


def _both_forms(trend, prox, t_star):
    """Each slot form's table, with the in-block pairs its form part found as
    (j, i, score) triples, in the table's order."""
    built = []
    for dense in (False, True):
        found = []

        def capture(patch, name, pick):
            make = getattr(learning, name)

            def wrapper(*args):
                result = make(*args)
                found.append(list(zip(*(x.tolist() for x in pick(result)))))
                return result

            patch.setattr(learning, name, wrapper)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learning, "_dense_slots", lambda acting, entries: dense)
            capture(patch, "_dense_pairs", lambda result: result)
            capture(patch, "_feeds", lambda result: result[0])
            table = _table(trend, prox, t_star)
        assert (table._p is not None) == dense
        built.append((table, *found))
    return built


@pytest.mark.parametrize("seed", range(8))
def test_slot_forms_share_one_layout(seed):
    _, prox, trend = random_instance(seed, max_nodes=40, max_actions=120, b=0.5)
    (feeds, feed_pairs), (dense, dense_pairs) = _both_forms(trend, prox, 10.0)
    assert feeds._slots == dense._slots > 0
    assert np.array_equal(feeds._read_slot, dense._read_slot)
    reads = [table._target[len(table._pair_score):] for table in (feeds, dense)]
    assert np.array_equal(*reads)
    assert feeds._feeders == dense._feeders
    assert feeds._neg_dt[: feeds._feeders].tobytes() == dense._neg_dt[: dense._feeders].tobytes()
    assert set(feed_pairs) == set(dense_pairs) and len(set(feed_pairs)) == len(feeds._pair_score)


def test_table_takes_its_row_sums_from_its_one_gather():
    _, prox, trend = random_instance(3, max_nodes=40, max_actions=120)
    gather, calls = ProximityMap.gather, []

    def counted(self, sources):
        calls.append(sources)
        return gather(self, sources)

    def refused(self, *args):
        raise AssertionError("the table must take its row sums from its gather")

    for dense in (False, True):
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learning, "_dense_slots", lambda acting, entries: dense)
            patch.setattr(ProximityMap, "gather", counted)
            patch.setattr(ProximityMap, "row_sum", refused)
            table = _table(trend, prox, 10.0)
        assert (table._p is not None) == dense and len(calls) == 1
        assert table.row_sums.tolist() == [prox.row_sum(u) for u in trend.nodes.tolist()]


def test_dense_slots_peak_below_half_of_the_feeds_peak():
    # learn-dense's shape. Measured before this bound was set: the dense
    # path's build + one profile peaked at 3.6 MB against 14.4-14.6 MB for
    # the feeds path (ratio 0.249-0.251 over graph seeds 0-3).
    graph = random_graph(200, 600, seed=0)
    rng = np.random.default_rng(0)
    trend = Trend(rng.integers(0, graph.node_count, 1500), np.sort(rng.uniform(0.0, 10.0, 1500)))
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=2.0))
    prox.gather(np.unique(trend.nodes))  # build the rows outside the measurement
    peaks = {}
    for dense in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learning, "_dense_slots", lambda acting, entries: dense)
            tracemalloc.start()
            try:
                _table(trend, prox, 10.0).profile(1.0, 1e-9)
                peaks[dense] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[True] < 0.5 * peaks[False]


def test_dense_slots_peak_stays_within_one_scratch_matrix():
    # learn-dense's shape. Before each pass gathered only the rows of P that
    # a block acts at, the dense build + one profile peaked at 3.22-3.25 MB
    # (tracemalloc, graph seeds 0-5; 3,238,872 bytes on seed 0). A pass may
    # add at most m^2 gathered cells of P to that; keeping every block's
    # gathered rows for the whole fit would add about 2.4 MB here.
    graph = random_graph(200, 600, seed=0)
    rng = np.random.default_rng(0)
    trend = Trend(rng.integers(0, graph.node_count, 1500), np.sort(rng.uniform(0.0, 10.0, 1500)))
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=2.0))
    acting = np.unique(trend.nodes)
    prox.gather(acting)  # build the rows outside the measurement
    m = len(acting)
    tracemalloc.start()
    try:
        table = _table(trend, prox, 10.0)
        table.profile(1.0, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table._p is not None
    assert peak < 3.24e6 + 8 * m * m


def _dense_case(nodes: list[int], node_count: int) -> tuple[ProximityMap, Trend, float, float]:
    """Actions at ``nodes``, 0.5 apart, on a path over ``node_count`` nodes."""
    graph = Graph.from_edges([(u, u + 1) for u in range(node_count - 1)], node_count)
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=1.0))
    return prox, Trend(np.asarray(nodes), np.arange(len(nodes)) * 2 * TIME_STEP), 1.0, 0.5


@st.composite
def wide_cases(draw):
    """Up to 40 nodes and 300 actions: blocks that act at few of the acting
    nodes, whose sums the product can gather."""
    seed = draw(st.integers(0, 2**16))
    _, prox, trend = random_instance(seed, max_nodes=40, max_actions=300, b=draw(st.sampled_from([0.3, 1.0, 3.0])))
    return prox, trend, draw(st.floats(TAU_NORMAL_MIN, 20.0)), 1.0


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=st.one_of(likelihood_cases(), wide_cases()))
@example(_dense_case([0, 2], 3))  # one block: no feeders, no slots
@example(_dense_case([0] * 10, 1))  # m = 1 on a one-node graph
@example(_dense_case([2] * 10, 5))  # every action at one node of five
@example(_dense_case([0, 1, 2, 0, 0, 0, 1, 1, 1], 3))  # block 0 acts at all m = 3 nodes
# Three blocks of width 2 over m = 4 nodes: 6 rows > m, two gathered groups.
@example(_dense_case([0, 1, 0, 1, 2, 3, 2, 3, 0, 2, 0, 2, 1, 3, 1, 3], 4))
# Blocks of width 2, then blocks of widths 3 and 4, each gathered alone.
@example(_dense_case([0, 1, 0, 1, 0, 2, 3, 2, 3, 2, 0, 1, 2, 0, 1, 3, 0, 1, 2, 3, 0, 3, 0, 3, 0], 4))
def test_dense_slot_fill_matches_one_einsum_bit_for_bit(case):
    prox, trend, tau, _ = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learning, "_dense_slots", lambda acting, entries: True)
        table = _table(trend, prox, 10.5)
    feeders = table._feeders
    decay = np.exp(table._neg_dt[:feeders] / tau)
    slot_cell, u, v = einsum_slot_fill(trend.nodes, table._p[:-1], decay, table._neg_dt[:feeders])
    assert table._slot_cell.tobytes() == slot_cell.tobytes() and table._slots == len(slot_cell)
    slots, lags = table._slot_values(decay)
    assert slots.tobytes() == u.tobytes()
    assert lags.tobytes() == v.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=st.one_of(likelihood_cases(), wide_cases()))
@example(_slot_case([0, 2, 2, 1, 1, 1, 1, 1, 1]))
@example(_dense_case([0, 1, 2, 0, 0, 0, 1, 1, 1], 3))
def test_entries_run_by_source_and_sum_as_target_ordered_entries(case):
    # Pairs run feeder by feeder and reads slot by slot, so neighbouring
    # entries seldom share a target. Each target keeps its entries' order,
    # and bincount adds each bin in input order, so the sums keep their bits.
    prox, trend, tau, _ = case
    for table, pairs in _both_forms(trend, prox, 10.5):
        feeder = np.asarray([j for j, _, _ in pairs], dtype=np.int64)
        target = np.asarray([i for _, i, _ in pairs], dtype=np.int64)
        assert np.all(np.diff(feeder) >= 0)
        assert np.array_equal(target, table._target[: len(pairs)])
        assert np.all(np.diff(table._read_slot) >= 0)
        for shipped, oracle in zip(table._influences(tau), target_ordered_influences(table, tau)):
            assert shipped.tobytes() == oracle.tobytes()


def test_dense_layout_groups_blocks_and_reaches_from_their_own_nodes():
    # P over m = 4 acting nodes: nodes 0-2 reach each other, node 3 only
    # itself; row 4 is the zero row that padding points at.
    p = np.zeros((5, 4))
    p[:3, :3] = 0.5
    p[3, 3] = 1.0
    # Blocks of five acting at 2, 2, 2, 3 and 4 nodes.
    nodes = np.asarray([0, 1, 0, 1, 0, 2, 3, 2, 3, 2, 0, 2, 0, 2, 0, 0, 1, 2, 0, 1, 3, 0, 1, 2, 3])
    block = np.arange(25) // 5
    # Reached cells come from each block's own nodes: block 3 does not reach
    # node 3, although its row of P's positions spans all four nodes.
    reached = [
        [True, True, True, False],
        [True, True, True, True],
        [True, True, True, False],
        [True, True, True, False],
        [True, True, True, True],
    ]
    # The first two blocks gather 2 x 2 <= m rows together; the third, the
    # fourth (3 rows) and the fifth (all m) each gather alone.
    feed_cell, rows, groups, hit = learning._dense_layout(p, block, nodes, 5)
    assert rows.tolist() == [[0, 1, 4, 4], [2, 3, 4, 4], [0, 2, 4, 4], [0, 1, 2, 4], [0, 1, 2, 3]]
    assert groups == [(0, 2, 2), (2, 3, 2), (3, 4, 3), (4, 5, 4)]
    assert feed_cell.tolist() == [
        0, 1, 0, 1, 0, 4, 5, 4, 5, 4, 8, 9, 8, 9, 8, 12, 13, 14, 12, 13, 19, 16, 17, 18, 19
    ]
    assert hit.reshape(5, 4).tolist() == reached


def test_no_dense_layout_group_gathers_more_than_m_rows():
    # Uniform actions over 200 nodes: blocks act at about 35 nodes at 1,500
    # actions (learn-dense), 94 at 16k and 118 at 32k, and at all 200 when
    # every block acts everywhere. Every block is gathered, and the groups
    # cover the blocks in order.
    m = 200
    p = np.ones((m + 1, m))
    p[m] = 0.0
    for k in (35, 94, 118, 200):
        block, node = np.repeat(np.arange(8), k), np.tile(np.arange(k), 8)
        _, rows, groups, _ = learning._dense_layout(p, block, node, 8)
        assert rows.shape == (8, k)
        assert [c0 for c0, _, _ in groups] == [0] + [c1 for _, c1, _ in groups[:-1]] and groups[-1][1] == 8
        assert all(kg == k and (c1 - c0) * kg <= m for c0, c1, kg in groups)
        assert len(groups) == -(-8 // (m // k))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.integers(1, 3),
    st.sampled_from([0.5, 2.0]),
    # at least one action after the first time, the event the conditioned likelihood scores
    st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=6).filter(
        lambda steps: any(later for _, later in steps)
    ),
    st.sampled_from([0.3, 1.0, 4.0]),
    st.sampled_from([1e-9, 1e-3]),
)
@example(1, 0.5, [(0, True)], 1.0, 1e-9)  # two actions of one node at t = 0 and 1
def test_log_likelihood_is_continuous_across_the_underflow_edge(m, b, steps, gap, epsilon):
    # every node reaches every other, and consecutive actions lie 0 or `gap`
    # apart, so an action's last influence term underflows near
    # tau = gap / 745; walk tau across that edge in steps of 1e-4 (relative)
    graph = Graph.from_edges([(u, v) for u in range(m) for v in range(m) if u != v], m)
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=b))
    times = np.cumsum([0.0] + [gap if later else 0.0 for _, later in steps])
    nodes = [0] + [node % m for node, _ in steps]
    table = _table(Trend(np.asarray(nodes), times), prox, float(times[-1]) + 1.0)
    taus = gap / np.geomspace(760.0, 730.0, 400)
    profile = [table.profile(float(tau), epsilon)[0] for tau in taus]
    fixed = [table.evaluate(float(tau), 1.0, epsilon) for tau in taus]
    for values in (np.asarray(profile), np.asarray(fixed)):
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(np.diff(values))) <= 0.5


def test_fit_warns_when_tau_lands_on_the_bracket_edge():
    graph, prox, trend = random_instance(seed=17, max_nodes=60, max_actions=60)
    t_star = float(trend.times[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = fit(trend, prox, t_star, LearnConfig(tau_range=(1e-2, 1e2)))
    with pytest.warns(UserWarning, match="edge of the tau search range"):
        narrow = fit(trend, prox, t_star, LearnConfig(tau_range=(10 * wide.tau, 11 * wide.tau)))
    assert narrow.tau == pytest.approx(10 * wide.tau, rel=1e-5)


def _floored(table, tau: float, epsilon: float) -> np.ndarray:
    return table.n_events / table.total_integral(tau) * table.influences(tau)[table.events :] <= epsilon


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    likelihood_cases().filter(_has_event),
    st.one_of(
        st.none(),
        st.floats(TIME_STEP / 750.0, TAU_NORMAL_MIN),
        st.floats(TAU_NORMAL_MIN, 20.0),
    ),
    st.sampled_from([1e-9, 1e-3]),
)
def test_profile_slope_matches_a_central_difference(case, other_tau, epsilon):
    # Regimes: prefixes with and without slots, ties, taus past the underflow
    # edge, in the band where actions cross their floor, and where every
    # influence is normal, and fully floored plateaus. A step that moves an
    # action across its floor crosses a kink of the profile, where no
    # difference quotient converges, so only the value is checked there.
    prox, trend, tau, _ = case
    tau = tau if other_tau is None else other_tau
    table = _table(trend, prox, 10.5)
    value, slope = table.profile(tau, epsilon)
    step = 1e-6
    lower, upper = tau * math.exp(-step), tau * math.exp(step)
    floored = _floored(table, tau, epsilon)
    if floored.all():
        assert slope == 0.0
    if not (np.array_equal(floored, _floored(table, lower, epsilon))
            and np.array_equal(floored, _floored(table, upper, epsilon))):
        return
    difference = (table.profile(upper, epsilon)[0] - table.profile(lower, epsilon)[0]) / (2 * step)
    # Rounding in the two values, divided by the step, bounds the quotient's error.
    assert abs(slope - difference) <= 1e-7 * (1.0 + abs(value) + abs(slope))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31),
    st.sampled_from(["shortest_path", "random_walk"]),
    st.sampled_from([1e-3, 1e-6]),
)
def test_fit_is_never_below_the_golden_reference(seed, kind, low):
    # A bracket from 1e-6 * span starts on the fully floored plateau of
    # uniform random times (every gap is many taus wide), so the lower
    # subranges are plateau-then-peak profiles.
    graph, prox, trend = random_instance(seed, max_nodes=60, max_actions=80, kind=kind)
    t_star = float(trend.times[-1])
    span = t_star - float(trend.times[0])
    config = LearnConfig(tau_range=(low * span, 1e3 * span))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shipped = fit(trend, prox, t_star, config)
        reference = golden_fit(trend, prox, t_star, config)
    assert shipped.log_likelihood >= reference.log_likelihood - 1e-9 * abs(reference.log_likelihood)
    # The cuts and the slope roots spend no more than the cuts plus a golden
    # section on every subrange.
    assert shipped.evaluations <= reference.evaluations + _SUBRANGES + 1


def test_fit_spends_few_evaluations_on_a_peaked_profile():
    graph, prox, trend = random_instance(seed=17, max_nodes=60, max_actions=60)
    t_star = float(trend.times[-1])
    table = _table(trend, prox, t_star)
    span = t_star - float(trend.times[0])
    cuts = np.geomspace(1e-3 * span, 1e3 * span, 5)
    slopes = [table.profile(float(tau), 1e-9)[1] for tau in cuts]
    assert slopes[0] > 0 and slopes[-1] < 0  # one bracketed peak
    result = fit(trend, prox, t_star)
    reference = golden_fit(trend, prox, t_star)
    assert abs(math.log(result.tau / reference.tau)) <= _TOLERANCE
    assert result.evaluations <= 25 < reference.evaluations


# Evaluations per fit at the default bracket: 5 cuts, plus a slope-root
# search on seed 83's peak. Seeds 25 and 156 have a fully flat first
# subrange; a golden section there would add 34 (39 in all).
@pytest.mark.parametrize(
    "seed, bound", [(25, 5), (56, 5), (60, 5), (72, 5), (80, 5), (83, 20), (156, 5)]
)
def test_fit_takes_the_upper_end_of_a_subrange_rising_off_the_plateau(seed, bound):
    graph, prox, trend = random_instance(seed)
    t_star = float(trend.times[-1])
    table = _table(trend, prox, t_star)
    span = t_star - float(trend.times[0])
    cuts = [table.profile(float(tau), 1e-9) for tau in np.geomspace(1e-3 * span, 1e3 * span, _SUBRANGES + 1)]
    assert any(ga == 0.0 < gb and fb > fa for (fa, ga), (fb, gb) in zip(cuts, cuts[1:]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some of these profiles rise to the upper edge
        result = fit(trend, prox, t_star)
        reference = golden_fit(trend, prox, t_star)
    assert result.evaluations <= bound
    assert result.log_likelihood >= reference.log_likelihood - 1e-9 * abs(reference.log_likelihood)


def test_fit_breaks_ties_toward_smaller_tau_on_a_flat_profile():
    # Three actions at nodes that reach no other acting node: every influence
    # is floored at every tau, so the profile is flat to the last bit and its
    # slope is exactly 0 at every cut point.
    prox = ProximityMap(Graph.from_edges([], 3), ProximityConfig(kind="sp"))
    trend = Trend(np.asarray([0, 1, 2]), np.asarray([0.0, 1.0, 2.0]))
    table = _table(trend, prox, 3.0)
    taus = np.geomspace(1e-2, 1e2, 9)
    profiles = [table.profile(float(tau), 1e-9) for tau in taus]
    assert len({value for value, _ in profiles}) == 1
    assert all(slope == 0.0 for _, slope in profiles)
    config = LearnConfig(tau_range=(1e-2, 1e2))
    with pytest.warns(UserWarning, match="edge of the tau search range"):
        result = fit(trend, prox, 3.0, config)
    assert result.tau == math.exp(math.log(1e-2))
    assert result.evaluations == 5


@pytest.mark.parametrize("epsilon", [-1.0, math.inf, math.nan])
def test_fit_and_log_likelihood_reject_bad_epsilon_up_front(epsilon):
    graph, prox, trend = random_instance(seed=3, max_nodes=30, max_actions=20)
    t_star = float(trend.times[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no search runs, so no tau-edge warning
        with pytest.raises(ValueError, match="epsilon must be finite and non-negative"):
            fit(trend, prox, t_star, epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon must be finite and non-negative"):
        log_likelihood(trend, prox, 1.0, 1.0, t_star, epsilon=epsilon)


def test_fit_recovers_the_planted_params_on_the_probe_setup():
    # Twenty trends drawn by tests/study.py's own sampler (seeds at t0,
    # Poisson children through sp rows at b = 3, exponential delays), fit
    # conditioned on the seeds. The bounds were fixed on seed sets 1000-1019
    # to 5000-5019 before this test ran: medians of alpha 0.382-0.422 and
    # of tau 0.941-1.025 (planted 0.4 and 1.0). Scoring the seeds as events,
    # as the likelihood did before it conditioned on t0, gave alpha about 4
    # and tau about 0.18 on seeds 1000-1004.
    prox = probe_setup()
    fits = []
    for seed in range(20):
        trend = planted_trend(prox, PROBE["alpha"], PROBE["tau"], PROBE["n_seeds"], PROBE["t_star"], seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fits.append(fit(trend, prox, PROBE["t_star"]))
    assert abs(np.median([r.alpha for r in fits]) / PROBE["alpha"] - 1.0) <= 0.15
    assert abs(np.median([r.tau for r in fits]) / PROBE["tau"] - 1.0) <= 0.25


@pytest.mark.parametrize("seed", range(5))
def test_fit_reaches_the_grid_maximum_of_the_profile_on_the_probe_setup(seed):
    # The profile at 2,001 points, even in log tau over fit's default
    # bracket [1e-3 * span, 1e3 * span]: fit's value is at least the best of
    # them, up to 1e-9 relative.
    prox = probe_setup()
    trend = planted_trend(prox, PROBE["alpha"], PROBE["tau"], PROBE["n_seeds"], PROBE["t_star"], seed)
    result = fit(trend, prox, PROBE["t_star"])
    table = _table(trend, prox, PROBE["t_star"])
    span = float(table.elapsed[0])
    grid = max(table.profile(tau, 1e-9)[0] for tau in np.geomspace(1e-3 * span, 1e3 * span, 2001).tolist())
    assert result.log_likelihood >= grid - 1e-9 * abs(grid)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 149), st.sampled_from(["shortest_path", "random_walk"]))
def test_fit_reaches_the_grid_maximum_of_the_profile_on_random_instances(seed, kind):
    # Times in [0, 10): at this unit scale the epsilon floor binds nowhere
    # inside the default bracket, and fit's value is at least the best of
    # the profile at 801 points, even in log tau over [1e-3 * span, 1e3 * span].
    graph, prox, trend = random_instance(seed, max_nodes=60, max_actions=80, kind=kind)
    t_star = float(trend.times[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = fit(trend, prox, t_star)
    table = _table(trend, prox, t_star)
    span = float(table.elapsed[0])
    grid = max(table.profile(tau, 1e-9)[0] for tau in np.geomspace(1e-3 * span, 1e3 * span, 801).tolist())
    assert result.log_likelihood >= grid - 1e-9 * abs(grid)
