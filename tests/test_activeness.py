import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from trendcast.activeness import ActivenessParams, load_params, save_params
from trendcast.core import Graph, IntervalGrid, Trend
from trendcast.learning import LearnConfig, fit
from trendcast.proximity import ProximityConfig, ProximityMap
from trendcast.simulation import SimConfig

from oracles import (
    ActivenessModel,
    decayed_influence_at,
    gathered_rows,
    naive_total_integral,
    random_instance,
    total_integrated_influence,
)


def single_node_model(alpha=1.0, tau=1.0, epsilon=0.0, action_time=0.0):
    graph = Graph.from_edges([], 1)
    prox = ProximityMap(graph, ProximityConfig(kind="sp"))
    trend = Trend(np.asarray([0]), np.asarray([action_time]))
    return ActivenessModel(trend, prox, ActivenessParams(alpha, tau, epsilon, t0=action_time))


def test_single_action_influence_decay():
    model = single_node_model(tau=1.0)
    assert model.decayed_influence(0, 0.0) == 1.0  # action at t counts
    assert model.decayed_influence(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert model.decayed_influence(0, -0.5) == 0.0  # nothing before the action


def test_single_action_integrated_influence():
    model = single_node_model(tau=2.0)
    assert model.integrated_influence(0, 2.0) == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-12)
    # saturates at tau * prox for t >> tau
    assert model.integrated_influence(0, 1e6) == pytest.approx(2.0, rel=1e-12)


def test_activeness_jumps_by_alpha_times_prox():
    model = single_node_model(alpha=0.7, tau=1.0, epsilon=0.0, action_time=1.0)
    assert model.activeness(0, 0.999) == 0.0
    assert model.activeness(0, 1.0) == pytest.approx(0.7, rel=1e-12)


def test_residual_rate_decays_from_t0():
    graph = Graph.from_edges([], 1)
    prox = ProximityMap(graph, ProximityConfig(kind="sp"))
    trend = Trend(np.empty(0), np.empty(0))
    params = ActivenessParams(alpha=1.0, tau=2.0, epsilon=0.5, t0=0.0)
    model = ActivenessModel(trend, prox, params)
    assert model.activeness(0, 0.0) == pytest.approx(0.5)
    assert model.activeness(0, 2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_huge_elapsed_time_underflows_to_zero():
    model = single_node_model(tau=1.0)
    assert model.decayed_influence(0, 1e9) == 0.0
    assert model.integrated_influence(0, 1e9) == pytest.approx(1.0)


def test_integrated_influence_matches_quadrature():
    rng = np.random.default_rng(42)
    for trial in range(25):
        graph, prox, trend = random_instance(seed=100 + trial, max_nodes=30, max_actions=15)
        tau = float(rng.uniform(0.2, 5.0))
        t = float(rng.uniform(trend.times[0], 12.0))
        node = int(rng.integers(0, graph.node_count))
        params = ActivenessParams(1.0, tau, 0.0, t0=float(trend.times[0]))
        model = ActivenessModel(trend, prox, params)
        value = model.integrated_influence(node, t)
        actions = list(trend.prefix(t))
        points = [t_i for _, t_i in actions]
        rows, _ = gathered_rows(prox, trend.nodes)
        ref, err = quad(
            lambda s: decayed_influence_at(actions, rows, node, s, tau),
            points[0] if points else t,
            t,
            points=points,
            limit=200,
        )
        assert value == pytest.approx(ref, rel=1e-6, abs=1e-12)


def test_total_integrated_influence_matches_naive_sum():
    for trial in range(5):
        graph, prox, trend = random_instance(seed=trial, max_nodes=60, max_actions=40)
        t_star = float(trend.times[-1])
        _, row_sums = gathered_rows(prox, trend.nodes)
        stacked = total_integrated_influence(trend, 1.3, t_star, row_sums)
        naive = naive_total_integral(trend, prox, 1.3, t_star, graph.node_count)
        assert stacked == pytest.approx(naive, rel=1e-9)


def test_total_integrated_influence_zero_for_action_at_t_star():
    trend = Trend(np.asarray([0]), np.asarray([5.0]))
    assert total_integrated_influence(trend, 2.0, 5.0, {0: 3.0}) == 0.0


def test_total_integrated_influence_requires_row_sums():
    trend = Trend(np.asarray([0, 1]), np.asarray([0.0, 1.0]))
    with pytest.raises(LookupError, match="row sum"):
        total_integrated_influence(trend, 1.0, 2.0, {0: 1.0})


def test_params_validation():
    with pytest.raises(ValueError):
        ActivenessParams(alpha=0.0, tau=1.0)
    with pytest.raises(ValueError):
        ActivenessParams(alpha=1.0, tau=-1.0)
    with pytest.raises(ValueError):
        ActivenessParams(alpha=1.0, tau=1.0, epsilon=-0.1)


def two_node_prox() -> ProximityMap:
    return ProximityMap(Graph.from_edges([(0, 1)], 2), ProximityConfig())


NON_FINITE_CASES = {
    "alpha": lambda x: ActivenessParams(alpha=x, tau=1.0),
    "tau": lambda x: ActivenessParams(alpha=1.0, tau=x),
    "epsilon": lambda x: ActivenessParams(alpha=1.0, tau=1.0, epsilon=x),
    "t0": lambda x: ActivenessParams(alpha=1.0, tau=1.0, t0=x),
    "b": lambda x: ProximityConfig(b=x),
    "rw_tolerance": lambda x: ProximityConfig(rw_tolerance=x),
    "grid_start": lambda x: IntervalGrid(x, 1.0, 3),
    "interval_length": lambda x: IntervalGrid(0.0, x, 3),
    "t_start": lambda x: SimConfig(t_start=x, t_end=1.0),
    "t_end": lambda x: SimConfig(t_start=0.0, t_end=x),
    "tau_range_lo": lambda x: LearnConfig(tau_range=(x, 2.0)),
    "tau_range_hi": lambda x: LearnConfig(tau_range=(1.0, x)),
    "t_star": lambda x: fit(Trend(np.asarray([0, 1]), np.asarray([0.0, 1.0])), two_node_prox(), x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_CASES))
def test_configs_reject_non_finite_values(field, value):
    with pytest.raises(ValueError):
        NON_FINITE_CASES[field](value)


def test_params_file_roundtrip(tmp_path):
    params = ActivenessParams(alpha=0.25, tau=3.5, epsilon=1e-9, t0=2007.0)
    config = ProximityConfig(kind="rw", p=0.3)
    path = tmp_path / "params.json"
    save_params(str(path), params, config)
    data = json.loads(path.read_text())
    assert set(data) == {"alpha", "tau", "epsilon", "t0", "proximity"}
    back_params, back_config = load_params(str(path))
    assert back_params == params
    assert back_config.to_dict() == config.to_dict()


@pytest.mark.parametrize(
    "key", ["alpha", "tau", "epsilon", "t0", "proximity.b", "proximity.p", "proximity.floor", "proximity.rw_tolerance"]
)
@pytest.mark.parametrize("number", ["1" + "0" * 400, "NaN", "-Infinity"], ids=["huge-int", "nan", "-inf"])
def test_load_params_names_a_numeric_field_that_is_no_finite_float(tmp_path, key, number):
    data = {"alpha": 0.25, "tau": 3.5, "proximity": {}}
    (data["proximity"] if key.startswith("proximity.") else data)[key.removeprefix("proximity.")] = "HUGE"
    path = tmp_path / "params.json"
    path.write_text(json.dumps(data).replace('"HUGE"', number), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_params(str(path))
    assert str(exc.value) == f"{path}: {key!r} must be a finite number"
