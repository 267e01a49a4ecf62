"""Cost-based planner: predictions must track measured work.

The decisive property: on workloads where the *measured* counters (weighed
by the same cost model) clearly favour one method, the planner must choose
that method *before* running anything.  Scenarios mirror the paper's cost
asymmetry — dense data + irregular polygon favours the Voronoi expansion,
sparse data (NN seed + boundary shell dominate) and rectangle queries
(MBR == polygon, the traditional method's best case) favour the baseline.
"""

import pytest

from repro import (
    AreaQuery,
    KnnQuery,
    NearestQuery,
    SpatialDatabase,
    WindowQuery,
)
from repro.engine.planner import (
    PLANNABLE_METHODS,
    CostModel,
    QueryPlanner,
)
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.executor import execute_spec
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload


def _database(n: int) -> SpatialDatabase:
    return SpatialDatabase.from_points(
        uniform_points(n, seed=11), backend_kind="scipy"
    ).prepare()


def _measured_winner(db: SpatialDatabase, area, model: CostModel) -> str:
    traditional = execute_spec(
        db, AreaQuery(area), method="traditional"
    ).stats
    voronoi = execute_spec(db, AreaQuery(area), method="voronoi").stats
    if model.cost_of(traditional) < model.cost_of(voronoi):
        return "traditional"
    return "voronoi"


@pytest.mark.parametrize(
    "n, query_size, shape, expected",
    [
        # dense + irregular: the MBR/polygon area gap costs the baseline
        (20_000, 0.08, "irregular", "voronoi"),
        # sparse: the boundary shell dwarfs the few internal points
        (200, 0.08, "irregular", "traditional"),
        # rectangle: MBR == polygon, the baseline's zero-redundancy case
        (2_000, 0.04, "rectangle", "traditional"),
    ],
)
def test_planner_matches_measured_winner(n, query_size, shape, expected):
    db = _database(n)
    planner = db.engine.planner
    areas = QueryWorkload(
        query_size=query_size, shape=shape, seed=5
    ).areas(6)
    for area in areas:
        chosen = planner.choose(area)
        assert chosen == expected
        assert chosen == _measured_winner(db, area, planner.model)


def test_auto_method_routes_through_planner():
    db = _database(500)
    area = QueryWorkload(query_size=0.04, seed=3).areas(1)[0]
    auto = db.query(AreaQuery(area, method="auto")).record
    assert auto.stats.method == db.engine.planner.choose(area)
    assert auto.ids == db.query(AreaQuery(area, method="voronoi")).record.ids


def test_estimates_cover_both_methods_with_positive_costs():
    db = _database(1_000)
    area = QueryWorkload(query_size=0.02, seed=9).areas(1)[0]
    estimates = db.engine.planner.estimate(area)
    assert set(estimates) == set(PLANNABLE_METHODS)
    for method, estimate in estimates.items():
        assert estimate.method == method
        assert estimate.cost > 0.0
        assert estimate.validations >= 0.0
        assert estimate.node_accesses > 0.0


def test_explain_execute_reports_measured_costs():
    db = _database(2_000)
    area = QueryWorkload(query_size=0.04, seed=1).areas(1)[0]
    explanation = db.explain(area, execute=True)
    assert explanation.chosen in PLANNABLE_METHODS
    assert set(explanation.actual_costs) == set(PLANNABLE_METHODS)
    assert explanation.predicted_cost == pytest.approx(
        explanation.estimates[explanation.chosen].cost
    )
    assert explanation.prediction_correct is not None
    rendered = explanation.render()
    assert "traditional" in rendered and "voronoi" in rendered
    assert "meas. cost" in rendered


def test_explain_without_execute_has_no_actuals():
    db = _database(300)
    area = QueryWorkload(query_size=0.04, seed=2).areas(1)[0]
    explanation = db.explain(area)
    assert explanation.actual == {}
    assert explanation.prediction_correct is None


def test_calibrate_fits_positive_millisecond_scale_weights():
    db = _database(3_000)
    probes = QueryWorkload(query_size=0.04, seed=4).areas(5)
    before = db.engine.planner.model
    model = db.engine.planner.calibrate(probes)
    assert db.engine.planner.model is model
    assert model.validation_cost > 0.0
    assert model.node_access_cost >= 0.0
    # same fixed segment/validation cost ratio as the prior model
    assert model.segment_test_cost == pytest.approx(
        model.validation_cost
        * before.segment_test_cost
        / before.validation_cost
    )
    # the calibrated unit is milliseconds: predicted cost of a measured
    # query should be the same order of magnitude as its wall time
    stats = db.query(AreaQuery(probes[0], method="traditional")).record.stats
    assert model.cost_of(stats) < max(stats.time_ms, 0.001) * 50


def test_calibrate_degenerate_probes_keep_model():
    db = _database(50)
    planner = QueryPlanner(db)
    before = planner.model
    assert planner.calibrate([]) is before


def test_planner_adapts_to_database_density():
    """The same region flips methods as the database densifies."""
    area = QueryWorkload(query_size=0.08, shape="irregular", seed=5).areas(1)[0]
    sparse_choice = _database(200).engine.planner.choose(area)
    dense_choice = _database(20_000).engine.planner.choose(area)
    assert sparse_choice == "traditional"
    assert dense_choice == "voronoi"


# -- spec-level planning (all query kinds) ------------------------------------


class TestSpecPlanning:
    def test_area_spec_estimates_match_region_estimates(self):
        db = _database(500)
        area = QueryWorkload(query_size=0.04, seed=3).areas(1)[0]
        by_spec = db.engine.planner.estimate_spec(AreaQuery(area))
        by_region = db.engine.planner.estimate(area)
        assert by_spec.keys() == by_region.keys()
        for method in by_spec:
            assert by_spec[method].cost == by_region[method].cost

    def test_window_estimates_both_strategies(self):
        db = _database(500)
        estimates = db.engine.planner.estimate_spec(
            WindowQuery(Rect(0.2, 0.2, 0.6, 0.6))
        )
        assert set(estimates) == {"index", "voronoi"}
        assert all(e.cost > 0 for e in estimates.values())

    def test_knn_estimates_scale_with_k(self):
        db = _database(2_000)
        planner = db.engine.planner
        small = planner.estimate_spec(KnnQuery(Point(0.5, 0.5), 2))
        large = planner.estimate_spec(KnnQuery(Point(0.5, 0.5), 500))
        assert set(small) == {"index", "voronoi"}
        assert large["voronoi"].cost > small["voronoi"].cost
        # the Voronoi expansion's edge erodes as k grows
        ratio_small = small["voronoi"].cost / small["index"].cost
        ratio_large = large["voronoi"].cost / large["index"].cost
        assert ratio_large > ratio_small

    def test_nearest_always_plans_index(self):
        db = _database(500)
        planner = db.engine.planner
        spec = NearestQuery(Point(0.4, 0.2))
        assert planner.plan(spec) == "index"
        assert set(planner.estimate_spec(spec)) == {"index"}

    def test_plan_honours_explicit_methods(self):
        db = _database(500)
        planner = db.engine.planner
        area = QueryWorkload(query_size=0.04, seed=3).areas(1)[0]
        assert planner.plan(AreaQuery(area, method="voronoi")) == "voronoi"
        assert (
            planner.plan(WindowQuery(Rect(0, 0, 1, 1), method="index"))
            == "index"
        )

    def test_plan_on_empty_database_routes_to_index(self):
        empty = SpatialDatabase()
        planner = empty.engine.planner
        assert planner.plan(WindowQuery(Rect(0, 0, 1, 1))) == "index"
        assert planner.plan(KnnQuery(Point(0.5, 0.5), 3)) == "index"

    def test_explain_spec_execute_measures_every_method(self):
        db = _database(500)
        explanation = db.engine.planner.explain_spec(
            KnnQuery(Point(0.5, 0.5), 6), execute=True
        )
        assert set(explanation.actual_costs) == {"index", "voronoi"}
        assert explanation.prediction_correct in (True, False)
        rendered = explanation.render()
        assert "meas. cost" in rendered
        assert rendered.count("\n") == 2  # header + one row per method

    def test_planner_auto_choice_is_measured_sensible_for_knn(self):
        """For small k on a deep index the Voronoi expansion (seed descent
        + ~6k neighbour distances) must at least be *considered* cheaper
        than a full best-first descent on large databases."""
        db = _database(20_000)
        planner = db.engine.planner
        estimates = planner.estimate_spec(KnnQuery(Point(0.5, 0.5), 2))
        assert estimates["voronoi"].cost < estimates["index"].cost
