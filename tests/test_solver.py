import math

import pytest

from fairkcenter import (
    FairnessSpec,
    IndependentSet,
    InfeasibleReason,
    StreamInstance,
    brute_force_opt,
    build_cross_graph,
    check_fairness,
    clustering_cost,
    distance,
    run_known,
    select_with_both_groups_over,
    select_with_one_group_over,
)

from conftest import pt, random_two_group_instance, stream

SPEC_11 = FairnessSpec((1, 1))
SPEC_12 = FairnessSpec((1, 2))


def filled_set(threshold, coords, group):
    s = IndependentSet(threshold, group_filter=group)
    for i, c in enumerate(coords):
        s.offer(pt(1000 * group + i, c, group))
    return s


# ----------------------------------------------------------------------
# streaming stage
# ----------------------------------------------------------------------
def test_process_routes_to_own_group():
    inst = StreamInstance(1.0, SPEC_11)
    inst.process(pt(0, 0.0, 1))
    assert [p.coords[0] for p in inst.reps[1].members] == [0.0]
    inst.process(pt(1, 1.0, 1))  # covered: d=1 <= threshold 2
    assert len(inst.reps[1]) == 1


def test_process_groups_are_independent():
    inst = StreamInstance(1.0, SPEC_11)
    inst.process(pt(0, 5.0, 2))
    inst.process(pt(1, 4.5, 1))  # near the group-2 rep, still starts group 1
    assert len(inst.reps[1]) == 1 and len(inst.reps[2]) == 1


def test_process_rejects_other_groups():
    inst = StreamInstance(1.0, SPEC_11)
    with pytest.raises(ValueError, match="groups 1 and 2"):
        inst.process(pt(0, 0.0, 3))


def test_stream_overflow_finalizes_infeasible():
    spec = FairnessSpec((1, 1))  # k = 2, so a third separated group-1 point overflows
    inst = StreamInstance(0.5, spec)
    for i, x in enumerate([0.0, 10.0, 20.0]):
        inst.process(pt(i, x, 1))
    assert inst.overflowed
    out = inst.finalize()
    assert not out.feasible and out.reason is InfeasibleReason.STREAM_OVERFLOW


# ----------------------------------------------------------------------
# neither group over its cap
# ----------------------------------------------------------------------
def test_union_when_both_groups_fit():
    inst = StreamInstance(1.0, SPEC_11)
    inst.process(pt(0, 0.0, 1))
    inst.process(pt(1, 5.0, 2))
    out = inst.finalize()
    assert out.feasible
    assert sorted(p.coords[0] for p in out.centers) == [0.0, 5.0]
    assert inst.path == "union"


# ----------------------------------------------------------------------
# one group over its cap
# ----------------------------------------------------------------------
def test_one_group_over_worked_example():
    # group1 {0,100}, group2 {1,2,3}, caps (1,2); at guess 1 the stream keeps
    # reps1={0,100}, reps2={1} (2 and 3 are covered within threshold 2, the
    # tie at exactly 2 included); the filter then drops 0 (within 3 of rep 1)
    # and keeps 100
    pts = stream([(0.0, 1), (100.0, 1), (1.0, 2), (2.0, 2), (3.0, 2)])
    assert brute_force_opt(pts, SPEC_12).r_opt == 1.0
    inst = StreamInstance(1.0, SPEC_12)
    for p in pts:
        inst.process(p)
    assert [p.coords[0] for p in inst.reps[1].members] == [0.0, 100.0]
    assert [p.coords[0] for p in inst.reps[2].members] == [1.0]
    out = inst.finalize()
    assert inst.path == "one-over"
    assert out.feasible
    assert sorted(p.coords[0] for p in out.centers) == [1.0, 100.0]
    assert clustering_cost(pts, out.centers) == 2.0  # within 5 * guess


def test_one_group_over_filter_can_drop_everything():
    over = filled_set(2.0, [0.0, 10.0], group=1)
    under = filled_set(2.0, [1.0, 11.0], group=2)
    out = select_with_one_group_over(over, under, 4.0, FairnessSpec((1, 2)))
    assert out.feasible
    assert sorted(p.coords[0] for p in out.centers) == [1.0, 11.0]


def test_one_group_over_underselling_guess_is_infeasible():
    # three group-1 points pairwise separated beyond the threshold and far
    # from the single group-2 rep: more survivors than the cap of 2 allows
    pts = stream([(0.0, 1), (10.0, 1), (20.0, 1), (1000.0, 2)])
    out = run_known(0.5, pts, FairnessSpec((2, 1)))
    assert not out.feasible and out.reason is InfeasibleReason.FAIRNESS_VIOLATED


# ----------------------------------------------------------------------
# cross-group graph
# ----------------------------------------------------------------------
def test_graph_edges_at_link_radius():
    g1 = filled_set(1.0, [0.0, 100.0], group=1)
    g2 = filled_set(1.0, [0.5, 100.5], group=2)
    graph = build_cross_graph(g1, g2, 0.5)
    coords = {pid: p.coords[0] for pid, p in graph.points.items()}
    edges = {(coords[a], coords[b]) for a, b in graph.edges}
    assert edges == {(0.0, 0.5), (100.0, 100.5)}


def test_graph_edgeless_when_groups_are_far():
    g1 = filled_set(1.0, [0.0], group=1)
    g2 = filled_set(1.0, [100.0], group=2)
    graph = build_cross_graph(g1, g2, 0.5)
    assert graph.edges == set()


def test_graph_degree_counts_all_links():
    g1 = filled_set(0.1, [0.0], group=1)
    g2 = filled_set(0.1, [1.0, 1.4], group=2)
    graph = build_cross_graph(g1, g2, 0.5)  # link radius 1.5 reaches both
    left_id = g1.members[0].id
    assert graph.degree(left_id) == 2


# ----------------------------------------------------------------------
# both groups over their caps
# ----------------------------------------------------------------------
def test_both_over_worked_example():
    # reps1={0,100}, reps2={0.5,100.5}, caps (1,1), guess 0.5 = optimum:
    # the cover loop takes vertex 0 (smallest id among the max-leaf ties),
    # retires 0.5 with it, then the group-2 early exit adds 100.5
    pts = stream([(0.0, 1), (100.0, 1), (0.5, 2), (100.5, 2)])
    assert brute_force_opt(pts, SPEC_11).r_opt == 0.5
    inst = StreamInstance(0.5, SPEC_11)
    for p in pts:
        inst.process(p)
    out = inst.finalize()
    assert inst.path == "both-over"
    assert out.feasible
    assert [p.coords[0] for p in out.centers] == [0.0, 100.5]
    assert clustering_cost(pts, out.centers) == 0.5


def test_both_over_exhaustion_when_guess_is_tiny():
    # four mutually far points, alternating groups, caps (1,1): every vertex
    # is isolated, the first phase picks all four, and the caps cannot hold
    pts = stream([(0.0, 1), (10.0, 2), (20.0, 1), (30.0, 2)])
    inst = StreamInstance(0.1, SPEC_11)
    for p in pts:
        inst.process(p)
    out = inst.finalize()
    assert not out.feasible and out.reason is InfeasibleReason.SELECTION_EXHAUSTED
    assert inst.last_graph.loop_trace == []  # the cover loop never ran


def test_both_over_edge_branch_runs_without_degree_one_vertices():
    # a 2x2 bipartite block (all four cross distances within the link radius
    # of 1.5, one of them exactly at it) has no degree-1 vertex, forcing the
    # edge branch; slack starts equal so the group-1 endpoint of the smallest
    # edge is taken first, and the group-2 early exit then adds 1.5
    g1 = filled_set(1.0, [0.0, 1.1], group=1)
    g2 = filled_set(1.0, [0.4, 1.5], group=2)
    graph = build_cross_graph(g1, g2, 0.5)
    assert all(graph.degree(pid) == 2 for pid in graph.points)
    out = select_with_both_groups_over(graph, FairnessSpec((1, 1)), 0.5)
    assert out.feasible
    assert sorted(p.coords[0] for p in out.centers) == [0.0, 1.5]


def test_both_over_trace_respects_budget_when_guess_at_optimum(rng):
    # paired clusters: one group-1 and one group-2 point per cluster, one unit
    # apart, clusters far apart; caps force the cover loop to run. With the
    # guess at the optimum, the live set never outgrows the remaining budget.
    for clusters in (3, 4, 5, 6):
        spec = FairnessSpec((clusters - 1, clusters - 1))
        rows = []
        for j in range(clusters):
            rows.append((10.0 * j, 1))
            rows.append((10.0 * j + 1.0, 2))
        pts = stream(rows)
        inst = StreamInstance(1.0, spec)
        for p in pts:
            inst.process(p)
        out = inst.finalize()
        assert inst.path == "both-over"
        assert out.feasible
        assert check_fairness(out.centers, spec) == []
        assert clustering_cost(pts, out.centers) <= 5.0
        trace = inst.last_graph.loop_trace
        assert trace, "expected the cover loop to run"
        for chosen, c1, c2, live1, live2 in trace:
            assert live1 <= spec.k - chosen
            assert live2 <= spec.k - chosen
            assert c1 <= spec.caps[0] and c2 <= spec.caps[1]


def test_update_cost_stays_within_stored_size():
    inst = StreamInstance(1.0, SPEC_12)
    for p in stream([(0.0, 1), (100.0, 1), (1.0, 2), (2.0, 2), (50.0, 2)]):
        inst.process(p, probe_other=True)
    assert inst.stats.update_excess <= 0


def test_finalize_is_one_shot():
    inst = StreamInstance(1.0, SPEC_11)
    inst.process(pt(0, 0.0, 1))
    inst.finalize()
    with pytest.raises(RuntimeError):
        inst.finalize()
    with pytest.raises(RuntimeError):
        inst.process(pt(1, 2.0, 1))


def test_injected_metric_threads_through_the_whole_solve():
    from fairkcenter import DistanceMetric

    manhattan = DistanceMetric.from_callable(
        lambda a, b: sum(abs(x - y) for x, y in zip(a, b)), name="manhattan"
    )
    pts = [
        pt(0, (0.0, 0.0), 1), pt(1, (10.0, 10.0), 1),
        pt(2, (0.0, 1.0), 2), pt(3, (10.0, 11.0), 2),
    ]
    out = run_known(1.0, pts, SPEC_11, metric=manhattan)
    assert out.feasible
    assert check_fairness(out.centers, SPEC_11) == []
    assert clustering_cost(pts, out.centers, manhattan) <= 5.0


def test_ratio_bound_on_random_instances(rng):
    # quick version of the acceptance sweep: feasible at the oracle radius,
    # caps respected, cost within five optima and never below the optimum
    for trial in range(40):
        points, spec = random_two_group_instance(rng)
        r_opt = brute_force_opt(points, spec).r_opt
        out = run_known(r_opt, points, spec)
        assert out.feasible, (trial, r_opt)
        assert check_fairness(out.centers, spec) == []
        cost = clustering_cost(points, out.centers)
        assert r_opt - 1e-9 <= cost <= 5.0 * r_opt + 1e-9


# ----------------------------------------------------------------------
# what process returns (the ladder extends its grid on it)
# ----------------------------------------------------------------------
def test_process_returns_the_nearest_stored_distance_only_when_probing(rng):
    for trial in range(40):
        points, spec = random_two_group_instance(rng)
        inst = StreamInstance(float(rng.uniform(0.5, 4.0)), spec)
        for p in points:
            stored = inst.reps[1].members + inst.reps[2].members
            expected = min((distance(p, q) for q in stored), default=math.inf)
            probe = bool(rng.integers(0, 2))
            got = inst.process(p, probe_other=probe)
            if inst.overflowed:
                assert got is None
                break
            assert got == (expected if probe else None)


def test_process_probe_on_a_hand_stream():
    inst = StreamInstance(1.0, SPEC_12)  # threshold 2
    assert inst.process(pt(0, 0.0, 1), probe_other=True) == math.inf  # nothing stored yet
    assert inst.process(pt(1, 10.0, 2), probe_other=True) == 10.0  # only the other group is stored
    assert inst.process(pt(2, 7.0, 1)) is None
    assert inst.process(pt(3, 9.0, 1), probe_other=True) == 1.0  # the other group is nearer
