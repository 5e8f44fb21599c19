import math

import numpy as np
import pytest

from fairkcenter import (
    EUCLIDEAN,
    CenterSet,
    FairnessSpec,
    IndependentSet,
    InfeasibleReason,
    SolveOutcome,
    StreamInstance,
    brute_force_opt,
    build_cross_graph,
    check_fairness,
    clustering_cost,
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
def graph_edges(graph):
    """The graph's (group-1 id, group-2 id) edges, read off its adjacency."""
    return {(a, b) for a, nbrs in graph.adj.items() if graph.points[a].group == 1 for b in nbrs}


def test_graph_edges_at_link_radius():
    g1 = filled_set(1.0, [0.0, 100.0], group=1)
    g2 = filled_set(1.0, [0.5, 100.5], group=2)
    graph = build_cross_graph(g1, g2, 0.5)
    coords = {pid: p.coords[0] for pid, p in graph.points.items()}
    edges = {(coords[a], coords[b]) for a, b in graph_edges(graph)}
    assert edges == {(0.0, 0.5), (100.0, 100.5)}


def test_graph_edgeless_when_groups_are_far():
    g1 = filled_set(1.0, [0.0], group=1)
    g2 = filled_set(1.0, [100.0], group=2)
    graph = build_cross_graph(g1, g2, 0.5)
    assert graph_edges(graph) == set()


def test_graph_degree_counts_all_links():
    g1 = filled_set(0.1, [0.0], group=1)
    g2 = filled_set(0.1, [1.0, 1.4], group=2)
    graph = build_cross_graph(g1, g2, 0.5)  # link radius 1.5 reaches both
    left_id = g1.members[0].id
    assert len(graph.adj[left_id]) == 2


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
    assert all(len(graph.adj[pid]) == 2 for pid in graph.points)
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


def test_update_time_monitor_catches_a_second_scan():
    inst = StreamInstance(1.0, SPEC_12)  # threshold 2
    for p in stream([(0.0, 1), (10.0, 2), (20.0, 2)]):
        inst.process(p, probe_other=True)
    assert inst.stats.update_excess == 0
    once = inst.reps2.min_dist
    inst.reps2.min_dist = lambda p: min(once(p), once(p))  # scans the other group twice
    inst.process(pt(3, 0.5, 1), probe_other=True)  # covered by reps1, then probes reps2
    assert inst.stats.update_excess == len(inst.reps2) == 2


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
            expected = min((EUCLIDEAN(p, q) for q in stored), default=math.inf)
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


# ----------------------------------------------------------------------
# equivalence with the graph-state cover
# ----------------------------------------------------------------------
class ReferenceGraph:
    """The cross-group graph that carried the cover's state: the live vertex
    set shrinks as the cover loop removes vertices, and degrees count live
    neighbours only."""

    def __init__(self, left, right, radius_guess, metric=EUCLIDEAN):
        self.link_radius = 3.0 * float(radius_guess)
        self.points = {p.id: p for p in list(left) + list(right)}
        self.adj = {pid: set() for pid in self.points}
        self.edges = set()
        for p in left:
            for q in right:
                if metric(p, q) <= self.link_radius:
                    self.adj[p.id].add(q.id)
                    self.adj[q.id].add(p.id)
                    self.edges.add((p.id, q.id))
        self.live = set(self.points)
        self.loop_trace = []

    def degree(self, pid):
        return len(self.adj[pid] & self.live)

    def live_in_group(self, group):
        return sorted(pid for pid in self.live if self.points[pid].group == group)


def reference_cover(graph, spec, radius_guess, metric=EUCLIDEAN):
    """The both-over cover as a loop over the graph's live state, with every
    nearest distance a ``min`` over ``metric`` calls: the specification the
    one-kernel cover must match."""
    k = spec.k
    near_radius = 2.0 * radius_guess
    link_radius = graph.link_radius
    chosen = []

    def chosen_min_dist(p):
        return min((metric(p, c) for c in chosen), default=math.inf)

    def chosen_counts():
        c1 = sum(1 for p in chosen if p.group == 1)
        return c1, len(chosen) - c1

    for pid in sorted(graph.live):
        if graph.degree(pid) == 0:
            p = graph.points[pid]
            if chosen_min_dist(p) > near_radius:
                chosen.append(p)
    graph.live -= {pid for pid in graph.live if graph.degree(pid) == 0}

    def try_early_exit():
        counts = chosen_counts()
        for group in (1, 2):
            live_ids = graph.live_in_group(group)
            if counts[group - 1] + len(live_ids) <= spec.caps[group - 1]:
                base = list(chosen)
                base.extend(graph.points[pid] for pid in live_ids)
                extra = [
                    graph.points[pid]
                    for pid in graph.live_in_group(3 - group)
                    if min((metric(graph.points[pid], c) for c in base), default=math.inf) > link_radius
                ]
                return base + extra
        return None

    final = try_early_exit()
    initial_live = len(graph.live)
    iterations = 0
    while final is None and len(chosen) <= k and graph.live:
        iterations += 1
        if iterations > initial_live:
            raise AssertionError("cover loop failed to shrink the live vertex set")
        c1, c2 = chosen_counts()
        live1, live2 = len(graph.live_in_group(1)), len(graph.live_in_group(2))
        graph.loop_trace.append((len(chosen), c1, c2, live1, live2))
        degree_one = [pid for pid in graph.live if graph.degree(pid) == 1]
        if not degree_one:
            left_id = min(pid for pid in graph.live if graph.points[pid].group == 1 and graph.degree(pid) > 0)
            right_id = min(graph.adj[left_id] & graph.live)
            pick = left_id if spec.caps[0] - c1 >= spec.caps[1] - c2 else right_id
            chosen.append(graph.points[pick])
            removed = {left_id, right_id}
        else:
            best_id = -1
            best_leaves = set()
            for pid in sorted(graph.live):
                leaves = {q for q in graph.adj[pid] & graph.live if graph.degree(q) == 1}
                if best_id < 0 or len(leaves) > len(best_leaves):
                    best_id, best_leaves = pid, leaves
            chosen.append(graph.points[best_id])
            removed = {best_id} | best_leaves
        graph.live -= removed
        for rid in removed:
            for w in graph.adj[rid] & graph.live:
                if graph.degree(w) == 0:
                    raise AssertionError("vertex removal created an isolated live vertex")
        final = try_early_exit()

    if final is None:
        if graph.live:
            return SolveOutcome.infeasible(InfeasibleReason.SELECTION_EXHAUSTED)
        final = chosen
    centers = CenterSet(tuple(final))
    if check_fairness(centers, spec):
        return SolveOutcome.infeasible(InfeasibleReason.SELECTION_EXHAUSTED)
    return SolveOutcome.ok(centers)


def cover_record(out, graph):
    """Feasibility, reason, center ids in order, and the cover loop's trace."""
    return (out.feasible, out.reason, out.centers.ids() if out.feasible else None, graph.loop_trace)


def assert_cover_matches_reference(g1, g2, spec, radius_guess, graph, out):
    """``out`` is the cover's outcome on ``graph``, built from ``g1`` and ``g2``."""
    reference = ReferenceGraph(g1.members, g2.members, radius_guess)
    want = cover_record(reference_cover(reference, spec, radius_guess), reference)
    assert graph_edges(graph) == reference.edges
    assert cover_record(out, graph) == want
    return want


def random_guess(rng, low, high):
    """Half the draws are halves of integers, so on the integer grid both the
    cover's 2x and 3x radii land exactly on distances now and then."""
    if rng.random() < 0.5:
        return float(rng.integers(math.ceil(2 * low), math.floor(2 * high) + 1)) / 2.0
    return float(rng.uniform(low, high))


def test_cover_matches_the_graph_state_reference_on_stream_finalizes():
    # 500 both-over finalizes at random guesses, each compared with the
    # reference cover on the instance's own representative sets
    rng = np.random.default_rng(7011)
    compared = looped = 0
    for _ in range(20000):
        points, spec = random_two_group_instance(rng)
        guess = random_guess(rng, 0.2, 4.0)
        inst = StreamInstance(guess, spec)
        for p in points:
            inst.process(p)
            if inst.overflowed:
                break
        out = inst.finalize()
        if inst.path != "both-over":
            continue
        record = assert_cover_matches_reference(inst.reps1, inst.reps2, spec, guess, inst.last_graph, out)
        looped += bool(record[-1])
        compared += 1
        if compared == 500:
            break
    assert compared == 500 and looped >= 400


def test_cover_matches_the_graph_state_reference_when_the_threshold_disagrees():
    # sets built at one threshold, covered at an unrelated guess: the cover
    # sees graphs its own stream would never hand it
    rng = np.random.default_rng(7012)
    kinds = set()
    for _ in range(500):
        points, spec = random_two_group_instance(rng)
        threshold = float(rng.uniform(0.5, 8.0))
        sets = {g: IndependentSet(threshold, group_filter=g) for g in (1, 2)}
        for p in points:
            sets[p.group].offer(p)
        guess = random_guess(rng, 0.1, 4.0)
        graph = build_cross_graph(sets[1], sets[2], guess)
        out = select_with_both_groups_over(graph, spec, guess)
        record = assert_cover_matches_reference(sets[1], sets[2], spec, guess, graph, out)
        kinds.add((record[0], bool(record[-1])))
    # feasible and infeasible outcomes, with and without the loop running
    assert {(True, True), (True, False), (False, True), (False, False)} <= kinds
