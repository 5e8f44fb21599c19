import math

import pytest

from fairkcenter import (
    FairnessSpec,
    InfeasibleReason,
    SemiInstance,
    StreamOrderError,
    brute_force_opt,
    check_fairness,
    clustering_cost,
    distance,
    run_known,
)

from conftest import pt, random_two_group_instance, stream


def group_sorted(points):
    return sorted(points, key=lambda p: p.group)


def fed(instance, points):
    for p in points:
        instance.process(p)
    return instance


# ----------------------------------------------------------------------
# group-2 arrival handling
# ----------------------------------------------------------------------
def test_group2_near_surplus_rep_becomes_stand_in():
    # reps1 = {0,100} exceeds cap 1, so group-2 point 0.4 is admitted nowhere
    # (0.4 <= threshold 0.8) but stands in for rep 0 (0.4 <= half threshold)
    inst = SemiInstance(0.4, FairnessSpec((1, 2)))
    fed(inst, stream([(0.0, 1), (100.0, 1)]))
    inst.process(pt(2, 0.4, 2))
    assert len(inst.reps2) == 0
    assert [p.coords[0] for p in inst.replacements] == [0.4]
    assert inst.replacement_of[0].coords[0] == 0.4


def test_group2_far_point_joins_reps_but_not_stand_ins():
    inst = SemiInstance(0.4, FairnessSpec((1, 2)))
    fed(inst, stream([(0.0, 1), (100.0, 1)]))
    inst.process(pt(2, 50.0, 2))
    assert [p.coords[0] for p in inst.reps2.members] == [50.0]
    assert inst.replacements == []


def test_group2_gate_is_wider_when_group1_fits_its_cap():
    # with reps1 within its cap the admission gate is one and a half
    # thresholds from group 1: 0.5 is rejected, 10 gets in
    inst = SemiInstance(0.5, FairnessSpec((1, 1)))
    fed(inst, stream([(0.0, 1)]))
    inst.process(pt(1, 0.5, 2))
    assert len(inst.reps2) == 0
    inst.process(pt(2, 10.0, 2))
    assert [p.coords[0] for p in inst.reps2.members] == [10.0]


def test_stand_in_recorded_once_per_rep():
    inst = SemiInstance(0.4, FairnessSpec((1, 2)))
    fed(inst, stream([(0.0, 1), (100.0, 1)]))
    inst.process(pt(2, 0.4, 2))
    inst.process(pt(3, 0.2, 2))  # rep 0 already replaced; nothing recorded
    assert [p.coords[0] for p in inst.replacements] == [0.4]


def test_group_order_enforced():
    inst = SemiInstance(1.0, FairnessSpec((1, 1)))
    inst.process(pt(0, 0.0, 1))
    inst.process(pt(1, 10.0, 2))
    with pytest.raises(StreamOrderError):
        inst.process(pt(2, 20.0, 1))


def test_rejects_other_groups():
    inst = SemiInstance(1.0, FairnessSpec((1, 1)))
    with pytest.raises(ValueError, match="groups 1 and 2"):
        inst.process(pt(0, 0.0, 3))


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def test_swap_worked_example():
    # group1 {0,100} then group2 {0.4,50}; caps (1,2); guess 0.4 = optimum:
    # rep 0 is swapped for its stand-in 0.4, keeping 100 and the rep 50
    pts = stream([(0.0, 1), (100.0, 1), (0.4, 2), (50.0, 2)])
    assert brute_force_opt(pts, FairnessSpec((1, 2))).r_opt == 0.4
    inst = fed(SemiInstance(0.4, FairnessSpec((1, 2))), pts)
    out = inst.finalize()
    assert inst.path == "swap"
    assert out.feasible
    assert sorted(p.coords[0] for p in out.centers) == [0.4, 50.0, 100.0]
    assert clustering_cost(pts, out.centers) == 0.4  # within 3 * guess


def test_union_when_group1_fits():
    pts = stream([(0.0, 1), (0.5, 2), (10.0, 2)])
    inst = fed(SemiInstance(0.5, FairnessSpec((1, 1))), pts)
    out = inst.finalize()
    assert inst.path == "union"
    assert out.feasible
    assert sorted(p.coords[0] for p in out.centers) == [0.0, 10.0]
    assert clustering_cost(pts, out.centers) == 0.5


def test_swap_without_stand_ins_is_infeasible():
    # two far group-1 points over a cap of 1, no group-2 point close enough
    # to stand in: the undersized guess is certified infeasible
    pts = stream([(0.0, 1), (100.0, 1), (50.0, 2)])
    out = run_known(0.1, pts, FairnessSpec((1, 1)), mode="semi")
    assert not out.feasible and out.reason is InfeasibleReason.FAIRNESS_VIOLATED


def test_overflow_certificate():
    spec = FairnessSpec((1, 1))  # k=2: a third separated group-1 point overflows
    pts = stream([(0.0, 1), (10.0, 1), (20.0, 1)])
    out = run_known(0.5, pts, spec, mode="semi")
    assert not out.feasible and out.reason is InfeasibleReason.STREAM_OVERFLOW


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
def test_stand_in_distance_bound(rng):
    # every recorded stand-in sits within one guess of the rep it replaces
    for trial in range(50):
        points, spec = random_two_group_instance(rng)
        ordered = group_sorted(points)
        guess = float(rng.uniform(0.5, 15.0))
        inst = SemiInstance(guess, spec)
        for p in ordered:
            inst.process(p)
            if inst.overflowed:
                break
        for rep_id, stand_in in inst.replacement_of.items():
            rep = next(p for p in inst.reps1.members if p.id == rep_id)
            assert distance(rep, stand_in) <= guess
        assert len(inst.replacements) <= len(inst.reps1)


def test_rep_budgets_at_oracle_radius(rng):
    # at the oracle radius the two rep sets fit the total budget and the
    # group-2 set fits its own cap
    for trial in range(40):
        points, spec = random_two_group_instance(rng)
        ordered = group_sorted(points)
        r_opt = brute_force_opt(points, spec).r_opt
        inst = SemiInstance(r_opt, spec)
        for p in ordered:
            inst.process(p)
        assert not inst.overflowed
        assert len(inst.reps1) + len(inst.reps2) <= spec.k
        assert len(inst.reps2) <= spec.caps[1]


def test_ratio_bound_on_random_instances(rng):
    for trial in range(40):
        points, spec = random_two_group_instance(rng)
        ordered = group_sorted(points)
        r_opt = brute_force_opt(points, spec).r_opt
        out = run_known(r_opt, ordered, spec, mode="semi")
        assert out.feasible
        assert check_fairness(out.centers, spec) == []
        assert clustering_cost(points, out.centers) <= 3.0 * r_opt + 1e-9


def test_update_cost_stays_within_budget(rng):
    for trial in range(20):
        points, spec = random_two_group_instance(rng)
        inst = SemiInstance(1.0, spec)
        for p in group_sorted(points):
            inst.process(p, probe_other=True)
            if inst.overflowed:
                break
        assert inst.stats.update_excess <= 0


def test_update_time_monitor_catches_a_second_scan():
    inst = SemiInstance(1.0, FairnessSpec((1, 2)))  # threshold 2; group 1 fits, so the gate is 3
    fed(inst, stream([(0.0, 1), (10.0, 2), (20.0, 2)]))
    assert inst.stats.update_excess == 0
    once = inst.reps2.min_dist
    inst.reps2.min_dist = lambda p: min(once(p), once(p))  # scans group 2 twice
    # not offered (2.5 <= 3), so the probe scans reps2 on its own
    inst.process(pt(3, 2.5, 2), probe_other=True)
    assert inst.stats.update_excess == len(inst.reps2) == 2


# ----------------------------------------------------------------------
# what process returns (the ladder extends its grid on it)
# ----------------------------------------------------------------------
def test_process_probe_for_group_2_points_with_and_without_an_offer():
    inst = SemiInstance(1.0, FairnessSpec((1, 2)))  # threshold 2; group 1 fits, so the gate is 3
    assert inst.process(pt(0, 0.0, 1), probe_other=True) == math.inf
    # offered to reps2 (10 > 3) and stored: nearest is the group-1 rep
    assert inst.process(pt(1, 10.0, 2), probe_other=True) == 10.0
    # not offered (2.5 <= 3): reps2 is scanned separately, group 1 is nearer
    assert inst.process(pt(2, 2.5, 2), probe_other=True) == 2.5
    assert [p.id for p in inst.reps2.members] == [1]
    # offered and covered by the stored group-2 point
    assert inst.process(pt(3, 11.5, 2), probe_other=True) == 1.5
    assert inst.process(pt(4, 11.0, 2)) is None


def test_process_returns_the_nearest_stored_distance_only_when_probing(rng):
    for trial in range(40):
        points, spec = random_two_group_instance(rng)
        inst = SemiInstance(float(rng.uniform(0.5, 4.0)), spec)
        for p in group_sorted(points):
            stored = inst.reps1.members + inst.reps2.members  # stand-ins are not scanned
            expected = min((distance(p, q) for q in stored), default=math.inf)
            probe = bool(rng.integers(0, 2))
            got = inst.process(p, probe_other=probe)
            if inst.overflowed:
                assert got is None
                break
            assert got == (expected if probe else None)
