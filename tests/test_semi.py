import math

import pytest

from fairkcenter import (
    EUCLIDEAN,
    FairnessSpec,
    InfeasibleReason,
    SemiInstance,
    StreamOrderError,
    brute_force_opt,
    check_fairness,
    clustering_cost,
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


def test_the_semi_bound_of_three_is_attained_on_the_union_path():
    """The paper's ratio 3 is tight at the fixed guess r_opt. Group 1 fits
    its cap, the union case: at guess 2 (threshold 4), reps1 = {7}, and the
    group-2 points 5 and 1 lie within 1.5 thresholds of it, so neither is
    stored and the answer is {7}, 6 = 3 * r_opt from the point 1. (The semi
    ladder answers this stream at ratio 1, so only the fixed guess is pinned.)"""
    pts = stream([(7.0, 1), (5.0, 2), (1.0, 2)])
    spec = FairnessSpec((2, 1))
    r_opt = brute_force_opt(pts, spec).r_opt
    assert r_opt == 2.0
    inst = fed(SemiInstance(r_opt, spec), pts)
    out = inst.finalize()
    assert inst.path == "union"
    assert out.centers.ids() == (0,)
    assert clustering_cost(pts, out.centers) == 6.0 == 3.0 * r_opt
    assert run_known(r_opt, pts, spec, mode="semi").centers.ids() == (0,)


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
            assert EUCLIDEAN(rep, stand_in) <= guess
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
            inst.process(p)
            if inst.overflowed:
                break
        assert inst.stats.update_excess <= 0


def test_update_time_monitor_catches_a_second_scan():
    inst = SemiInstance(1.0, FairnessSpec((1, 3)))  # threshold 2; group 1 fits, so the gate is 3
    fed(inst, stream([(0.0, 1), (10.0, 2), (20.0, 2)]))
    assert inst.stats.update_excess == 0
    once = inst.reps2.offer

    def offer_after_a_second_scan(p, *, clear=False):
        inst.reps2.nearest(p)  # scans group 2 once more
        return once(p, clear=clear)

    inst.reps2.offer = offer_after_a_second_scan
    # 15 is 5 from both reps2 members and 15 > 3 from reps1, so it reaches
    # offer and is stored: reps2 twice and reps1 once
    size = len(inst.reps2)
    inst.process(pt(3, 15.0, 2))
    assert len(inst.reps2) == size + 1
    assert inst.stats.update_excess == size == 2


# ----------------------------------------------------------------------
# when the own set grows (the ladder extends its grid on it at the top)
# ----------------------------------------------------------------------
def test_group_2_set_grows_only_past_both_admission_radii():
    inst = SemiInstance(1.0, FairnessSpec((1, 2)))  # threshold 2; group 1 fits, so the gate is 3
    sizes = []
    # 10 is admitted; 2.5 lies in the band (2, 3] of reps1 and is not; 11.5
    # is covered by 10; 3.5 clears reps1 by more than 3 and 10 by more than 2
    for p in stream([(0.0, 1), (10.0, 2), (2.5, 2), (11.5, 2), (3.5, 2)]):
        assert inst.process(p) is None
        sizes.append((len(inst.reps1), len(inst.reps2)))
    assert sizes == [(1, 0), (1, 1), (1, 1), (1, 1), (1, 2)]


def test_own_set_grows_exactly_past_the_admission_radii(rng):
    for trial in range(40):
        points, spec = random_two_group_instance(rng)
        inst = SemiInstance(float(rng.uniform(0.5, 4.0)), spec)
        lam = inst.threshold
        for p in group_sorted(points):
            dist1 = min((EUCLIDEAN(p, q) for q in inst.reps1.members), default=math.inf)
            dist2 = min((EUCLIDEAN(p, q) for q in inst.reps2.members), default=math.inf)
            if p.group == 1:
                admitted = dist1 > lam
            else:  # stand-ins are not members of either set
                radius1 = 1.5 * lam if len(inst.reps1) <= spec.caps[0] else lam
                admitted = dist1 > radius1 and dist2 > lam
            own = inst.reps[p.group]
            size = len(own)
            assert inst.process(p) is None
            if inst.overflowed:
                assert admitted and len(own) == size
                break
            assert (len(own) > size) is admitted


# ----------------------------------------------------------------------
# reps2 read before reps1, against the reps1-first reference
# ----------------------------------------------------------------------
class Reps1FirstSemi(SemiInstance):
    """Group 2 as the solver read it before ``reps2`` came first: every
    group-2 point takes a full ``reps1`` scan, and only a point it admits
    is offered to ``reps2``, which scans it there. Never gated."""

    def _process_group2(self, point, clear):
        lam = self.threshold
        group1_fits = len(self.reps1) <= self.spec.caps[0]
        self.group2_started = True
        self.gates = {}
        dist1, nearest_rep = self.reps1.nearest(point)
        if dist1 > (1.5 * lam if group1_fits else lam):
            self._offer_own(point, False)
        elif not group1_fits and dist1 <= lam / 2.0 and nearest_rep is not None:
            if nearest_rep.id not in self.replacement_of:
                self.replacement_of[nearest_rep.id] = point
                self._store(point)


def until_overflow(inst, points):
    """Feed ``points`` through ``process`` alone, as ``run_known`` does."""
    for p in points:
        inst.process(p)
        if inst.overflowed:
            break
    return inst


def through_gates(inst, p):
    """Feed ``p`` as ``Ladder._feed`` feeds a rung: through its gates, in
    order, with ``process`` told ``clear`` only when it has gates and no gate
    scan stops; the gate scans' logical and skipped counts go into ``stats`` too."""
    gates = inst.gates.get(p.group, ())
    for coords, within in gates:
        inst.stats.distance_evals += len(coords)
        d, idx = inst.metric.nearest(p, coords, within)
        if d <= within:
            inst.stats.evals_skipped += idx  # the scan stopped at idx
            return
    inst.process(p, clear=bool(gates))


def gated(inst, points):
    """Feed ``points`` through ``through_gates`` until the rung overflows."""
    for p in points:
        through_gates(inst, p)
        if inst.overflowed:
            break
    return inst


def semi_state(inst):
    out = inst.finalize()
    return (
        [p.id for p in inst.stored_order],
        [p.id for p in inst.reps1.members],
        [p.id for p in inst.reps2.members],
        {rep: p.id for rep, p in inst.replacement_of.items()},
        inst.overflowed,
        inst.path,
        out.centers.ids() if out.feasible else out.reason,
    )


def semi_orders(points, rng):
    """The group-sorted orders compared: swept along the first coordinate
    within each group, and shuffled within each group."""
    yield sorted(points, key=lambda p: (p.group, p.coords))
    shuffled = [points[i] for i in rng.permutation(len(points))]
    yield group_sorted(shuffled)


def test_reps2_first_matches_the_reps1_first_reference(rng):
    reached = {"fits": 0, "over": 0, "tie at lambda": 0, "tie at 1.5 lambda": 0, "stand-in": 0}
    for trial in range(300):
        points, spec = random_two_group_instance(rng)
        # integer and half-integer guesses on the integer grid: distances of
        # exactly one threshold (2r) and one and a half (3r) occur
        guess = float(rng.integers(1, 9)) / 2.0
        for order in semi_orders(points, rng):
            want = semi_state(until_overflow(Reps1FirstSemi(guess, spec), order))
            assert semi_state(gated(SemiInstance(guess, spec), order)) == want, trial
            probe = SemiInstance(guess, spec)
            lam = probe.threshold
            for p in order:
                if p.group == 2:
                    fits = len(probe.reps1) <= spec.caps[0]
                    d1 = min((EUCLIDEAN(p, q) for q in probe.reps1.members), default=math.inf)
                    d2 = min((EUCLIDEAN(p, q) for q in probe.reps2.members), default=math.inf)
                    reached["fits" if fits else "over"] += 1
                    reached["tie at lambda"] += fits and d2 == lam
                    reached["tie at 1.5 lambda"] += fits and d2 > lam and d1 == 1.5 * lam
                stand_ins = len(probe.replacement_of)
                probe.process(p)
                reached["stand-in"] += len(probe.replacement_of) > stand_ins
                if probe.overflowed:
                    break
            assert semi_state(probe) == want, trial
    assert all(reached.values()), reached


def test_gated_and_ungated_updates_count_the_same_logical_evaluations(rng):
    # point by point, a bare process of a group-2 point on a rung whose group
    # 1 fits its cap scans as the gates do: it adds the logical and the made
    # counts of the gate scans plus the gated process. Whole streams differ
    # only in made counts, because a bare group-1 offer scans in full.
    reached = {"fits": 0, "over": 0, "skipped": 0}
    for trial in range(60):
        points, spec = random_two_group_instance(rng)
        guess = float(rng.integers(1, 9)) / 2.0
        bare, fed = SemiInstance(guess, spec), SemiInstance(guess, spec)
        for p in group_sorted(points):
            evals, skipped = bare.stats.distance_evals, bare.stats.evals_skipped
            gated_evals, gated_skipped = fed.stats.distance_evals, fed.stats.evals_skipped
            bare.process(p)
            through_gates(fed, p)
            assert bare.stored_order == fed.stored_order and bare.overflowed == fed.overflowed, trial
            if p.group == 2:
                fits = len(bare.reps1) <= spec.caps[0]
                reached["fits" if fits else "over"] += 1
                if fits:
                    assert bare.stats.distance_evals - evals == fed.stats.distance_evals - gated_evals, trial
                    assert bare.stats.evals_skipped - skipped == fed.stats.evals_skipped - gated_skipped, trial
                    reached["skipped"] += bare.stats.evals_skipped > skipped
            if bare.overflowed:
                break
        assert fed.stats.distance_evals == bare.stats.distance_evals, trial
        assert fed.stats.update_excess <= 0 and bare.stats.update_excess <= 0
    assert all(reached.values()), reached


def test_clear_for_a_group_with_no_gate_raises_instead_of_storing_unscanned():
    # over its group-1 cap a semi rung gates no group-2 point, so no caller
    # has scanned one clear; told so anyway, process refuses before any change
    inst = fed(SemiInstance(1.0, FairnessSpec((1, 3))), stream([(0.0, 1), (10.0, 1), (20.0, 2)]))
    assert inst.gates == {}
    covered = pt(3, 21.0, 2)  # 1 from the reps2 member 20: unscanned it would be stored
    with pytest.raises(KeyError):
        inst.process(covered, clear=True)
    assert [p.id for p in inst.stored_order] == [0, 1, 2]
    inst.process(covered)
    assert [p.id for p in inst.stored_order] == [0, 1, 2] and not inst.overflowed


def test_a_fitting_rung_gates_reps2_first_from_its_first_member_on():
    inst = SemiInstance(1.0, FairnessSpec((1, 3)))  # threshold 2
    fed(inst, stream([(0.0, 1), (2.5, 2)]))  # 2.5 is within 3 of reps1: not admitted
    assert inst.gates == {2: ((inst.reps1.coords, 3.0),)}  # no scan of the empty reps2
    inst.process(pt(2, 10.0, 2))
    assert inst.gates == {2: ((inst.reps2.coords, 2.0), (inst.reps1.coords, 3.0))}
    assert inst.gates[2][0][0] is inst.reps2.coords and inst.gates[2][1][0] is inst.reps1.coords
    over = fed(SemiInstance(1.0, FairnessSpec((1, 3))), stream([(0.0, 1), (10.0, 1), (20.0, 2)]))
    assert over.gates == {}  # over its group-1 cap: every group-2 point runs process


def test_a_point_within_one_and_a_half_thresholds_of_reps2_is_admitted_past_it():
    # threshold 2, group 1 fits: 10 is admitted; 12.5 is 2.5 from reps2,
    # past one threshold, and 12.5 from reps1, past 1.5, so it is admitted
    # too and then covers 14. Judging the reps2 distance against 1.5
    # thresholds, as a swapped reading of the gate scans would, refuses
    # 12.5 and admits 14 in its place.
    points = stream([(0.0, 1), (10.0, 2), (12.5, 2), (14.0, 2)])
    spec = FairnessSpec((1, 3))
    want = semi_state(fed(Reps1FirstSemi(1.0, spec), points))
    assert want[2] == [1, 2]
    assert semi_state(gated(SemiInstance(1.0, spec), points)) == want
    assert semi_state(fed(SemiInstance(1.0, spec), points)) == want
