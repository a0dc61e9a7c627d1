import hashlib
import itertools
import math
import random
import sys
import tracemalloc
from collections import namedtuple
from fractions import Fraction as Q
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from thickset import cantor, patterns1d
from thickset.cantor import (
    IN_CERTIFIED,
    IfsSet1D,
    WordForm,
    affine_image,
    ifs_from_branches,
    membership,
    middle_cantor,
    middle_thirds,
    off_center_cantor,
)
from thickset.errors import HypothesisError, Indeterminate, InputError
from thickset.patterns1d import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    KapCertificate,
    WitnessPoint,
    certified_descent,
    find_3ap,
    find_convex_combo,
    gap_lemma_check,
    _longest_gap,
    kap_search,
    shmerkin_4ap,
)
from thickset.product import Triangle, difference_hit, find_triangle_in_product
from thickset.scalars import Interval

from oracles import (
    IDENTITY,
    combo_core_intervals,
    compose,
    kap_bruteforce,
    longest_gap,
    point_in_cover,
    position_probes,
    ref_certified_member,
    ref_kap_search,
    ref_slid_pair_test,
    ref_slides_into_gap,
    ref_y_range,
    _ref_ordered_extensions,
    verify_combo_containment,
    word_interval,
    word_map,
)


def certified_member(s, x, max_steps=256):
    """``position_member`` of x's position in the hull of ``s``."""
    h_lo, h_hi, (y,) = cantor._lift(s, Q(x))
    return cantor.position_member(s.form, y - h_lo, h_hi - h_lo, max_steps)


def library_longest_gap(s) -> tuple[Q, Q]:
    gaps = s.top_gaps()
    return gaps[_longest_gap(gaps, rightmost=False)]


class TestLargestGap:
    # the library's choice of gap, against the oracle's and closed forms
    def test_middle_thirds(self):
        s = middle_thirds()
        assert library_longest_gap(s) == longest_gap(s) == (Q(1, 3), Q(2, 3))

    def test_off_center(self):
        s = off_center_cantor(Q(3, 10))
        assert library_longest_gap(s) == longest_gap(s) == \
            (Q(3, 10), Q(6, 10))

    def test_middle_cantor_formula(self):
        eps = Q(1, 5)
        s = middle_cantor(eps)
        assert library_longest_gap(s) == longest_gap(s) == \
            ((1 - eps) / 2, (1 + eps) / 2)


class TestComboCoreIntervals:
    def test_middle_thirds_half(self):
        first, second = combo_core_intervals(Q(1, 2), Q(1, 3), Q(2, 3))
        assert first == (Q(1, 3), Q(1, 2))
        assert second == (Q(1, 2), Q(2, 3))

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            combo_core_intervals(Q(1, 2), Q(1, 2), Q(1, 2))

    @pytest.mark.parametrize("lam", [Q(1, 2), Q(3, 5), Q(7, 10), Q(9, 10)])
    @pytest.mark.parametrize("builder", [
        middle_thirds, lambda: off_center_cantor(Q(3, 10))])
    def test_k2_in_core_for_lam_at_least_half(self, lam, builder):
        s = builder()
        k1, k2 = longest_gap(s)
        first, second = combo_core_intervals(lam, k1, k2)
        assert (first[0] <= k2 <= first[1]) or (second[0] <= k2 <= second[1])


class TestComboContainment:
    @pytest.mark.parametrize("lam", [Q(1, 5), Q(7, 20), Q(1, 2)])
    def test_middle_thirds(self, lam):
        for depth in range(1, 13):
            assert verify_combo_containment(middle_thirds(), lam, depth)

    def test_thin_set_rejected(self):
        with pytest.raises(HypothesisError):
            verify_combo_containment(middle_cantor(Q(2, 5)), Q(1, 2), 4)


class TestFindConvexCombo:
    def test_3ap_middle_thirds(self):
        w = find_3ap(middle_thirds(), depth=20)
        assert w.m.enclosure.is_point() and w.m.enclosure.lo == Q(2, 3)
        assert w.m.status == IN_CERTIFIED
        assert w.residual <= 2 * Q(3) ** -20
        # the enclosures really do pin a combination: midpoint defect is
        # within the residual
        defect = abs((w.a.enclosure.mid + w.b.enclosure.mid) / 2 - Q(2, 3))
        assert defect <= w.residual

    def test_cross_oracle_membership_0_13_23(self):
        # an independently checkable 3-term progression
        s = middle_thirds()
        for x in (Q(0), Q(1, 3), Q(2, 3)):
            assert membership(s, x).kind == IN_CERTIFIED

    def test_lambda_third(self):
        w = find_convex_combo(middle_thirds(), Q(1, 3), depth=16)
        assert w.residual <= Q(3) ** -15
        combo = (1 - w.lam) * w.a.enclosure.mid + w.lam * w.b.enclosure.mid
        assert abs(combo - w.m.enclosure.mid) <= w.residual

    def test_thin_set_rejected(self):
        with pytest.raises(HypothesisError):
            find_convex_combo(middle_cantor(Q(2, 5)), Q(1, 2))

    def test_lambda_range_rejected(self):
        with pytest.raises(InputError):
            find_convex_combo(middle_thirds(), Q(1))

    def test_residual_decay(self):
        s = middle_thirds()
        prev = None
        for depth in (8, 12, 16, 20):
            w = find_convex_combo(s, Q(1, 2), depth)
            if prev is not None:
                assert w.residual < prev
                # each extra depth contracts by the largest branch scale
                assert w.residual <= prev * Q(1, 3) ** 4
            prev = w.residual

    def test_reflection_symmetry(self):
        # the set is symmetric under x -> 1-x, so witnesses for lam and
        # 1-lam must be reflections of each other within residuals
        s = middle_thirds()
        w1 = find_convex_combo(s, Q(1, 3), depth=18)
        w2 = find_convex_combo(s, Q(2, 3), depth=18)
        tol = w1.residual + w2.residual
        assert abs((1 - w2.m.enclosure.mid) - w1.m.enclosure.mid) <= tol
        assert abs((1 - w2.b.enclosure.mid) - w1.a.enclosure.mid) <= tol

    def test_affine_placed_set(self):
        s = affine_image(middle_thirds(), Q(2), Q(5))
        w = find_3ap(s, depth=12)
        assert Q(5) <= w.a.enclosure.lo and w.b.enclosure.hi <= Q(7)
        combo = (w.a.enclosure.mid + w.b.enclosure.mid) / 2
        assert abs(combo - w.m.enclosure.mid) <= w.residual

    def test_off_center_boundary_thickness(self):
        # thickness is exactly 1, the hypothesis boundary; witnesses must
        # still come out for a spread of ratios
        s = off_center_cantor(Q(3, 10))
        w = find_3ap(s, depth=16)
        assert w.m.enclosure.lo == Q(3, 5)
        assert membership(s, w.m.enclosure.lo).kind == IN_CERTIFIED
        for lam in (Q(1, 4), Q(2, 5), Q(3, 5)):
            w = find_convex_combo(s, lam, depth=12)
            d = abs((1 - lam) * w.a.enclosure.mid
                    + lam * w.b.enclosure.mid - w.m.enclosure.mid)
            assert d <= w.residual


class TestShmerkin4AP:
    def test_eps_third_exact(self):
        cert = shmerkin_4ap(Q(1, 3))
        assert cert.verdict == FEASIBLE
        vals = [p.enclosure for p in cert.points]
        assert all(iv.is_point() for iv in vals)
        assert [iv.lo for iv in vals] == [Q(0), Q(1, 3), Q(2, 3), Q(1)]
        assert all(p.status == IN_CERTIFIED for p in cert.points)

    def test_eps_quarter_feasible(self):
        cert = shmerkin_4ap(Q(1, 4), depth=14)
        assert cert.verdict == FEASIBLE
        s = middle_cantor(Q(1, 4))
        # symmetric progression: steps agree and enclosures are tight
        w = max(p.enclosure.width for p in cert.points)
        assert w <= 2 * Q(3, 8) ** 14
        # each enclosure meets the cover
        for p in cert.points:
            assert "in_c" in p.status or p.status == IN_CERTIFIED

    def test_eps_above_third_rejected(self):
        with pytest.raises(InputError):
            shmerkin_4ap(Q(2, 5))


class TestKapSearch:
    def test_middle_cantor_2_5_no_3ap(self):
        cert = kap_search(middle_cantor(Q(2, 5)), 3, depth=8)
        assert cert.verdict == INFEASIBLE
        assert cert.depth <= 8

    def test_bruteforce_agrees_on_small_instances(self):
        for builder, k in [
            (lambda: middle_cantor(Q(2, 5)), 3),
            (lambda: middle_cantor(Q(2, 5)), 4),
            (middle_thirds, 3),
            (middle_thirds, 4),
            (lambda: off_center_cantor(Q(3, 10)), 4),
        ]:
            s = builder()
            for depth in (2, 3, 5):
                pruned = kap_search(s, k, depth)
                brute = kap_bruteforce(s, k, depth)
                if pruned.verdict == INFEASIBLE and pruned.depth <= depth:
                    assert brute == INFEASIBLE
                else:
                    assert brute == FEASIBLE

    def test_bruteforce_agrees_wide_parameter_sweep(self):
        cases = []
        for eps in (Q(1, 5), Q(3, 10), Q(9, 20)):
            for k in (3, 4, 5):
                cases.append((middle_cantor(eps), k))
        for a in (Q(1, 4), Q(8, 25)):
            cases.append((off_center_cantor(a), 4))
        for s, k in cases:
            for depth in (2, 4):
                pruned = kap_search(s, k, depth)
                brute = kap_bruteforce(s, k, depth)
                want = INFEASIBLE if (pruned.verdict == INFEASIBLE
                                      and pruned.depth <= depth) \
                    else FEASIBLE
                assert brute == want

    def test_five_term_verdicts(self):
        # longer progressions demand more thickness: the symmetric
        # 4-point construction caps out for these gap ratios (verdicts
        # anchored by the no-pruning oracle above)
        assert kap_search(middle_cantor(Q(1, 4)), 5, 4).verdict == INFEASIBLE
        assert kap_search(middle_cantor(Q(1, 5)), 5, 4).verdict == INFEASIBLE
        assert kap_search(middle_thirds(), 4, 4).verdict == FEASIBLE

    def test_middle_thirds_4ap_feasible_consistent(self):
        cert = kap_search(middle_thirds(), 4, depth=6)
        assert cert.verdict == FEASIBLE
        # consistent with the exact symmetric progression {0,1/3,2/3,1}
        exact = shmerkin_4ap(Q(1, 3))
        assert [p.enclosure.lo for p in exact.points] == \
            [Q(0), Q(1, 3), Q(2, 3), Q(1)]
        # the reported midpoints land inside the depth-6 cover

        y_mid = cert.y.mid
        x_mid = cert.x.mid
        for j in range(4):
            assert point_in_cover(middle_thirds(), x_mid + j * y_mid, 6)

    @pytest.mark.parametrize("a", [Q(59, 200), Q(3, 10), Q(31, 100)])
    def test_off_center_no_4ap(self, a):
        cert = kap_search(off_center_cantor(a), 4, depth=10)
        assert cert.verdict == INFEASIBLE
        assert cert.depth <= 10

    @pytest.mark.parametrize("a", [Q(59, 200), Q(3, 10), Q(31, 100)])
    def test_excluded_point_in_split_gap(self, a):
        # 3a falls in the gap splitting the rightmost depth-2 interval
        lo = 5 * a - 8 * a**2 + 4 * a**3
        hi = 6 * a - 12 * a**2 + 8 * a**3
        assert lo < 3 * a < hi

    def test_k_too_small(self):
        with pytest.raises(InputError):
            kap_search(middle_thirds(), 2, 4)

    @pytest.mark.parametrize("k", [3, 4])
    def test_feasible_monotone_in_depth(self, k):
        # a feasible verdict persists under refinement: the surviving
        # tuple's children keep a nonempty step range
        s = middle_thirds()
        prev = None
        for depth in (2, 3, 4, 5):
            cert = kap_search(s, k, depth)
            assert cert.verdict == FEASIBLE
            if prev is not None:
                # the midpoint progression stays inside the coarser boxes
                y, x = cert.y.mid, cert.x.mid

                for j in range(k):
                    assert point_in_cover(s, x + j * y, prev)
            prev = depth


ROADMAP_SET = ifs_from_branches(0, 1, [(Q(1, 4), 0), (Q(1, 5), Q(3, 8)),
                                       (Q(1, 4), Q(3, 4))])


def pinned(k, verdict, depth, explored, x=None, y=None, points=()):
    """A certificate from exact values written as strings."""
    def iv(pair):
        return None if pair is None else Interval(Q(pair[0]), Q(pair[1]))

    status = f"in_cover_at_depth({depth})"
    return KapCertificate(k, verdict, depth, explored, iv(x), iv(y),
                          tuple(WitnessPoint(iv(p), status) for p in points))


# full certificates of the search before tuples were extended one position
# at a time on integer boxes; the live tuples, and so the witness and the
# node counts, must not change
PINNED = [
    (ROADMAP_SET, 4, 3, pinned(
        4, FEASIBLE, 3, 903, ("1/640", "13/960"), ("35/192", "23/120"),
        [("0", "1/64"), ("3/16", "13/64"), ("3/8", "31/80"),
         ("9/16", "23/40")])),
    (ROADMAP_SET, 4, 4, pinned(
        4, FEASIBLE, 4, 2361, ("1/2560", "13/3840"), ("143/768", "181/960"),
        [("0", "1/256"), ("3/16", "49/256"), ("3/8", "121/320"),
         ("9/16", "181/320")])),
    (ROADMAP_SET, 4, 5, pinned(
        4, FEASIBLE, 5, 9651, ("1/10240", "13/15360"),
        ("575/3072", "721/3840"),
        [("0", "1/1024"), ("3/16", "193/1024"), ("3/8", "481/1280"),
         ("9/16", "721/1280")])),
    (ROADMAP_SET, 4, 6, pinned(
        4, FEASIBLE, 6, 39216, ("1/40960", "13/61440"),
        ("2303/12288", "2881/15360"),
        [("0", "1/4096"), ("3/16", "769/4096"), ("3/8", "1921/5120"),
         ("9/16", "2881/5120")])),
    # the depth of the ROADMAP timing target
    (ROADMAP_SET, 4, 8, pinned(
        4, FEASIBLE, 8, 740271, ("1/655360", "13/983040"),
        ("36863/196608", "46081/245760"),
        [("0", "1/65536"), ("3/16", "12289/65536"), ("3/8", "30721/81920"),
         ("9/16", "46081/81920")])),
    (ROADMAP_SET, 5, 4, pinned(
        5, FEASIBLE, 4, 2691, ("0", "1/320"), ("191/1024", "193/1024"),
        [("0", "1/256"), ("3/16", "49/256"), ("3/8", "121/320"),
         ("9/16", "181/320"), ("3/4", "193/256")])),
    (off_center_cantor(Q(3, 10)), 4, 10, pinned(4, INFEASIBLE, 3, 35)),
]

# (budget, set, k, depth, verdict, depth reached, explored)
PINNED_BUDGET = [
    ("1", ROADMAP_SET, 4, 6, UNKNOWN, 1, 13),
    ("1", ROADMAP_SET, 5, 4, UNKNOWN, 1, 19),
    ("1", off_center_cantor(Q(3, 10)), 4, 10, UNKNOWN, 1, 4),
    ("50", ROADMAP_SET, 4, 6, UNKNOWN, 1, 51),
    ("50", ROADMAP_SET, 5, 4, UNKNOWN, 1, 51),
    ("50", off_center_cantor(Q(3, 10)), 4, 10, INFEASIBLE, 3, 35),
    ("700", ROADMAP_SET, 4, 6, UNKNOWN, 2, 701),
    ("700", ROADMAP_SET, 5, 4, UNKNOWN, 1, 701),
    ("700", off_center_cantor(Q(3, 10)), 4, 10, INFEASIBLE, 3, 35),
    # the search needs exactly 35 nodes
    ("34", off_center_cantor(Q(3, 10)), 4, 10, UNKNOWN, 2, 35),
    ("35", off_center_cantor(Q(3, 10)), 4, 10, INFEASIBLE, 3, 35),
    # the budget runs out on the first parent of the last level, or just
    # before its last one; the fan of every parent there is charged in
    # full, however early its walk stops
    ("902", ROADMAP_SET, 4, 3, UNKNOWN, 2, 903),
    ("903", ROADMAP_SET, 4, 4, UNKNOWN, 3, 904),
    ("2360", ROADMAP_SET, 4, 4, UNKNOWN, 3, 2361),
    ("2361", ROADMAP_SET, 4, 4, FEASIBLE, 4, 2361),
]


def recorded_kap_search(s, k, depth):
    """``kap_search`` with every tuple walk recorded as (its level, the
    children rows, the surviving box tuples).  The search walks level
    by level, one walk per live tuple of the level above, so the level
    follows from call order: the depth-1 walk is level 1, its split
    survivors are the walks of level 2, and the survivors of each level
    after that are the walks of the next."""
    walk, walks = patterns1d._ordered_extensions, []
    level, left, ahead = 0, 0, 1  # walks left in this level and the next

    def recording(row, k_, y_range, *args, **kwargs):
        nonlocal level, left, ahead
        ext = walk(row, k_, y_range, *args, **kwargs)
        out = [t for t, _ in ext]
        if not left:
            level, left, ahead = level + 1, ahead, 0
        left -= 1
        ahead += sum(level > 1 or t[0] != t[-1] for t in out)
        walks.append((level, tuple(tuple(row(m)) for m in range(k_)), out))
        return ext

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns1d, "_ordered_extensions", recording)
        return kap_search(s, k, depth), walks


@st.composite
def placed_set(draw, mul_dens=st.integers(1, 3), shift_dens=st.just(3)):
    """A 2- or 3-branch presentation on a random hull, reflected half
    the time: its scale over a denominator drawn from ``mul_dens`` and
    its shift over one drawn from ``shift_dens``."""
    n = draw(st.integers(2, 3))
    weight = st.integers(1, 9)
    scales = draw(st.lists(weight, min_size=n, max_size=n))
    gaps = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    total = sum(scales) + sum(gaps)
    pairs, offset = [], Q(0)
    for w, g in zip(scales, gaps + [0]):
        pairs.append((Q(w, total), offset))
        offset += Q(w + g, total)
    mul = Q(draw(st.integers(1, 4)), draw(mul_dens))
    if draw(st.booleans()):
        mul = -mul
    return affine_image(ifs_from_branches(0, 1, pairs), mul,
                        Q(draw(st.integers(-4, 4)), draw(shift_dens)))


@st.composite
def kap_inputs(draw, max_depth=3, max_tuples=30_000):
    """A ``placed_set``, k in {3, 4, 5} and a depth of at most
    ``max_depth``; with ``max_tuples``, small enough for the no-pruning
    oracle."""
    s = draw(placed_set())
    n = len(s.branches)
    k, depth = draw(st.integers(3, 5)), draw(st.integers(1, max_depth))
    if max_tuples is not None:
        assume(math.comb(n ** depth + k - 1, k) <= max_tuples)
    return s, k, depth


class TestKapSearchParity:
    @pytest.mark.parametrize("s, k, depth, want", PINNED)
    def test_pinned_certificates(self, s, k, depth, want):
        assert kap_search(s, k, depth) == want

    @pytest.mark.parametrize("budget, s, k, depth, verdict, reached, nodes",
                             PINNED_BUDGET)
    def test_pinned_budget_stops(self, monkeypatch, budget, s, k, depth,
                                 verdict, reached, nodes):
        monkeypatch.setenv("THICKSET_MAX_NODES", budget)
        cert = kap_search(s, k, depth)
        assert (cert.verdict, cert.depth, cert.explored_nodes) == \
            (verdict, reached, nodes)

    @pytest.mark.parametrize("k", range(4, 31))
    def test_large_k_immediate_certificate(self, k):
        # gap 2/5 > 1/(k-1): every split depth-1 tuple dies
        cert = kap_search(middle_cantor(Q(2, 5)), k, 2)
        assert cert == KapCertificate(k, INFEASIBLE, 1, k - 1)

    def test_long_progression_on_tiny_gap(self):
        # k = 200 is too long for the immediate certificate here, and the
        # tuple walk must not recurse once per position
        s = middle_cantor(Q(1, 1000))
        cert = kap_search(s, 200, 1)
        assert cert.verdict == FEASIBLE and len(cert.points) == 200
        for j in range(200):
            assert point_in_cover(s, cert.x.mid + j * cert.y.mid, 1)
        cert = kap_search(s, 200, 2)  # a fan of 2**200 passes the budget
        assert (cert.verdict, cert.depth) == (UNKNOWN, 1)

    def test_depth_one_walk_under_budget(self, monkeypatch):
        # just below the immediate certificate, on a tiny gap, the depth-1
        # walk makes O(k^3) pair checks; they are charged to the budget
        s = middle_cantor(Q(1, 10**5))
        monkeypatch.setenv("THICKSET_MAX_NODES", str(10**5))
        cert = kap_search(s, 3000, 1)
        explored = math.comb(2 + 3000 - 1, 3000) - 2
        assert (cert.verdict, cert.depth, cert.explored_nodes) == \
            (UNKNOWN, 1, max(explored, 10**5) + 1)

    @settings(max_examples=40, deadline=None)
    @given(kap_inputs())
    def test_agrees_with_bruteforce(self, case):
        s, k, depth = case
        cert = kap_search(s, k, depth)
        assert cert.verdict == kap_bruteforce(s, k, depth)
        if cert.verdict == FEASIBLE:
            for j in range(k):
                v = cert.x.mid + j * cert.y.mid
                assert point_in_cover(s, v, cert.depth)

    @settings(max_examples=60, deadline=None)
    @given(kap_inputs(max_depth=5, max_tuples=None), st.booleans(),
           st.data())
    def test_agrees_with_full_expansion(self, case, budgeted, data):
        # the whole certificate, explored_nodes included, matches the
        # search that expands every live tuple to the last level; half
        # the time under a budget that runs out on that level
        s, k, depth = case
        with pytest.MonkeyPatch.context() as mp:
            if budgeted:
                mp.setenv("THICKSET_MAX_NODES", str(10**5))
                full = ref_kap_search(s, k, depth)
                above = ref_kap_search(s, k, max(depth - 1, 1))
                budget = data.draw(st.integers(
                    above.explored_nodes,
                    max(full.explored_nodes, above.explored_nodes)))
                mp.setenv("THICKSET_MAX_NODES", str(budget))
            assert kap_search(s, k, depth) == ref_kap_search(s, k, depth)

    @settings(max_examples=40, deadline=None)
    @given(kap_inputs(max_depth=4, max_tuples=None))
    def test_witness_range_matches_reference(self, case):
        # the certificate's y is the reference step range of its boxes,
        # above the shortest first-level gap over k - 1, and x is the
        # range of starts that puts the midpoint step in every box
        s, k, depth = case
        cert = kap_search(s, k, depth)
        assume(cert.verdict == FEASIBLE)
        tops = sorted(word_interval(s, (i,)) for i in range(len(s.branches)))
        g_min = min(a1 - b0 for (_, b0), (a1, _) in zip(tops, tops[1:]))
        boxes = [(p.enclosure.lo, p.enclosure.hi) for p in cert.points]
        assert (cert.y.lo, cert.y.hi) == ref_y_range(boxes, g_min / (k - 1))
        y = cert.y.mid
        assert cert.x.lo == max(a - j * y for j, (a, _) in enumerate(boxes))
        assert cert.x.hi == min(b - j * y for j, (_, b) in enumerate(boxes))
        assert cert.x.lo <= cert.x.hi

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 20)),
                    min_size=2, max_size=7),
           st.integers(-10, 30), st.integers(1, 6))
    def test_step_range_matches_reference(self, spans, y_num, y_step):
        # a walk over one box per row, in any order, feasible or not:
        # the tuple survives exactly when its left ends are ordered and
        # the reference range in Fractions is nonempty, and its integer
        # (numerator, step) bounds are that range
        boxes = [(a, a + w) for a, w in spans]
        out = patterns1d._ordered_extensions(
            lambda m: [boxes[m]], len(boxes), (y_num, y_step, 1, 0))
        want = ref_y_range([tuple(map(Q, b)) for b in boxes],
                           Q(y_num, y_step))
        if boxes != sorted(boxes, key=lambda b: b[0]):
            want = None
        if want is None:
            assert out == []
        else:
            ((t, (lo_n, lo_d, hi_n, hi_d)),) = out
            assert t == tuple(boxes)
            assert (Q(lo_n, lo_d), Q(hi_n, hi_d)) == want

    @settings(max_examples=60, deadline=None)
    @given(kap_inputs(max_tuples=None), st.randoms(use_true_random=False))
    def test_seeded_walk_matches_unseeded_reference(self, case, rng):
        # the walk below a live parent, started from the parent's range
        # over the children's denominator, returns the boxes of the index
        # tuples of the reference walk that starts from g_min/(k - 1)
        # alone, in the same order, each with the reference range of its
        # boxes
        s, k, depth = case
        form, n = s.form, len(s.branches)
        den, rel = form.den, form.rel
        g_min = min(a1 - b0 for (_, b0), (a1, _) in zip(rel, rel[1:]))
        boxes = sorted(form.walk(0, 1, w)
                       for w in itertools.product(range(n), repeat=depth))
        parents = _ref_ordered_extensions(
            [boxes] * k, (g_min * den ** (depth - 1), k - 1))
        assume(parents)
        y_min = Q(g_min * den ** depth, k - 1)
        for e in rng.sample(parents, min(len(parents), 4)):
            parent = [tuple(map(Q, boxes[i])) for i in e]
            lo, hi = (v * den for v in ref_y_range(parent, y_min / den))
            kids = [form.children(*boxes[i]) for i in e]
            got = patterns1d._ordered_extensions(
                kids.__getitem__, k,
                (lo.numerator, lo.denominator, hi.numerator, hi.denominator))
            want = _ref_ordered_extensions(
                kids, (y_min.numerator, y_min.denominator))
            assert [t for t, _ in got] == \
                [tuple(row[i] for row, i in zip(kids, w)) for w in want]
            for t, (lo_n, lo_d, hi_n, hi_d) in got:
                child = [tuple(map(Q, box)) for box in t]
                assert (Q(lo_n, lo_d), Q(hi_n, hi_d)) == \
                    ref_y_range(child, y_min)

    @pytest.mark.parametrize("s, k, depth, visits", [
        # the bench's kap_search job; 1096 when every walk started from
        # g_min/(k - 1)
        (ROADMAP_SET, 3, 4, 757),
        # boxes of width one repeat their numerators at every depth
        (middle_thirds(), 3, 5, None),
    ], ids=["roadmap", "middle_thirds"])
    def test_walk_visits_and_children_per_level(self, monkeypatch, s, k,
                                                depth, visits):
        # the walks look at no more candidate boxes than pinned, and each
        # level derives the children of each of its distinct boxes once
        calls, seen = [], [0]
        children = WordForm.children

        def counted(form, lo, hi):
            calls.append((lo, hi))
            return children(form, lo, hi)

        class Row(tuple):
            def __getitem__(self, i):
                seen[0] += 1
                return tuple.__getitem__(self, i)

        walk = patterns1d._ordered_extensions
        monkeypatch.setattr(WordForm, "children", counted)
        monkeypatch.setattr(patterns1d, "_ordered_extensions",
                            lambda row, *args, **kwargs: walk(
                                lambda m: Row(row(m)), *args, **kwargs))
        cert, walks = recorded_kap_search(s, k, depth)
        assert cert == ref_kap_search(s, k, depth)
        if visits is not None:
            assert seen[0] <= visits
        per_level = {}
        for level, rows, _ in walks:
            per_level.setdefault(level, set()).update(rows)
        assert len(calls) == sum(len(rows) for level, rows in
                                 per_level.items() if level > 1)

    @pytest.mark.parametrize("pairs, k, depth, verdict, groups", [
        # the leftmost first-box group dies and the next holds the witness
        ([(Q(1, 20), 0), (Q(1, 4), Q(11, 40)), (Q(1, 4), Q(3, 4))], 4, 4,
         FEASIBLE, [(2, 0), (3, 3)]),
        # every group dies on the last level, one group or three
        ([(Q(3, 10), 0), (Q(3, 20), Q(21, 40)), (Q(1, 10), Q(9, 10))], 4, 2,
         INFEASIBLE, [(1, 0)]),
        ([(Q(3, 11), 0), (Q(3, 11), Q(7, 22)), (Q(1, 22), Q(21, 22))], 5, 3,
         INFEASIBLE, [(1, 0), (1, 0), (1, 0)]),
    ])
    def test_last_level_group_edges(self, pairs, k, depth, verdict, groups):
        # the last level's walks, grouped by first box: the groups come
        # leftmost first, and each is (walks, survivors)
        s = ifs_from_branches(0, 1, pairs)
        cert, walks = recorded_kap_search(s, k, depth)
        last = max(level for level, _, _ in walks)
        assert last == depth
        seen = {}
        for level, rows, out in walks:
            if level == last:
                walked, built = seen.get(rows[0], (0, 0))
                seen[rows[0]] = (walked + 1, built + len(out))
        assert list(seen) == sorted(seen)
        assert list(seen.values()) == groups
        assert (cert.verdict, cert.depth) == (verdict, depth)
        assert cert == ref_kap_search(s, k, depth)

    def test_last_level_keeps_one_tuple_per_parent(self):
        # the witness reads only the smallest live tuple of the last
        # level; a parent's first surviving extension is its smallest
        # child, so the walk stops there, and parents are walked in
        # groups of one first box, leftmost first, up to the witness's
        # group (the full expansion builds 737 tuples from 114 parents on
        # the first set below)
        den, children = ROADMAP_SET.form.den, ROADMAP_SET.form.children
        for k, depth in ((3, 4), (4, 8)):
            cert, walks = recorded_kap_search(ROADMAP_SET, k, depth)
            last = max(level for level, _, _ in walks)
            assert last == depth
            built = [len(out) for level, _, out in walks if level == last]
            assert cert.verdict == FEASIBLE and max(built) <= 1
            if depth == 4:
                assert len(built) == 16
            # the live parents, from the walks of the level above, and
            # the one whose first box holds the witness's first point
            # (the hull is [0, 1], so boxes are over den**(depth - 1))
            parents = [t for level, _, out in walks if level == last - 1
                       for t in out]
            scale, first = den ** (depth - 1), cert.points[0].enclosure
            (top,) = {t[0] for t in parents
                      if Q(t[0][0], scale) <= first.lo
                      and first.hi <= Q(t[0][1], scale)}
            walked = sorted(rows for level, rows, _ in walks if level == last)
            assert walked == sorted(
                tuple(tuple(children(lo, hi)) for lo, hi in t)
                for t in parents if t[0][0] <= top[0])
        assert cert == next(want for s, k, depth, want in PINNED
                            if (k, depth) == (4, 8))
        assert cert.explored_nodes == 740271


class TestGapLemmaCheck:
    def test_identical_sets(self):
        r = gap_lemma_check(middle_thirds(), middle_thirds())
        assert r.verdict == "hypotheses_hold"
        assert r.thickness_product.lo == 1

    def test_disjoint_hulls(self):
        c2 = affine_image(middle_thirds(), Q(1), Q(10))
        r = gap_lemma_check(middle_thirds(), c2)
        assert r.verdict == "fail"
        assert not r.hull_intersect

    def test_set_inside_gap(self):
        inner = affine_image(middle_thirds(), Q(1, 10), Q(42, 100))
        r = gap_lemma_check(middle_thirds(), inner)
        assert r.verdict == "fail"
        assert r.hull_intersect and not r.interwoven

    def test_proof_configuration(self):
        # the two affine images used when locating a combination point:
        # -(1-lam)*A and lam*B - t for t the right gap endpoint
        lam = Q(1, 2)
        c1 = affine_image(middle_thirds(), -(1 - lam), Q(0))
        c2 = affine_image(middle_thirds(), lam, -Q(2, 3))
        r = gap_lemma_check(c1, c2)
        assert r.verdict == "hypotheses_hold"

    def test_thin_pair_fails(self):
        r = gap_lemma_check(middle_cantor(Q(2, 5)), middle_cantor(Q(2, 5)))
        assert r.verdict == "fail"
        assert r.thickness_product.hi == Q(9, 16)

    @settings(max_examples=300, deadline=None)
    @given(placed_set(shift_dens=st.integers(1, 9)), placed_set(),
           st.integers(1, 64), st.integers(-10, 110), st.booleans())
    def test_random_pairs_match_rational_oracle(self, c1, c2, size, at,
                                                swap):
        # hulls over unequal denominators, either set reflected, and the
        # second set size/64 as wide as the first, its left end at/100
        # of the way along the first hull, so that it often lies in a
        # gap; either set goes first: the integer gap queries give the
        # rational oracle's verdicts
        (lo, hi), (lo2, hi2) = c1.hull, c2.hull
        f = (hi - lo) * Q(size, 64) / (hi2 - lo2)
        c2 = affine_image(c2, f, lo + (hi - lo) * Q(at, 100) - f * lo2)
        if swap:
            c1, c2 = c2, c1
        r = gap_lemma_check(c1, c2)
        (a1, b1), (a2, b2) = c1.hull, c2.hull
        hull_ok = a1 <= b2 and a2 <= b1
        interwoven = hull_ok and not (
            ref_slides_into_gap(c1, IDENTITY, a2, b2)
            or ref_slides_into_gap(c2, IDENTITY, a1, b1))
        assert (r.hull_intersect, r.interwoven) == (hull_ok, interwoven)
        holds = interwoven and r.thickness_product.lo >= 1
        assert r.verdict == ("hypotheses_hold" if holds else "fail")


# a small set inside the gap of a set of another form, so that each
# query must read its own set's form; and a small set whose hull ends on
# the right end of a gap, so that a translate slid any way left lies in
# the gap and the pair test must run at slide 0
GAP_EDGE_PAIRS = [
    pytest.param(middle_cantor(Q(1, 2)),
                 affine_image(middle_thirds(), Q(1, 10), Q(3, 10)), False,
                 id="other_form"),
    pytest.param(middle_thirds(),
                 affine_image(middle_thirds(), Q(1, 10), Q(17, 30)), True,
                 id="gap_end"),
]


@pytest.mark.parametrize("c1, c2, interwoven", GAP_EDGE_PAIRS)
@pytest.mark.parametrize("swap", [False, True])
def test_gap_lemma_edge_pairs(c1, c2, interwoven, swap):
    if swap:
        c1, c2 = c2, c1
    (a1, b1), (a2, b2) = c1.hull, c2.hull
    assert interwoven == (not (ref_slides_into_gap(c1, IDENTITY, a2, b2)
                               or ref_slides_into_gap(c2, IDENTITY, a1, b1)))
    r = gap_lemma_check(c1, c2)
    assert (r.hull_intersect, r.interwoven) == (True, interwoven)


# -- certified descent: stored word maps, budget, depth ------------------


# sha256 of repr(result) recorded before words carried their maps, on
# the line benchmark's kinds of input: centred and off-centre sets and
# their affine images at depths 16-80
DESCENT_PINS = [
    (lambda: find_3ap(middle_cantor(Q(17, 64)), 60),
     "ae629aab566afa4e1d2f5a1f4b8379e402971eb2fc12b7caf32149f65a1bbc52"),
    (lambda: find_3ap(off_center_cantor(Q(37, 128)), 80),
     "0b8e3bb8dfd0ba04cde9d7b38e3bcd17a37a79a58d3732cebb19053001697e41"),
    (lambda: find_3ap(affine_image(middle_cantor(Q(13, 64)), Q(-5, 4),
                                   Q(3, 8)), 40),
     "6052507b75561aa6cda08549dd6c64e26833057cdd949a95455700355c0aa749"),
    (lambda: find_3ap(middle_thirds(), 20),
     "4b9d79eadd7c190356328b5345a04221ae16f58ea87b491be7a7f79f715b6776"),
    (lambda: find_convex_combo(affine_image(off_center_cantor(Q(35, 128)),
                                            Q(3, 4), Q(-1, 8)), Q(7, 16), 60),
     "08df35c13036377edf8ca6ec59a96483b8f0a5e5325a84d1a6c3adac04d2614c"),
    (lambda: find_convex_combo(affine_image(off_center_cantor(Q(39, 128)),
                                            Q(-7, 4), Q(5, 8)), Q(11, 16), 40),
     "67144e811681d5f90229ddd15faa38ea69cde8e0e7523dab0653fb3d6d13b95f"),
    (lambda: find_convex_combo(middle_cantor(Q(21, 64)), Q(9, 16), 20),
     "7105ddc2b8437d84485ef10b0c6cd2d9afc39d36fc1d28ce13676bac7d5e9eec"),
    (lambda: shmerkin_4ap(Q(13, 64), 16),
     "1f98aee2bc13ed46a4e8d104eaa898860b93929b5e6567868f1e819ee1ad4da7"),
    (lambda: shmerkin_4ap(Q(1, 3), 20),
     "095ac75bd0e0bffbb1482251ad5c0e483934cf81bfbc7c51681c4499de34b580"),
    (lambda: shmerkin_4ap(Q(21, 64), 40),
     "acfbdee139a88fb2fcbc802dfef13559c11fe8d7b57e07d78aa192f3ddb8c56a"),
]


# one side of a descent at one word, for the references below
Side = namedtuple("Side", "base word mul shift")


def old_hull(p):
    lo, hi = word_interval(p.base, p.word)
    a, b = p.mul * lo + p.shift, p.mul * hi + p.shift
    return (a, b) if a <= b else (b, a)


def old_gap_containing(s, lo, hi, word):
    """The gap query as it was, descending from the word's map rebuilt
    from the identity."""
    m = word_map(s, word)
    cur_lo, cur_hi = m.apply_interval(*s.hull)
    if not (cur_lo <= lo and hi <= cur_hi):
        return None
    while True:
        for b in s.branches:
            nm = compose(m, b)
            c_lo, c_hi = nm.apply_interval(*s.hull)
            if c_lo <= lo and hi <= c_hi:
                m = nm
                break
        else:
            for glo, ghi in s.top_gaps():
                if m(glo) < lo and hi < m(ghi):
                    return (m(glo), m(ghi))
            return None


def old_in_gap(lo, hi, p):
    blo, bhi = sorted(((lo - p.shift) / p.mul, (hi - p.shift) / p.mul))
    return old_gap_containing(p.base, blo, bhi, p.word) is not None


def old_certified(x, y):
    (xlo, xhi), (ylo, yhi) = old_hull(x), old_hull(y)
    return not (xhi < ylo or yhi < xlo or old_in_gap(ylo, yhi, x)
                or old_in_gap(xlo, xhi, y))


def old_descent(s, x, x_words, y, y_words, depth):
    """The descent as it was: every hull and gap query rebuilds its
    word's map from the identity.  Returns the final pair's words, or
    None where the search is Indeterminate."""
    def first(pairs):
        pairs = sorted(pairs, key=lambda t: (old_hull(t[0])[0],
                                             old_hull(t[1])[0]))
        return next((t for t in pairs if old_certified(*t)), None)

    def kids(p):
        return [p._replace(word=p.word + (i,))
                for i in range(len(s.branches))]

    pair = first([(Side(s, xw, *x), Side(s, yw, *y))
                  for xw in x_words for yw in y_words])
    if pair is None:
        return None
    for _ in range(depth - len(pair[0].word)):
        pair = first([(a, b) for a in kids(pair[0]) for b in kids(pair[1])])
        if pair is None:
            return None
    return pair[0].word, pair[1].word


@st.composite
def presentations(draw):
    """A random 2- or 3-branch presentation on [0, 1], thick or not."""
    n = draw(st.integers(2, 3))
    weight = st.integers(1, 9)
    scales = draw(st.lists(weight, min_size=n, max_size=n))
    gaps = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    total = sum(scales) + sum(gaps)
    pairs, offset = [], Q(0)
    for w, g in zip(scales, gaps + [0]):
        pairs.append((Q(w, total), offset))
        offset += Q(w + g, total)
    return ifs_from_branches(0, 1, pairs)


@st.composite
def descent_inputs(draw):
    """The arguments of a descent on a random presentation: either the
    two sides of the largest gap against each other, as in the
    combination search, or two random affine placements of the whole
    set."""
    s = draw(presentations())
    n = len(s.branches)
    depth = draw(st.integers(0, 10))
    if draw(st.booleans()):
        lam = Q(draw(st.integers(8, 15)), 16)
        k1, k2 = longest_gap(s)
        imgs = s.branch_images()
        return (s, (-(1 - lam), Q(0)),
                [(i,) for i in range(n) if imgs[i][1] <= k1],
                (lam, -k2), [(j,) for j in range(n) if imgs[j][1] > k1],
                depth)
    mul = st.builds(Q, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    shift = st.builds(Q, st.integers(-4, 4), st.integers(1, 4))
    return (s, (draw(mul), draw(shift)), [()], (draw(mul), draw(shift)),
            [()], depth)


@st.composite
def sliding_pairs(draw):
    """One word on each side of a random presentation, both of one
    length, placed with multipliers of either sign so that the two hulls
    often overlap; a slide of at most 1/4, a depth, and a positive
    affine change u -> c*u + d of the image line."""
    s = draw(presentations())
    n = len(s.branches)
    k = draw(st.integers(0, 3))

    def side():
        word = tuple(draw(st.lists(st.integers(0, n - 1), min_size=k,
                                   max_size=k)))
        lo, hi = word_interval(s, word)
        mul = Q(draw(st.integers(-6, 6).filter(bool)),
                draw(st.integers(1, 4)))
        at = Q(draw(st.integers(0, 8)), 8)
        # the word's image is [at, at + mul]
        return (mul / (hi - lo), at - mul * lo / (hi - lo)), word

    (x, xw), (y, yw) = side(), side()
    change = (Q(draw(st.integers(1, 9)), draw(st.integers(1, 9))),
              Q(draw(st.integers(-8, 8)), draw(st.integers(1, 8))))
    return (s, x, xw, y, yw, Q(draw(st.integers(0, 16)), 64),
            draw(st.integers(0, 6)), change)


def word_of(s, interval):
    """The word whose image in ``s`` is ``interval``: branch images are
    disjoint, so each level has one branch image holding it."""
    word = ()
    while word_interval(s, word) != interval:
        word += next((i,) for i in range(len(s.branches))
                     if word_interval(s, word + (i,))[0] <= interval[0]
                     and interval[1] <= word_interval(s, word + (i,))[1])
    return word


def passes_pair_test(s, x, xw, y, yw, slide):
    """Whether the descent keeps the one top pair: at depth 0 it returns
    that pair exactly when the pair test passes."""
    try:
        certified_descent(s, x, [xw], y, [yw], 0, slide)
    except Indeterminate:
        return False
    return True


class TestCertifiedDescent:
    def test_rejects_unmatched_words_and_zero_multiplier(self):
        for x, x_words, y, y_words, match in [
                ((0, 0), [(0,)], (1, 0), [(1,)], "nonzero multiplier"),
                ((1, 0), [(0,)], (Q(0), Q(1, 2)), [(1,)],
                 "nonzero multiplier"),
                ((1, 0), [(0,)], (1, 0), [(0, 1)], "one length"),
                ((1, 0), [(0,), ()], (1, 0), [(1,)], "one length"),
                ((1, 0), [], (1, 0), [], "one length")]:
            with pytest.raises(InputError, match=match):
                certified_descent(middle_thirds(), x, x_words, y, y_words, 4)

    def test_rejects_negative_depth(self):
        with pytest.raises(InputError, match="depth must be nonnegative"):
            certified_descent(middle_thirds(), (1, 0), [()], (1, 0), [()], -3)

    @pytest.mark.parametrize("x_words, y_words", [([], [(0,)]), ([(0,)], [])],
                             ids=["empty_x", "empty_y"])
    def test_rejects_an_empty_side(self, x_words, y_words):
        with pytest.raises(InputError, match="top words on both sides"):
            certified_descent(middle_thirds(), (1, 0), x_words, (1, 0),
                              y_words, 4)

    @settings(max_examples=150, deadline=None)
    @given(sliding_pairs())
    # the middle thirds against themselves, slid by 1/64: no pair four
    # levels down, 1/81 wide, meets at every placement; with the slide
    # left unscaled below the top the descent returned [0, 1/81] twice
    @example((middle_thirds(), (Q(1), Q(0)), (), (Q(1), Q(0)), (), Q(1, 64),
              4, (Q(1), Q(0))))
    def test_slide_depends_only_on_the_sets(self, case):
        # the pair test agrees with the rational reference for every
        # placement y - t, 0 <= t <= slide, and a positive affine change
        # of the image line, applied to both sides and the slide, moves
        # no verdict and no piece of the base: branch images are
        # disjoint, so equal intervals are equal words
        s, x, xw, y, yw, slide, depth, (c, d) = case
        assert passes_pair_test(s, x, xw, y, yw, slide) == \
            ref_slid_pair_test(s, x, xw, y, yw, slide)
        results = []
        for px, py, sl in ((x, y, slide),
                           ((c * x[0], c * x[1] + d),
                            (c * y[0], c * y[1] + d), c * slide)):
            try:
                fx, fy = certified_descent(s, px, [xw], py, [yw], depth, sl)
                results.append((fx.interval, fy.interval))
            except Indeterminate:
                results.append(None)
        assert results[0] == results[1]
        if results[0] is not None:
            # the pair the descent committed to at every level passes
            # the rational reference for the whole slide
            fxw, fyw = (word_of(s, iv) for iv in results[0])
            for m in range(len(xw), len(fxw) + 1):
                assert ref_slid_pair_test(s, x, fxw[:m], y, fyw[:m], slide)

    @pytest.mark.parametrize("lam", [Q(5, 16), Q(11, 16)])
    def test_each_side_is_placed_once(self, monkeypatch, lam):
        # one walk per top word and one mirrored form for the side with
        # a negative multiplier; placing every piece on its own and then
        # again over a common denominator made 6 walks and 4 or 2
        # mirrored forms
        calls = dict.fromkeys(("walk", "mirrored"), 0)
        for name in calls:
            def counted(self, *args, _name=name,
                        _method=getattr(WordForm, name)):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(WordForm, name, counted)
        find_convex_combo(tied_set(), lam, 12)
        assert calls == {"walk": 3, "mirrored": 1}

    @pytest.mark.parametrize("call, digest", DESCENT_PINS)
    def test_pinned_results(self, call, digest):
        assert hashlib.sha256(repr(call()).encode()).hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(descent_inputs())
    def test_agrees_with_recomputing_search(self, case):
        s, x, x_words, y, y_words, depth = case
        want = old_descent(*case)
        try:
            px, py = certified_descent(*case)
        except Indeterminate:
            assert want is None
            return
        assert want is not None
        # pieces carry no word; branch images are disjoint, so a piece
        # is the reference's word exactly when its interval is that
        # word's
        for p, word, placement in zip((px, py), want, (x, y)):
            assert p.interval == word_interval(s, word)
            assert p.hull == old_hull(Side(s, word, *placement))

    def test_commits_at_a_dead_end(self):
        # a thin set: the leftmost certified pair at some level has no
        # certified child pair, and the descent commits instead of
        # searching around it; a backtracking search would return the
        # words ((0, 0, 1, 0, 1, 1, 1), (0, 0, 1, 0, 0, 0, 1))
        s = ifs_from_branches(0, 1, [(Q(6, 19), 0), (Q(5, 19), Q(14, 19))])
        with pytest.raises(Indeterminate, match="certified descent exhausted"):
            certified_descent(s, (Q(-1, 3), Q(-3, 4)), [()], (Q(3), Q(-1)),
                              [()], 7)

    def test_pair_tests_grow_linearly_in_depth(self, monkeypatch):
        # machine-independent: a search that revisited its levels, or
        # backtracked, would make the count grow faster than the depth
        calls = [0]
        certified = patterns1d._certified

        def counted(*args):
            calls[0] += 1
            return certified(*args)

        monkeypatch.setattr(patterns1d, "_certified", counted)
        counts = []
        for depth in (100, 200):
            calls[0] = 0
            find_3ap(middle_thirds(), depth)
            counts.append(calls[0])
        assert 0 < counts[1] <= Q(5, 2) * counts[0]

    def test_child_cost_does_not_grow_with_depth(self):
        # the bytes that the descent's child rule, the side's form,
        # allocates for a box's children, less their integers (whose bit
        # lengths grow with the level, about 1.6 bits a level on the
        # middle thirds), are the same at level 5000 as at level 50; a
        # per-child copy of a branch word would add 8 bytes per level
        (_, form, (top,)), _, _ = patterns1d._placed(
            middle_thirds(), (1, 0), [()], (1, 0), [()], Q(0))

        def cost(level: int) -> int:
            box = top
            for _ in range(level):
                box = form.children(*box)[1]  # lo and hi both grow
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kids = form.children(*box)
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            ints = {id(v): v for k in kids for v in k}
            return grown - sum(map(sys.getsizeof, ints.values()))

        near, deep = cost(50), cost(5000)
        assert 0 < deep <= 2 * near

    @pytest.mark.parametrize("budget, passes", [(79, True), (78, False)])
    def test_budget_counts_pair_tests(self, monkeypatch, budget, passes):
        # one starting pair, then 78 child-pair tests on the way to
        # depth 40
        monkeypatch.setenv("THICKSET_MAX_NODES", str(budget))
        if passes:
            assert find_3ap(middle_thirds(), 40).depth_used == 40
        else:
            with pytest.raises(Indeterminate, match="budget of 78"):
                find_3ap(middle_thirds(), 40)

    @pytest.mark.parametrize("call", [
        lambda: find_3ap(middle_thirds(), -1),
        lambda: find_convex_combo(middle_thirds(), Q(1, 3), -3),
        lambda: shmerkin_4ap(Q(1, 3), -1),
    ])
    def test_negative_depth_rejected(self, call):
        with pytest.raises(InputError, match="depth must be nonnegative"):
            call()

    def test_depth_zero_keeps_the_top_pair(self):
        w = find_3ap(middle_thirds(), 0)
        assert w.depth_used == 0
        assert (w.a.enclosure, w.b.enclosure) == \
            (Interval(Q(0), Q(1, 3)), Interval(Q(2, 3), Q(1)))


# -- the line searches run on the set as given ----------------------------


def tied_set():
    """Three branches of scale 1/5 with two equal gaps, so tau = 1: the
    longest gap is (1/5, 2/5) leftmost and (3/5, 4/5) rightmost."""
    return ifs_from_branches(0, 1, [("1/5", "0"), ("1/5", "2/5"),
                                    ("1/5", "4/5")])


def flip(x):
    return Q(-3, 7) * x + Q(2, 9)


def flipped_set():
    """The tied set under x -> -3x/7 + 2/9, which reverses its branches."""
    return affine_image(tied_set(), Q(-3, 7), Q(2, 9))


# (set, lam, middle point, sha256 of repr(find_convex_combo(set, lam, 12)))
# recorded while the searches ran on unit-hull and mirrored copies; below
# lam = 1/2 the middle point is the left end of the rightmost longest gap
COMBO_PINS = [
    (tied_set, Q(5, 16), Q(3, 5),
     "aad5e507f0ab2c9c895974ef6af470b39e385649798da1c887c84abdb325cb50"),
    (tied_set, Q(1, 2), Q(2, 5),
     "7c2e25c534f8f99b763dfc6b6cf6a4eb2916a45abdc328871b7075332f5238e9"),
    (tied_set, Q(11, 16), Q(2, 5),
     "3670dc6a8da7e17bc5698f5ae0ee15db700241e76aa1f02540947ef838e84f13"),
    (flipped_set, Q(5, 16), flip(Q(2, 5)),
     "9e17a281ed97c974d716bcd2ecd647782054cc5ac616ce0fa67d61651945243a"),
    (flipped_set, Q(1, 2), flip(Q(3, 5)),
     "f150199e6019ae278afc5556a55cbf66fafd46ec238fb5122a4b97c679a42fbd"),
    (flipped_set, Q(11, 16), flip(Q(3, 5)),
     "dd92f1451cae194af5e2b4f757a2693021caf31698aeeb2560786811cc892caf"),
]

# sha256 of repr(result), recorded the same way
SEARCH_PINS = [
    (lambda: difference_hit(tied_set(), Q(3, 16), 6),
     "9ee7563c5d9342c864219faff386a197a54a80f929b1371ba25d0b9928e5ff14"),
    (lambda: difference_hit(flipped_set(), Q(3, 16) * Q(3, 7), 6),
     "0e6a142a4025a7a473ede6fe891b3f9915a8686d336863d640bd454ec48297af"),
    (lambda: kap_search(tied_set(), 4, 4),
     "0a23a302ccedf7272638dae073b7eaa6a9c929e20dd125315735d3ccfe3524b0"),
    (lambda: kap_search(flipped_set(), 4, 4),
     "256dbda3ffc58a6bbc0faa81af602686e853d00d0dc8684874e68f2a4ba7e5bf"),
]


def digest(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


class TestSearchesOnTheSetAsGiven:
    @pytest.mark.parametrize("make, lam, m, want", COMBO_PINS)
    def test_combo_pins(self, make, lam, m, want):
        w = find_convex_combo(make(), lam, 12)
        assert w.m.enclosure == Interval.point(m)
        assert digest(w) == want

    @pytest.mark.parametrize("call, want", SEARCH_PINS)
    def test_search_pins(self, call, want):
        assert digest(call()) == want

    def test_no_set_is_built(self, monkeypatch):
        # pieces carry the change to unit coordinates, so no search
        # builds a rescaled or mirrored copy of the set
        s = flipped_set()
        tri = Triangle.make([(0, 0), (1, 0), (Q(1, 3), Q(1, 2))])
        built = []
        post_init = IfsSet1D.__post_init__

        def counting(self):
            built.append(self.hull)
            post_init(self)

        monkeypatch.setattr(IfsSet1D, "__post_init__", counting)
        for lam in (Q(5, 16), Q(1, 2), Q(11, 16)):
            find_convex_combo(s, lam, 8)
        difference_hit(s, Q(1, 16), 6)
        kap_search(s, 4, 4)
        find_triangle_in_product(s, tri, 6)
        assert built == []
        tied_set()  # the count does see a set being built
        assert built == [(Q(0), Q(1))]


def piece_tree(s, placement, depth):
    """The pieces of one placement of ``s`` down to ``depth``, over the
    boxes that the descent's child rule, the placement's form, derives
    level by level."""
    (side, form, boxes), _, den = patterns1d._placed(
        s, placement, [()], (1, 0), [()], Q(0))
    out = []
    for _ in range(depth + 1):
        out += [patterns1d.Piece(s, *side, lo, hi, den) for lo, hi in boxes]
        boxes = [kid for box in boxes for kid in form.children(*box)]
        den *= form.den
    return out


class TestExactPoint:
    @pytest.mark.parametrize("lam", [Q(2, 7), Q(1, 3), Q(3, 5)])
    def test_deep_descent_returns_a_witness(self, lam):
        # a recursive simplest rational takes one call per continued-
        # fraction term of the final intersection, past the interpreter's
        # limit here, and would end a successful descent in RecursionError
        s = middle_cantor(Q(1, 5))
        w = find_convex_combo(s, lam, 3000)
        assert w.depth_used == 3000
        assert 0 < w.residual < Q(1, 2**3900)  # (2/5)**3000 is 2**-3966
        assert w.a.enclosure.hi < w.m.enclosure.lo < w.b.enclosure.lo

    @pytest.mark.parametrize("placement", [
        (Q(1), Q(0)), (Q(2, 3), Q(1, 5)), (Q(-3, 7), Q(2)), (Q(-1), Q(0))])
    def test_contains_set_point_matches_certified_member(
            self, placement, monkeypatch):
        # x in a piece of the placement (mul, shift) is certified exactly
        # when (x - shift)/mul lies in the piece's word image and is a
        # certified member of the base; the steps count from the base's
        # root, so a small cap decides some points the same way on both
        s = middle_thirds()
        mul, shift = placement
        base = [q for k in range(6) for q in (
            Q(1, 4 * 3**k), 1 - Q(1, 4 * 3**k), Q(3, 4 * 3**k), Q(1, 2 * 3**k),
            Q(1, 10 * 3**k), Q(7, 13 * 3**k))]
        capped = set()
        for steps in range(12):
            monkeypatch.setattr(patterns1d, "position_member", partial(
                cantor.position_member, max_steps=steps))
            for p in piece_tree(s, placement, 3):
                lo, hi = p.interval
                for back in base + [lo, hi]:
                    want = (lo <= back <= hi
                            and certified_member(s, back, steps))
                    assert p.contains_set_point(mul * back + shift) == want
                    if not want and certified_member(s, back):
                        capped.add(back)
        assert len(capped) > 10

    @pytest.mark.parametrize("placement", [(Q(2, 3), Q(1, 5)), (Q(-1), Q(0))])
    def test_default_cap_counts_from_the_root(self, placement):
        # 1/(4*3^k) and its mirror take k steps to reach 1/4 or 3/4 and two
        # more to repeat, so the 256-step cap certifies them up to k = 253
        s = middle_thirds()
        mul, shift = placement
        verdicts = set()
        for p in piece_tree(s, placement, 3):
            lo, hi = p.interval
            for k in range(248, 262):
                for back in (Q(1, 4 * 3**k), 1 - Q(1, 4 * 3**k)):
                    want = lo <= back <= hi and certified_member(s, back)
                    assert p.contains_set_point(mul * back + shift) == want
                    if lo <= back <= hi:
                        verdicts.add((k, want))
        assert (253, True) in verdicts and (254, False) in verdicts

    def test_mirrored_piece_matches_oracle(self, monkeypatch):
        # a reflected placement walks its base's form from the image of
        # the base's left end; the oracle walks the image set's own
        # branches, in reversed order
        s, (mul, shift) = off_center_cantor(Q(3, 10)), (Q(-2, 3), Q(1, 5))
        (top,) = piece_tree(s, (mul, shift), 0)
        image = affine_image(s, mul, shift)
        points = position_probes(image, random.Random(7))
        verdicts = set()
        for steps in [*range(41), 256]:
            monkeypatch.setattr(patterns1d, "position_member", partial(
                cantor.position_member, max_steps=steps))
            for x in points:
                got = top.contains_set_point(x)
                assert got == ref_certified_member(image, x, steps), \
                    (x, steps)
                verdicts.add((x, got))
        assert len(verdicts) > len(points)  # the cap flips some verdicts

    def test_simplest_rational_only_when_both_ends_fail(self, monkeypatch):
        calls = []
        simplest = patterns1d.simplest_between

        def counted(lo, hi):
            calls.append((lo, hi))
            return simplest(lo, hi)

        monkeypatch.setattr(patterns1d, "simplest_between", counted)
        assert find_convex_combo(middle_thirds(), Q(1, 3), 12).a_exact \
            is not None
        shmerkin_4ap(Q(1, 5), 12)
        assert calls == []
        assert find_convex_combo(middle_cantor(Q(1, 5)), Q(1, 3), 12).a_exact \
            is None
        assert len(calls) == 1
