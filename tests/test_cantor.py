import cProfile
import math
import os
import pstats
import random
import time
from fractions import Fraction as Q
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from thickset import cantor
from thickset.cantor import (
    IN_CERTIFIED,
    IN_COVER,
    OUT,
    STABILIZED,
    GapRecord,
    _lift,
    affine_image,
    descend,
    difference_interval,
    gap_depth,
    gap_holds_translate,
    ifs_from_branches,
    membership,
    middle_cantor,
    middle_thirds,
    newhouse_thickness,
    off_center_cantor,
    position_member,
)
from thickset.errors import HypothesisError, Indeterminate, InputError

from oracles import (
    IDENTITY,
    combo_difference_interval,
    compose,
    merge_intervals,
    normalize_to_unit,
    position_probes,
    ref_certified_member,
    ref_cover,
    ref_enumerate_gaps,
    ref_gap_depth,
    ref_membership,
    ref_ordered_removal,
    ref_slides_into_gap,
    ref_thickness,
    self_combo_cover,
    subtree_combo_cover,
    word_map,
)


def certified_member(s, x, max_steps=256):
    """``position_member`` of x's position in the hull of ``s``."""
    h_lo, h_hi, (y,) = _lift(s, Q(x))
    return position_member(s.form, y - h_lo, h_hi - h_lo, max_steps)


def lifted_gap_query(s, word, lo, hi, t0=Q(0), t1=Q(0)):
    """``gap_holds_translate`` on the subtree image of ``word`` and the
    translates [lo + t, hi + t], t0 <= t <= t1, with every rational
    lifted to numerators over one denominator."""
    c_lo, c_hi, (lo, hi, t0, t1) = _lift(s, *map(Q, (lo, hi, t0, t1)))
    c_lo, c_hi = s.form.walk(c_lo, c_hi, word)
    f = s.form.den ** len(word)  # the query over the word's denominator
    return gap_holds_translate(s.form, c_lo, c_hi, (lo + t0) * f,
                               (lo + t1) * f, (hi - lo) * f)


class TestBuilders:
    def test_middle_thirds_maps(self):
        s = middle_thirds()
        assert [(b.scale, b.offset) for b in s.branches] == [
            (Q(1, 3), Q(0)), (Q(1, 3), Q(2, 3))]

    def test_middle_cantor_2_5(self):
        s = middle_cantor(Q(2, 5))
        assert s.branches[0].scale == Q(3, 10)
        assert s.top_gaps() == [(Q(3, 10), Q(7, 10))]

    def test_middle_cantor_rejects_boundary(self):
        with pytest.raises(InputError):
            middle_cantor(0)
        with pytest.raises(InputError):
            middle_cantor(1)

    def test_off_center_depth1(self):
        s = off_center_cantor(Q(3, 10))
        assert s.branch_images() == [(Q(0), Q(3, 10)), (Q(6, 10), Q(1))]
        assert s.top_gaps() == [(Q(3, 10), Q(6, 10))]

    def test_off_center_depth2_contains_split_gap(self):
        a = Q(3, 10)
        s = off_center_cantor(a)
        got = {(g[0], g[1]) for g in ref_enumerate_gaps(s, 2)}
        assert (3 * a - 2 * a**2, 4 * a - 4 * a**2) in got
        assert (3 * a - 2 * a**2, 4 * a - 4 * a**2) == (Q(18, 25), Q(21, 25))

    def test_off_center_rejects_boundary(self):
        with pytest.raises(InputError):
            off_center_cantor(Q(1, 3))

    @pytest.mark.parametrize("branches", [
        [(Q(1, 2), 0)], [(1, 0)], [(Q(99, 100), Q(1, 100))]])
    def test_single_branch_rejected(self, branches):
        # one image with a scale in (0, 1) cannot share both hull ends,
        # so every set has a first-level gap
        with pytest.raises(InputError):
            ifs_from_branches(0, 1, branches)


class TestCover:
    def test_depth0(self):
        assert ref_cover(middle_thirds(), 0).intervals == ((Q(0), Q(1)),)

    def test_middle_thirds_depth2(self):
        c = ref_cover(middle_thirds(), 2)
        assert len(c.intervals) == 4
        assert all(b - a == Q(1, 9) for a, b in c.intervals)
        assert c.intervals[0] == (Q(0), Q(1, 9))

    def test_off_center_depth2_intervals(self):
        a = Q(3, 10)
        c = ref_cover(off_center_cantor(a), 2)
        assert c.intervals == (
            (Q(0), a**2),
            (2 * a**2, a),
            (2 * a, 3 * a - 2 * a**2),
            (4 * a - 4 * a**2, Q(1)),
        )

    @pytest.mark.parametrize("builder", [
        middle_thirds,
        lambda: middle_cantor(Q(2, 5)),
        lambda: off_center_cantor(Q(3, 10)),
        lambda: off_center_cantor(Q(59, 200)),
    ])
    def test_nesting(self, builder):
        # every depth-(n+1) interval sits inside a depth-n interval, for
        # all n <= 10 (both lists are sorted, so a single sweep suffices)
        s = builder()
        for n in range(0, 10):
            outer = ref_cover(s, n).intervals
            inner = ref_cover(s, n + 1).intervals
            k = 0
            for a, b in inner:
                while outer[k][1] < b:
                    k += 1
                assert outer[k][0] <= a and b <= outer[k][1]


class TestThickness:
    def test_middle_thirds_is_one(self):
        rep = newhouse_thickness(middle_thirds(), 6)
        assert rep.value == 1
        assert rep.status == STABILIZED

    def test_off_center_is_one(self):
        rep = newhouse_thickness(off_center_cantor(Q(3, 10)), 8)
        assert rep.value == 1
        assert rep.status == STABILIZED

    def test_middle_cantor_formula(self):
        # derived oracle from the definition: bridge (1-eps)/2 over gap eps
        for eps in [Q(1, 5), Q(1, 4), Q(1, 3), Q(2, 5)]:
            rep = newhouse_thickness(middle_cantor(eps), 6)
            assert rep.value == (1 - eps) / (2 * eps)
            assert rep.status == STABILIZED

    def test_witness_gap_is_top_gap(self):
        rep = newhouse_thickness(middle_cantor(Q(2, 5)), 6)
        assert rep.value == Q(3, 4)
        assert rep.witness.gap == (Q(3, 10), Q(7, 10))

    def test_rejects_shallow_depth(self):
        with pytest.raises(InputError):
            newhouse_thickness(middle_thirds(), 1)

    def test_affine_invariance(self):
        rng = random.Random(5)
        base = [middle_thirds(), middle_cantor(Q(2, 5)),
                off_center_cantor(Q(3, 10))]
        for s in base:
            v0 = newhouse_thickness(s, 6).value
            for _ in range(40):
                a = Q(rng.randint(1, 40), rng.randint(1, 40))
                if rng.random() < 0.5:
                    a = -a
                b = Q(rng.randint(-50, 50), rng.randint(1, 20))
                img = affine_image(s, a, b)
                assert newhouse_thickness(img, 6).value == v0

    def test_tie_break_independence_on_middle_eps(self):
        # equal-length gaps occur at every depth of middle-eps sets; the
        # minimum ratio must not depend on which of them is removed first
        for eps in [Q(1, 3), Q(1, 4)]:
            s = middle_cantor(eps)
            gaps = [g[:2] for g in
                    ref_enumerate_gaps(s, ref_gap_depth(s) + 2)]
            rng = random.Random(9)
            rep = newhouse_thickness(s)
            assert (rep.value, rep.witness) == ref_thickness(s)
            for _ in range(10):
                shuffled = gaps[:]
                rng.shuffle(shuffled)  # sort is stable; shuffle the ties
                got = min(r.ratio
                          for r in ref_ordered_removal(s.hull, shuffled))
                assert got == rep.value


def weighted(scales, gaps):
    """Unit-hull presentation whose branch images and first-level gaps
    have lengths proportional to the given weights, left to right."""
    total = sum(scales) + sum(gaps)
    pairs, offset = [], Q(0)
    for w, g in zip(scales, gaps + [0]):
        pairs.append((Q(w, total), offset))
        offset += Q(w + g, total)
    return ifs_from_branches(0, 1, pairs)


@st.composite
def presentations(draw):
    """Presentations with 2-5 branches from small integer weights, often
    with equal gap lengths or equal branch scales, as drawn or under an
    affine image that may reflect them."""
    n = draw(st.integers(2, 5))
    weight = st.integers(1, 12)
    scales = draw(st.lists(weight, min_size=n, max_size=n))
    gaps = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        scales = [scales[0]] * n
    if draw(st.booleans()):
        gaps = [gaps[0]] * (n - 1)
    s = weighted(scales, gaps)
    if draw(st.booleans()):
        s = affine_image(s, Q(draw(st.integers(-9, 9).filter(bool)),
                              draw(st.integers(1, 9))),
                         Q(draw(st.integers(-5, 5)), 4))
    return s


HOSTILE = ifs_from_branches(0, 1, [(Q(3, 10), 0),
                                   (Q(1, 5) - Q(1, 10**9), Q(3, 5)),
                                   (Q(1, 5), Q(4, 5))])


# branches on [0, 9/20], [1/2, 11/20] and [7/10, 1]: unequal gaps, and
# gaps to depth 2
UNEQUAL = ifs_from_branches(0, 1, [(Q(9, 20), 0), (Q(1, 20), Q(1, 2)),
                                   (Q(3, 10), Q(7, 10))])


@st.composite
def gap_depth_cases(draw):
    """A presentation of 2-4 branches with wide branch images, so that
    unequal gaps often reach below the first level, as drawn or under an
    affine image that may reflect it, and a node budget: the default or
    a small one."""
    n = draw(st.integers(2, 4))
    s = weighted(draw(st.lists(st.integers(3, 12), min_size=n, max_size=n)),
                 draw(st.lists(st.integers(1, 12), min_size=n - 1,
                               max_size=n - 1)))
    if draw(st.booleans()):
        scale = Q(draw(st.integers(-9, 9).filter(bool)),
                  draw(st.integers(1, 9)))
        s = affine_image(s, scale, Q(draw(st.integers(-5, 5)), 4))
    return s, draw(st.one_of(st.none(), st.integers(0, 20)))


def depth_or_refusal(depth_of, s):
    """``depth_of(s)``, or the message of the Indeterminate it raises."""
    try:
        return depth_of(s)
    except Indeterminate as e:
        return str(e)


# gaps e/4 and 10**-13 long, e = 10**-6: the right-bridge walk from the
# short gap descends about ln(1.25)/e levels, one or two steps each
CREEPING = ifs_from_branches(0, 1, [
    (1 - Q(1, 10**6), 0), (Q(1, 4 * 10**6), 1 - Q(3, 4 * 10**6)),
    (Q(1, 2 * 10**6) - Q(1, 10**13), 1 - Q(1, 2 * 10**6) + Q(1, 10**13))])

# gaps 1/10 and 1/20480 long and s_max = 1/2: gaps reach depth 12
DEEP = ifs_from_branches(0, 1, [(Q(1, 2), 0), (Q(1, 5), Q(3, 5)),
                                (Q(819, 4096), Q(3277, 4096))])


class TestThicknessByProof:
    @settings(max_examples=150, deadline=None)
    @given(presentations())
    # sets whose result changes with the gaps created at depth
    # gap_depth(s): one such gap is strictly longer than the shortest
    # first-level gap, the other exactly as long
    @example(weighted([1, 6, 8], [1, 4]))
    @example(weighted([11, 1, 11], [1, 9]))
    # the same reflected: the equal-length gap lies on the other side
    @example(affine_image(weighted([11, 1, 11], [1, 9]), Q(-2, 5), Q(1)))
    @example(affine_image(UNEQUAL, Q(-3, 7), Q(1, 2)))
    # four gaps of one length: a gap's left bridge ends at its left
    # neighbour, its right bridge at the hull
    @example(weighted([3, 1, 3, 1, 3], [2, 2, 2, 2]))
    # both gaps have ratio 1: the longer, removed first, is the witness
    @example(weighted([1, 1, 2], [1, 2]))
    def test_matches_deeper_enumeration(self, s):
        # the walks give the value and the witness of ordered removal
        # over every gap to two levels below gap_depth(s)
        rep = newhouse_thickness(s)
        assert rep.status == STABILIZED
        assert (rep.value, rep.witness) == ref_thickness(s)

    def test_deep_gaps_walk_in_milliseconds(self):
        # 265720 images lie above depth 12, but each of the four walks
        # passes at most 3 children and 2 gaps on each of 12 levels
        assert gap_depth(DEEP) == 12
        start = time.perf_counter()
        rep = newhouse_thickness(DEEP)
        assert time.perf_counter() - start < 1
        assert rep.value == 4
        assert rep.witness == GapRecord((Q(1, 2), Q(3, 5)), (Q(0), Q(1, 2)),
                                        (Q(3, 5), Q(1)))

    def test_gap_depth_bound(self, monkeypatch):
        # depth D is the last m with s_max^(m-1) * g_max >= g_min; the
        # budget is raised so that D can be computed without enumerating
        monkeypatch.setenv("THICKSET_MAX_NODES", str(10**9))
        s = HOSTILE
        lens = [hi - lo for lo, hi in s.top_gaps()]
        s_max = max(b.scale for b in s.branches)
        d = gap_depth(s)
        assert d == 17
        assert s_max ** (d - 1) * max(lens) >= min(lens)
        assert s_max ** d * max(lens) < min(lens)
        for s in (middle_thirds(), off_center_cantor(Q(3, 10))):
            assert gap_depth(s) == 1

    @settings(max_examples=150, deadline=None)
    @given(gap_depth_cases())
    @example((UNEQUAL, None))
    @example((affine_image(UNEQUAL, Q(-3, 7), Q(1, 2)), None))
    # a depth-3 gap exactly as long as the shortest first-level gap
    @example((weighted([11, 1, 11], [1, 9]), None))
    @example((affine_image(weighted([11, 1, 11], [1, 9]), Q(-2, 5), Q(1)),
              None))
    @example((UNEQUAL, 2))
    @example((HOSTILE, None))
    @example((affine_image(HOSTILE, Q(-1, 3), Q(0)), 10**9))
    def test_gap_depth_matches_rational_loop(self, case):
        # the same depth, or the same Indeterminate, as the loop over the
        # rational gap lengths and branch scales
        s, budget = case
        env = {} if budget is None else {"THICKSET_MAX_NODES": str(budget)}
        with mock.patch.dict(os.environ, env):
            assert depth_or_refusal(gap_depth, s) == \
                depth_or_refusal(ref_gap_depth, s)

    def test_unequal_gaps_reach_depth_two(self):
        # gaps 1/20 and 3/20 and s_max = 9/20: a depth-2 gap is 27/400
        # long, past 1/20, and a depth-3 one is 243/8000 long, short of it
        assert gap_depth(UNEQUAL) == 2
        with mock.patch.dict(os.environ, {"THICKSET_MAX_NODES": "3"}):
            with pytest.raises(Indeterminate, match="to depth 2, over the "
                               "node budget of 3"):
                gap_depth(UNEQUAL)

    def test_thickness_builds_seven_fractions(self):
        # machine-independent, counted as the bench's traced pass counts
        # fractions.Fraction.new_calls: the witness record's six ends and
        # the value, and no rational arithmetic on the way
        s = middle_cantor(Q(1, 4))
        prof = cProfile.Profile()
        rep = prof.runcall(newhouse_thickness, s)
        built = sum(calls for (path, _, name), (_, calls, *_)
                    in pstats.Stats(prof).stats.items()
                    if Path(path).stem == "fractions" and name == "__new__")
        assert rep.value == Q(3, 2)
        assert built == 7

    def test_budget_refuses_before_enumerating(self, monkeypatch):
        monkeypatch.setenv("THICKSET_MAX_NODES", "1000")
        with pytest.raises(Indeterminate):
            newhouse_thickness(HOSTILE)

    def test_long_walk_refused_by_gap_depth(self, monkeypatch):
        # about 2*10**5 walk steps, well inside the default budget, so a
        # gate charging the walk's steps would run it; gap_depth refuses
        # it at once by its image count
        monkeypatch.delenv("THICKSET_MAX_NODES", raising=False)
        start = time.perf_counter()
        with pytest.raises(Indeterminate, match="thickness needs gaps to "
                           "depth 16, over the node budget of 10000000"):
            newhouse_thickness(CREEPING)
        assert time.perf_counter() - start < 1

    def test_max_depth_does_not_change_report(self):
        s = off_center_cantor(Q(3, 10))
        for depth in (2, 8, 100000):
            rep = newhouse_thickness(s, depth)
            assert (rep.value, rep.witness) == \
                (1, newhouse_thickness(s).witness)


class TestGaps:
    def test_gap_disjoint_from_deep_cover(self):
        # the whole open gap misses the depth-20 cover, checked by a
        # pruned descent (no materialization of 2^20 intervals)
        def cover_meets_open(s, m, glo, ghi, depth):
            lo, hi = m.apply_interval(*s.hull)
            if hi <= glo or ghi <= lo:
                return False
            if depth == 0:
                return True
            return any(cover_meets_open(s, compose(m, b), glo, ghi,
                                        depth - 1) for b in s.branches)

        for s in [middle_thirds(), off_center_cantor(Q(3, 10))]:
            for glo, ghi, d in ref_enumerate_gaps(s, 4):
                assert not cover_meets_open(s, IDENTITY, glo, ghi, 20)

    def test_gap_containing_interval(self):
        s = middle_thirds()
        assert lifted_gap_query(s, (), Q(4, 10), Q(5, 10))
        assert not lifted_gap_query(s, (), Q(1, 4), Q(1, 2))
        assert lifted_gap_query(s, (), Q(1, 27) + Q(1, 200),
                                Q(2, 27) - Q(1, 200))
        # the subtree of a word only answers for its own gaps
        assert not lifted_gap_query(s, (1,), Q(4, 10), Q(5, 10))


def old_gap_containing(s, m, lo, hi):
    """The point query as a greedy descent, as the line descents ran it."""
    cur_lo, cur_hi = m.apply_interval(*s.hull)
    if not (cur_lo <= lo and hi <= cur_hi):
        return False
    while True:
        for b in s.branches:
            nm = compose(m, b)
            c_lo, c_hi = nm.apply_interval(*s.hull)
            if c_lo <= lo and hi <= c_hi:
                m = nm
                break
        else:
            return any(m(g0) < lo and hi < m(g1) for g0, g1 in s.top_gaps())


def old_window_test(s, m, lo, hi, t0, t1):
    """The sliding query as the difference hits ran it: gather the gaps
    at least hi - lo long of the subtrees meeting [lo + t0, hi + t1],
    then test each gap's window of translates against [t0, t1]."""
    width, hull_w = hi - lo, s.hull[1] - s.hull[0]
    gaps, stack = [], [m]
    while stack:
        m = stack.pop()
        wlo, whi = m.apply_interval(*s.hull)
        if whi < lo + t0 or hi + t1 < wlo:
            continue
        gaps.extend((m(g0), m(g1)) for g0, g1 in s.top_gaps()
                    if m(g1) - m(g0) >= width)
        stack.extend(c for c in (compose(m, b) for b in s.branches)
                     if c.scale * hull_w >= width)
    return any(t1 > glo - lo and t0 < ghi - hi for glo, ghi in gaps)


@st.composite
def gap_queries(draw):
    """A random 2- or 3-branch presentation, the subtree of a word of
    length at most 2, and an interval and slide range drawn on a 1/64
    grid relative to that subtree; half the queries are point queries
    (no slide)."""
    n = draw(st.integers(2, 3))
    weight = st.integers(1, 9)
    s = weighted(draw(st.lists(weight, min_size=n, max_size=n)),
                 draw(st.lists(weight, min_size=n - 1, max_size=n - 1)))
    word = tuple(draw(st.lists(st.integers(0, n - 1), max_size=2)))
    m = word_map(s, word)
    lo = Q(draw(st.integers(-8, 72)), 64)
    hi = lo + Q(draw(st.integers(1, 24)), 64)
    t0 = t1 = Q(0)
    if draw(st.booleans()):
        t0 = Q(draw(st.integers(-16, 16)), 64)
        t1 = t0 + Q(draw(st.integers(1, 16)), 64)
    return s, word, m, m(lo), m(hi), m.scale * t0, m.scale * t1


class TestSlidesIntoGap:
    """Translates sliding into a gap, asked of ``gap_holds_translate``
    and answered as the line's earlier gap queries answered them."""

    @settings(max_examples=200, deadline=None)
    @given(gap_queries())
    # an equal-length gap straddled by the slide: no translate lies
    # strictly inside it, yet the window test counts it
    @example((middle_thirds(), (), IDENTITY, Q(0), Q(1, 3), Q(1, 6),
              Q(1, 2)))
    def test_agrees_with_old_queries(self, case):
        s, word, m, lo, hi, t0, t1 = case
        got = lifted_gap_query(s, word, lo, hi, t0, t1)
        assert got == old_window_test(s, m, lo, hi, t0, t1)
        if t0 == t1:
            assert got == old_gap_containing(s, m, lo + t0, hi + t0)

    def test_equal_length_straddle_counts(self):
        s = middle_thirds()
        assert lifted_gap_query(s, (), Q(0), Q(1, 3), Q(1, 6), Q(1, 2))
        assert not lifted_gap_query(s, (), Q(0), Q(1, 3), Q(1, 6), Q(1, 3))


@st.composite
def placed_sets(draw):
    """A 2-4-branch presentation on a rational, non-unit hull, or an
    affine image of one with a scale of either sign, plus a word of
    length at most 3 and rationals on a grid finer than its branches."""
    n = draw(st.integers(2, 4))
    weight = st.integers(1, 9)
    s = weighted(draw(st.lists(weight, min_size=n, max_size=n)),
                 draw(st.lists(weight, min_size=n - 1, max_size=n - 1)))
    a = Q(draw(st.integers(-9, 9).filter(lambda v: v not in (0, 1))),
          draw(st.integers(1, 4)))
    b = Q(draw(st.integers(-8, 8)), draw(st.integers(1, 8)))
    s = affine_image(s, a, b)
    word = tuple(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    lo, hi = s.hull
    grid = st.integers(-4, 392).map(lambda k: lo + (hi - lo) * Q(k, 388))
    return s, word, draw(st.lists(grid, min_size=4, max_size=4))


class TestAgainstAffineMaps:
    """The integer-form functions against their rational references in
    ``oracles``: equal Fractions, verdicts and depths."""

    @settings(max_examples=120, deadline=None)
    @given(placed_sets())
    def test_word_geometry_matches(self, case):
        s, word, pts = case
        m = word_map(s, word)
        c_lo, c_hi = m.apply_interval(*s.hull)
        for x in pts + [c_lo, c_hi, (c_lo + c_hi) / 2]:
            for depth in (0, 1, 5):
                assert membership(s, x, depth) == ref_membership(s, x, depth)
            assert certified_member(s, x, 40) == ref_certified_member(s, x, 40)
        lo, hi = sorted(pts[:2])
        t0, t1 = sorted(pts[2:])
        t0, t1 = t0 - s.hull[0], t1 - s.hull[0]
        if lo < hi:
            for a, b in ((t0, t0), (t0, t1), (-t1, -t0)):
                assert lifted_gap_query(s, word, lo, hi, a, b) == \
                    ref_slides_into_gap(s, m, lo, hi, a, b)


class TestCertifiedMember:
    def test_periodic_rationals(self):
        s = middle_thirds()
        # base-3 expansion 0.020202... descends periodically
        assert certified_member(s, Q(1, 4))
        assert certified_member(s, Q(1, 12))
        assert certified_member(s, Q(11, 12))
        assert certified_member(s, Q(1, 3))
        assert not certified_member(s, Q(1, 2))   # in the central gap
        assert not certified_member(s, Q(5, 12))  # 0.1021...: hits a gap

    def test_cap_matches_oracle(self):
        # 1/(4*3^k) walks k steps toward 0 before its period shows, so
        # the step cap decides it; the library counts steps as the
        # oracle does
        s = middle_thirds()
        points = [q for k in range(8) for q in (Q(1, 4 * 3**k),
                                                1 - Q(1, 4 * 3**k))]
        verdicts = set()
        for q in points:
            for steps in range(12):
                got = certified_member(s, q, steps)
                assert got == ref_certified_member(s, q, steps)
                verdicts.add((q, got))
        assert len(verdicts) > len(points)  # the cap flips some verdicts

    @pytest.mark.parametrize("s", [
        off_center_cantor(Q(3, 10)),  # den 10, widths 3 and 4
        ifs_from_branches(0, 1, [(Q(1, 4), 0), (Q(1, 5), Q(3, 8)),
                                 (Q(1, 4), Q(3, 4))]),
        middle_cantor(Q(13, 64)),
    ], ids=["off_center_3_10", "three_branches", "middle_13_64"])
    def test_two_passes_match_oracle(self, s):
        # the unreduced pass meets endpoints and gaps where the reduced
        # walk does, and the repeat pass finds its repeats, at every cap
        points = position_probes(s, random.Random(5))
        verdicts = set()
        for x in points:
            for steps in [*range(41), 256]:
                got = certified_member(s, x, steps)
                assert got == ref_certified_member(s, x, steps), (x, steps)
                verdicts.add((x, got))
        assert len(verdicts) > len(points)  # the cap flips some verdicts

    @pytest.mark.parametrize("x, certified", [
        (Q(1, 4 * 3**3000), False),  # reaches the cap before its repeat
        (Q(1, 4 * 3**200), True),    # repeats at step 202
    ], ids=["cap", "repeat"])
    def test_deep_point_takes_one_wide_gcd(self, monkeypatch, x, certified):
        # only the start is put in lowest terms with a gcd of integers as
        # wide as the point's denominator; every step's common factor
        # comes from residues modulo den*(b - a)
        form, widths = middle_thirds().form, []

        def gcd(*args):
            widths.append(max(a.bit_length() for a in args))
            return math.gcd(*args)

        monkeypatch.setattr(cantor, "math", SimpleNamespace(gcd=gcd))
        assert position_member(form, x.numerator, x.denominator) == certified
        assert sum(w > 64 for w in widths) <= 1

    @pytest.mark.parametrize("s, x", [
        (middle_thirds(), Q(1, 4)),
        (middle_thirds(), Q(3, 4)),
        (middle_thirds(), Q(1, 10)),
        (middle_cantor(Q(13, 64)), Q(51, 179)),  # the word (0, 1) repeated
    ], ids=["1/4", "3/4", "1/10", "51/179"])
    def test_periodic_point_stops_at_its_repeat(self, monkeypatch, s, x):
        # a periodic position is certified a few steps in, while the
        # unreduced pair is narrow, with no gcd: not after the whole cap
        # and a second pass in lowest terms
        steps, widths = [], []

        class Branches(tuple):
            def __iter__(self):  # read once per step
                steps.append(None)
                return super().__iter__()

        def gcd(*args):
            widths.append(max(a.bit_length() for a in args))
            return math.gcd(*args)

        form = SimpleNamespace(den=s.form.den, rel=Branches(s.form.rel))
        h_lo, h_hi, (y,) = cantor._lift(s, x)
        monkeypatch.setattr(cantor, "math", SimpleNamespace(gcd=gcd))
        assert position_member(form, y - h_lo, h_hi - h_lo)
        assert len(steps) <= 8 and widths == []

    def test_against_digit_oracle(self):
        # the middle-thirds set is exactly the reals with a base-3
        # expansion avoiding the digit 1
        def in_cantor_digits(q: Q, steps: int = 200) -> bool:
            x = q
            seen = set()
            while x not in seen:
                seen.add(x)
                if len(seen) > steps:
                    return True
                x *= 3
                digit, x = divmod(x, 1)
                if digit == 1 and x != 0:
                    return False
                if digit == 1 and x == 0:
                    return True  # terminating .1 equals .0222...
                if digit == 3:
                    return True  # was exactly 1 before scaling
            return True

        s = middle_thirds()
        rng = random.Random(13)
        for _ in range(400):
            q = Q(rng.randint(0, 240), 240)
            want = in_cantor_digits(q)
            got = certified_member(s, q)
            # certified_member may fail to certify but must never claim
            # membership of a non-member; on this denominator set the
            # orbits are short, so it decides everything
            assert got == want, q


class TestMembership:
    def test_endpoint_certified(self):
        assert membership(middle_thirds(), Q(1, 3)).kind == IN_CERTIFIED

    def test_gap_point(self):
        r = membership(middle_thirds(), Q(1, 2))
        assert r.kind == OUT
        assert r.depth == 1

    def test_quarter_stays_in_cover(self):
        # 1/4 has base-3 expansion 0.020202..., never an endpoint
        r = membership(middle_thirds(), Q(1, 4), depth=40)
        assert r.kind == IN_COVER
        assert r.depth == 40

    def test_outside_hull(self):
        assert membership(middle_thirds(), Q(2)).kind == OUT

    @pytest.mark.parametrize("query, match", [
        (lambda s: membership(s, Q(1, 2), -1), "depth must be nonnegative"),
        (lambda s: membership(s, Q(2), -1), "depth must be nonnegative"),
    ])
    def test_bad_line_query_rejected(self, query, match):
        # a negative depth used to be echoed back as in_cover_at_depth(-1)
        # or answered True, and a reversed interval passed as covered
        with pytest.raises(InputError, match=match):
            query(middle_thirds())


class TestSelfComboCover:
    @staticmethod
    def pair_sums(a, b, mu, nu):
        # brute-force oracle: the merged union of mu*I + nu*J over all
        # interval pairs
        def scaled(iv, f):
            return tuple(sorted((f * iv[0], f * iv[1])))

        return tuple(merge_intervals(
            (x0 + y0, x1 + y1)
            for x0, x1 in (scaled(i, mu) for i in a)
            for y0, y1 in (scaled(j, nu) for j in b)))

    @staticmethod
    def coefficients(rng):
        pairs = [(Q(1), Q(-1))]
        while len(pairs) < 6:
            mu = Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            nu = Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            pairs.append((mu, nu))
        return pairs

    SETS = [middle_thirds(), middle_cantor(Q(2, 5)), off_center_cantor(Q(3, 10)),
            ifs_from_branches(0, 1, [(Q(1, 4), 0), (Q(1, 5), Q(3, 8)),
                                     (Q(1, 4), Q(3, 4))])]

    @pytest.mark.parametrize("k", range(len(SETS)))
    def test_self_combo_against_pair_sums(self, k):
        s, rng = self.SETS[k], random.Random(40 + k)
        for mu, nu in self.coefficients(rng):
            for d in range(5):
                ints = ref_cover(s, d).intervals
                assert self_combo_cover(s, mu, nu, d) == \
                    self.pair_sums(ints, ints, mu, nu)

    @pytest.mark.parametrize("k", range(len(SETS)))
    def test_subtree_combo_against_pair_sums(self, k):
        s, rng = self.SETS[k], random.Random(50 + k)
        images = s.branch_images()
        n = len(s.branches)
        for mu, nu in self.coefficients(rng):
            left = sorted(rng.sample(range(n), rng.randint(1, n)))
            right = sorted(rng.sample(range(n), rng.randint(1, n)))
            for d in range(1, 5):
                ints = ref_cover(s, d).intervals

                def under(branches):
                    return [(a, b) for a, b in ints
                            if any(images[i][0] <= a and b <= images[i][1]
                                   for i in branches)]

                assert subtree_combo_cover(s, left, right, mu, nu, d) == \
                    self.pair_sums(under(left), under(right), mu, nu)


def old_self_combo_cover(s, mu, nu, depth, memo):
    """The combination cover as it was, memoized on (mu, nu, depth)."""
    key = (mu, nu, depth)
    if key not in memo:
        lo, hi = s.hull
        if depth == 0:
            a0, a1 = sorted((mu * lo, mu * hi))
            b0, b1 = sorted((nu * lo, nu * hi))
            memo[key] = ((a0 + b0, a1 + b1),)
        else:
            pieces = []
            for b1 in s.branches:
                for b2 in s.branches:
                    sub = old_self_combo_cover(s, mu * b1.scale, nu * b2.scale,
                                               depth - 1, memo)
                    shift = mu * b1.offset + nu * b2.offset
                    pieces.extend((a + shift, b + shift) for a, b in sub)
            memo[key] = tuple(merge_intervals(pieces))
    return memo[key]


@st.composite
def combo_inputs(draw):
    """A random 2- or 3-branch presentation on a random hull, signed
    coefficients (mu of either sign or zero) and a depth of at most 4."""
    n = draw(st.integers(2, 3))
    weight = st.integers(1, 9)
    scales = draw(st.lists(weight, min_size=n, max_size=n))
    gaps = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    total = sum(scales) + sum(gaps)
    pairs, offset = [], Q(0)
    for w, g in zip(scales, gaps + [0]):
        pairs.append((Q(w, total), offset))
        offset += Q(w + g, total)
    s = affine_image(ifs_from_branches(0, 1, pairs),
                     Q(draw(st.integers(1, 5)), draw(st.integers(1, 3))),
                     Q(draw(st.integers(-4, 4)), 3))
    coeff = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
    return s, draw(coeff), draw(coeff), draw(st.integers(0, 4))


class TestComboCoverUpToScale:
    @settings(max_examples=80, deadline=None)
    @given(combo_inputs())
    @example((middle_thirds(), Q(0), Q(-2), 3))
    @example((middle_thirds(), Q(0), Q(0), 2))
    @example((off_center_cantor(Q(3, 10)), Q(-3, 2), Q(1, 2), 4))
    def test_agrees_with_memo_on_coefficients(self, case):
        s, mu, nu, depth = case
        memo = {}
        for d in range(depth + 1):  # one memo shared across depths
            assert self_combo_cover(s, mu, nu, d, memo) == \
                old_self_combo_cover(s, mu, nu, d, {})

    @pytest.mark.parametrize("depth", [5, 10])
    def test_keys_grow_quadratically_on_unequal_scales(self, depth):
        # branch scales a and 1 - 2a leave one key per power of their
        # ratio at each level: (depth + 1)**2 in all, where keys on
        # (mu, nu, depth) grew with the cube of the depth
        memo = {}
        self_combo_cover(off_center_cantor(Q(37, 128)), 1, -1, depth, memo)
        assert len(memo) == (depth + 1) ** 2


@st.composite
def difference_inputs(draw):
    """A random 2- to 4-branch set on a random hull, reflected or not,
    and a depth of at most 4."""
    n = draw(st.integers(2, 4))
    scales = draw(st.lists(st.integers(2, 9), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
    total = sum(scales) + sum(gaps)
    pairs, offset = [], Q(0)
    for w, g in zip(scales, gaps + [0]):
        pairs.append((Q(w, total), offset))
        offset += Q(w + g, total)
    a = Q(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    s = affine_image(ifs_from_branches(0, 1, pairs),
                     a if draw(st.booleans()) else -a,
                     Q(draw(st.integers(-4, 4)), 3))
    return s, draw(st.integers(0, 4))


class TestDifferenceInterval:
    @settings(max_examples=80, deadline=None)
    @given(difference_inputs())
    @example((ifs_from_branches(0, 1, [(Q(2, 5), 0), (Q(1, 5), Q(9, 20)),
                                       (Q(1, 3), Q(2, 3))]), 10))
    def test_hull_width_is_the_covered_segment(self, case):
        # the gap lemma's segment agrees with the one read off the
        # merged covers of C - C at every depth
        s, depth = case
        try:
            want = combo_difference_interval(s, depth)
        except HypothesisError:
            reject()
        assert difference_interval(s, depth) == want == s.hull[1] - s.hull[0]

    def test_middle_thirds_full(self):
        assert difference_interval(middle_thirds(), 10) == 1

    def test_depth0(self):
        assert difference_interval(middle_thirds(), 0) == 1

    def test_thin_set_refused(self):
        with pytest.raises(HypothesisError):
            difference_interval(middle_cantor(Q(2, 5)), 4)

    def test_negative_depth_checked_first(self):
        # as in find_convex_combo and difference_hit, a bad depth is an
        # input error even on a set that fails the hypothesis
        with pytest.raises(InputError, match="max_depth must be nonnegative"):
            difference_interval(middle_cantor(Q(1, 2)), -1)


class TestNormalize:
    def test_round_trip(self):
        # the reference rescaling the progression oracles run on
        s = affine_image(middle_thirds(), Q(3), Q(-2))
        norm, back = normalize_to_unit(s)
        assert norm.hull == (Q(0), Q(1))
        lo, hi = norm.branch_images()[0]
        assert back(lo) == s.branch_images()[0][0]


class TestDescend:
    # candidate pairs of a toy tree: ("c", "C") and ("a0", "A0") fail the
    # test, so the only chain of two survivors runs through ("b", "B")
    FIRST = [("c", "C"), ("a", "A"), ("b", "B")]
    CHILDREN = {("a", "A"): [("a0", "A0")], ("b", "B"): [("b0", "B0")]}
    FAILS = {("c", "C"), ("a0", "A0")}

    def run(self, levels, backtrack):
        return descend(self.FIRST, lambda x, y: self.CHILDREN[x, y],
                       lambda x, y: (x, y) not in self.FAILS, levels,
                       "toy descent", backtrack=backtrack)

    def test_backtracking_finds_what_committing_misses(self):
        assert self.run(1, backtrack=True) == ("b0", "B0")
        with pytest.raises(Indeterminate, match=r"^toy descent exhausted "
                           r"\(no chain to the requested depth\)$"):
            self.run(1, backtrack=False)

    def test_levels_zero_is_the_first_survivor(self):
        assert self.run(0, backtrack=True) == ("a", "A")
        assert self.run(0, backtrack=False) == ("a", "A")

    @pytest.mark.parametrize("budget, passes", [(5, True), (4, False)])
    def test_budget_counts_every_test(self, monkeypatch, budget, passes):
        # c, a, a0, then b and b0: five tests
        monkeypatch.setenv("THICKSET_MAX_NODES", str(budget))
        if passes:
            assert self.run(1, backtrack=True) == ("b0", "B0")
        else:
            with pytest.raises(Indeterminate, match="^toy descent passed "
                               "the budget of 4 pair tests$"):
                self.run(1, backtrack=True)

    # the same toy tree with dropped candidates, named "d", that fail
    # the test, listed one by one and charged in bulk
    PLAIN = {None: ["c", "d", "d", "a", "b"], "a": ["a0", "d"],
             "b": ["d", "b0", "d", "d"]}
    BULK = {None: [(1, "c"), (3, "a"), (1, "b")],
            "a": [(1, "a0"), (1, None)], "b": [(2, "b0"), (2, None)]}

    @pytest.mark.parametrize("budget", range(13))
    def test_bulk_charges_count_as_tests(self, monkeypatch, budget):
        # the search exhausts after charging all eleven; below that, both
        # stop on the same charge, having run the same tests before it
        monkeypatch.setenv("THICKSET_MAX_NODES", str(budget))
        runs = []
        for frames, bulk in ((self.PLAIN, False), (self.BULK, True)):
            tested = []

            def ok(x, y):
                tested.append(x)
                return x in ("a", "b")

            def frame(x, bulk=bulk, frames=frames):
                if bulk:
                    return [(n, w, w) for n, w in frames[x]]
                return [(w, w) for w in frames[x]]
            try:
                descend(frame(None), lambda x, y: frame(x), ok, 1,
                        "toy descent", backtrack=True, bulk=bulk)
            except Indeterminate as e:
                runs.append((str(e), [w for w in tested if w != "d"]))
        assert runs[0] == runs[1]
        assert ("exhausted" in runs[0][0]) == (budget >= 11)
