import hashlib
import random
from fractions import Fraction as Q

import pytest

from thickset import cantor
from thickset.cantor import (
    affine_image,
    middle_cantor,
    middle_thirds,
    newhouse_thickness,
    off_center_cantor,
)
from thickset.errors import HypothesisError, Indeterminate, InputError
from thickset.product import (
    NormalizedTriangle,
    Triangle,
    difference_hit,
    equilateral,
    find_triangle_in_product,
    normalize_triangle,
)
from thickset.scalars import Interval, interval_sqrt, sqrt3

from oracles import product_witness_in_cover, ref_triangle_invariants


class TestNormalizeTriangle:
    def test_equilateral_from_vertices(self):
        # vertices are rational: an enclosure of sqrt(3)/2 is refused,
        # and the class comes from ``equilateral()`` instead
        with pytest.raises(InputError, match="cannot coerce Interval"):
            Triangle.make([(0, 0), (1, 0), (Q(1, 2), sqrt3() / 2)])
        assert equilateral().region_ok()

    def test_right_isoceles(self):
        n = normalize_triangle(Triangle.make([(0, 0), (1, 0), (0, 1)]))
        # hypotenuse is the base; altitude foot splits it in half,
        # height is half the hypotenuse
        assert n.lam == Q(1, 2)
        assert n.alpha_sq == Q(1, 4)
        assert n.region_ok()

    def test_collinear(self):
        n = normalize_triangle(Triangle.make([(0, 0), (1, 0), (2, 0)]))
        assert n.degenerate
        assert n.alpha.lo == 0
        assert n.lam == Q(1, 2)

    @pytest.mark.parametrize("alpha, alpha_sq", [
        (Interval.point(Q(1, 10)), Q(3, 4)),  # another class's height
        (Interval(Q(-1, 2), Q(1, 2)), Q(1, 4)),  # a negative lower end
        (Interval.point(Q(1, 2)), Q(3, 4)),  # below the root
        (Interval(Q(9, 10), Q(1)), Q(3, 4)),  # above the root
    ])
    def test_height_must_enclose_root(self, alpha, alpha_sq):
        # the searches read alpha_sq for the region and alpha for the
        # apex step, so a class whose two heights disagree is refused
        with pytest.raises(InputError, match="enclose the square root"):
            NormalizedTriangle(alpha=alpha, alpha_sq=alpha_sq, lam=Q(1, 2))

    def test_root_enclosures_build(self):
        # equilateral() at any precision, and an enclosure of an
        # irrational height, pass the check; rational vertices give a
        # point height (test_right_isoceles, test_collinear)
        for bits in (1, 8, 128):
            assert equilateral(bits).region_ok()
        alpha = interval_sqrt(Interval.point(Q(1, 5)), 64)
        assert NormalizedTriangle(alpha, Q(1, 5), Q(1, 2)).region_ok()

    def test_collinear_split_is_exact(self):
        # the general split formula, dot / |base|^2, is exact on
        # collinear points too; the square-root split is the reference
        pts = [(0, 0), (Q(3, 7), Q(6, 7)), (3, 6)]
        n = normalize_triangle(Triangle.make(pts))
        assert n.degenerate and n.lam == Q(1, 7)
        assert ref_triangle_invariants(pts) == (Q(0), Q(1, 7), True)

    @pytest.mark.parametrize("collinear", [True, False])
    def test_matches_side_length_reference(self, collinear):
        # random exact triangles, collinear ones as p, q and a point of
        # the line through them, against the invariants read off the
        # squared side lengths (the square-root split when collinear)
        rng = random.Random(int(collinear))

        def rand_q():
            return Q(rng.randint(-60, 60), rng.randint(1, 12))

        for _ in range(200):
            p, q = (rand_q(), rand_q()), (rand_q(), rand_q())
            if p == q:
                continue
            if collinear:
                t = rand_q()
                if t in (0, 1):
                    continue
                r = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            else:
                r = (rand_q(), rand_q())
                if r in (p, q):
                    continue
            pts = [p, q, r]
            rng.shuffle(pts)
            alpha_sq, lam, degenerate = ref_triangle_invariants(pts)
            assert degenerate or not collinear
            n = normalize_triangle(Triangle.make(pts))
            assert n.degenerate == degenerate
            assert n.lam == lam
            assert n.alpha_sq == alpha_sq
            assert n.alpha.is_point() and n.alpha.lo ** 2 == alpha_sq

    def test_repeated_vertices_rejected(self):
        with pytest.raises(InputError):
            normalize_triangle(Triangle.make([(0, 0), (0, 0), (1, 1)]))

    @pytest.mark.parametrize("points", [
        5, "abc", [(0, 0), (1, 0)], [(0,), (1, 0), (0, 1)],
        [(0, 0, 0), (1, 0), (0, 1)], ["12", "34", "56"], [(0, 0), 1, (0, 1)],
    ])
    def test_malformed_vertices_rejected(self, points):
        with pytest.raises(InputError, match="two coordinates each"):
            Triangle.make(points)

    def test_similarity_invariance(self):
        rng = random.Random(17)
        base = Triangle.make([(0, 0), (1, 0), (Q(3, 10), Q(2, 5))])
        n0 = normalize_triangle(base)
        # rational rotations from Pythagorean triples keep everything exact
        triples = [(Q(3, 5), Q(4, 5)), (Q(5, 13), Q(12, 13)),
                   (Q(8, 17), Q(15, 17)), (Q(1), Q(0))]
        for _ in range(80):
            c, s = triples[rng.randrange(len(triples))]
            if rng.random() < 0.5:
                s = -s
            scale = Q(rng.randint(1, 9), rng.randint(1, 9))
            tx = Q(rng.randint(-20, 20), rng.randint(1, 10))
            ty = Q(rng.randint(-20, 20), rng.randint(1, 10))
            pts = []
            for x, y in [(Q(0), Q(0)), (Q(1), Q(0)), (Q(3, 10), Q(2, 5))]:
                rx = scale * (c * x - s * y) + tx
                ry = scale * (s * x + c * y) + ty
                pts.append((rx, ry))
            n = normalize_triangle(Triangle.make(pts))
            assert n.lam == n0.lam
            assert n.alpha_sq == n0.alpha_sq

    def test_region_membership_random(self):
        rng = random.Random(19)
        checked = 0
        while checked < 200:
            pts = [(Q(rng.randint(-50, 50), 10), Q(rng.randint(-50, 50), 10))
                   for _ in range(3)]
            try:
                n = normalize_triangle(Triangle.make(pts))
            except InputError:
                continue
            if n.degenerate:
                continue
            a2, lam = n.alpha_sq, n.lam
            assert n.region_ok()
            assert a2 + (1 - lam) ** 2 <= 1
            assert 0 < lam <= Q(1, 2)
            # the bound that keeps the height span * alpha inside the
            # difference segment in ``find_triangle_in_product``
            assert 0 < a2 <= Q(3, 4)
            checked += 1


class TestDifferenceHit:
    def test_delta_one(self):
        u, v = difference_hit(middle_thirds(), Q(1), depth=10)
        assert u.lo <= 0 <= u.hi and v.lo <= 1 <= v.hi
        assert u.width <= Q(3) ** -10

    def test_delta_third(self):
        u, v = difference_hit(middle_thirds(), Q(1, 3), depth=12)
        assert u.lo == 0  # leftmost admissible pair starts at the origin
        assert v.lo <= u.lo + Q(1, 3) <= v.hi

    def test_delta_irrational(self):
        delta = interval_sqrt(Interval.point(Q(1, 3)), 128)  # sqrt(3)/3
        u, v = difference_hit(middle_thirds(), delta, depth=40)
        assert u.width <= Q(3) ** -40
        assert v.width <= Q(3) ** -40
        # v - u must overlap the requested difference
        d = v - u
        assert d.lo <= delta.hi and delta.lo <= d.hi

    def test_delta_too_large(self):
        with pytest.raises(InputError):
            difference_hit(middle_thirds(), Q(3, 2), depth=6)

    @pytest.mark.parametrize("delta", [Q(1, 10), Q(1, 2)])
    def test_thin_set_refused(self, delta):
        with pytest.raises(HypothesisError, match="below 1"):
            difference_hit(middle_cantor(Q(2, 5)), delta, depth=6)


class TestFindTriangleInProduct:
    def test_equilateral_deep(self):
        s = middle_thirds()
        w = find_triangle_in_product(s, equilateral(), depth=40)
        assert product_witness_in_cover(s, w, 40)
        d01, d02, d12 = w.side_lengths
        # interval-certified equality of all three sides within 1e-9
        for x, y in ((d01, d02), (d01, d12), (d02, d12)):
            gap = max(abs(x.hi - y.lo), abs(y.hi - x.lo))
            assert gap <= Q(1, 10**9)
        assert w.ratio_deviation <= Q(1, 10**9)

    def test_collinear_routes_to_line_search(self):
        s = middle_thirds()
        t = Triangle.make([(0, 0), (Q(1, 2), 0), (1, 0)])
        w = find_triangle_in_product(s, t, depth=12)
        assert w.collinear
        ys = {w.base_left[1].lo, w.base_right[1].lo, w.apex[1].lo}
        assert ys == {Q(0)}

    def test_thin_set_rejected(self):
        with pytest.raises(HypothesisError):
            find_triangle_in_product(middle_cantor(Q(2, 5)), equilateral(),
                                     depth=8)

    @pytest.mark.parametrize("t, checks", [
        (Triangle.make([(0, 0), (Q(1, 2), 0), (1, 0)]), 1),  # collinear
        (Triangle.make([(0, 0), (1, 0), (Q(3, 10), Q(2, 5))]), 2),
    ])
    def test_thickness_checked_per_search(self, monkeypatch, t, checks):
        # each line search checks its own hypothesis: the base search
        # alone for a collinear class, and the difference hit too
        calls = []

        def counting(s, *args, **kwargs):
            calls.append(s)
            return newhouse_thickness(s, *args, **kwargs)

        monkeypatch.setattr(cantor, "newhouse_thickness", counting)
        for _ in range(2):
            find_triangle_in_product(middle_thirds(), t, depth=12)
        assert len(calls) == 2 * checks

    def test_region_checked_before_thickness(self):
        # a class outside the region is bad input, whatever the set
        alpha = interval_sqrt(Interval.point(Q(5, 4)), 64)
        t = NormalizedTriangle(alpha=alpha, alpha_sq=Q(5, 4), lam=Q(1, 2))
        with pytest.raises(InputError, match="admissible"):
            find_triangle_in_product(middle_cantor(Q(2, 5)), t, 8)

    @pytest.mark.parametrize("alpha_sq, lam", [
        (Q(5, 4), Q(1, 2)),  # a height above 1: the base is not longest
        (Q(3, 4), Q(2, 5)), (Q(1, 4), Q(0)), (Q(1, 4), Q(3, 5)),
        (Q(0), Q(1, 2)),
    ])
    def test_class_outside_region_rejected(self, alpha_sq, lam):
        alpha = interval_sqrt(Interval.point(alpha_sq), 64)
        t = NormalizedTriangle(alpha=alpha, alpha_sq=alpha_sq, lam=lam)
        assert not t.region_ok()
        with pytest.raises(InputError, match="admissible"):
            find_triangle_in_product(middle_thirds(), t, 4)

    def test_right_isoceles(self):
        s = middle_thirds()
        t = Triangle.make([(0, 0), (1, 0), (0, 1)])
        w = find_triangle_in_product(s, t, depth=24)
        assert product_witness_in_cover(s, w, 24)
        # expected ratios: both slanted sides are sqrt(1/2) of the base
        assert w.ratio_deviation <= Q(1, 10**6)

    def test_scalene_pins_periodic_pair(self):
        # the base split 3/10 forces the pair (1/12, 11/12), which is
        # eventually periodic rather than a word endpoint; the pipeline
        # must still pin it exactly and place the apex at (1/3, 1/3)
        s = middle_thirds()
        t = Triangle.make([(0, 0), (1, 0), (Q(3, 10), Q(2, 5))])
        w = find_triangle_in_product(s, t, depth=28)
        assert product_witness_in_cover(s, w, 28)
        assert w.ratio_deviation <= Q(1, 10**9)
        assert w.base_left[0].lo == w.base_left[0].hi == Q(1, 12)
        assert w.base_right[0].lo == w.base_right[0].hi == Q(11, 12)
        # exact foot, height enclosures pinned around the exact config
        assert w.apex[0] == Interval.point(Q(1, 3))
        assert w.apex[1].lo <= Q(1, 3) <= w.apex[1].hi
        assert w.base_left[1].lo <= 0 <= w.base_left[1].hi
        assert w.apex[1].width <= Q(3) ** -28


# sha256 of repr(result) recorded before the difference descent carried
# word maps, on the line benchmark's kinds of input at depths 20-40
HIT_PINS = [
    (lambda: difference_hit(middle_cantor(Q(17, 64)), Q(9, 16), 20),
     "e92ddec25b24359e481af4a535edc1e5a72bf59125c803bee251d6462ca57518"),
    (lambda: difference_hit(off_center_cantor(Q(37, 128)), Q(5, 16), 20),
     "5208528ccdd4213eba84b4120850cab441b880fea7c6dbc0ff2402fb2c1b2664"),
    (lambda: difference_hit(affine_image(off_center_cantor(Q(35, 128)),
                                         Q(-5, 4), Q(1, 8)), Q(7, 16), 30),
     "5cbc5d62e4b8e73a512ef5b7e193f25c5922d9031bc07a661a32b94a01553ef4"),
    (lambda: find_triangle_in_product(
        middle_cantor(Q(15, 64)),
        Triangle.make([(0, 0), (1, 0), (Q(5, 16), Q(7, 16))]), 20),
     "7cb0813f06ebb1b3b03ad92e34aee11ce43522d292f0d21eb8038434045a0a41"),
    (lambda: find_triangle_in_product(
        affine_image(middle_cantor(Q(19, 64)), Q(3, 4), Q(-3, 8)),
        Triangle.make([(0, 0), (1, 0), (Q(7, 16), Q(9, 16))]), 30),
     "24788fd8b45bf09cf4022eea43fcd21d85b056078998055619a8c0e19d8933f7"),
    (lambda: find_triangle_in_product(
        middle_cantor(Q(13, 64)),
        Triangle.make([(0, 0), (1, 0), (Q(5, 16), Q(9, 16))]), 40),
     "90d4b878048e07feda0c9a87ad3373ad41c89a4e70a9593aa76ed08c2154e9e6"),
    # enclosures of delta, recorded before the difference hits ran on the
    # certified descent: an irrational height, then explicit enclosures
    (lambda: find_triangle_in_product(middle_thirds(), equilateral(), 40),
     "701aa5bcf69124a96d91c04c57ddb68e9af502d7a805540a8f79f6a2856b880d"),
    (lambda: find_triangle_in_product(middle_cantor(Q(15, 64)),
                                      equilateral(), 30),
     "4476db4cedcc3400c7e4fa45e070806ba169e4d3abfe13e818e00d96942fc44c"),
    (lambda: difference_hit(middle_thirds(),
                            Interval(Q(1, 3), Q(1, 3) + Q(3) ** -22), 20),
     "609f9fa9f5e44093beb3ded9c5f5f60db64012af9b269d2e535dcb3a2a136e6f"),
    (lambda: difference_hit(middle_thirds(),
                            Interval(Q(1, 2), Q(1, 2) + Q(3) ** -24), 20),
     "61d8368ed2f31235923090d19653c1cb01e5f026a14c49d64ac84409b95ab71b"),
    (lambda: difference_hit(middle_thirds(),
                            Interval(Q(2, 5), Q(2, 5) + Q(1, 2**40)), 24),
     "2ef32c1904ed350f0c16ee5ab393b7d7744ec7528a0826863ab7b103156eb8f6"),
]


class TestDifferenceDescent:
    @pytest.mark.parametrize("call, digest", HIT_PINS)
    def test_pinned_results(self, call, digest):
        assert hashlib.sha256(repr(call()).encode()).hexdigest() == digest

    @pytest.mark.parametrize("budget, passes", [(51, True), (50, False)])
    def test_budget_counts_pair_tests(self, monkeypatch, budget, passes):
        # the root pair, then 50 child-pair tests on the way to depth 20
        monkeypatch.setenv("THICKSET_MAX_NODES", str(budget))
        if passes:
            u, v = difference_hit(middle_thirds(), Q(1, 2), 20)
            assert u.width == v.width == Q(3) ** -20
        else:
            with pytest.raises(Indeterminate, match=r"^difference hit .* "
                               "passed the budget of 50 pair tests$"):
                difference_hit(middle_thirds(), Q(1, 2), 20)

    def test_dead_end_names_the_enclosure_width(self):
        # an enclosure 3^-22 wide carries the committed descent to depth
        # 22 but not 24, where the exact delta still has a chain
        delta = Interval(Q(1, 3), Q(1, 3) + Q(3) ** -22)
        difference_hit(middle_thirds(), delta, 22)
        difference_hit(middle_thirds(), delta.lo, 24)
        with pytest.raises(Indeterminate) as info:
            difference_hit(middle_thirds(), delta, 24)
        assert str(info.value) == (
            "difference hit (delta enclosure 3.19e-11 wide; a deeper chain "
            "needs a narrower height enclosure, from more precision bits) "
            "exhausted (no chain to the requested depth)")

    @pytest.mark.parametrize("call", [
        lambda: difference_hit(middle_thirds(), Q(1, 2), -1),
        lambda: find_triangle_in_product(middle_thirds(), equilateral(), -1),
        lambda: find_triangle_in_product(
            middle_thirds(), Triangle.make([(0, 0), (1, 0), (2, 0)]), -2),
    ])
    def test_negative_depth_rejected(self, call):
        with pytest.raises(InputError, match="depth must be nonnegative"):
            call()
