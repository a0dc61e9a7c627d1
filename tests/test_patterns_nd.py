import hashlib
import sys as _sys
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from thickset.balls import (
    Ball,
    BallSystem,
    ExplicitTree,
    grid_ifs_example,
    hex_packing_example,
    yavicoli_thickness,
)
from thickset.errors import HypothesisError, Indeterminate, InputError
from thickset.patterns_nd import (
    APPENDIX,
    STANDARD,
    _ball_box,
    _combo_images,
    _refine_pair,
    _sq_norm,
    _vsub,
    convex_combo_disk,
    find_convex_combo_nd,
    find_triangle_nd,
    lambda_window,
    threshold,
    triangle_disk,
    vertex_maps,
    x_constant,
)
from thickset.product import Triangle, equilateral
from thickset.scalars import Interval

GAMMA = Q(99999, 100000)
HEX_R = Q(26243, 100000)


def grid():
    return grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)


class TestThreshold:
    def test_combo_standard(self):
        t = threshold(None, Q(1, 2), Q(1, 5))
        assert t.lo == t.hi == Q(10, 3)

    def test_combo_appendix(self):
        t = threshold(None, Q(1, 2), Q(1, 5), APPENDIX)
        assert t.lo == t.hi == Q(5, 2)

    def test_triangle_equilateral_ratio_one(self):
        # alpha^2 + lam^2 = 1 exactly, so the ratio collapses to 1 and
        # the threshold equals the linear one at lam = 1/2
        e = equilateral()
        t = threshold(e.alpha, Q(1, 2), Q(1, 5), STANDARD, e.alpha_sq)
        assert t.lo == t.hi == Q(10, 3)

    def test_appendix_below_standard(self):
        for lam in (Q(1, 4), Q(2, 5), Q(1, 2)):
            for r in (Q(1, 10), Q(1, 5), Q(2, 5)):
                std = threshold(None, lam, r, STANDARD)
                apx = threshold(None, lam, r, APPENDIX)
                assert apx.hi < std.lo

    def test_lambda_range(self):
        with pytest.raises(InputError):
            threshold(None, Q(3, 4), Q(1, 5))


class TestLambdaWindow:
    def test_grid_window(self):
        lo, hi = lambda_window(grid(), Q(1, 5))
        assert hi == Q(1, 2)
        assert abs(lo.mid - Q("0.27938814")) < Q(1, 10**6)

    def test_exact_boundary_threshold(self):
        # the closed form inverts the threshold: at the window's lower
        # endpoint the threshold equals the thickness bound exactly
        sys = grid()
        tau = yavicoli_thickness(sys).lower_bound.lo
        lo, _ = lambda_window(sys, Q(1, 5))
        t = threshold(None, lo.lo, Q(1, 5))
        assert t.lo == tau

    def test_empty_window(self):
        # r close to 1/2 pushes the threshold above any fixed thickness
        assert lambda_window(grid(), Q(49, 100)) is None

    def test_boundary_window_is_singleton(self):
        # r tuned so the threshold at lam = 1/2 equals the thickness
        # bound exactly: the window degenerates to {1/2}
        tau = yavicoli_thickness(grid()).lower_bound.lo
        r = (1 - 2 / tau) / 2
        lo, hi = lambda_window(grid(), r)
        assert lo.lo == lo.hi == Q(1, 2) and hi == Q(1, 2)


class TestXConstant:
    def test_standard_small_r(self):
        x = x_constant(Q(1, 5))
        assert x.lo == x.hi == Q(1, 3)

    def test_standard_clamps_to_zero(self):
        x = x_constant(Q(2, 5))
        assert x.lo == x.hi == 0

    def test_appendix(self):
        x = x_constant(Q(1, 5), APPENDIX)
        assert x.lo == x.hi == Q(7, 4) - Q(5, 4)


class TestConvexComboDisk:
    def test_grid_disk(self):
        disk, report = convex_combo_disk(grid(), Q(1, 2), Q(1, 5))
        assert disk.radius.lo > 0
        assert disk.radius.certainly_gt(report["h_root"])

    def test_threshold_failure(self):
        with pytest.raises(HypothesisError):
            convex_combo_disk(grid(), Q(1, 5), Q(1, 5))

    def test_appendix_mode_uses_tighter_slack(self):
        _, rep_std = convex_combo_disk(grid(), Q(1, 2), Q(1, 5), STANDARD)
        _, rep_apx = convex_combo_disk(grid(), Q(1, 2), Q(1, 5), APPENDIX)
        assert rep_apx["h_b_bound"].hi < rep_std["h_b_bound"].hi

    def test_hex_appendix_rejected(self):
        # designated children nearly touch their siblings, so the
        # distance-child condition cannot certify
        sys = hex_packing_example(GAMMA)
        with pytest.raises(HypothesisError):
            convex_combo_disk(sys, Q(1, 2), HEX_R, APPENDIX)

    def test_overlapping_children_rejected(self):
        # at gamma = 1 the designated circles touch their neighbours, so
        # the disjointness hypothesis certifiably fails
        with pytest.raises(HypothesisError):
            convex_combo_disk(hex_packing_example(1), Q(1, 2), HEX_R)


class TestFindConvexComboNd:
    def test_grid_midpoint_witness(self):
        wit = find_convex_combo_nd(grid(), Q(1, 2), Q(1, 5), depth=8)
        assert wit.residual <= Q(1, 10**6)
        assert wit.defect.hi <= wit.residual
        rep = wit.hypotheses_report
        assert rep["threshold_ok"] and rep["children_disjoint"]
        assert rep["r_uniformity"] == "certified_analytic"

    def test_inside_window_lambda(self):
        wit = find_convex_combo_nd(grid(), Q(3, 10), Q(1, 5), depth=5)
        assert wit.defect.hi <= wit.residual

    def test_below_window_rejected(self):
        with pytest.raises(HypothesisError):
            find_convex_combo_nd(grid(), Q(1, 5), Q(1, 5), depth=4)

    def test_witness_points_in_subtrees(self):
        wit = find_convex_combo_nd(grid(), Q(1, 2), Q(1, 5), depth=4)
        ia, ib = wit.hypotheses_report["children"]
        sysv = grid()
        ball_a, ball_b = sysv.ball((ia,)), sysv.ball((ib,))
        for coord, c, r in ((wit.a[0], ball_a.center[0], ball_a.radius),
                            (wit.a[1], ball_a.center[1], ball_a.radius)):
            assert c - r <= coord.lo and coord.hi <= c + r


class TestVertexMaps:
    def test_equilateral_scales_are_one(self):
        e = equilateral()
        m = vertex_maps(e.alpha, Q(1, 2), e.alpha_sq)
        assert m.s_f.lo == m.s_f.hi == 1
        assert m.s_g.lo == m.s_g.hi == 1

    def test_half_half(self):
        m = vertex_maps(Interval.point(Q(1, 2)), Q(1, 2))
        # s_f = s_g = sqrt(1/2)
        assert m.s_f.intersects(m.s_g)
        assert (m.s_f.square()).contains(Q(1, 2))

    def test_angles(self):
        e = equilateral()
        m = vertex_maps(e.alpha, Q(1, 2), e.alpha_sq)
        from thickset.scalars import interval_pi

        # theta_f = atan(sqrt(3)) = pi/3; theta_g = pi - pi/3
        assert (m.theta_f * 3).intersects(interval_pi())
        assert (m.theta_g * Q(3, 2)).intersects(interval_pi())

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            vertex_maps(Interval.point(Q(0)), Q(1, 2))


class TestTriangleDisk:
    def test_hex_equilateral(self):
        sys = hex_packing_example(GAMMA)
        e = equilateral()
        maps = vertex_maps(e.alpha, Q(1, 2), e.alpha_sq)
        disk, report = triangle_disk(sys, maps, HEX_R)
        assert report["containment"] == "half_ball"
        assert report["disk_meets_set"] in ("disk_inside_root",
                                            "boundary_overlap")
        assert disk.radius.lo > 0

    def test_region_sweep(self):
        # thresholds across most of the admissible rectangle stay below
        # the thickness bound of the modified arrangement; the thin
        # corner (small alpha at lam = 3/10) genuinely exceeds it since
        # the ratio grows like (1-lam)/lam as alpha -> 0
        from thickset.scalars import interval_sqrt

        sys = hex_packing_example(GAMMA)
        tau = yavicoli_thickness(sys).lower_bound
        holds = []
        for lam in (Q(3, 10), Q(2, 5), Q(1, 2)):
            for alpha_sq in (Q(1, 100), Q(1, 4), Q(3, 4)):
                if alpha_sq + (1 - lam) ** 2 > 1:
                    continue
                alpha = interval_sqrt(Interval.point(alpha_sq), 128)
                t = threshold(alpha, lam, HEX_R, STANDARD, alpha_sq)
                holds.append(((lam, alpha_sq),
                              Interval.point(tau.lo).certainly_ge(t)))
        failing = {key for key, ok in holds if not ok}
        assert failing == {(Q(3, 10), Q(1, 100))}

    def test_thin_triangle_fails(self):
        sys = hex_packing_example(GAMMA)
        from thickset.scalars import interval_sqrt

        alpha_sq = Q(1, 10000)
        alpha = interval_sqrt(Interval.point(alpha_sq), 128)
        maps = vertex_maps(alpha, Q(1, 100), alpha_sq)
        with pytest.raises(HypothesisError):
            triangle_disk(sys, maps, HEX_R)

    def test_linf_rejected(self):
        e = equilateral()
        maps = vertex_maps(e.alpha, Q(1, 2), e.alpha_sq)
        with pytest.raises(InputError):
            triangle_disk(grid(), maps, Q(1, 5))


class TestFindTriangleNd:
    def test_hex_equilateral_depth6(self):
        sys = hex_packing_example(GAMMA)
        wit = find_triangle_nd(sys, equilateral(), HEX_R, depth=6)
        assert wit.hypotheses_report["side_ratio_deviation"] <= Q(1, 10**4)
        assert wit.defect.hi <= wit.residual
        assert wit.hypotheses_report["threshold"].lo > 4
        # threshold for the equilateral class is exactly 2/(1-2r)
        thr = wit.hypotheses_report["threshold"]
        r = HEX_R
        assert thr.lo == 2 / (1 - 2 * r)

    def test_residual_contraction(self):
        sys = hex_packing_example(GAMMA)
        w6 = find_triangle_nd(sys, equilateral(), HEX_R, depth=6)
        w7 = find_triangle_nd(sys, equilateral(), HEX_R, depth=7)
        assert w7.residual / w6.residual <= Q(13, 100)

    def test_right_isoceles(self):
        sys = hex_packing_example(GAMMA)
        t = Triangle.make([(0, 0), (1, 0), (0, 1)])
        wit = find_triangle_nd(sys, t, HEX_R, depth=5)
        assert wit.defect.hi <= wit.residual

    def test_collinear_rejected(self):
        sys = hex_packing_example(GAMMA)
        t = Triangle.make([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(InputError):
            find_triangle_nd(sys, t, HEX_R, depth=4)

    def test_disk_center_norm_inequality(self):
        # with designated children in the half ball, the disk center obeys
        # |f(c_A) - g(c_B)| <= (s_f + s_g)/2 - h_root * x
        from thickset.balls import h_upper
        from thickset.patterns_nd import _norm, triangle_disk, x_constant

        sys = hex_packing_example(GAMMA)
        e = equilateral()
        maps = vertex_maps(e.alpha, Q(1, 2), e.alpha_sq)
        disk, _ = triangle_disk(sys, maps, HEX_R)
        center_norm = _norm(disk.center)
        h0 = h_upper(sys, ())
        x = x_constant(HEX_R)
        bound = (maps.s_f + maps.s_g) / 2 - h0 * x
        assert center_norm.certainly_le(Interval.point(bound.lo))


# -- pair refinement ---------------------------------------------------------


def interval_dfs(sys, map_a, map_b, start_a, start_b, depth):
    """The recursive pair search on point Intervals that the iterative
    engine replaced, kept as its reference."""

    def possibly_meet(wa, wb):
        ca, ra = map_a(sys.ball(wa))
        cb, rb = map_b(sys.ball(wb))
        gap_sq = _sq_norm(_vsub(ca, cb))
        reach = (ra + rb).square()
        return not gap_sq.certainly_gt(reach)

    def dfs(wa, wb):
        if len(wa) >= depth:
            return (wa, wb)
        na, nb = sys.child_count(wa), sys.child_count(wb)
        for i in range(na):
            for j in range(nb):
                ca, cb = wa + (i,), wb + (j,)
                if possibly_meet(ca, cb):
                    hit = dfs(ca, cb)
                    if hit is not None:
                        return hit
        return None

    if not possibly_meet(start_a, start_b):
        raise Indeterminate("designated pair images do not meet")
    hit = dfs(start_a, start_b)
    if hit is None:
        raise Indeterminate("pair refinement exhausted (no chain to the "
                            "requested depth)")
    return hit


def interval_combo_maps(lam, c):
    """The convex-combination maps of the replaced search."""

    def map_a(b):
        return (tuple(Interval.point(-lam * x) for x in b.center),
                Interval.point(lam * b.radius))

    def map_b(b):
        return (tuple(Interval.point((1 - lam) * x - cc)
                      for x, cc in zip(b.center, c)),
                Interval.point((1 - lam) * b.radius))

    return map_a, map_b


def outcome(search, *args):
    try:
        return search(*args)
    except Indeterminate as e:
        return str(e)


def _grid(seed):
    return lambda: grid_ifs_example(10, Q(19, 200), Q(1, 100), seed)


def _hex():
    return hex_packing_example(GAMMA)


def _triangle(apex):
    return Triangle.make([(0, 0), (1, 0), apex])


# Witnesses recorded with the recursive Interval search, on the inputs of
# the benchmark's plane pipelines: (system, search, arguments, refined
# words, target word, sha256 of repr(witness)).
COMBO, TRIANGLE = find_convex_combo_nd, find_triangle_nd
PINNED_WITNESSES = [
    (_grid(1), COMBO, (Q(1, 2), Q(27, 128), 3),
     ((0, 0, 4), (1, 98, 79)), (0, 49, 99),
     "76f72ffe7eba0c78832cd5635aa4b0c58701de00e21977c235499a945867b4da"),
    (_grid(1), COMBO, (Q(1, 2), Q(31, 128), 4),
     ((0, 0, 5, 40), (1, 98, 89, 98)), (0, 49, 99, 99),
     "db8882944d2e743999f7ad32cfcfef0a4952d03ba97cb836e6c74ad7f6b5196b"),
    (_grid(4), COMBO, (Q(1, 2), Q(27, 128), 3),
     ((0, 0, 93), (1, 88, 99)), (0, 49, 99),
     "b89964468c9b0bd9173075d4a414bf4bf70b7fa879822e598433ad6bf7b9f489"),
    (_grid(4), COMBO, (Q(1, 2), Q(31, 128), 4),
     ((0, 0, 4, 13), (1, 98, 89, 99)), (0, 49, 99, 99),
     "a89c47b4b2fc5f7f305c85b4aef327a815ec33105fe2bd43288900b3d8c2c1f8"),
    (_grid(6), COMBO, (Q(1, 2), Q(27, 128), 3),
     ((0, 0, 8), (1, 98, 95)), (0, 59, 9),
     "faac0a464f3f7eddc4c2caef37be89e24f9d814dc4b3ae992f0cc73c3123ae9c"),
    (_grid(6), COMBO, (Q(1, 2), Q(31, 128), 4),
     ((0, 0, 5, 3), (1, 98, 99, 98)), (0, 59, 9, 9),
     "fafb4fe8fa370f8fb8523a83163fdad2aa23d0d843b692c04935d450f4bf2152"),
    (_hex, TRIANGLE, (_triangle((Q(9, 20), Q(17, 20))), Q(35, 128), 4),
     ((0, 0, 0, 27), (1, 0, 51, 58)), (2, 1, 40, 35),
     "9e44441b5e2090b132e907789c0c757c598116238d4539c4eca252673c92f481"),
    (_hex, TRIANGLE, (_triangle((Q(1, 2), Q(7, 8))), Q(35, 128), 4),
     ((0, 0, 0, 19), (1, 0, 51, 41)), (2, 1, 69, 2),
     "fe5288f94d43b10f4a8b5a870cd03c9d4045150ab8faad3fccc079adc4687b20"),
    (_hex, TRIANGLE, (_triangle((Q(1, 3), Q(3, 4))), Q(35, 128), 4),
     ((0, 0, 0, 11), (1, 0, 59, 41)), (2, 7, 37, 32),
     "e3214273ca29d1ddae03e99e8380b0df8db2da458a9898474c7d2089df3a1faa"),
    (_hex, COMBO, (Q(1, 2), Q(37, 128), 4),
     ((0, 0, 15, 33), (1, 0, 56, 43)), (0, 43, 55, 83),
     "1bc31ddd698987974e00edc47d5e496c8349e17380cdb97af2e1a67547009c43"),
    (_hex, TRIANGLE, (equilateral(), Q(35, 128), 3),
     ((0, 0, 0), (1, 0, 29)), (2, 0, 43),
     "914d47e1e5154de5a14daa8d8e40b637f1e052ef23c4e23ce7414086bcc13c8e"),
    (_hex, TRIANGLE, (equilateral(), Q(35, 128), 4),
     ((0, 0, 0, 2), (1, 0, 51, 51)), (2, 0, 43, 55),
     "8080d2660db39af52828a6eca8d7ce861a15ab60c331d094a99094f457804888"),
]


def _chain_system(length):
    """Two chains of disks under the root, one per first-level child; at
    every level the two disks touch."""
    nodes = {}
    for first in (0, 1):
        word = (first,)
        for k in range(length):
            r = Q(1, k + 2)
            nodes[word] = Ball((2 * r * first, Q(0)), r)
            word += (0,)
    return BallSystem(Ball((Q(0), Q(0)), Q(2)), ExplicitTree(nodes))


def _identity(b):
    return tuple((x, x) for x in b.center), b.radius


class TestPairEngine:
    @pytest.mark.parametrize("make, search, args, words, target, digest",
                             PINNED_WITNESSES)
    def test_pinned_witnesses(self, make, search, args, words, target,
                              digest):
        sysv = make()
        wit = search(sysv, *args)
        rep = wit.hypotheses_report
        assert rep.get("c_word", rep.get("apex_word")) == target
        assert (wit.a, wit.b) == tuple(_ball_box(sysv.ball(w))
                                       for w in words)
        assert hashlib.sha256(repr(wit).encode()).hexdigest() == digest

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6),
           lam=st.fractions(Q(1, 64), Q(1, 2), max_denominator=64),
           depth=st.integers(1, 3),
           tail_a=st.lists(st.integers(0, 99), min_size=2, max_size=2),
           tail_b=st.lists(st.integers(0, 99), min_size=2, max_size=2),
           offset=st.sampled_from([Q(0), Q(1, 10**4), Q(1, 500),
                                   Q(1, 200), Q(1, 100), Q(1, 40)]))
    # a search that exhausts at depth 2
    @example(seed=997009, lam=Q(3, 16), depth=2, tail_a=[65, 19],
             tail_b=[92, 28], offset=Q(1, 40))
    def test_matches_interval_dfs(self, seed, lam, depth, tail_a, tail_b,
                                  offset):
        # the target combines two random depth-3 centers, shifted so some
        # searches exhaust or fail at the designated pair
        sysv = grid_ifs_example(10, Q(19, 200), Q(1, 100), seed)
        ca = sysv.ball((0, *tail_a)).center
        cb = sysv.ball((1, *tail_b)).center
        c = tuple(lam * x + (1 - lam) * y + offset for x, y in zip(ca, cb))
        want = outcome(interval_dfs, sysv, *interval_combo_maps(lam, c),
                       (0,), (1,), depth)
        got = outcome(_refine_pair, sysv, *_combo_images(lam, c),
                      (0,), (1,), depth)
        assert got == want

    def test_wide_images_match_interval_dfs(self):
        # the b-images are three wide; that of (1, 1) spans x in [-3, 0],
        # reaching the a-images only through its low end, and y in [1, 4],
        # where its low end touches them
        half = Q(1, 2)
        at_0 = Ball((Q(0), Q(0)), half)
        nodes = {(0,): at_0, (0, 0): at_0, (0, 1): at_0, (1,): at_0,
                 (1, 0): Ball((Q(20), Q(0)), half),
                 (1, 1): Ball((Q(0), Q(4)), half)}
        sysv = BallSystem(Ball((Q(0), Q(0)), Q(30)), ExplicitTree(nodes))

        def wide(b):
            return tuple((x - 3, x) for x in b.center), b.radius

        def map_id(b):
            return tuple(map(Interval.point, b.center)), Interval.point(
                b.radius)

        def map_wide(b):
            return tuple(Interval(x - 3, x) for x in b.center), \
                Interval.point(b.radius)

        want = interval_dfs(sysv, map_id, map_wide, (0,), (1,), 2)
        assert want == ((0, 0), (1, 1))
        assert _refine_pair(sysv, _identity, wide, (0,), (1,), 2) == want
        # the depth-2 balls have no children
        assert outcome(_refine_pair, sysv, _identity, wide, (0,), (1,), 3) \
            == outcome(interval_dfs, sysv, map_id, map_wide, (0,), (1,), 3) \
            == "pair refinement exhausted (no chain to the requested depth)"

    def test_chain_deeper_than_recursion_limit(self):
        length = _sys.getrecursionlimit() + 100
        sysv = _chain_system(length)
        wa, wb = _refine_pair(sysv, _identity, _identity, (0,), (1,), length)
        assert wa == (0,) * length and wb == (1,) + (0,) * (length - 1)

    def test_budget_counts_pair_tests(self, monkeypatch):
        # this search makes exactly 27 child-pair tests
        sysv = grid()
        monkeypatch.setenv("THICKSET_MAX_NODES", "27")
        wit = find_convex_combo_nd(sysv, Q(1, 2), Q(1, 5), depth=3)
        assert wit.depth_used == 3
        monkeypatch.setenv("THICKSET_MAX_NODES", "26")
        with pytest.raises(Indeterminate, match="budget of 26"):
            find_convex_combo_nd(sysv, Q(1, 2), Q(1, 5), depth=3)
