import dataclasses
import functools
import hashlib
import itertools
import random
import sys as _sys
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from thickset.balls import (
    Ball,
    BallSystem,
    ExplicitTree,
    HexPacking,
    L2,
    LINF,
    UNKNOWN,
    UniformityResult,
    grid_ifs_example,
    hex_packing_example,
    on_common_scale,
    yavicoli_thickness,
)
from thickset.errors import HypothesisError, Indeterminate, InputError
from thickset.patterns_nd import (
    APPENDIX,
    STANDARD,
    Disk,
    _apex,
    _ball_box,
    _certainly_inside,
    _combo_images,
    _deepest_center_in_disk,
    _designated_pair,
    _nearest_child,
    _norm,
    _refine_pair,
    _sq_norm,
    _triangle_images,
    _vsub,
    convex_combo_disk,
    find_convex_combo_nd,
    find_triangle_nd,
    lambda_window,
    threshold,
    triangle_disk,
    x_constant,
)
from thickset.product import (
    NormalizedTriangle,
    Triangle,
    equilateral,
    normalize_triangle,
)
from thickset.scalars import Interval

from oracles import ref_nearest_child, ref_refine_pair

GAMMA = Q(99999, 100000)
HEX_R = Q(26243, 100000)


def grid():
    return grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)


class TestThreshold:
    def test_combo_standard(self):
        t = threshold(Q(0), Q(1, 2), Q(1, 5))
        assert t.lo == t.hi == Q(10, 3)

    def test_combo_appendix(self):
        t = threshold(Q(0), Q(1, 2), Q(1, 5), APPENDIX)
        assert t.lo == t.hi == Q(5, 2)

    def test_triangle_equilateral_ratio_one(self):
        # alpha^2 + lam^2 = 1 exactly, so the ratio collapses to 1 and
        # the threshold equals the linear one at lam = 1/2
        e = equilateral()
        t = threshold(e.alpha_sq, Q(1, 2), Q(1, 5), STANDARD)
        assert t.lo == t.hi == Q(10, 3)

    def test_appendix_below_standard(self):
        for lam in (Q(1, 4), Q(2, 5), Q(1, 2)):
            for r in (Q(1, 10), Q(1, 5), Q(2, 5)):
                std = threshold(Q(0), lam, r, STANDARD)
                apx = threshold(Q(0), lam, r, APPENDIX)
                assert apx.hi < std.lo

    def test_lambda_range(self):
        with pytest.raises(InputError):
            threshold(Q(0), Q(3, 4), Q(1, 5))

    def test_linear_class_is_the_closed_form(self):
        # at alpha^2 = 0 the square root is the exact rational
        # (1-lam)/lam, so the triangle formula gives the linear
        # combination's closed forms, Fraction for Fraction
        def closed_form(lam, r, mode):
            one_minus_2r = 1 - 2 * Interval.coerce(r)
            if mode == STANDARD:
                return Interval.point(2 * (1 - lam)) / (lam * one_minus_2r)
            return Interval.point(3 * (1 - lam)) / (2 * lam * one_minus_2r)

        lams = [Q(k, 64) for k in range(1, 33)] + [Q(1, 10**9), Q(1, 3)]
        rs = (Q(1, 5), Q(26243, 100000), Interval(Q(1, 10), Q(3, 10)),
              Interval(Q(35, 128), Q(37, 128)))
        for lam, r, mode, bits in itertools.product(
                lams, rs, (STANDARD, APPENDIX), (8, 128)):
            got = threshold(Q(0), lam, r, mode, bits)
            want = closed_form(lam, r, mode)
            assert (got.lo, got.hi) == (want.lo, want.hi)

    def test_alpha_sq_is_a_rational(self):
        with pytest.raises(InputError):
            threshold(None, Q(1, 2), Q(1, 5))


class TestLambdaWindow:
    def test_grid_window(self):
        lo, hi = lambda_window(grid(), Q(1, 5))
        assert hi == Q(1, 2)
        assert abs(lo.mid - Q("0.27938814")) < Q(1, 10**6)

    def test_exact_boundary_threshold(self):
        # the closed form inverts the threshold: at the window's lower
        # endpoint the threshold equals the thickness bound exactly, in
        # either mode
        sys = grid()
        tau = yavicoli_thickness(sys).lower_bound.lo
        for mode in (STANDARD, APPENDIX):
            lo, _ = lambda_window(sys, Q(1, 5), mode)
            t = threshold(Q(0), lo.lo, Q(1, 5), mode)
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
    """The scalings s_f and s_g of the vertex maps f and g come from the
    class (``NormalizedTriangle.side_ratios``)."""

    def test_equilateral_scales_are_one(self):
        s_f, s_g = equilateral().side_ratios(128)
        assert s_f.lo == s_f.hi == 1
        assert s_g.lo == s_g.hi == 1

    def test_half_half(self):
        s_f, s_g = _class(Q(1, 2), Q(1, 2)).side_ratios(128)
        # s_f = s_g = sqrt(1/2)
        assert s_f.lo <= s_g.hi and s_g.lo <= s_f.hi
        sq = s_f.square()
        assert sq.lo <= Q(1, 2) <= sq.hi

    def test_search_encloses_no_angle(self, monkeypatch):
        # the maps act by their matrices; no rotation angle is needed
        import thickset.scalars as scalars

        calls = []
        atan_bounds = scalars._atan_bounds

        def counted(q, bits):
            calls.append(q)
            return atan_bounds(q, bits)

        monkeypatch.setattr(scalars, "_atan_bounds", counted)
        find_triangle_nd(hex_packing_example(GAMMA), equilateral(), HEX_R,
                         depth=3)
        assert calls == []

    def test_degenerate_rejected(self):
        with pytest.raises(InputError, match="admissible region"):
            triangle_disk(_hex(), _class(Q(0), Q(1, 2)), HEX_R)

    def test_height_must_enclose_root(self):
        # a height enclosure of another class than alpha_sq's
        with pytest.raises(InputError, match="enclose the square root"):
            NormalizedTriangle(Interval.point(Q(1, 10)), Q(3, 4), Q(1, 2))


class TestTriangleDisk:
    def test_hex_equilateral(self):
        sys = hex_packing_example(GAMMA)
        disk, report = triangle_disk(sys, equilateral(), HEX_R)
        assert report["containment"] == "half_ball"
        assert report["disk_meets_set"] in ("disk_inside_root",
                                            "boundary_overlap")
        assert disk.radius.lo > 0

    def test_region_sweep(self):
        # thresholds across most of the admissible rectangle stay below
        # the thickness bound of the modified arrangement; the thin
        # corner (small alpha at lam = 3/10) genuinely exceeds it since
        # the ratio grows like (1-lam)/lam as alpha -> 0
        sys = hex_packing_example(GAMMA)
        tau = yavicoli_thickness(sys).lower_bound
        holds = []
        for lam in (Q(3, 10), Q(2, 5), Q(1, 2)):
            for alpha_sq in (Q(1, 100), Q(1, 4), Q(3, 4)):
                if alpha_sq + (1 - lam) ** 2 > 1:
                    continue
                t = threshold(alpha_sq, lam, HEX_R, STANDARD)
                holds.append(((lam, alpha_sq),
                              Interval.point(tau.lo).certainly_ge(t)))
        failing = {key for key, ok in holds if not ok}
        assert failing == {(Q(3, 10), Q(1, 100))}

    def test_thin_triangle_fails(self):
        sys = hex_packing_example(GAMMA)
        from thickset.scalars import interval_sqrt

        alpha_sq = Q(1, 10000)
        alpha = interval_sqrt(Interval.point(alpha_sq), 128)
        tri = NormalizedTriangle(alpha, alpha_sq, Q(1, 100))
        with pytest.raises(HypothesisError):
            triangle_disk(sys, tri, HEX_R)

    def test_linf_rejected(self):
        with pytest.raises(InputError):
            triangle_disk(grid(), equilateral(), Q(1, 5))


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
        disk, report = triangle_disk(sys, equilateral(), HEX_R)
        center_norm = _norm(disk.center)
        h0 = h_upper(sys, ())
        x = x_constant(HEX_R)
        bound = (report["s_f"] + report["s_g"]) / 2 - h0 * x
        assert center_norm.certainly_le(Interval.point(bound.lo))


# -- hypothesis failures -----------------------------------------------------


def _class(alpha, lam):
    """The similarity class of a rational apex height."""
    return NormalizedTriangle(Interval.point(alpha), alpha * alpha, lam)


def _far_hex():
    """The hex system with its root moved to (10, 0)."""
    return BallSystem(Ball((Q(10), Q(0)), Q(1), L2), HexPacking(GAMMA))


def _designating_hex(designated):
    """The hex system at GAMMA with another designated pair, shrunk by
    gamma in its place, as ``_explicit`` designates for trees."""
    gen = type("Designating", (HexPacking,), {"designated": designated})
    return BallSystem(_hex().root, gen(GAMMA))


def _explicit(nodes, designated=(0, 1), norm=L2):
    """An explicit tree under the unit root ball.  Every builder
    designates the root children (0, 1); another pair needs a generator
    of its own."""
    gen = ExplicitTree if designated == (0, 1) else \
        type("Designating", (ExplicitTree,), {"designated": designated})
    return BallSystem(Ball((Q(0), Q(0)), Q(1), norm),
                      gen({w: Ball(b.center, b.radius, norm)
                           for w, b in nodes.items()}))


# a root with one child, so the designated child 1 is out of range
ONE_CHILD = {(0,): Ball((Q(0), Q(0)), Q(1, 2))}
# two root children that touch at the origin
TOUCHING_PAIR = {(0,): Ball((Q(-1, 2), Q(0)), Q(1, 2)),
                 (1,): Ball((Q(1, 2), Q(0)), Q(1, 2))}


def _loose_norms(call):
    """``call`` run with every norm enclosure of the disk pipelines
    widened by 2, the hex root's diameter.  No admitted input places its
    disk center near the root's boundary (the disk-meets-set bound), so
    only an enclosure this loose leaves the check uncertified."""
    import thickset.patterns_nd as nd

    def run():
        exact = nd._norm
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nd, "_norm", lambda a, bits=128:
                       exact(a, bits) + Interval(Q(0), Q(2)))
            return call()
    return run


LOW, THIN = (Q(3, 10), Q(1, 10)), (Q(1, 100), Q(1, 100))
TIE, R_TIE = (Q(2, 5), Q(4, 5)), Q(339446, 981621)  # tau inside thr at 16 bits
R_WIDE = Interval(Q(340, 10000), Q(355, 10000))  # thr at lam = 1/5 spans tau
OUT_OF_RANGE = "designated child index out of range"
TOUCHING = "designated child 0 is not disjoint from sibling 1"
DISTANCE_CHILD = ("appendix mode needs the distance-child condition; it "
                  "fails for designated child 0")
HEX_BELOW = "thickness lower bound 7.25076626 ± 0.00000000 is below the "
NOT_L2 = "triangle search needs a Euclidean-norm system"
NOT_UNIFORM = "system is not r-uniformly dense"
UNDECIDED = "threshold comparison undecided at the current precision"
NOT_MEETS = "disk-meets-set condition not certified"
NO_TARGET = "no ball center certified inside the disk"  # depth 0

# Each failing input through the disk functions and the public drivers,
# with the exception type and message the pipelines raise; the cases
# named "a-before-b" fail both ways and pin which check runs first.
FAILURES = [
    ("range-combo-disk", lambda: convex_combo_disk(
        _explicit(ONE_CHILD), Q(1, 2), Q(1, 5)),
     "InputError", OUT_OF_RANGE),
    ("range-combo", lambda: find_convex_combo_nd(
        _explicit(ONE_CHILD), Q(1, 2), Q(1, 5), 3),
     "InputError", OUT_OF_RANGE),
    ("range-triangle-disk", lambda: triangle_disk(
        _explicit(ONE_CHILD), equilateral(), HEX_R),
     "InputError", OUT_OF_RANGE),
    ("range-triangle", lambda: find_triangle_nd(
        _explicit(ONE_CHILD), equilateral(), HEX_R, 3),
     "InputError", OUT_OF_RANGE),
    ("touch-combo-disk", lambda: convex_combo_disk(
        hex_packing_example(1), Q(1, 2), HEX_R),
     "HypothesisError", TOUCHING),
    ("touch-combo", lambda: find_convex_combo_nd(
        hex_packing_example(1), Q(1, 2), HEX_R, 3),
     "HypothesisError", TOUCHING),
    ("touch-triangle-disk", lambda: triangle_disk(
        hex_packing_example(1), equilateral(), HEX_R),
     "HypothesisError", TOUCHING),
    ("touch-triangle", lambda: find_triangle_nd(
        hex_packing_example(1), equilateral(), HEX_R, 3),
     "HypothesisError", TOUCHING),
    ("touch-before-range", lambda: triangle_disk(
        _explicit(TOUCHING_PAIR, (0, 2)), equilateral(), HEX_R),
     "HypothesisError", TOUCHING),
    ("range-before-touch", lambda: triangle_disk(
        _explicit(TOUCHING_PAIR, (2, 0)), equilateral(), HEX_R),
     "InputError", OUT_OF_RANGE),
    ("touch-before-appendix", lambda: convex_combo_disk(
        hex_packing_example(1), Q(1, 2), HEX_R, APPENDIX),
     "HypothesisError", TOUCHING),
    ("below-combo-disk", lambda: convex_combo_disk(
        grid(), Q(1, 5), Q(1, 5)),
     "HypothesisError",
     "thickness lower bound 8.59750000 is below the threshold 13.33333333"),
    ("below-combo", lambda: find_convex_combo_nd(
        grid(), Q(1, 5), Q(1, 5), 3),
     "HypothesisError",
     "thickness lower bound 8.59750000 is below the threshold 13.33333333"),
    ("enlarged-triangle-disk", lambda: triangle_disk(
        _designating_hex((0, 14)), equilateral(), HEX_R),
     "HypothesisError", "designated children not certified inside the "
     "half ball (or its enlargement)"),
    ("below-triangle-disk", lambda: triangle_disk(
        _hex(), _class(LOW[1], LOW[0]), HEX_R),
     "HypothesisError", HEX_BELOW + "threshold 9.41224893 ± 0.00000000"),
    ("below-triangle", lambda: find_triangle_nd(
        _hex(), _triangle(LOW), HEX_R, 3),
     "HypothesisError", HEX_BELOW + "threshold 9.41224893 ± 0.00000000"),
    ("lambda-combo-disk", lambda: convex_combo_disk(
        grid(), Q(3, 4), Q(1, 5)),
     "InputError", "lambda must lie in (0, 1/2]"),
    ("mode-combo-disk", lambda: convex_combo_disk(
        grid(), Q(1, 2), Q(1, 5), "bogus"),
     "InputError", "unknown mode 'bogus'"),
    ("mode-triangle", lambda: find_triangle_nd(
        _hex(), equilateral(), HEX_R, 3, "bogus"),
     "InputError", "unknown mode 'bogus'"),
    ("appendix-combo-disk", lambda: convex_combo_disk(
        _hex(), Q(1, 2), HEX_R, APPENDIX),
     "HypothesisError", DISTANCE_CHILD),
    ("appendix-combo", lambda: find_convex_combo_nd(
        _hex(), Q(1, 2), HEX_R, 3, APPENDIX),
     "HypothesisError", DISTANCE_CHILD),
    ("appendix-triangle-disk", lambda: triangle_disk(
        _hex(), equilateral(), HEX_R, APPENDIX),
     "HypothesisError", DISTANCE_CHILD),
    ("appendix-triangle", lambda: find_triangle_nd(
        _hex(), equilateral(), HEX_R, 3, APPENDIX),
     "HypothesisError", DISTANCE_CHILD),
    ("below-before-appendix", lambda: find_triangle_nd(
        _hex(), _triangle(THIN), HEX_R, 3, APPENDIX),
     "HypothesisError", HEX_BELOW + "threshold 221.01004702 ± 0.00000000"),
    ("linf-triangle-disk", lambda: triangle_disk(
        grid(), equilateral(), Q(1, 5)),
     "InputError", NOT_L2),
    ("linf-triangle", lambda: find_triangle_nd(
        grid(), equilateral(), Q(1, 5), 3),
     "InputError", NOT_L2),
    ("linf-before-range", lambda: triangle_disk(
        _explicit(ONE_CHILD, norm=LINF), equilateral(), Q(1, 5)),
     "InputError", NOT_L2),
    ("thin-triangle-disk", lambda: triangle_disk(
        _hex(), _class(*THIN), HEX_R),
     "HypothesisError", HEX_BELOW + "threshold 294.68006269 ± 0.00000000"),
    ("thin-triangle", lambda: find_triangle_nd(
        _hex(), _triangle(THIN), HEX_R, 3),
     "HypothesisError", HEX_BELOW + "threshold 294.68006269 ± 0.00000000"),
    ("uniform-combo", lambda: find_convex_combo_nd(
        grid(), Q(1, 2), Q(19, 400), 3),
     "HypothesisError", NOT_UNIFORM),
    ("uniform-triangle", lambda: find_triangle_nd(
        _hex(), equilateral(), Q(1, 20), 3),
     "HypothesisError", NOT_UNIFORM),
    ("below-before-uniform", lambda: find_convex_combo_nd(
        grid(), Q(1, 5), Q(19, 400), 3),
     "HypothesisError",
     "thickness lower bound 8.59750000 is below the threshold 8.83977901"),
    ("target-combo", lambda: find_convex_combo_nd(
        grid(), Q(1, 2), Q(1, 5), 0),
     "Indeterminate", NO_TARGET),
    ("target-triangle", lambda: find_triangle_nd(
        _hex(), equilateral(), HEX_R, 0),
     "Indeterminate", NO_TARGET),
    ("uniform-before-target", lambda: find_convex_combo_nd(
        grid(), Q(1, 2), Q(19, 400), 0),
     "HypothesisError", NOT_UNIFORM),
    ("undecided-combo-disk", lambda: convex_combo_disk(
        grid(), Q(1, 5), R_WIDE),
     "Indeterminate", UNDECIDED),
    ("undecided-combo", lambda: find_convex_combo_nd(
        grid(), Q(1, 5), R_WIDE, 3),
     "Indeterminate", UNDECIDED),
    ("undecided-triangle-disk", lambda: triangle_disk(
        _hex(), _class(TIE[1], TIE[0]), R_TIE, bits=16),
     "Indeterminate", UNDECIDED),
    ("undecided-triangle", lambda: find_triangle_nd(
        _hex(), _triangle(TIE), R_TIE, 3, bits=16),
     "Indeterminate", UNDECIDED),
    ("meets-triangle-disk", _loose_norms(lambda: triangle_disk(
        _hex(), equilateral(), HEX_R)),
     "Indeterminate", NOT_MEETS),
    ("meets-triangle", _loose_norms(lambda: find_triangle_nd(
        _hex(), equilateral(), HEX_R, 3)),
     "Indeterminate", NOT_MEETS),
]


@pytest.mark.parametrize("call, kind, message",
                         [case[1:] for case in FAILURES],
                         ids=[case[0] for case in FAILURES])
def test_failure_outcomes(call, kind, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value).__name__, str(info.value)) == (kind, message)


def test_designated_pair_puts_the_smaller_ball_first():
    big = Ball((Q(-1, 2), Q(0)), Q(3, 8))
    small = Ball((Q(1, 2), Q(0)), Q(1, 4))
    ia, ib, ball_a, ball_b = _designated_pair(
        _explicit({(0,): big, (1,): small}))
    assert (ia, ib, ball_a.radius, ball_b.radius) == (1, 0, Q(1, 4), Q(3, 8))


def test_far_root_finds_the_centered_witness():
    # f - g is the identity, so moving the root moves the disk with it;
    # the disk-meets-set check measures the disk center from the root
    wit = find_triangle_nd(_far_hex(), equilateral(), HEX_R, 3)
    centered = find_triangle_nd(_hex(), equilateral(), HEX_R, 3)
    assert wit.hypotheses_report["disk_meets_set"] == "disk_inside_root"
    assert wit.hypotheses_report["apex_word"] \
        == centered.hypotheses_report["apex_word"]


def test_unknown_uniformity_is_indeterminate(monkeypatch):
    import thickset.patterns_nd as nd

    monkeypatch.setattr(nd, "r_uniformity_check",
                        lambda sys, r: UniformityResult(UNKNOWN))
    with pytest.raises(Indeterminate, match="r-uniformity not certified"):
        find_convex_combo_nd(grid(), Q(1, 2), Q(1, 5), 3)


def test_triangle_disk_threshold_exact_from_class():
    # the class carries alpha^2, so the equilateral threshold is the exact
    # point 2/(1-2r), as find_triangle_nd reports it
    _, report = triangle_disk(_hex(), equilateral(), HEX_R)
    thr = report["threshold"]
    assert thr.lo == thr.hi == 2 / (1 - 2 * HEX_R)


def test_enlarged_ball_containment():
    # child 10 sits beyond the half ball, but within its enlargement
    # 1/2 + t_min - h*x/(2 s_f); the inequality is checked here in plain
    # Fractions, with isqrt brackets for every square root
    from math import isqrt

    sys = _designating_hex((0, 10))
    _, report = triangle_disk(sys, equilateral(), HEX_R)
    assert report["containment"] == "enlarged_ball"
    n = 2 ** 64
    sqrt3_hi = Q(isqrt(3 * n * n) + 1, n)
    rho, root = HexPacking.rho, sys.root
    h_hi = ((1 - GAMMA) * rho + (2 * sqrt3_hi - 3) / 3 * rho / (1 + rho)) \
        * root.radius
    x = 1 - 2 * HEX_R / (1 - 2 * HEX_R)  # standard mode; s_f = 1
    t_min = min(sys.ball((j,)).radius for j in range(85))
    enlarged = root.radius / 2 + t_min - h_hi * x / 2
    outside = []
    for j in report["children"]:
        ball = sys.ball((j,))
        d2 = sum((c - o) ** 2 for c, o in zip(ball.center, root.center))
        m = d2.denominator
        root_lo = Q(isqrt(d2.numerator * m), m)
        root_hi = Q(isqrt(d2.numerator * m) + 1, m)
        assert root_hi + ball.radius <= enlarged
        if root_lo + ball.radius > root.radius / 2:
            outside.append(j)
    assert outside == [10]


def test_center_descent_measures_every_coordinate():
    # one child, on the axis the first two coordinates do not see
    child = Ball((Q(0), Q(0), Q(1, 2)), Q(1, 4))
    sysv = BallSystem(Ball((Q(0), Q(0), Q(0)), Q(1)),
                      ExplicitTree({(0,): child}))
    gap = _vsub(tuple(map(Interval.point, child.center)),
                (Q(0), Q(0), Q(-1, 2)))
    assert _sq_norm(gap) == Interval.point(Q(1))

    def disk_at(z):
        return Disk(tuple(map(Interval.point, (Q(0), Q(0), z))),
                    Interval.point(Q(1, 10)))

    assert _deepest_center_in_disk(sysv, disk_at(Q(1, 2)), 1) \
        == _deepest_center_in_disk(sysv, disk_at(Q(1, 2)), 3) \
        == ((0,), child.center)  # the descent stops at the table's leaf
    with pytest.raises(Indeterminate, match="no ball center"):
        _deepest_center_in_disk(sysv, disk_at(Q(-1, 2)), 1)


class TestCertainlyInside:
    """The target test compares two rationals where it compared the norm
    enclosure with the radius; both must decide alike."""

    @staticmethod
    def enclosure_test(center, disk, bits):
        return _norm(_vsub(center, disk.center), bits).certainly_lt(
            disk.radius)

    def test_matches_norm_enclosure(self):
        rng = random.Random(23)
        sys = _hex()
        centers = []
        for _ in range(12):  # lattice centers at random words
            w = tuple(rng.randrange(85) for _ in range(rng.randint(1, 3)))
            centers.append(sys.ball(w).center)
        tri, _ = triangle_disk(sys, equilateral(), HEX_R)
        assert not all(c.is_point() for c in tri.center)  # alpha = sqrt3/2
        combo, _ = convex_combo_disk(grid(), Q(1, 2), Q(1, 5))
        disk_centers = [tri.center, combo.center,
                        (Interval(Q(-1, 3), Q(1, 7)),
                         Interval.point(Q(2, 9)))]
        eps = Q(1, 2 ** 300)
        seen = set()
        for bits in (8, 128):
            for dc in disk_centers:
                for c in centers:
                    upper = _norm(_vsub(c, dc), bits).hi
                    for lo in (upper - eps, upper, upper + eps,
                               Q(rng.randint(1, 400), 200)):
                        disk = Disk(dc, Interval(lo, lo + 1))
                        got = _certainly_inside(c, disk, bits)
                        assert got == self.enclosure_test(c, disk, bits)
                        seen.add(got)
        assert seen == {True, False}


# -- pair refinement ---------------------------------------------------------


def interval_dfs(sys, map_a, map_b, start_a, start_b, depth):
    """The recursive pair search on point Intervals that the iterative
    engine replaced, kept as its reference.  ``sys.ball`` is
    deterministic, so memoizing the images leaves every decision as it
    was."""
    image_a = functools.cache(lambda w: map_a(sys.ball(w)))
    image_b = functools.cache(lambda w: map_b(sys.ball(w)))

    def possibly_meet(wa, wb):
        ca, ra = image_a(wa)
        cb, rb = image_b(wb)
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


def _identity(lat, s):
    """The identity image map on lattice balls: the image scale is s."""
    return tuple((x, x) for x in lat[:-1]), lat[-1]


def _rigid(e):
    """The spread of an image map that translates the ball: its ends move
    with the center and its widths stay."""
    return e, 0


def _identity_projection(cells, s):
    """The projection of ``_identity``: the cells' first coordinates, no
    widths and the largest radius."""
    return [c[0] for c in cells], [0] * len(cells), max(c[-1] for c in cells)


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
        image_a, image_b, spread_b, project_b = _combo_images(lam, c)
        got = outcome(_refine_pair, sysv, image_a, image_b, spread_b,
                      (0,), (1,), depth, project_b)
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

        def wide(lat, s):
            return tuple((x - 3 * s, x) for x in lat[:-1]), lat[-1]

        def wide_projection(cells, s):
            return ([c[0] - 3 * s for c in cells], [3 * s] * len(cells),
                    max(c[-1] for c in cells))

        def map_id(b):
            return tuple(map(Interval.point, b.center)), Interval.point(
                b.radius)

        def map_wide(b):
            return tuple(Interval(x - 3, x) for x in b.center), \
                Interval.point(b.radius)

        want = interval_dfs(sysv, map_id, map_wide, (0,), (1,), 2)
        assert want == ((0, 0), (1, 1))
        assert _refine_pair(sysv, _identity, wide, _rigid, (0,), (1,),
                            2, wide_projection) == want
        # the depth-2 balls have no children
        assert outcome(_refine_pair, sysv, _identity, wide, _rigid, (0,),
                       (1,), 3, wide_projection) \
            == outcome(interval_dfs, sysv, map_id, map_wide, (0,), (1,), 3) \
            == "pair refinement exhausted (no chain to the requested depth)"

    def test_backtracks_past_a_dead_end(self):
        # the first pair that meets, ((0, 0), (1, 0)), has no children;
        # the search backs up to ((0, 1), (1, 1)), whose children meet
        def at(x, r):
            return Ball((Q(x), Q(0)), r)

        half, quarter, eighth = Q(1, 2), Q(1, 4), Q(1, 8)
        nodes = {(0,): at(0, half), (1,): at(0, half),
                 (0, 0): at(0, quarter), (1, 0): at(0, quarter),
                 (0, 1): at(5, quarter), (1, 1): at(5, quarter),
                 (0, 1, 0): at(5, eighth), (1, 1, 0): at(5, eighth)}
        sysv = BallSystem(Ball((Q(0), Q(0)), Q(30)), ExplicitTree(nodes))

        def map_id(b):
            return tuple(map(Interval.point, b.center)), Interval.point(
                b.radius)

        want = ((0, 1, 0), (1, 1, 0))
        assert interval_dfs(sysv, map_id, map_id, (0,), (1,), 3) == want
        assert _refine_pair(sysv, _identity, _identity, _rigid, (0,), (1,),
                            3, _identity_projection) == want

    def test_chain_deeper_than_recursion_limit(self):
        length = _sys.getrecursionlimit() + 100
        sysv = _chain_system(length)
        wa, wb = _refine_pair(sysv, _identity, _identity, _rigid, (0,), (1,),
                              length, _identity_projection)
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


def ball_builds(monkeypatch, call) -> tuple[int, int]:
    """``Ball`` constructions during ``call``: in all, and inside the pair
    engine and the center descent."""
    import thickset.patterns_nd as nd

    total, inside, depth = [0], [0], [0]
    init = Ball.__init__

    def counting_init(self, *args, **kwargs):
        total[0] += 1
        inside[0] += depth[0] > 0
        init(self, *args, **kwargs)

    def watched(f):
        def run(*args, **kwargs):
            depth[0] += 1
            try:
                return f(*args, **kwargs)
            finally:
                depth[0] -= 1
        return run

    with monkeypatch.context() as m:
        m.setattr(Ball, "__init__", counting_init)
        for name in ("_refine_pair", "_deepest_center_in_disk"):
            m.setattr(nd, name, watched(getattr(nd, name)))
        call()
    return total[0], inside[0]


class TestBallBuilds:
    # the descents walk lattice balls; only reported balls are built, so
    # the count does not grow with the depth
    CASES = [
        (grid, lambda s, d: find_convex_combo_nd(s, Q(1, 2), Q(1, 5), d)),
        (_hex, lambda s, d: find_triangle_nd(s, equilateral(), HEX_R, d)),
    ]

    @pytest.mark.parametrize("make, search", CASES)
    def test_descents_build_no_balls(self, monkeypatch, make, search):
        sysv = make()
        _, inside = ball_builds(monkeypatch, lambda: search(sysv, 6))
        assert inside == 0

    @pytest.mark.parametrize("make, search", CASES)
    def test_builds_do_not_grow_with_depth(self, monkeypatch, make, search):
        sysv = make()
        shallow, _ = ball_builds(monkeypatch, lambda: search(sysv, 4))
        deep, _ = ball_builds(monkeypatch, lambda: search(sysv, 8))
        assert deep <= shallow + 2 * 4


# The benchmark's plane pipeline jobs at seed 1 (r = 31/128 on the grids,
# 37/128 on the hex system, depth 4), with the lattice children each
# derived in all and inside the pair refinement when every b-side fan and
# every nearest-child fan was derived whole, and only the a-side children
# lazily.  Deriving every fan whole takes 1110/602 on each grid, 1030/512
# for each triangle and 945/512 for the hex combination.
SEED1_PIPELINES = [
    (_grid(1), COMBO, (Q(1, 2), Q(31, 128), 4), 858, 350),
    (_grid(4), COMBO, (Q(1, 2), Q(31, 128), 4), 830, 322),
    (_grid(6), COMBO, (Q(1, 2), Q(31, 128), 4), 821, 313),
    (_hex, TRIANGLE, (_triangle((Q(9, 20), Q(17, 20))), Q(37, 128), 4),
     805, 287),
    (_hex, TRIANGLE, (_triangle((Q(1, 2), Q(7, 8))), Q(37, 128), 4),
     797, 279),
    (_hex, TRIANGLE, (_triangle((Q(1, 3), Q(3, 4))), Q(37, 128), 4),
     789, 271),
    (_hex, COMBO, (Q(1, 2), Q(37, 128), 4), 741, 308),
]
# Row by row: the child-pair tests that the pair refinement charges and
# those it runs, and the children derived now, in all and inside the pair
# refinement.  The charges are every pair in a first-coordinate window;
# the tests, 34 in all, only those that the second coordinates leave.
SEED1_COUNTS = [
    (791, 8, 244, 132),
    (168, 5, 137, 25),
    (58, 4, 129, 17),
    (5, 4, 805, 287),
    (3, 3, 797, 279),
    (8, 6, 789, 271),
    (11, 4, 741, 308),
]


def seed1_counts(*row) -> tuple[int, int, int, int]:
    return SEED1_COUNTS[SEED1_PIPELINES.index(row)]


@pytest.mark.parametrize("make, search, args, whole_total, whole_refined",
                         SEED1_PIPELINES)
def test_children_derived_per_pipeline(monkeypatch, make, search, args,
                                       whole_total, whole_refined):
    import thickset.patterns_nd as nd

    *_, total, refined = seed1_counts(make, search, args, whole_total,
                                      whole_refined)
    sysv = make()
    derived, inside = [0], [0]
    method, refine_pair = type(sysv.generator).children, nd._refine_pair

    def counted(self, parent, word, indices):
        kids = method(self, parent, word, indices)
        derived[0] += len(kids)
        return kids

    def refine(*a):
        before = derived[0]
        try:
            return refine_pair(*a)
        finally:
            inside[0] += derived[0] - before

    monkeypatch.setattr(type(sysv.generator), "children", counted)
    monkeypatch.setattr(nd, "_refine_pair", refine)
    search(sysv, *args)
    assert (derived[0], inside[0]) == (total, refined)
    assert total <= whole_total and refined <= whole_refined


def pair_counts(monkeypatch, call) -> tuple[int, int]:
    """The child-pair tests that ``descend`` charges to the budget during
    ``call``, bulk charges included, and those it runs, one per call of
    its test function."""
    import thickset.patterns_nd as nd

    charged, run, descend = [0], [0], nd.descend

    def counting(first, children, ok, *args, **kwargs):
        def frame(items):
            for item in items:
                charged[0] += item[0]
                yield item

        def tested(x, y):
            run[0] += 1
            return ok(x, y)
        return descend(frame(first), lambda *p: frame(children(*p)), tested,
                       *args, **kwargs)

    monkeypatch.setattr(nd, "descend", counting)
    call()
    return charged[0], run[0]


def pair_tests(monkeypatch, call) -> int:
    """The child-pair tests charged during ``call``."""
    return pair_counts(monkeypatch, call)[0]


@pytest.mark.parametrize("make, search, args, whole_total, whole_refined",
                         SEED1_PIPELINES)
def test_pair_tests_per_pipeline(monkeypatch, make, search, args,
                                 whole_total, whole_refined):
    charged, run, _, _ = seed1_counts(make, search, args, whole_total,
                                      whole_refined)
    sysv = make()
    assert pair_counts(monkeypatch, lambda: search(sysv, *args)) \
        == (charged, run)


def derived_children(monkeypatch, sysv, call) -> int:
    """The children ``sysv``'s generator derives during ``call``."""
    derived, method = [0], type(sysv.generator).children

    def counted(self, parent, word, indices):
        kids = method(self, parent, word, indices)
        derived[0] += len(kids)
        return kids

    monkeypatch.setattr(type(sysv.generator), "children", counted)
    call()
    monkeypatch.undo()
    return derived[0]


class TestNearestChild:
    """The sorted-projection step takes the child that an argmin over the
    whole fan, in rationals, takes."""

    MAKES = [_grid(1), _grid(7), _hex,
             lambda: hex_packing_example(Q(1, 2))]

    @staticmethod
    def nearest(sysv, word, point) -> int:
        den, nums = on_common_scale(point)
        s = sysv.scale(len(word) + 1)
        j, lat = _nearest_child(sysv, word, sysv.lattice(word),
                                tuple(x * s for x in nums), den)
        assert lat == sysv.kids(word)[j]
        return j

    @staticmethod
    def words(sysv, rng):
        """The root, a depth-1 word and a depth-3 word."""
        return [(), (rng.randrange(sysv.child_count(())),),
                tuple(rng.randrange(sysv.child_count(())) for _ in range(3))]

    @pytest.mark.parametrize("make", MAKES)
    def test_random_guides(self, make):
        sysv, rng = make(), random.Random(3)
        for word in self.words(sysv, rng):
            ball = sysv.ball(word)
            for spread in (Q(1, 10), Q(1), Q(5)):
                for _ in range(8):
                    point = tuple(c + Q(rng.randint(-1000, 1000), 1000)
                                  * spread * ball.radius
                                  for c in ball.center)
                    assert self.nearest(sysv, word, point) \
                        == ref_nearest_child(sysv, word, point)

    @pytest.mark.parametrize("make", MAKES)
    def test_equidistant_guide_takes_the_lower_index(self, make):
        # the midpoint of two neighbouring children is equally far from
        # both, and nearer to them than to any other child
        sysv, rng = make(), random.Random(4)
        for word in self.words(sysv, rng):
            kids = sysv.children(word)
            for i in rng.sample(range(len(kids)), 4):
                j = min((k for k in range(len(kids)) if k != i),
                        key=lambda k: sum((a - b) ** 2 for a, b in zip(
                            kids[k].center, kids[i].center)))
                point = tuple((a + b) / 2 for a, b in
                              zip(kids[i].center, kids[j].center))
                dist = [sum((a - b) ** 2 for a, b in zip(k.center, point))
                        for k in kids]
                assert dist[i] == dist[j] == min(dist)
                assert self.nearest(sysv, word, point) \
                    == ref_nearest_child(sysv, word, point) == min(i, j)

    def test_perturbed_level_derives_few_children(self, monkeypatch):
        # below the root the grid's cells are unperturbed; a guide at a
        # child's center derives that child and few others
        sysv = _grid(1)()
        word = (3, 41)
        lat, s = sysv.lattice(word), sysv.scale(3)
        den, nums = on_common_scale(sysv.children(word)[57].center)
        at = tuple(x * s for x in nums)
        got = []
        count = derived_children(monkeypatch, sysv, lambda: got.append(
            _nearest_child(sysv, word, lat, at, den)))
        assert got == [(57, sysv.kids(word)[57])]
        assert count == 1


@dataclasses.dataclass(frozen=True)
class MovedCells:
    """Another builder behind cells moved off its children: coordinate c
    of child i by ``move(i, c)`` times the radius of the fan's first
    child, with the widening ``reach`` times that radius."""

    inner: object
    move: object
    reach: int

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def cells(self, parent, word):
        kids = self.inner.children(parent, word,
                                   range(self.inner.child_count(word)))
        unit = kids[0][-1] if kids else 0
        return [tuple(x + self.move(i, c) * unit
                      for c, x in enumerate(kid[:-1])) + kid[-1:]
                for i, kid in enumerate(kids)], self.reach * unit


# the seed-1 pipelines, and a triangle whose height is irrational, so
# that its images have widths that move with the center
LOOSE_CASES = [row[:3] for row in SEED1_PIPELINES] + [
    (_hex, TRIANGLE, (equilateral(), Q(35, 128), 4))]


@pytest.mark.parametrize("make, search, args", LOOSE_CASES)
def test_loose_cells_change_nothing(monkeypatch, make, search, args):
    # cells up to two radii off their children, far enough to sit beyond
    # a neighbouring row, make the searches derive more children to
    # decide, and the equilateral triangle's settle the widest ones
    # first, but every pair test and the witness stay as they are
    plain = make()
    loose = BallSystem(plain.root, MovedCells(
        plain.generator, lambda i, c: 2 * ((i + c) % 3 - 1), 2))
    tests = [pair_tests(monkeypatch, lambda: search(sysv, *args))
             for sysv in (plain, loose)]
    assert tests[0] == tests[1]
    assert repr(search(plain, *args)) == repr(search(loose, *args))


def test_window_takes_the_widest_child_not_the_widest_cell(monkeypatch):
    # b images span x - |y| to x, so a child's width is |y|.  Child 1 is
    # the widest, 10, but its cell shows 7; child 2's cell shows 12 for
    # a width of 9.  Child 3's low end, -12, is inside the window of the
    # a child only when the window is widened by 10, not by 9.
    def at(x, y, r=1):
        return Ball((Q(x), Q(y)), Q(r))

    nodes = {(0,): at(0, 0, 20), (1,): at(0, 0, 20), (0, 0): at(0, 0),
             (1, 0): at(100, 0), (1, 1): at(0, 10), (1, 2): at(0, 9),
             (1, 3): at(-12, 0)}
    tree = ExplicitTree(nodes)
    shifts = {1: (0, -3), 2: (0, 3)}  # in radii, which are 1
    shifted = MovedCells(tree, lambda i, c: shifts.get(i, (0, 0))[c], 3)

    def image_b(lat, s):
        x, y, r = lat
        return ((x - abs(y), x), (y, y)), r

    def spread_b(e):
        return 2 * e, e

    got = []
    for gen in (tree, shifted):
        sysv = BallSystem(Ball((Q(0), Q(0)), Q(30)), gen)
        got.append((outcome(_refine_pair, sysv, _identity, image_b,
                            spread_b, (0,), (1,), 2),
                    pair_tests(monkeypatch, lambda: outcome(
                        _refine_pair, sysv, _identity, image_b, spread_b,
                        (0,), (1,), 2))))
    assert got[0] == got[1] == (
        "pair refinement exhausted (no chain to the requested depth)", 3)


FRAME_TRIANGLES = [equilateral(),
                   normalize_triangle(_triangle((Q(1, 2), Q(7, 8)))),
                   normalize_triangle(_triangle((Q(1, 3), Q(3, 4))))]


@pytest.mark.parametrize("make", [_grid(1), _hex])
@pytest.mark.parametrize("tri", [None, *FRAME_TRIANGLES])
def test_projection_is_read_off_the_images(make, tri):
    # the low ends and widths of the first coordinates and the largest
    # radius, for fans at three depths and a target off the lattice
    sysv, z = make(), (Q(1, 3), Q(-2, 7))
    image_a, image_b, spread_b, project_b = (
        _combo_images(Q(2, 5), z) if tri is None
        else _triangle_images(tri, *tri.side_ratios(128), z))
    for word in [(), (1,), (0, 17, 3)]:
        cells, _ = sysv.generator.cells(sysv.lattice(word), word)
        s = sysv.scale(len(word) + 1)
        imgs = [image_b(c, s) for c in cells]
        assert project_b(cells, s) == (
            [box[0][0] for box, _ in imgs],
            [box[0][1] - box[0][0] for box, _ in imgs],
            max(r for _, r in imgs))


def charge_log(monkeypatch, call):
    """``call``'s outcome, and the items of the pair refinement's frames
    in the order ``descend`` charges them: [charges, a word, b word,
    answer], the words and the answer None for charges passed without a
    test, and the answer None for a test that a budget stop preempted."""
    import thickset.patterns_nd as nd

    items, descend = [], nd.descend

    def logging(first, children, ok, *args, **kwargs):
        def frame(candidates):
            for n, a, b in candidates:
                items.append([n, a and a[0], b and b[0], None])
                yield n, a, b

        def tested(a, b):
            items[-1][3] = ok(a, b)
            return items[-1][3]
        return descend(frame(first), lambda *p: frame(children(*p)), tested,
                       *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(nd, "descend", logging)
        result = outcome(call)
    return result, items


def charges_match(items, ref_log, stopped: bool) -> None:
    """The refinement's charges, one by one, against the one-coordinate
    window's log: every pair it tested is the oracle's pair at that
    charge with the same answer, and every pair it dropped is one whose
    second coordinates the oracle's test found farther apart than the
    reach, so ``_may_meet`` rejected it.  At a budget stop the oracle
    logs the charges before the one that passed the budget, and the
    refinement's last item holds that charge and runs no test."""
    charges = []
    for n, wa, wb, answer in items:
        charges += [None] * (n - (wa is not None))
        if wa is not None:
            charges.append((wa, wb, answer))
    for got, (wa, wb, answer, apart) in zip(charges, ref_log):
        if got is None:
            assert apart and answer is False
        else:
            assert got == (wa, wb, answer)
    if stopped:
        before = sum(n for n, *_ in items[:-1])
        assert before <= len(ref_log) < before + items[-1][0]
        assert items[-1][3] is None
    else:
        assert len(charges) == len(ref_log)


def _loose(sysv):
    """``sysv`` behind cells up to two radii off its children."""
    return BallSystem(sysv.root, MovedCells(
        sysv.generator, lambda i, c: 2 * ((i + c) % 3 - 1), 2))


@settings(max_examples=30, deadline=None)
@given(make=st.sampled_from([_grid(1), _grid(6), _hex]),
       loose=st.booleans(),
       combo=st.booleans(),
       lam=st.fractions(Q(1, 16), Q(1, 2), max_denominator=16),
       tri=st.sampled_from(FRAME_TRIANGLES),
       depth=st.integers(2, 3),
       tails=st.lists(st.integers(0, 84), min_size=4, max_size=4),
       offset=st.sampled_from([Q(0), Q(1, 10**4), Q(1, 500), Q(1, 100)]),
       stop=st.integers(0, 999))
# a search that exhausts at depth 2
@example(make=_grid(997009), loose=False, combo=True, lam=Q(3, 16),
         tri=equilateral(), depth=2, tails=[65, 19, 92, 28], offset=Q(1, 40),
         stop=500)
def test_frames_charge_as_the_one_coordinate_window(
        make, loose, combo, lam, tri, depth, tails, offset, stop):
    # the target combines two depth-3 centers, or is the apex over them,
    # shifted so that some searches exhaust; the search then runs again
    # under a budget below its charges
    sysv = make()
    ca = sysv.ball((0, *tails[:2])).center
    cb = sysv.ball((1, *tails[2:])).center
    if combo:
        maps = _combo_images(lam, tuple(
            lam * x + (1 - lam) * y + offset for x, y in zip(ca, cb)))
    else:
        maps = _triangle_images(tri, *tri.side_ratios(128), tuple(
            v.mid + offset for v in _apex(tri, ca, cb)))
    if loose:
        sysv = _loose(sysv)
    image_a, image_b, spread_b, project_b = maps

    def run(log=None):
        if log is None:
            return _refine_pair(sysv, image_a, image_b, spread_b, (0,),
                                (1,), depth, project_b)
        return ref_refine_pair(sysv, image_a, image_b, spread_b, (0,),
                               (1,), depth, log)

    with pytest.MonkeyPatch.context() as m:
        ref_log = []
        want = outcome(run, ref_log)
        got, items = charge_log(m, run)
        assert got == want
        charges_match(items, ref_log, False)
        budget = len(ref_log) * stop // 1000
        if budget < len(ref_log):
            m.setenv("THICKSET_MAX_NODES", str(budget))
            ref_log = []
            want = outcome(run, ref_log)
            got, items = charge_log(m, run)
            assert got == want == ("pair refinement passed the budget of "
                                   f"{budget} pair tests")
            assert len(ref_log) == budget
            charges_match(items, ref_log, True)


def test_last_coordinate_tie_is_tested(monkeypatch):
    # b child 0 is three apart from the a child in y, past the reach of
    # two, and is charged untested; b child 1 is exactly two apart, so
    # the disks touch and the pair is tested and kept
    def at(y):
        return Ball((Q(0), Q(y)), Q(1))

    nodes = {(0,): at(0), (1,): at(0), (0, 0): at(0), (1, 0): at(3),
             (1, 1): at(2)}
    sysv = BallSystem(Ball((Q(0), Q(0)), Q(30)), ExplicitTree(nodes))
    got = []
    for project in (_identity_projection, None):
        assert pair_counts(monkeypatch, lambda: got.append(_refine_pair(
            sysv, _identity, _identity, _rigid, (0,), (1,), 2,
            project))) == (2, 1)
    assert got == [((0, 0), (1, 1))] * 2
    # on a line the filter's coordinate is the window's: b child 0 is in
    # the window, which the widest b radius sets, but 1/5 from the a
    # child in the images, past its own reach of 1/8 + 1/200
    line = {(0,): Ball((Q(0),), Q(1)), (1,): Ball((Q(3),), Q(1)),
            (0, 0): Ball((Q(-1, 2),), Q(1, 4)),
            (0, 1): Ball((Q(1, 2),), Q(1, 4)),
            (1, 0): Ball((Q(31, 10),), Q(1, 100)),
            (1, 1): Ball((Q(7, 2),), Q(1, 4))}
    sysv = BallSystem(Ball((Q(0),), Q(10)), ExplicitTree(line))
    maps = _combo_images(Q(1, 2), (Q(3, 2),))
    assert pair_counts(monkeypatch, lambda: got.append(_refine_pair(
        sysv, *maps[:3], (0,), (1,), 2, maps[3]))) == (2, 1)
    assert got[-1] == ref_refine_pair(sysv, *maps[:3], (0,), (1,), 2) \
        == ((0, 0), (1, 1))
