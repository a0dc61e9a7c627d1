"""Acceptance suite: every deliverable claim checked at its stated
tolerance, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v` or via the CLI's
`thickset reproduce --table section6` for the worked-example constants.
"""

import random
from fractions import Fraction as Q

import pytest

from thickset import (
    Interval,
    difference_interval,
    equilateral,
    find_3ap,
    find_convex_combo_nd,
    find_triangle_in_product,
    find_triangle_nd,
    grid_ifs_example,
    hex_packing_example,
    interval_sqrt,
    kap_search,
    lambda_window,
    membership,
    middle_cantor,
    middle_thirds,
    newhouse_thickness,
    off_center_cantor,
    shmerkin_4ap,
    subset_thickness,
    threshold,
    yavicoli_thickness,
)
from thickset.balls import h_upper
from thickset.cantor import IN_CERTIFIED, affine_image
from thickset.patterns1d import FEASIBLE, INFEASIBLE
from thickset.scalars import sqrt3

from oracles import (
    kap_bruteforce,
    point_in_cover,
    product_witness_in_cover,
    verify_combo_containment,
)
from test_balls import kernel, sampled_slack

GAMMA = Q(99999, 100000)
HEX_R = Q(26243, 100000)


def report(name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


class TestAcceptance:
    def test_01_middle_thirds_thickness_exact(self):
        rep = newhouse_thickness(middle_thirds(), 6)
        report("criterion 1: tau(middle-thirds) = 1 exactly, stabilized",
               rep.value == 1 and rep.status == "stabilized")

    def test_02_off_center_thickness_exact(self):
        rep = newhouse_thickness(off_center_cantor(Q(3, 10)), 8)
        report("criterion 2: tau(off_center(3/10)) = 1 exactly, stabilized",
               rep.value == 1 and rep.status == "stabilized")

    def test_03_middle_eps_formula_exact(self):
        ok = True
        for eps in (Q(1, 5), Q(1, 4), Q(1, 3), Q(2, 5)):
            rep = newhouse_thickness(middle_cantor(eps), 6)
            ok &= rep.value == (1 - eps) / (2 * eps)
            ok &= rep.status == "stabilized"
        report("criterion 3: tau(middle_cantor(eps)) = (1-eps)/(2eps) "
               "exactly for eps in {1/5, 1/4, 1/3, 2/5}", ok)

    def test_04_find_3ap_residual_and_cross_oracle(self):
        s = middle_thirds()
        w = find_3ap(s, depth=20)
        ok = (w.m.enclosure.is_point() and w.m.enclosure.lo == Q(2, 3)
              and w.residual <= 2 * Q(3) ** -20)
        # cross-oracle: {0, 1/3, 2/3} is membership-certified
        for x in (Q(0), Q(1, 3), Q(2, 3)):
            ok &= membership(s, x).kind == IN_CERTIFIED
        # the witness identity holds within the residual
        defect = abs((1 - w.lam) * w.a.enclosure.mid
                     + w.lam * w.b.enclosure.mid - w.m.enclosure.lo)
        ok &= defect <= w.residual
        report("criterion 4: 3-term progression witness with m = 2/3 "
               "exact, residual <= 2*3^-20, membership cross-oracle", ok)

    def test_05_thin_set_no_3ap_with_bruteforce_agreement(self):
        s = middle_cantor(Q(2, 5))
        cert = kap_search(s, 3, depth=8)
        ok = cert.verdict == INFEASIBLE and cert.depth <= 8
        ok &= kap_bruteforce(s, 3, 5) == INFEASIBLE
        report("criterion 5: no 3-term progression in middle_cantor(2/5) "
               "by depth <= 8; brute-force agrees at depth 5", ok)

    def test_06_symmetric_4ap_and_search_consistency(self):
        cert = shmerkin_4ap(Q(1, 3))
        pts = [p.enclosure for p in cert.points]
        ok = (cert.verdict == FEASIBLE
              and all(iv.is_point() for iv in pts)
              and [iv.lo for iv in pts] == [Q(0), Q(1, 3), Q(2, 3), Q(1)]
              and all(p.status == IN_CERTIFIED for p in cert.points))
        search = kap_search(middle_thirds(), 4, depth=6)
        ok &= search.verdict == FEASIBLE
        # consistency: the exact progression's points live in the depth-6
        # cover and the searched midpoints do as well
        s = middle_thirds()
        for iv in pts:
            ok &= point_in_cover(s, iv.lo, 6)
        x_mid, y_mid = search.x.mid, search.y.mid
        for j in range(4):
            ok &= point_in_cover(s, x_mid + j * y_mid, 6)
        report("criterion 6: symmetric 4-term progression {0,1/3,2/3,1} "
               "all membership-certified; search agrees feasible", ok)

    @pytest.mark.parametrize("a", [Q(59, 200), Q(3, 10), Q(31, 100)])
    def test_07_off_center_no_4ap_window(self, a):
        cert = kap_search(off_center_cantor(a), 4, depth=10)
        ok = cert.verdict == INFEASIBLE and cert.depth <= 10
        lo = 5 * a - 8 * a**2 + 4 * a**3
        hi = 6 * a - 12 * a**2 + 8 * a**3
        ok &= lo < 3 * a < hi
        report(f"criterion 7: no 4-term progression in off_center({a}) by "
               f"depth <= 10; 3a sits in the splitting gap", ok)

    def test_08_grid_example_numbers(self):
        grid = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        tau = yavicoli_thickness(grid).lower_bound
        ok = tau.lo == tau.hi == Q("8.5975")
        thr = threshold(None, Q(1, 2), Q(1, 5))
        ok &= thr.lo == thr.hi == Q(10, 3)
        lam_lo, lam_hi = lambda_window(grid, Q(1, 5))
        ok &= abs(lam_lo.mid - Q("0.27938814")) <= Q(1, 10**6)
        ok &= lam_hi == Q(1, 2)
        report("criterion 8: grid numbers: tau = 8.5975 exact, threshold "
               "= 10/3 exact, window end within 1e-6 of 0.27938814", ok)

    def test_09_hex_example_numbers(self):
        t1 = yavicoli_thickness(hex_packing_example(1)).lower_bound
        ok = abs(t1.mid - Q("7.25137")) <= Q(1, 1000)
        tg = yavicoli_thickness(hex_packing_example(GAMMA)).lower_bound
        ok &= abs(tg.mid - Q("7.25077")) <= Q(1, 1000)
        uni = (2 * sqrt3() + 3) / 3 * Q(12179, 100000)
        ok &= abs(uni.mid - Q("0.26243")) <= Q(1, 10**4)
        report("criterion 9: hex numbers: 7.25137 and 7.25077 within "
               "1e-3, uniformity constant within 1e-4 of 0.26243", ok)

    def test_10_grid_combo_end_to_end(self):
        grid = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        w = find_convex_combo_nd(grid, Q(1, 2), Q(1, 5), depth=8,
                                 mode="standard")
        rep = w.hypotheses_report
        ok = (rep["threshold_ok"] and rep["children_disjoint"]
              and rep["r_uniformity"] == "certified_analytic"
              and rep["disk_radius_above_h_root"])
        ok &= w.residual <= Q(1, 10**6)
        ok &= w.defect.hi <= w.residual  # midpoint identity at centers
        report("criterion 10: grid example end to end: hypotheses all "
               "pass, residual <= 1e-6 at depth 8, midpoint identity "
               "within residual", ok)

    def test_11_hex_equilateral_end_to_end(self):
        sys = hex_packing_example(GAMMA)
        w6 = find_triangle_nd(sys, equilateral(), HEX_R, depth=6)
        rep = w6.hypotheses_report
        ok = rep["threshold_ok"] and rep["children_disjoint"]
        ok &= rep["threshold"].lo == 2 / (1 - 2 * HEX_R)
        ok &= rep["side_ratio_deviation"] <= Q(1, 10**4)
        w7 = find_triangle_nd(sys, equilateral(), HEX_R, depth=7)
        ok &= w7.residual / w6.residual <= Q(13, 100)
        report("criterion 11: hex equilateral end to end: hypotheses "
               "pass with threshold 2/(1-2r), side ratios within 1e-4 at "
               "depth 6, residual contraction <= 0.13", ok)

    def test_12_product_triangle_deep(self):
        s = middle_thirds()
        w = find_triangle_in_product(s, equilateral(), depth=40)
        ok = product_witness_in_cover(s, w, 40)
        d01, d02, d12 = w.side_lengths
        for x, y in ((d01, d02), (d01, d12), (d02, d12)):
            gap = max(abs(x.hi - y.lo), abs(y.hi - x.lo))
            ok &= gap <= Q(1, 10**9)
        ok &= difference_interval(s, 10) == 1
        report("criterion 12: product triangle: all 6 coordinates in "
               "depth-40 covers, side equality within 1e-9, difference "
               "segment L = 1 to depth 10", ok)

    # -- criterion 13: property suites -----------------------------------

    def test_13a_interval_containment(self):
        rng = random.Random(123)
        ok = True
        for _ in range(10_000):
            a = Q(rng.randint(-99, 99), rng.randint(1, 99))
            w = Q(rng.randint(0, 99), rng.randint(1, 99))
            x = Interval(a, a + w)
            t = x.lo + x.width * Q(rng.randint(0, 128), 128)
            b = Q(rng.randint(-99, 99), rng.randint(1, 99))
            y = Interval.point(b)
            add, mul = x + y, x * y
            ok &= add.lo <= t + b <= add.hi and mul.lo <= t * b <= mul.hi
            if x.lo >= 0:
                root = interval_sqrt(x, 40)
                ok &= root.lo ** 2 <= t <= root.hi ** 2
        report("criterion 13a: interval containment property "
               "(10^4 samples)", ok)

    def test_13b_thickness_invariance(self):
        rng = random.Random(7)
        ok = True
        for s in (middle_thirds(), middle_cantor(Q(2, 5)),
                  off_center_cantor(Q(3, 10))):
            v0 = newhouse_thickness(s, 6).value
            for _ in range(350):
                a = Q(rng.randint(1, 30), rng.randint(1, 30)) * \
                    (1 if rng.random() < 0.5 else -1)
                b = Q(rng.randint(-40, 40), rng.randint(1, 12))
                ok &= newhouse_thickness(affine_image(s, a, b), 6).value == v0
        report("criterion 13b: thickness invariance under >= 10^3 affine "
               "maps (exact)", ok)

    def test_13c_claim_containment(self):
        ok = True
        for lam in (Q(1, 5), Q(7, 20), Q(1, 2)):
            for depth in range(1, 13):
                ok &= verify_combo_containment(middle_thirds(), lam, depth)
        report("criterion 13c: core-interval containment in combination "
               "covers at lam in {1/5, 7/20, 1/2}, depths <= 12", ok)

    def test_13d_subset_slack(self):
        # every point x of the designated child has a depth-3 ball b
        # below it with |x - c_b| - r_b <= 2*h_root: the kernel bounds
        # max_x min_b (|x - c_b| - r_b) over the whole child from above
        sys = hex_packing_example(GAMMA)
        child = (0,)
        balls = [b for i in range(sys.child_count(child))
                 for b in sys.children(child + (i,))]
        bound = 2 * h_upper(sys, ()).hi
        _, hi, _ = kernel(sys.ball(child),
                          [(b.center, -b.radius) for b in balls],
                          threshold=bound)
        report("criterion 13d: every point of a designated child lies "
               "within 2*h_root + cover slack of the subset (kernel "
               "over its 7225 depth-3 balls)",
               len(balls) == 7225 and hi <= bound)

    def test_13d_sampled_subset_slack(self):
        ok = sampled_slack(hex_packing_example(GAMMA), (0,), 3, seed=11)
        report("criterion 13d: sampled points of a designated child stay "
               "within 2*h_root + cover slack of the subset (10^3 "
               "samples)", ok)

    def test_13e_subset_thickness_at_least_half(self):
        ok = True
        for sys in (grid_ifs_example(10, Q(19, 200), Q(1, 100), 1),
                    hex_packing_example(GAMMA)):
            tau = yavicoli_thickness(sys).lower_bound
            rep = subset_thickness(sys, 0)
            ok &= rep.bound.lo >= tau.lo / 2
        report("criterion 13e: subset thickness >= tau/2 for both "
               "builders", ok)
