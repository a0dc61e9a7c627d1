"""The four benchmark workloads and their independent result checks.

Each workload function takes the freshly imported library (``lib``), a
seeded ``random.Random`` and the ``tiny`` flag, and returns one pass: the
list of jobs the closed loop runs in order.  The seed draws parameters
from fixed windows, so it changes the inputs but not the number or kinds of
jobs.  A job calls exactly one public function of one ``thickset`` module; its check
reads the returned certificate and verifies it with ``oracle`` or with
exact arithmetic written here, never by calling the function under test.

Descent costs on the plane vary up to tenfold with the grid seed, lam and
the triangle shape, and by 20% with gamma, so the witness pipelines take
those from fixed pools that every pass runs; the seed varies r there, and
gamma, the grid seed and the other inputs of the cheap queries.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction as F
from io import StringIO
from pathlib import Path
from typing import Any, Callable

import oracle as O
from oracle import BadResult, require


@dataclass
class Job:
    layer: str                       # thickset module that is called
    func: str                        # public function (or CLI command)
    call: Callable[[], Any]
    check: Callable[[Any], None]     # raises BadResult


# -- exact interval helpers (pairs of Fractions) -------------------------------


def iv(x) -> tuple[F, F]:
    """(lo, hi) of a library Interval or of an exact number."""
    if hasattr(x, "lo"):
        return F(x.lo), F(x.hi)
    return F(x), F(x)


def iv_lin(c1: F, a, c2: F, b) -> tuple[F, F]:
    """c1*a + c2*b for intervals a, b and nonnegative c1, c2."""
    return c1 * a[0] + c2 * b[0], c1 * a[1] + c2 * b[1]


def iv_sq_dist(p, q) -> tuple[F, F]:
    """Enclosure of the squared distance between two boxes of intervals."""
    lo = hi = F(0)
    for a, b in zip(p, q):
        d0, d1 = a[0] - b[1], a[1] - b[0]
        top = max(d0 * d0, d1 * d1)
        lo += F(0) if d0 <= 0 <= d1 else min(d0 * d0, d1 * d1)
        hi += top
    return lo, hi


def check_similar(vertices, expected: list[F]) -> None:
    """The squared side ratios over the longest side, enclosed from the
    vertex boxes, contain the expected pair in some order."""
    d = [iv_sq_dist(vertices[i], vertices[j])
         for i, j in ((0, 1), (0, 2), (1, 2))]
    for base in range(3):
        others = [d[i] for i in range(3) if i != base]
        b = d[base]
        require(b[0] > 0, "degenerate triangle witness")
        rat = [(o[0] / b[1], o[1] / b[0]) for o in others]
        for order in (expected, expected[::-1]):
            if all(r[0] <= e <= r[1] for r, e in zip(rat, order)):
                return
    raise BadResult("witness triangle is not similar to the request")


def check_combo_1d(ifs, lam: F, a, m, b, residual: F, depth: int,
                   exact=None) -> None:
    """1-D convex-combination witness: enclosures in the depth-d cover, m a
    certified member, (1-lam)*A + lam*B within the residual of m."""
    require(O.interval_in_cover(ifs, *a, depth), "a enclosure off the cover")
    require(O.interval_in_cover(ifs, *b, depth), "b enclosure off the cover")
    require(m[0] == m[1], "combination point is not exact")
    require(O.point_status(ifs, m[0], 64)[0] != "out_at_depth",
            "combination point outside the set")
    comb = iv_lin(1 - lam, a, lam, b)
    require(comb[0] <= m[0] <= comb[1], "identity fails inside enclosures")
    require(max(m[0] - comb[0], comb[1] - m[0]) <= residual,
            "residual does not bound the combination defect")
    require(a[1] < m[0] < b[0] or b[1] < m[0] < a[0], "degenerate witness")
    if exact is not None:
        ea, eb = exact
        require((1 - lam) * ea + lam * eb == m[0], "exact pair identity")
        require(a[0] <= ea <= a[1] and b[0] <= eb <= b[1],
                "exact pair outside enclosures")


def check_kap_points(ifs, k: int, depth: int, x, y, points) -> None:
    """Feasible k-AP certificate: x.mid + j*y.mid sits in enclosure j and in
    the depth-d cover, and the progression is split at the first level."""
    x0, y0 = (x[0] + x[1]) / 2, (y[0] + y[1]) / 2
    require(len(points) == k and y0 > 0, "malformed progression")
    for j, p in enumerate(points):
        v = x0 + j * y0
        require(p[0] <= v <= p[1], "progression point outside enclosure")
        require(O.interval_in_cover(ifs, v, v, depth),
                "progression point off the cover")
    first = O.cover(ifs, 1)
    side = [next(i for i, c in enumerate(first) if c[0] <= x0 + j * y0 <= c[1])
            for j in (0, k - 1)]
    require(side[0] != side[1], "progression is not split")


def check_infeasible(ifs, k: int, depth: int) -> None:
    require(len(ifs[2]) ** depth <= 64, "certificate depth too large to check")
    require(not O.has_split_ap(ifs, k, depth),
            "brute force finds a progression the certificate excludes")


def check_kap(ifs, k: int, expect: str | None) -> Callable[[Any], None]:
    def check(cert):
        require(cert.verdict in ("feasible", "infeasible_at_depth"),
                f"verdict {cert.verdict}")
        require(expect is None or cert.verdict == expect,
                f"known verdict {expect}, got {cert.verdict}")
        if cert.verdict == "feasible":
            check_kap_points(ifs, k, cert.depth, iv(cert.x), iv(cert.y),
                             [iv(p.enclosure) for p in cert.points])
        else:
            check_infeasible(ifs, k, cert.depth)
    return check


def in_gap(ifs, lo: F, hi: F) -> bool:
    """Whether [lo, hi] (inside the hull) lies in a bounded gap of the set."""
    cur = (ifs[0], ifs[1])
    if not (cur[0] <= lo and hi <= cur[1]):
        return False
    while True:
        kids = list(O.children(ifs, *cur))
        nxt = next((c for c in kids if c[0] <= lo and hi <= c[1]), None)
        if nxt is None:
            return any(p[1] < lo and hi < q[0] for p, q in zip(kids, kids[1:]))
        cur = nxt


# -- parameter windows ---------------------------------------------------------
# Fixed denominators keep the size of the rationals, and so the cost of a
# job, nearly the same from seed to seed.


def centred_gaps(rng, count: int) -> list[F]:
    """eps = k/64, k odd, in [13/64, 21/64]: thickness >= 1."""
    return [F(rng.choice(range(13, 22, 2)), 64) for _ in range(count)]


def off_centre_gaps(rng, count: int) -> list[F]:
    """a = k/128, k odd, in [35/128, 39/128]."""
    return [F(rng.choice((35, 37, 39)), 128) for _ in range(count)]


def apex_point(rng) -> tuple[F, F]:
    """Apex over the base (0,0)-(1,0), which stays the longest side."""
    return F(rng.choice((5, 7)), 16), F(rng.choice((7, 9)), 16)


ROADMAP_SET = ((F(1, 4), F(0)), (F(1, 5), F(3, 8)), (F(1, 4), F(3, 4)))


def roadmap_variant(rng):
    """The 3-branch set with its middle branch moved; kap_search node
    counts stay within about 10% across this window."""
    return ROADMAP_SET[0], (F(1, 5), F(rng.randint(73, 78), 200)), \
        ROADMAP_SET[2]


# -- line --------------------------------------------------------------------


def line(lib, rng, tiny: bool) -> list[Job]:
    c, p1, pr = lib.cantor, lib.patterns1d, lib.product
    eps, aa = centred_gaps(rng, 3), off_centre_gaps(rng, 3)
    maps = [(rng.choice((-1, 1)) * F(rng.choice((3, 5, 7)), 4),
             F(rng.choice(range(-7, 8, 2)), 8)) for _ in range(2)]
    thick = O.thickness_centred
    # (library set, oracle twin, closed-form thickness)
    sets = [(c.middle_cantor(eps[0]), O.centred(eps[0]), thick(eps[0])),
            (c.off_center_cantor(aa[0]), O.off_centre(aa[0]), F(1)),
            (c.affine_image(c.middle_cantor(eps[1]), *maps[0]),
             O.affine(O.centred(eps[1]), *maps[0]), thick(eps[1])),
            (c.affine_image(c.off_center_cantor(aa[1]), *maps[1]),
             O.affine(O.off_centre(aa[1]), *maps[1]), F(1)),
            (c.middle_cantor(eps[2]), O.centred(eps[2]), thick(eps[2])),
            (c.off_center_cantor(aa[2]), O.off_centre(aa[2]), F(1))]
    jobs: list[Job] = []

    def thickness(i, depth):
        s, o, tau = sets[i]

        def check(rep):
            require(rep.status == "stabilized", f"status {rep.status}")
            require(rep.value == tau, f"thickness {rep.value} != {tau}")
        jobs.append(Job("cantor", "newhouse_thickness",
                        lambda: c.newhouse_thickness(s, depth), check))

    def combo(i, lam, depth):
        s, o, _ = sets[i]
        if lam == F(1, 2):
            call, func = (lambda: p1.find_3ap(s, depth)), "find_3ap"
        else:
            call, func = (lambda: p1.find_convex_combo(s, lam, depth)), \
                "find_convex_combo"

        def check(w):
            require(w.lam == lam and w.depth_used == depth, "echoed inputs")
            exact = None if w.a_exact is None else (w.a_exact, w.b_exact)
            check_combo_1d(o, lam, iv(w.a.enclosure), iv(w.m.enclosure),
                           iv(w.b.enclosure), w.residual, depth, exact)
        jobs.append(Job("patterns1d", func, call, check))

    def shmerkin(e, depth):
        o = O.centred(e)

        def check(cert):
            pts = [iv(p.enclosure) for p in cert.points]
            require(cert.verdict == "feasible" and len(pts) == 4, "no 4-AP")
            require(O.ap_fits(pts), "enclosures hold no common progression")
            for p in pts:
                if p[0] == p[1]:
                    require(O.point_status(o, p[0], 64)[0] != "out_at_depth",
                            "4-AP point outside the set")
                else:
                    require(O.interval_in_cover(o, *p, depth),
                            "4-AP enclosure off the cover")
        jobs.append(Job("patterns1d", "shmerkin_4ap",
                        lambda: p1.shmerkin_4ap(e, depth), check))

    def gap_lemma(i, j, tdepth):
        (s1, o1, t1), (s2, o2, t2) = sets[i], sets[j]
        hull = o1[0] <= o2[1] and o2[0] <= o1[1]
        woven = hull and not in_gap(o1, o2[0], o2[1]) \
            and not in_gap(o2, o1[0], o1[1])
        expect = "hypotheses_hold" if woven and t1 * t2 >= 1 else "fail"

        def check(rep):
            require(rep.verdict == expect, f"verdict {rep.verdict} != {expect}")
            require(iv(rep.thickness_product) == (t1 * t2, t1 * t2),
                    "thickness product differs from the closed forms")
        jobs.append(Job("patterns1d", "gap_lemma_check",
                        lambda: p1.gap_lemma_check(s1, s2, tdepth), check))

    def difference(i, depth):
        s, o, _ = sets[i]

        def check(length):
            require(length == O.width(o), "C - C should cover [0, width]")
        jobs.append(Job("cantor", "difference_interval",
                        lambda: c.difference_interval(s, depth), check))

    def triangle(i, apex, depth):
        s, o, _ = sets[i]
        pts = [(0, 0), (1, 0), apex]
        expected = O.sq_ratios(*[(F(x), F(y)) for x, y in pts])

        def check(w):
            verts = [(iv(x), iv(y)) for x, y in w.vertices]
            for vx in verts:
                for co in vx:
                    ok = O.point_status(o, co[0], 64)[0] != "out_at_depth" \
                        if co[0] == co[1] else \
                        O.interval_in_cover(o, *co, depth)
                    require(ok, "vertex coordinate off the set")
            check_similar(verts, expected)
        jobs.append(Job("product", "find_triangle_in_product",
                        lambda: pr.find_triangle_in_product(
                            s, pr.Triangle.make(pts), depth), check))

    def diff_hit(i, frac, depth):
        s, o, _ = sets[i]
        delta = frac * O.width(o)

        def check(res):
            u, v = iv(res[0]), iv(res[1])
            require(v[0] - u[1] <= delta <= v[1] - u[0],
                    "delta outside v - u")
            require(O.interval_in_cover(o, *u, depth) and
                    O.interval_in_cover(o, *v, depth), "hit off the cover")
        jobs.append(Job("product", "difference_hit",
                        lambda: pr.difference_hit(s, delta, depth), check))

    def members(i, depth):
        # endpoints, midpoints and one-third points of random length-6
        # word images, three of each
        s, o, _ = sets[i]
        pts = []
        for kind in range(9):
            lo, hi = o[0], o[1]
            for _ in range(6):
                lo, hi = list(O.children(o, lo, hi))[rng.randrange(len(o[2]))]
            pts.append((lo, (lo + hi) / 2, lo + (hi - lo) / 3)[kind % 3])

        def check(res):
            got = [(r.kind, r.depth) for r in res]
            require(got == [O.point_status(o, x, depth) for x in pts],
                    "membership verdicts differ from the oracle")
        jobs.append(Job("cantor", "membership",
                        lambda: [c.membership(s, x, depth) for x in pts],
                        check))

    lams = [F(rng.choice((5, 7, 9, 11)), 16) for _ in range(2)]
    apexes = [apex_point(rng) for _ in range(3)]
    fracs = [F(rng.choice(range(3, 14, 2)), 16) for _ in range(3)]
    if tiny:
        thickness(2, 4)
        combo(0, F(1, 2), 8)
        combo(3, lams[0], 8)
        shmerkin(eps[0], 4)
        gap_lemma(0, 1, 4)
        difference(1, 2)
        triangle(0, apexes[0], 6)
        diff_hit(1, fracs[0], 6)
        members(2, 8)
        return jobs
    # cheap: membership batches, shallow differences, short 4-APs
    for i in range(8):
        members(i % 6, 64)
    difference(0, 6)
    difference(4, 6)
    shmerkin(eps[0], 12)
    shmerkin(eps[2], 12)
    # the median sits in this block of similar-cost certificates
    for i, j in ((0, 1), (4, 5), (0, 5), (1, 4), (0, 4), (1, 5), (5, 0),
                 (4, 1)):
        gap_lemma(i, j, 8)
    for e in eps:
        shmerkin(e, 16)
    diff_hit(0, fracs[0], 20)
    difference(1, 8)
    difference(5, 8)
    # deep descents and thickness
    for i, d in ((0, 10), (1, 10), (2, 11), (3, 11), (4, 12)):
        thickness(i, d)
    diff_hit(1, fracs[1], 20)
    diff_hit(5, fracs[2], 20)
    triangle(0, apexes[0], 20)
    triangle(2, apexes[1], 30)
    combo(1, F(1, 2), 80)
    # the 90th percentile sits in this block of similar-cost descents
    triangle(4, apexes[2], 40)
    combo(0, F(1, 2), 60)
    combo(3, lams[0], 60)
    combo(5, F(1, 2), 60)
    return jobs


# -- kap ---------------------------------------------------------------------


def kap(lib, rng, tiny: bool) -> list[Job]:
    c, p1 = lib.cantor, lib.patterns1d
    jobs: list[Job] = []

    def search(lib_set, ifs, k, depth, expect=None):
        jobs.append(Job("patterns1d", "kap_search",
                        lambda: p1.kap_search(lib_set, k, depth),
                        check_kap(ifs, k, expect)))

    def three(pairs):
        return c.ifs_from_branches(0, 1, pairs), O.branches(0, 1, pairs)

    def variant():
        return three(roadmap_variant(rng))

    def oc(a):
        return c.off_center_cantor(a), O.off_centre(a)

    def mc(e):
        return c.middle_cantor(e), O.centred(e)

    window = [F(rng.randint(590, 620), 2000) for _ in range(7)]  # criterion 7
    roadmap = three(ROADMAP_SET)
    variants = [variant() for _ in range(10)]
    if tiny:
        search(*oc(window[0]), 4, 10, "infeasible_at_depth")
        search(*mc(F(2, 5)), 3, 6, "infeasible_at_depth")
        search(*roadmap, 4, 2)
        search(*oc(F(rng.randint(29, 31), 100)), 3, 4, "feasible")
        return jobs
    # quick infeasibility proofs
    for a in window:
        search(*oc(a), 4, 10, "infeasible_at_depth")
    search(*mc(F(2, 5)), 3, 6, "infeasible_at_depth")
    search(*mc(F(2, 5)), 3, 10, "infeasible_at_depth")
    for _ in range(2):
        search(*mc(F(rng.randint(15, 20), 60)), 5, 8, "infeasible_at_depth")
    # broad and shallow; the median sits in this block
    for s in [roadmap] + variants:
        search(*s, 4, 3)
    # deeper
    search(*roadmap, 4, 4)
    search(*variants[0], 4, 4)
    search(*variants[1], 4, 4)
    search(*roadmap, 5, 4)
    search(*oc(F(rng.randint(148, 151), 500)), 3, 8, "feasible")
    search(*mc(F(rng.randint(310, 314), 960)), 4, 10, "feasible")
    # the 90th percentile sits in this block of similar node counts
    for s in [roadmap] + variants[:5]:
        search(*s, 3, 4)
    return jobs


# -- plane -------------------------------------------------------------------


GRID = dict(n=10, rho=F(19, 200), d=F(1, 100))
PIPELINE_GRID_SEEDS = (1, 4, 6)
PIPELINE_GAMMA = F(99999, 100000)
PIPELINE_TRIANGLES = ((F(9, 20), F(17, 20)), (F(1, 2), F(7, 8)),
                      (F(1, 3), F(3, 4)))


def grid_children(rho: F, d: F, n: int):
    pitch, start = 2 * rho + d, -1 + d / 2 + rho
    return [((start + (i % n) * pitch, start + (i // n) * pitch), rho)
            for i in range(n * n)]


def dec_atan(x: Decimal) -> Decimal:
    """arctan by halving the argument and a Taylor series."""
    halvings = 0
    while abs(x) > Decimal("0.1"):
        x = x / (1 + (1 + x * x).sqrt())
        halvings += 1
    total, term, n = Decimal(0), x, 1
    while abs(term) > Decimal(10) ** -110:
        total += term / n
        term, n = -term * x * x, n + 2
    return total * 2 ** halvings


def check_enclosure(value: Decimal, bits: int) -> Callable[[Any], None]:
    def check(res):
        lo, hi = iv(res)
        with localcontext() as ctx:
            ctx.prec = 120
            slack = Decimal(10) ** -100
            require(Decimal(lo.numerator) / lo.denominator <= value + slack
                    and value - slack <= Decimal(hi.numerator) / hi.denominator,
                    "enclosure misses the value")
        require(hi - lo <= F(1, 2 ** (bits - 8)), "enclosure too wide")
    return check


def plane(lib, rng, tiny: bool) -> list[Job]:
    b, nd, sc, pr = lib.balls, lib.patterns_nd, lib.scalars, lib.product
    rho, dd, n = GRID["rho"], GRID["d"], GRID["n"]
    grid_seed = rng.randint(1, 10_000)
    gammas = [1 - F(rng.choice(range(1, 16, 2)), 2 ** 20) for _ in range(6)]
    r_grid = F(rng.choice(range(27, 33, 2)), 128)   # 2*rho + d = 1/5 certified
    r_hex = F(rng.choice((35, 37)), 128)            # analytic constant 0.26243
    gs = b.grid_ifs_example(n, rho, dd, grid_seed)
    hx = b.hex_packing_example(gammas[0])
    pipe_hex = b.hex_packing_example(PIPELINE_GAMMA)
    pipe_grids = [b.grid_ifs_example(n, rho, dd, s) for s in PIPELINE_GRID_SEEDS]
    jobs: list[Job] = []
    grid_tau = rho * (1 - rho) / dd

    def flags(rep, keys):
        for k in keys:
            require(rep.get(k) is True, f"hypothesis {k} not certified")
        require(rep.get("r_uniformity") == "certified_analytic",
                "r-uniformity not certified")

    def combo_nd(sys, lam, r, depth):
        def check(w):
            a, bb = [tuple(iv(x) for x in box) for box in (w.a, w.b)]
            ca = [(x[0] + x[1]) / 2 for x in a]
            cb = [(x[0] + x[1]) / 2 for x in bb]
            ra, rb = (a[0][1] - a[0][0]) / 2, (bb[0][1] - bb[0][0]) / 2
            gap = sum((lam * p + (1 - lam) * q - F(z)) ** 2
                      for p, q, z in zip(ca, cb, w.c))
            require(gap <= (lam * ra + (1 - lam) * rb) ** 2,
                    "balls cannot combine to the target point")
            require(iv(w.defect)[1] <= w.residual, "defect above residual")
            require(w.depth_used == depth, "depth not reached")
            flags(w.hypotheses_report, ("threshold_ok", "children_disjoint",
                                        "disk_radius_above_h_root"))
        jobs.append(Job("patterns_nd", "find_convex_combo_nd",
                        lambda: nd.find_convex_combo_nd(sys, lam, r, depth),
                        check))

    def triangle_nd(sys, apex, r, depth):
        pts = [(F(0), F(0)), (F(1), F(0)), apex]
        expected = O.sq_ratios(*pts)

        def check(w):
            a, bb = [tuple(iv(x) for x in box) for box in (w.a, w.b)]
            z = tuple((F(x), F(x)) for x in w.c)
            check_similar([a, bb, z], expected)
            require(iv(w.defect)[1] <= w.residual, "defect above residual")
            rep = w.hypotheses_report
            flags(rep, ("threshold_ok", "children_disjoint"))
            require(rep["containment"] in ("half_ball", "enlarged_ball")
                    and rep["disk_meets_set"] in ("disk_inside_root",
                                                  "boundary_overlap"),
                    "disk hypotheses not recorded")
        jobs.append(Job("patterns_nd", "find_triangle_nd",
                        lambda: nd.find_triangle_nd(
                            sys, pr.Triangle.make(pts), r, depth), check))

    def validate(sys, depth):
        jobs.append(Job("balls", "validate_system",
                        lambda: b.validate_system(sys, depth),
                        lambda res: require(res is None, "validate result")))

    def yav(sys):
        def check(rep):
            lo, hi = iv(rep.lower_bound)
            if sys.norm == "linf":
                require(lo == hi == grid_tau, "grid thickness closed form")
            else:
                require(F(725, 100) < lo <= hi < F(72514, 10000),
                        "hex thickness outside the worked-example band")
        jobs.append(Job("balls", "yavicoli_thickness",
                        lambda: b.yavicoli_thickness(sys), check))

    def uniform(sys, r, expect):
        def check(res):
            require(res.status == expect, f"uniformity {res.status}")
            if expect == "falsified":
                ball = res.counterexample
                lo = [x - ball.radius for x in ball.center]
                hi = [x + ball.radius for x in ball.center]
                for centre, rad in grid_children(rho, dd, n):
                    require(not all(l <= x - rad and x + rad <= h
                                    for x, l, h in zip(centre, lo, hi)),
                            "counterexample contains a child")
        jobs.append(Job("balls", "r_uniformity_check",
                        lambda: b.r_uniformity_check(sys, r), check))

    def gap_rd(sys1, sys2, r):
        def check(rep):
            require(rep.verdict == "hypotheses_hold" and all(
                f is True for f in (rep.thickness_product_ok,
                                    rep.root_meets_shrunk_ball,
                                    rep.radius_ratio_ok, rep.uniformity_ok)),
                f"gap lemma verdict {rep.verdict}")
        jobs.append(Job("balls", "gap_lemma_rd_check",
                        lambda: b.gap_lemma_rd_check(sys1, sys2, r), check))

    def subset(sys, child):
        def check(rep):
            tau = iv(b.yavicoli_thickness(sys).lower_bound) \
                if sys.norm == "l2" else (grid_tau, grid_tau)
            want = tau if rep.kind == "full_bound" else \
                (tau[0] / 2, tau[1] / 2)
            require(iv(rep.bound) == want, "subset bound is not tau or tau/2")
            gap = iv(rep.min_sibling_gap)
            require(gap[0] > 0, "designated child touches a sibling")
            if sys.norm == "linf":
                require(gap == (dd, dd), "grid sibling gap is not d")
        jobs.append(Job("balls", "subset_thickness",
                        lambda: b.subset_thickness(sys, child), check))

    def enclosure(func, x, bits):
        with localcontext() as ctx:
            ctx.prec = 120
            dx = Decimal(x.numerator) / x.denominator
            value = {"interval_sqrt": dx.sqrt, "interval_ln": dx.ln,
                     "interval_atan": lambda: dec_atan(dx)}[func]()
        jobs.append(Job("scalars", func,
                        lambda: getattr(sc, func)(x, bits),
                        check_enclosure(value, bits)))

    def rand_q(lo, hi):
        return F(rng.choice(range(lo, hi + 1, 2)), 64)

    if tiny:
        yav(gs)
        uniform(gs, r_grid, "certified_analytic")
        gap_rd(gs, gs, r_grid)
        subset(hx, 0)
        validate(hx, 1)
        enclosure("interval_sqrt", rand_q(65, 3201), 64)
        enclosure("interval_ln", rand_q(65, 3201), 64)
        enclosure("interval_atan", rand_q(1, 63), 64)
        combo_nd(pipe_grids[0], F(1, 2), r_grid, 2)
        triangle_nd(hx, PIPELINE_TRIANGLES[2], r_hex, 2)
        return jobs
    hexes = [hx] + [b.hex_packing_example(g) for g in gammas[1:]]
    # cheap queries
    yav(gs)
    yav(hx)
    uniform(gs, r_grid, "certified_analytic")
    uniform(hexes[1], r_hex, "certified_analytic")
    uniform(gs, rho / 2, "falsified")
    gap_rd(hx, hexes[1], r_hex)
    enclosure("interval_sqrt", rand_q(65, 3201), 256)
    enclosure("interval_ln", rand_q(65, 3201), 256)
    enclosure("interval_atan", rand_q(1, 63), 256)
    validate(gs, 1)
    subset(gs, rng.randrange(n * n))
    # the median sits in this block of one query on the hex systems
    for i in range(11):
        subset(hexes[i % len(hexes)], 0)
    # witness pipelines and depth-2 validation
    validate(hexes[1], 2)
    validate(gs, 2)
    for g in pipe_grids:
        combo_nd(g, F(1, 2), r_grid, 4)
    for t in PIPELINE_TRIANGLES:
        triangle_nd(pipe_hex, t, r_hex, 4)
    combo_nd(pipe_hex, F(1, 2), r_hex, 4)
    return jobs


# -- cli ---------------------------------------------------------------------


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: str
    files: tuple[tuple[str, str], ...]   # (name, text); manifest minus wall time


def read_artifacts(out: Path) -> tuple[tuple[str, str], ...]:
    files = []
    if out.exists():
        files.append((out.name, out.read_text()))
    man = Path(str(out) + ".manifest.json")
    if man.exists():
        data = json.loads(man.read_text())
        data.pop("wall_time_s", None)
        files.append((man.name, json.dumps(data, sort_keys=True)))
    return tuple(files)


def cli(lib, rng, tiny: bool, workdir: Path) -> list[Job]:
    main = lib.cli.main
    jobs: list[Job] = []
    eps, aa = centred_gaps(rng, 2), off_centre_gaps(rng, 2)
    window = [F(rng.randint(590, 620), 2000) for _ in range(3)]
    gamma = 1 - F(rng.randint(1, 9), 10 ** 6)
    grid_seed = rng.randint(1, 10_000)
    pairs = roadmap_variant(rng)
    ifs1d = json.dumps({"kind": "ifs1d", "hull": ["0", "1"], "branches": [
        {"scale": str(s), "offset": str(o)} for s, o in pairs]})
    apex = apex_point(rng)
    sets = {"mc0": (f"middle_cantor:{eps[0]}", O.centred(eps[0])),
            "mc1": (f"middle_cantor:{eps[1]}", O.centred(eps[1])),
            "oc0": (f"off_center:{aa[0]}", O.off_centre(aa[0])),
            "oc1": (f"off_center:{aa[1]}", O.off_centre(aa[1])),
            "ifs": (ifs1d, O.branches(0, 1, pairs))}

    def command(name, argv, out_name, check):
        out = workdir / out_name
        argv = argv + ["--out", str(out)]
        if out_name.endswith(".csv"):
            argv += ["--format", "csv"]

        def call():
            for p in (out, Path(str(out) + ".manifest.json")):
                p.unlink(missing_ok=True)
            buf = StringIO()
            with redirect_stdout(buf):
                code = main(argv)
            return CliOutcome(code, buf.getvalue(), read_artifacts(out))

        def full_check(res):
            require(res.code == 0, f"exit code {res.code}")
            require(len(res.files) == 2, "artifact or manifest missing")
            man = json.loads(res.files[1][1])
            require(man["exit_code"] == 0 and man["command"] == argv[0]
                    and man["outputs"] == [str(out)], "manifest mismatch")
            check(res.files[0][1], res.stdout)
        jobs.append(Job("cli", name, call, full_check))

    def construct(key, depth):
        text, o = sets[key]
        want = f"{len(o[2]) ** min(depth, 10)} cover intervals"

        def check(art, stdout):
            require(want in stdout, "cover size")
            require(json.loads(art)["type"] == "description", "artifact type")
        command("construct", ["construct", "--set", text, "--depth",
                              str(depth)], f"construct-{key}.json", check)

    def thickness(key, tau):
        text = sets[key][0]

        def check(art, _):
            data = json.loads(art)
            require(data["status"] == "stabilized" and F(data["value"]) == tau,
                    "thickness value")
        command("thickness", ["thickness", "--set", text, "--depth", "8"],
                f"thickness-{key}.json", check)

    def thickness_nd(text, name, lo, hi):
        def check(art, _):
            bound = json.loads(art)["lower_bound"]
            require(lo <= F(bound["lo"]) <= F(bound["hi"]) <= hi,
                    "ball-system thickness")
        command("thickness", ["thickness", "--set", text], name, check)

    def search_kap(key, k, depth, expect, csv=False):
        text, o = sets[key] if key in sets else key

        def check(art, _):
            if csv:
                rows = art.strip().splitlines()
                require(rows[0] == "point,approx,error_bound"
                        and len(rows) == 1 + (k if expect == "feasible" else 0),
                        "kap csv rows")
                return
            data = json.loads(art)
            require(data["verdict"] == expect, f"verdict {data['verdict']}")
            if expect == "feasible":
                pts = [iv_json(p["enclosure"]) for p in data["points"]]
                check_kap_points(o, k, data["depth"], iv_json(data["x"]),
                                 iv_json(data["y"]), pts)
            else:
                check_infeasible(o, k, data["depth"])
        ext = "csv" if csv else "json"
        command("search-kap", ["search-kap", "--set", text, "--k", str(k),
                               "--depth", str(depth)],
                f"kap-{len(jobs)}.{ext}", check)

    def find_ap(key, depth, csv=False):
        text, o = sets[key]

        def check(art, _):
            if csv:
                rows = [r.split(",") for r in art.strip().splitlines()[1:]]
                require(len(rows) == 3, "witness csv rows")
                (p, e) = zip(*[(F(r[1]), F(r[2])) for r in rows])
                require(abs(p[1] - (p[0] + p[2]) / 2) <= sum(e) + F(1, 10 ** 14),
                        "csv points are not a progression")
                return
            data = json.loads(art)
            a, m, b = [iv_json(p["enclosure"]) for p in data["points"]]
            pair = data["exact_pair"]
            exact = None if pair is None else (F(pair["a"]), F(pair["b"]))
            check_combo_1d(o, F(1, 2), a, m, b, F(data["residual"]), depth,
                           exact)
        ext = "csv" if csv else "json"
        command("find-ap", ["find-ap", "--set", text, "--depth", str(depth)],
                f"ap-{key}.{ext}", check)

    def find_triangle(key, depth):
        text, o = sets[key]
        pts = [(F(0), F(0)), (F(1), F(0)), apex]
        spec = ";".join(f"{x},{y}" for x, y in pts)

        def check(art, _):
            verts = [tuple(iv_json(c) for c in v)
                     for v in json.loads(art)["vertices"]]
            for v in verts:
                for co in v:
                    require(O.point_status(o, co[0], 64)[0] != "out_at_depth"
                            if co[0] == co[1] else
                            O.interval_in_cover(o, *co, depth),
                            "vertex coordinate off the set")
            check_similar(verts, O.sq_ratios(*pts))
        command("find-triangle", ["find-triangle", "--set", text,
                                  "--triangle", spec, "--depth", str(depth)],
                f"triangle-{key}.json", check)

    def gap_lemma(k1, k2):
        def check(art, _):
            require(json.loads(art)["verdict"] == "hypotheses_hold",
                    "gap lemma verdict")
        command("certify-gap-lemma", ["certify-gap-lemma", "--set",
                                      sets[k1][0], "--set2", sets[k2][0]],
                f"gap-{k1}-{k2}.json", check)

    def plot(key, depth, witness=None):
        text, o = sets[key]
        rects = sum(len(o[2]) ** d for d in range(depth + 1))
        argv = ["plot", "--set", text, "--depth", str(depth)]
        if witness:
            argv += ["--witness", str(workdir / witness)]

        def check(art, _):
            root = ET.fromstring(art)
            tags = [el.tag.rsplit("}", 1)[-1] for el in root]
            require(tags.count("rect") == rects, "rect count")
            require(tags.count("circle") == (3 if witness else 0),
                    "witness marks")
        command("plot", argv, f"plot-{len(jobs)}.svg", check)

    def reproduce():
        def check(art, stdout):
            rows = json.loads(art)["rows"]
            require(len(rows) == 6 and all(r["pass"] for r in rows),
                    "reproduction rows")
            require(stdout.count("PASS") == 6, "PASS lines")
        command("reproduce", ["reproduce"], "reproduce.json", check)

    tau = {"mc0": O.thickness_centred(eps[0]),
           "mc1": O.thickness_centred(eps[1]), "oc0": F(1), "oc1": F(1)}
    win = [(f"off_center:{a}", O.off_centre(a)) for a in window]
    if tiny:
        construct("mc0", 4)
        thickness("oc0", tau["oc0"])
        search_kap(win[0], 4, 10, "infeasible_at_depth")
        find_ap("mc0", 8)
        plot("mc0", 3, witness="ap-mc0.json")
        return jobs
    # cheap: parsing, serialisation and rendering dominate
    construct("mc0", 6)
    construct("oc0", 8)
    construct("ifs", 5)
    thickness_nd(f"hex_packing:{gamma}", "thickness-hex.json",
                 F(725, 100), F(72514, 10000))
    thickness_nd(f"grid_ifs:seed={grid_seed}", "thickness-grid.json",
                 F(34390, 4000), F(34390, 4000))
    search_kap(win[0], 4, 10, "infeasible_at_depth")
    search_kap(win[1], 4, 10, "infeasible_at_depth", csv=True)
    search_kap(win[2], 4, 10, "infeasible_at_depth")
    search_kap((sets["mc0"][0], sets["mc0"][1]), 3, 3, "feasible")
    search_kap((sets["oc1"][0], sets["oc1"][1]), 3, 3, "feasible", csv=True)
    search_kap((sets["mc1"][0], sets["mc1"][1]), 3, 3, "feasible")
    plot("oc0", 4)
    plot("ifs", 3)
    plot("oc1", 5)
    reproduce()
    # the certificate searches behind the commands dominate
    thickness("mc0", tau["mc0"])
    thickness("oc1", tau["oc1"])
    thickness("mc1", tau["mc1"])
    find_ap("mc0", 20)
    plot("mc0", 6, witness="ap-mc0.json")
    find_ap("oc0", 16, csv=True)
    find_ap("mc1", 24)
    gap_lemma("mc0", "oc0")
    gap_lemma("mc1", "oc1")
    find_triangle("mc0", 10)
    find_triangle("mc1", 12)
    return jobs


def iv_json(d) -> tuple[F, F]:
    return F(d["lo"]), F(d["hi"])


WORKLOADS = {"line": line, "kap": kap, "plane": plane, "cli": cli}
