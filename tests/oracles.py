"""Reference implementations the tests check the library against.

These are brute-force or cover-based computations that no library path
needs: merged combination covers and the difference segment read off
them, containment checks on covers, an unpruned k-term progression
search and the pruned one expanded in full down to its last level, both
with their own step range for a tuple of boxes, two ball predicates,
the nearest child and the first touching sibling found by scanning a
whole fan, the apex of a similarity class in rational intervals, the
plane pair refinement with a window in one coordinate,
a dense-grid farthest-point maximum in floats, and the line's
word geometry computed by composing affine maps in rationals, as the
library did before it moved to integer numerators, the depth of gaps
the thickness needs, computed in rationals, Newhouse thickness by
simulating ordered removal over listed gaps, the pair test of a
line descent over listed gaps, the set rescaled to the unit hull, which
the progression oracles search, the simplest rational in an interval
found by Stern-Brocot mediants, probe points for a certified-membership
walk on the line, and the SVG bars of a set drawn from its
rational cover, as the library drew them before it moved to integer
numerators.  The file is not collected; the tests import it by name.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Optional

from thickset.balls import (
    LINF,
    Ball,
    BallSystem,
    GridIfs,
    HexPacking,
    Lattice,
    common_denominator,
    lattice_disjoint,
    lattice_of,
)
from thickset.cantor import (
    IN_CERTIFIED,
    IN_COVER,
    OUT,
    AffineMap,
    GapRecord,
    IfsSet1D,
    MembershipResult,
    affine_image,
    descend,
    node_budget,
    require_thickness_at_least_one,
)
from thickset.errors import Indeterminate, InputError
from thickset.patterns1d import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    KapCertificate,
    WitnessPoint,
)
from thickset.patterns_nd import _may_meet
from thickset.product import ProductWitness
from thickset.scalars import Interval, Q, to_q


# -- the simplest rational -----------------------------------------------


def ref_simplest_between(lo: Q, hi: Q) -> Q:
    """The simplest rational in [lo, hi]: the first node of the
    Stern-Brocot tree that the walk toward the interval lands in, one
    mediant at a time (no continued fractions)."""
    if lo <= 0 <= hi:
        return Q(0)
    if hi < 0:
        return -ref_simplest_between(-hi, -lo)
    a, b, c, d = 0, 1, 1, 0  # the node lies between a/b and c/d
    while True:
        n, m = a + c, b + d
        if n * lo.denominator < lo.numerator * m:
            a, b = n, m
        elif n * hi.denominator > hi.numerator * m:
            c, d = n, m
        else:
            return Q(n, m)


# -- word geometry through affine maps -----------------------------------


IDENTITY = AffineMap(Q(1), Q(0))


def compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    """``outer`` after ``inner``: x -> outer(inner(x))."""
    return AffineMap(outer.scale * inner.scale,
                     outer.scale * inner.offset + outer.offset)


def word_map(s: IfsSet1D, word: tuple[int, ...]) -> AffineMap:
    m = IDENTITY
    for i in word:
        m = compose(m, s.branches[i])
    return m


def word_interval(s: IfsSet1D, word: tuple[int, ...]) -> tuple[Q, Q]:
    return word_map(s, word).apply_interval(*s.hull)


def normalize_to_unit(s: IfsSet1D) -> tuple[IfsSet1D, AffineMap]:
    """The set rescaled to the hull [0, 1], and the map sending it back
    onto ``s``."""
    lo, hi = s.hull
    w = hi - lo
    return affine_image(s, 1 / w, -lo / w), AffineMap(w, lo)


@dataclass(frozen=True)
class Cover1D:
    """Finite-depth outer approximation: the sorted disjoint union of all
    depth-n branch-word images."""

    depth: int
    intervals: tuple[tuple[Q, Q], ...]


def ref_cover(s: IfsSet1D, depth: int) -> Cover1D:
    if depth < 0:
        raise InputError("depth must be nonnegative")
    lo, hi = s.hull
    out: list[tuple[Q, Q]] = []

    def rec(m: AffineMap, d: int):
        if d == 0:
            out.append(m.apply_interval(lo, hi))
            return
        for b in s.branches:
            rec(compose(m, b), d - 1)

    rec(IDENTITY, depth)
    return Cover1D(depth, tuple(out))


def ref_interval_in_cover(s: IfsSet1D, lo: Q, hi: Q, depth: int) -> bool:
    if not (s.hull[0] <= lo and hi <= s.hull[1]):
        return False
    m = IDENTITY
    for _ in range(depth):
        for b in s.branches:
            nm = compose(m, b)
            c_lo, c_hi = nm.apply_interval(*s.hull)
            if c_lo <= lo and hi <= c_hi:
                m = nm
                break
        else:
            return False
    return True


def ref_enumerate_gaps(s: IfsSet1D, max_depth: int
                       ) -> list[tuple[Q, Q, int]]:
    gaps: list[tuple[Q, Q, int]] = []
    top = s.top_gaps()

    def rec(m: AffineMap, d: int):
        for glo, ghi in top:
            gaps.append((m(glo), m(ghi), d + 1))
        if d + 1 >= max_depth:
            return
        for b in s.branches:
            rec(compose(m, b), d + 1)

    rec(IDENTITY, 0)
    return gaps


def ref_gap_depth(s: IfsSet1D) -> int:
    """``gap_depth`` in rationals: the largest m with
    s_max^(m-1) * g_max >= g_min, from the first-level gaps and the
    branch scales, raising the same ``Indeterminate`` once enumerating
    the gaps to that depth would pass the node budget."""
    lens = [hi - lo for lo, hi in s.top_gaps()]
    g_min, reach = min(lens), max(lens)
    s_max = max(b.scale for b in s.branches)
    n, budget = len(s.branches), node_budget()
    depth, level, nodes = 1, 1, 1
    while reach * s_max >= g_min:
        reach *= s_max
        depth += 1
        level *= n
        nodes += level
        if nodes > budget:
            raise Indeterminate(f"thickness needs gaps to depth {depth}, "
                                f"over the node budget of {budget}")
    return depth


def ref_ordered_removal(hull: tuple[Q, Q], gaps) -> list[GapRecord]:
    """Simulate removal of the (lo, hi) gaps in decreasing length, ties
    by left endpoint, and record the bridges flanking each gap at its
    removal step: from the nearest removed gap, or the hull's end, on
    each side."""
    hull_lo, hull_hi = hull
    order = sorted(gaps, key=lambda g: (g[0] - g[1], g[0]))
    removed_rights: list[Q] = []  # right endpoints of removed gaps
    removed_lefts: list[Q] = []   # left endpoints of removed gaps
    records = []
    for glo, ghi in order:
        i = bisect.bisect_right(removed_rights, glo)
        left_bound = removed_rights[i - 1] if i else hull_lo
        j = bisect.bisect_left(removed_lefts, ghi)
        right_bound = removed_lefts[j] if j < len(removed_lefts) else hull_hi
        records.append(GapRecord((glo, ghi), (left_bound, glo),
                                 (ghi, right_bound)))
        bisect.insort(removed_rights, ghi)
        bisect.insort(removed_lefts, glo)
    return records


def ref_thickness(s: IfsSet1D) -> tuple[Q, GapRecord]:
    """The least ratio under ordered removal of the gaps created to two
    levels below ``ref_gap_depth(s)``, and the earliest-removed gap that
    has it."""
    gaps = [g[:2] for g in ref_enumerate_gaps(s, ref_gap_depth(s) + 2)]
    records = ref_ordered_removal(s.hull, gaps)
    best = min(r.ratio for r in records)
    return best, next(r for r in records if r.ratio == best)


def ref_membership(s: IfsSet1D, x, depth: int = 32) -> MembershipResult:
    q = to_q(x)
    lo, hi = s.hull
    if q < lo or q > hi:
        return MembershipResult(OUT, 0)
    m = IDENTITY
    for d in range(depth + 1):
        cur_lo, cur_hi = m.apply_interval(lo, hi)
        if q == cur_lo or q == cur_hi:
            return MembershipResult(IN_CERTIFIED, d)
        if d == depth:
            break
        for b in s.branches:
            nm = compose(m, b)
            c_lo, c_hi = nm.apply_interval(lo, hi)
            if c_lo <= q <= c_hi:
                m = nm
                break
        else:
            return MembershipResult(OUT, d + 1)
    return MembershipResult(IN_COVER, depth)


def ref_certified_member(s: IfsSet1D, x, max_steps: int = 256) -> bool:
    q = to_q(x)
    lo, hi = s.hull
    rel = (q - lo) / (hi - lo)
    seen = set()
    for _ in range(max_steps):
        if rel == 0 or rel == 1:
            return True
        if rel in seen:
            return True
        seen.add(rel)
        pos = lo + rel * (hi - lo)
        for b in s.branches:
            c_lo, c_hi = b.apply_interval(lo, hi)
            if c_lo <= pos <= c_hi:
                rel = (pos - c_lo) / (c_hi - c_lo)
                break
        else:
            return False
    return False


def position_probes(s: IfsSet1D, rng) -> list[Q]:
    """Points that test a certified-membership walk on ``s``: both ends
    of a random word of each length 1-12; eventually periodic points,
    the fixed point of a word of length 1-6 carried below a random
    prefix; the middle of a random top gap below a word of length k,
    which the walk meets at step k; and rationals whose denominators
    have over 1000 bits, in the hull and in a depth-48 word image."""
    n, (lo, hi) = len(s.branches), s.hull

    def word(k: int) -> tuple[int, ...]:
        return tuple(rng.randrange(n) for _ in range(k))

    points = [x for k in range(1, 13) for x in word_interval(s, word(k))]
    for period in (1, 1, 2, 2, 3, 3, 4, 4, 5, 6):
        m = word_map(s, word(period))
        points.append(word_map(s, word(rng.randrange(8)))(
            m.offset / (1 - m.scale)))
    for k in (0, 1, 2, 5, 11, 23, 39):
        g0, g1 = rng.choice(s.top_gaps())
        points.append(word_map(s, word(k))((g0 + g1) / 2))
    for k in (0, 0, 48, 48):
        q = rng.getrandbits(1010) | 1 << 1010
        t = Q(rng.randrange(1, q), q)
        points.append(word_map(s, word(k))(lo + (hi - lo) * t))
    return points


def ref_slides_into_gap(s: IfsSet1D, m: AffineMap, lo: Q, hi: Q,
                        t0: Q = 0, t1: Q = 0) -> bool:
    if lo >= hi or t0 > t1:
        raise InputError("a gap query needs lo < hi and t0 <= t1")
    first_lo, first_hi = (lo + t0, hi + t0) if t0 else (lo, hi)
    last_lo, last_hi = (lo + t1, hi + t1) if t1 else (lo, hi)
    h_lo, h_hi = s.hull
    c_lo, c_hi = m.apply_interval(h_lo, h_hi)
    if not (c_lo <= last_lo and c_hi >= first_hi):
        return False
    stack = [m]
    while stack:
        m = stack.pop()
        kids = []
        for b in s.branches:
            c = compose(m, b)
            c_lo, c_hi = c.apply_interval(h_lo, h_hi)
            if c_lo <= first_lo and last_hi <= c_hi:
                stack.append(c)
                break
            kids.append((c, c_lo, c_hi))
        else:
            for g0, g1 in s.top_gaps():
                glo, ghi = m(g0), m(g1)
                if glo < last_lo and ghi > first_hi and ghi - glo >= hi - lo:
                    return True
            stack.extend(c for c, c_lo, c_hi in kids
                         if c_lo <= last_lo and c_hi >= first_hi
                         and c_hi - c_lo >= hi - lo)
    return False


def _ref_gap_holds(s: IfsSet1D, word, lo: Q, hi: Q, t0: Q, t1: Q) -> bool:
    """Whether some [lo + t, hi + t], t0 <= t <= t1, lies inside a bounded
    gap of the subtree of ``word``, strictly at both ends, by listing
    every gap of the subtree that is at least hi - lo long."""
    width, (h_lo, h_hi) = hi - lo, s.hull
    stack = [word_map(s, word)]
    while stack:
        m = stack.pop()
        for g0, g1 in s.top_gaps():
            a, b = m(g0), m(g1)
            if b - a >= width and a < lo + t1 and b > hi + t0:
                return True
        # a gap at least width long lies in a subtree wider than that
        stack.extend(c for c in (compose(m, b) for b in s.branches)
                     if c.scale * (h_hi - h_lo) > width)
    return False


def ref_slid_pair_test(s: IfsSet1D, x, x_word, y, y_word, slide) -> bool:
    """The pair test of a line descent in rationals.  The pieces are
    X = mul*C_w + shift for x = (mul, shift) and the word w, and Y alike;
    the test passes when, for every placement Y - t with 0 <= t <= slide,
    the hulls meet and neither set lies inside a bounded gap of the
    other.  A query on a piece is asked of its word's subtree in C, in
    the coordinate (u - shift)/mul, which reverses a slide when mul < 0.
    """
    def hull(p, word):
        a, b = (p[0] * v + p[1] for v in word_interval(s, word))
        return (a, b) if a <= b else (b, a)

    def in_gap(p, word, lo, hi, t0, t1):
        mul, shift = p
        ends = sorted(((lo - shift) / mul, (hi - shift) / mul))
        return _ref_gap_holds(s, word, *ends, *sorted((t0 / mul, t1 / mul)))

    (xl, xh), (yl, yh) = hull(x, x_word), hull(y, y_word)
    if xh < yl or yh - slide < xl:
        return False
    return not (in_gap(x, x_word, yl, yh, -slide, 0)
                or in_gap(y, y_word, xl, xh, 0, slide))


# -- Minkowski combinations of covers -----------------------------------


def merge_intervals(intervals) -> list[tuple[Q, Q]]:
    """Union of closed intervals; touching intervals merge."""
    merged: list[list[Q]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def self_combo_cover(s: IfsSet1D, mu, nu, depth: int,
                     _memo: dict | None = None) -> tuple[tuple[Q, Q], ...]:
    """Merged union of mu*cover(s, depth) + nu*cover(s, depth), computed
    by self-similarity instead of pair enumeration.

    Since mu*A + nu*A = mu*(A + (nu/mu)*A), only unit-mu unions are
    built; scaling by mu carries their components onto those of the
    result, in reverse order when mu < 0, and mu = 0 swaps the two
    coefficients.  cover(depth) splits into branch images of
    cover(depth - 1), so a unit union merges (#branches)^2 scaled
    translates of lower-depth unit unions.  These are memoized on
    (nu/mu, depth); k levels down the ratios are nu/mu times k branch
    scale quotients r_j/r_i, which leaves one key per level for equal
    scales and 2k + 1 for two unequal ones.
    """
    if _memo is None:
        _memo = {}
    muv, nuv = to_q(mu), to_q(nu)
    if muv == 0:
        muv, nuv = nuv, muv
        if muv == 0:
            return ((Q(0), Q(0)),)
    unit = _unit_combo_cover(s, nuv / muv, depth, _memo)
    if muv > 0:
        return tuple((muv * a, muv * b) for a, b in unit)
    return tuple((muv * b, muv * a) for a, b in reversed(unit))


def _unit_combo_cover(s: IfsSet1D, ratio: Q, depth: int,
                      memo: dict) -> tuple[tuple[Q, Q], ...]:
    """Merged union of cover(s, depth) + ratio*cover(s, depth)."""
    key = (ratio, depth)
    if key in memo:
        return memo[key]
    lo, hi = s.hull
    if depth == 0:
        b0, b1 = sorted((ratio * lo, ratio * hi))
        result: tuple[tuple[Q, Q], ...] = ((lo + b0, hi + b1),)
    else:
        pieces: list[tuple[Q, Q]] = []
        for b1_ in s.branches:
            for b2_ in s.branches:
                sub = _unit_combo_cover(s, ratio * b2_.scale / b1_.scale,
                                        depth - 1, memo)
                m = b1_.scale
                shift = b1_.offset + ratio * b2_.offset
                pieces.extend((m * a + shift, m * b + shift) for a, b in sub)
        result = tuple(merge_intervals(pieces))
        if len(result) > 200_000:
            raise Indeterminate("self-similar combination cover grew too "
                                "fragmented to continue")
    memo[key] = result
    return result


def subtree_combo_cover(s: IfsSet1D, left_branches, right_branches,
                        mu, nu, depth: int) -> tuple[tuple[Q, Q], ...]:
    """Merged union of mu*A_d + nu*B_d where A_d (resp. B_d) is the part
    of cover(s, depth) under the given left (resp. right) first-level
    branches.  Used for combinations of the two sides of a gap."""
    if depth < 1:
        raise InputError("depth must be at least 1 to split at a gap")
    muv, nuv = to_q(mu), to_q(nu)
    memo: dict = {}
    pieces: list[tuple[Q, Q]] = []
    for i in left_branches:
        for j in right_branches:
            bi, bj = s.branches[i], s.branches[j]
            sub = self_combo_cover(s, muv * bi.scale, nuv * bj.scale,
                                   depth - 1, memo)
            shift = muv * bi.offset + nuv * bj.offset
            pieces.extend((a + shift, b + shift) for a, b in sub)
    return tuple(merge_intervals(pieces))


def combo_difference_interval(s: IfsSet1D, max_depth: int = 10) -> Q:
    """Largest L with [0, L] inside the merged cover of C - C at every
    depth up to ``max_depth``: the difference segment read off covers."""
    require_thickness_at_least_one(s)
    if max_depth < 0:
        raise InputError("max_depth must be nonnegative")
    best: Q | None = None
    memo: dict = {}
    for d in range(max_depth + 1):
        merged = self_combo_cover(s, Q(1), Q(-1), d, memo)
        reach = Q(0)
        for a, b in merged:
            if a <= 0 <= b:
                reach = b
                break
        best = reach if best is None or reach < best else best
        if best == 0:
            break
    return best if best is not None else Q(0)


# -- combinations across the largest gap --------------------------------


def combo_core_intervals(lam, k1, k2) -> tuple[tuple[Q, Q], tuple[Q, Q]]:
    """The two closed intervals [lam*k2, lam] and
    [lam*k2 + (1-lam)*k1, lam + (1-lam)*k1] that are guaranteed to lie in
    (1-lam)*A + lam*B when A, B are the two sides of the gap (k1, k2) of
    a unit-hull set of thickness >= 1.  They may touch or overlap."""
    lamv, k1v, k2v = to_q(lam), to_q(k1), to_q(k2)
    if not (0 < lamv < 1):
        raise InputError("lambda must lie in (0, 1)")
    if not (0 < k1v < k2v < 1):
        raise InputError("need 0 < k1 < k2 < 1")
    first = (lamv * k2v, lamv)
    second = (lamv * k2v + (1 - lamv) * k1v, lamv + (1 - lamv) * k1v)
    return first, second


def longest_gap(s: IfsSet1D) -> tuple[Q, Q]:
    """Endpoints of the longest gap between consecutive first-level word
    intervals, the leftmost on ties.  Every deeper gap is a contraction
    of a first-level one, so no gap of the set is longer."""
    imgs = sorted(word_interval(s, (i,)) for i in range(len(s.branches)))
    gaps = [(a[1], b[0]) for a, b in zip(imgs, imgs[1:])]
    if not gaps:
        raise InputError("set with a single branch has no gap")
    return max(gaps, key=lambda g: (g[1] - g[0], -g[0]))


def split_branches(s: IfsSet1D) -> tuple[list[int], list[int], Q, Q]:
    """Branch indices left/right of the largest gap plus its endpoints."""
    k1, k2 = longest_gap(s)
    left, right = [], []
    for i, (ilo, ihi) in enumerate(s.branch_images()):
        if ihi <= k1:
            left.append(i)
        else:
            right.append(i)
    return left, right, k1, k2


def verify_combo_containment(s: IfsSet1D, lam, depth: int) -> bool:
    """Check that both guaranteed core intervals lie inside the depth-d
    cover of (1-lam)*A + lam*B, where A and B are the parts of the set
    left and right of its largest gap.  A necessary consequence of the
    guaranteed containment, machine-checkable on covers."""
    lamv = to_q(lam)
    require_thickness_at_least_one(s)
    if s.hull != (Q(0), Q(1)):
        raise InputError("normalize the set to hull [0, 1] first")
    left, right, k1, k2 = split_branches(s)
    merged = subtree_combo_cover(s, left, right, 1 - lamv, lamv, depth)
    for tlo, thi in combo_core_intervals(lamv, k1, k2):
        if not any(a <= tlo and thi <= b for a, b in merged):
            return False
    return True


# -- drawing -------------------------------------------------------------


def _ref_fmt(q: Q) -> str:
    """q rounded half-up to three decimals."""
    v = math.floor(q * 1000 + Q(1, 2))
    digits = str(abs(v)).rjust(4, "0")
    return f"{'-' if v < 0 else ''}{digits[:-3]}.{digits[-3:]}"


def ref_render_set_1d(s: IfsSet1D, depth: int,
                      marks: list[Q] | None = None) -> str:
    """``render.render_set_1d`` from ``ref_cover``: every bar end mapped to
    pixels in rationals."""
    lo, hi = s.hull
    height = 24 + 28 * (depth + 1) + (24 if marks else 0)

    def x_of(v: Q) -> str:
        return _ref_fmt((v - lo) / (hi - lo) * 616 + 12)

    body = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="640" height="{height}" '
            f'viewBox="0 0 640 {height}">']
    for d in range(depth + 1):
        for a, b in ref_cover(s, d).intervals:
            body.append(f'<rect x="{x_of(a)}" y="{12 + 28 * d}" '
                        f'width="{_ref_fmt((b - a) / (hi - lo) * 616)}" '
                        f'height="20" fill="#30567f" />')
    for p in marks or []:
        body.append(f'<circle cx="{x_of(p)}" cy="{16 + 28 * (depth + 1)}" '
                    f'r="5" fill="#c23b21" />')
    return "\n".join(body + ["</svg>"]) + "\n"


# -- cover membership ---------------------------------------------------


def point_in_cover(s: IfsSet1D, x, depth: int) -> bool:
    q = to_q(x)
    return ref_interval_in_cover(s, q, q, depth)


def product_witness_in_cover(s: IfsSet1D, w: ProductWitness,
                             depth: int) -> bool:
    """Machine check: every coordinate enclosure of the witness meets the
    depth-d cover of the set."""
    for (x, y) in w.vertices:
        for coord in (x, y):
            if not ref_interval_in_cover(s, coord.lo, coord.hi, depth):
                return False
    return True


# -- triangle invariants from side lengths ------------------------------


def exact_sqrt_ratio(q: Q) -> Q:
    """Exact square root of a rational that must be a perfect square."""
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise Indeterminate(f"split ratio {q} is not a perfect square")
    return Q(rn, rd)


def ref_triangle_invariants(points) -> tuple[Q, Q, bool]:
    """(alpha^2, lam, collinear) of three distinct rational points, read
    off the squared side lengths alone.  The longest side (i, j) is the
    base, of squared length b; with d_i, d_j the squared distances from
    the third point to i and to j, the points are collinear exactly when
    the area in Heron's form, 4*d_i*d_j - (b - d_i - d_j)^2, is zero.
    A collinear triple splits the base at sqrt(d_i / b), the square-root
    split; any other at the altitude foot (b + d_i - d_j) / (2b), by the
    law of cosines, with alpha^2 = d_i / b - lam^2.  lam is folded into
    [0, 1/2]."""
    def d2(p, q):
        return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2

    pts = [tuple(map(to_q, p)) for p in points]
    i, j = max(((0, 1), (0, 2), (1, 2)),
               key=lambda e: d2(pts[e[0]], pts[e[1]]))
    k = 3 - i - j
    b, di, dj = d2(pts[i], pts[j]), d2(pts[i], pts[k]), d2(pts[j], pts[k])
    collinear = 4 * di * dj == (b - di - dj) ** 2
    if collinear:
        lam, alpha_sq = exact_sqrt_ratio(di / b), Q(0)
    else:
        lam = (b + di - dj) / (2 * b)
        alpha_sq = di / b - lam * lam
    return alpha_sq, min(lam, 1 - lam), collinear


# -- k-term progressions ------------------------------------------------


def ref_y_range(boxes: list[tuple[Q, Q]], y_min: Q
                ) -> Optional[tuple[Q, Q]]:
    """The steps y >= y_min for which some x puts every x + j*y in
    boxes[j], or None.  Such an x exists exactly when the largest
    a_j - j*y is at most the smallest b_l - l*y, that is when every pair
    j < l has (a_l - b_j)/(l - j) <= y <= (b_l - a_j)/(l - j)."""
    pairs = [(j, l) for l in range(len(boxes)) for j in range(l)]
    lo = max([y_min] + [(boxes[l][0] - boxes[j][1]) / (l - j)
                        for j, l in pairs])
    hi = min((boxes[l][1] - boxes[j][0]) / (l - j) for j, l in pairs)
    return (lo, hi) if lo <= hi else None


def kap_bruteforce(s: IfsSet1D, k: int, depth: int) -> str:
    """No-pruning oracle: enumerate every split k-tuple of depth-d cover
    intervals directly and run the same exact feasibility test."""
    norm, _ = normalize_to_unit(s)
    gaps = norm.top_gaps()
    y_min = min(g1 - g0 for g0, g1 in gaps) / (k - 1)
    ints = ref_cover(norm, depth).intervals
    per_branch = len(ints) // len(norm.branches)
    for combo in itertools.combinations_with_replacement(
            range(len(ints)), k):
        if combo[0] // per_branch == combo[-1] // per_branch:
            continue  # not split at the first level
        boxes = [ints[i] for i in combo]
        if ref_y_range(boxes, y_min) is not None:
            return FEASIBLE
    return INFEASIBLE


def _ref_ordered_extensions(kids, y_min, budget=None):
    """Every ordered index tuple whose boxes keep a nonempty pairwise
    y-range at or above ``y_min``, in lexicographic order, or None once
    the walk's pair checks pass ``budget``."""
    k = len(kids)
    lefts, rights, chosen = [0] * k, [0] * k, [0] * k
    bounds = [y_min + (1, 0)] * k
    nxt = [0] * k
    out = []
    checks = 0
    m = 0
    while m >= 0:
        e = nxt[m]
        if e == len(kids[m]):
            m -= 1
            continue
        nxt[m] = e + 1
        a, b = kids[m][e]
        lo_n, lo_d, hi_n, hi_d = bounds[m]
        if m:
            if a < lefts[m - 1]:
                continue
            if budget is not None:
                checks += m
                if checks > budget:
                    return None
            for j in range(m):
                step = m - j
                c = a - rights[j]
                if c * lo_d > lo_n * step:
                    lo_n, lo_d = c, step
                c = b - lefts[j]
                if c * hi_d < hi_n * step:
                    hi_n, hi_d = c, step
            if lo_n * hi_d > hi_n * lo_d:
                continue
        lefts[m], rights[m], chosen[m] = a, b, e
        if m == k - 1:
            out.append(tuple(chosen))
        else:
            m += 1
            bounds[m] = (lo_n, lo_d, hi_n, hi_d)
            nxt[m] = 0
    return out


def ref_kap_search(s: IfsSet1D, k: int, depth: int = 8) -> KapCertificate:
    """The pruned progression search with every live tuple expanded to
    ``depth`` and carried with its words, and the witness boxes rebuilt
    from the smallest survivor's words: the full expansion that the
    library's search stops early on the last level."""
    if k < 3:
        raise InputError("k must be at least 3")
    if depth < 1:
        raise InputError("depth must be at least 1")
    norm, back = normalize_to_unit(s)
    n = len(norm.branches)
    den, images = norm.form.den, norm.form.rel
    g_min = min(a1 - b0 for (_, b0), (a1, _) in zip(images, images[1:]))
    explored = math.comb(n + k - 1, k) - n
    if (k - 1) * g_min > den:
        return KapCertificate(k, INFEASIBLE, 1, explored)
    budget = node_budget()
    fan = n ** k

    def children(boxes, words, d, walk_budget=None):
        kids = [[(lo * den + (hi - lo) * a, lo * den + (hi - lo) * b)
                 for a, b in images] for lo, hi in boxes]
        ext = _ref_ordered_extensions(kids, (g_min * den ** d, k - 1),
                                      walk_budget)
        if ext is None:
            return None
        return [(tuple(kids[j][e[j]] for j in range(k)),
                 tuple(w + (i,) for w, i in zip(words, e)))
                for e in ext]

    first = children(((0, 1),) * k, ((),) * k, 0, budget)
    if first is None:
        return KapCertificate(k, UNKNOWN, 1, max(explored, budget) + 1)
    live = [t for t in first if t[1][0] != t[1][-1]]
    d = 1
    while live and d < depth:
        nxt = []
        for boxes, words in live:
            if explored + fan > budget:
                return KapCertificate(k, UNKNOWN, d,
                                      max(explored, budget) + 1)
            explored += fan
            nxt.extend(children(boxes, words, d))
        live = nxt
        d += 1
    if not live:
        return KapCertificate(k, INFEASIBLE, d, explored)

    _, words = min(live, key=lambda t: [lo for lo, _ in t[0]])
    boxes = [word_interval(norm, w) for w in words]
    y_lo, y_hi = ref_y_range(boxes, Q(g_min, den) / (k - 1))
    y_mid = (y_lo + y_hi) / 2
    x_lo = max(boxes[j][0] - j * y_mid for j in range(k))
    x_hi = min(boxes[j][1] - j * y_mid for j in range(k))
    pts = []
    for j in range(k):
        v = (x_lo + x_hi) / 2 + j * y_mid
        assert boxes[j][0] <= v <= boxes[j][1]
        pts.append(WitnessPoint(Interval(back(boxes[j][0]),
                                         back(boxes[j][1])),
                                f"in_cover_at_depth({d})"))
    return KapCertificate(
        k, FEASIBLE, d, explored,
        x=Interval(back(x_lo), back(x_hi)),
        y=Interval(y_lo * back.scale, y_hi * back.scale),
        points=tuple(pts))


# -- balls --------------------------------------------------------------


def ref_child(gen, parent: Lattice, word, i: int) -> Lattice:
    """Child ``i`` of the lattice ball ``parent`` found at ``word``, one
    child at a time by each builder's formula; the grid's perturbation
    hashes the full keys "seed|word|child|coord" on its own."""
    if isinstance(gen, GridIfs):
        p, q, t, taus, k = gen._table
        tx, ty = taus[i]
        if word:
            key = f"{gen.seed}|{','.join(map(str, word))}|{i}|"
            vx, vy = (int.from_bytes(
                hashlib.sha256(f"{key}{c}".encode()).digest()[:8], "big")
                for c in "01")
            tx += k * (vx - 2**63)
            ty += k * (vy - 2**63)
        nx, ny, nr = parent
        return nx * q * t + q * nr * tx, ny * q * t + q * nr * ty, nr * p * t
    if isinstance(gen, HexPacking):
        p, q, t, taus = gen._table
        hx, hy = taus[i]
        m, shrink = q, 1
        if not word:  # gamma = g/h folded into the root level
            h = gen.gamma.denominator
            m = q * h
            shrink = gen.gamma.numerator if i in gen.designated else h
        nx, ny, nr = parent
        return (nx * m * t + nr * m * hx, ny * m * t + nr * m * hy,
                nr * p * t * shrink)
    return lattice_of(gen.nodes[word + (i,)], gen._scales[len(word) + 1])


def ref_lattice(sys: BallSystem, word) -> Lattice:
    """The ball at ``word`` in lattice form, walked with ``ref_child``."""
    lat = lattice_of(sys.root, common_denominator(sys.root))
    for j in range(len(word)):
        lat = ref_child(sys.generator, lat, word[:j], word[j])
    return lat


def disjoint_from(a: Ball, b: Ball) -> bool:
    """Strict disjointness of the closed balls (touching counts as
    intersecting), on their lattice forms over a common scale."""
    s = math.lcm(common_denominator(a), common_denominator(b))
    return lattice_disjoint(lattice_of(a, s), lattice_of(b, s), a.norm)


def ref_first_touching_sibling(kids: list[Ball], j: int) -> Optional[int]:
    """The lowest index of a sibling that ``kids[j]`` is not strictly
    disjoint from, scanning every sibling."""
    for i, other in enumerate(kids):
        if i != j and not disjoint_from(kids[j], other):
            return i
    return None


def ref_nearest_child(sys: BallSystem, word, point: tuple[Q, ...]) -> int:
    """The index of the child of the ball at ``word`` whose center is
    nearest to ``point`` in the Euclidean norm, over the whole fan in
    rationals, ties to the lower index."""
    kids = sys.children(word)
    return min(range(len(kids)), key=lambda i: (sum(
        (c - p) ** 2 for c, p in zip(kids[i].center, point)), i))


def ref_apex(tri, x, y) -> tuple[Interval, ...]:
    """f(x) - g(y), the apex of the class ``tri`` over the base pair
    (x, y), in rational ``Interval`` arithmetic, as the library computed
    it before it moved to the class's integer rows.  The degenerate
    class alpha^2 = 0 gives the combination lam*x + (1-lam)*y in any
    dimension.  Any other class is planar: f has matrix
    [[lam, -alpha], [alpha, lam]] and g has matrix
    [[-(1-lam), -alpha], [alpha, -(1-lam)]], so the apex is
    lam*x + (1-lam)*y + alpha*(y2-x2, x1-y1)."""
    lam, lm = tri.lam, 1 - tri.lam
    if not tri.alpha_sq:
        return tuple(Interval.point(lam * a + lm * b) for a, b in zip(x, y))
    (x1, x2), (y1, y2) = (tuple(map(Interval.coerce, p)) for p in (x, y))
    alpha = tri.alpha
    return (lam * x1 - alpha * x2 - (-lm * y1 - alpha * y2),
            alpha * x1 + lam * x2 - (alpha * y1 - lm * y2))


def ref_refine_pair(sys: BallSystem, image_a, image_b, spread_b,
                    start_a, start_b, depth: int, log=None):
    """The pair refinement with a window in the first coordinate alone,
    as the library ran it before it filtered the window on the last
    coordinate and charged the dropped pairs together: every b image of
    a fan is built, and every pair in the x window is a frame item of
    count 1, charged and tested.
    With ``log``, each test appends (a word, b word, the answer, whether
    the last coordinates of the images it tests first are farther apart
    than the pair's reach)."""
    def settle(node: list) -> list:
        if node[1] is None:
            word, _, _, parent, s = node
            node[1], = sys.generator.children(parent, word[:-1], word[-1:])
            node[2] = image_b(node[1], s)
        return node

    def meets(a, b) -> bool:
        if b[1] is None:
            if not _may_meet(a[2], b[2]):
                return False
            settle(b)
        return _may_meet(a[2], b[2])

    def logged(a, b) -> bool:
        (ya, yb), reach = (a[2][0][-1], b[2][0][-1]), a[2][1] + b[2][1]
        apart = ya[0] - yb[1] > reach or yb[0] - ya[1] > reach
        answer = meets(a, b)
        log.append((a[0], b[0], answer, apart))
        return answer

    def candidates(a, b):
        (wa, lat_a), (wb, lat_b) = a[:2], b[:2]
        s = sys.scale(len(wa) + 1)
        cells, e = sys.generator.cells(lat_b, wb)
        if not cells:
            return
        shift, stretch = spread_b(e)
        imgs = [image_b(c, s) for c in cells]
        nodes: list = [None] * len(cells)

        def node(j: int) -> list:
            if nodes[j] is None:
                box, r = imgs[j]
                nodes[j] = ([wb + (j,), None, (tuple(
                    (lo - shift, hi + shift) for lo, hi in box), r), lat_b, s]
                    if e else [wb + (j,), cells[j], imgs[j]])
            return nodes[j]

        lows = [box[0][0] for box, _ in imgs]
        by_x = sorted(range(len(cells)), key=lows.__getitem__)
        xs = [lows[j] for j in by_x]
        r_b = max(r for _, r in imgs)
        width = max(box[0][1] - box[0][0] for box, _ in imgs)
        if e and stretch:  # the widest child is among those settled
            width = max(box[0][1] - box[0][0] for box in (
                settle(node(j))[2][0] for j, (cell, _) in enumerate(imgs)
                if cell[0][1] - cell[0][0] + 2 * stretch >= width))
        for i in range(sys.child_count(wa)):
            x, = sys.generator.children(lat_a, wa, (i,))
            a = (wa + (i,), x, image_a(x, s))
            (alo, ahi), reach = a[2][0][0], a[2][1] + r_b
            low, high = alo - reach - width, ahi + reach
            near = by_x[bisect.bisect_left(xs, low - shift):
                        bisect.bisect_right(xs, high + shift)]
            for j in sorted(near):
                b = node(j)
                if b[1] is None and not (low <= lows[j] - shift
                                         and lows[j] + shift <= high):
                    settle(b)  # the cell straddles a window end
                if b[1] is None or low <= b[2][0][0][0] <= high:
                    yield 1, a, b

    lat_a, lat_b = sys.lattice(start_a), sys.lattice(start_b)
    s = sys.scale(len(start_a))
    if not _may_meet(image_a(lat_a, s), image_b(lat_b, s)):
        raise Indeterminate("designated pair images do not meet")
    if len(start_a) >= depth:
        return start_a, start_b
    a, b = descend(candidates((start_a, lat_a), (start_b, lat_b)),
                   candidates, meets if log is None else logged,
                   depth - len(start_a) - 1, "pair refinement",
                   backtrack=True)
    return a[0], b[0]


def contains_point(ball: Ball, p: tuple[Q, ...]) -> bool:
    if ball.norm == LINF:
        return all(abs(a - b) <= ball.radius
                   for a, b in zip(ball.center, p))
    return sum((a - b) ** 2
               for a, b in zip(ball.center, p)) <= ball.radius ** 2


def _reach(x, c, norm: str) -> float:
    diffs = [a - b for a, b in zip(x, c)]
    if norm == LINF:
        return max(map(abs, diffs))
    return math.sqrt(sum(t * t for t in diffs))


def reach_at(x, targets, norm: str) -> float:
    """min_i (|x - c_i| + w_i) at the one point ``x``, in floats."""
    x = [float(a) for a in x]
    return min(_reach(x, map(float, c), norm) + float(w) for c, w in targets)


def grid_farthest(ball: Ball, targets, n: int) -> tuple[float, float]:
    """The largest min_i (|x - c_i| + w_i), in floats, over the points x
    of the ball on an n-per-axis grid spanning its bounding cube, for
    ``targets`` given as (center, weight) pairs of rationals, and the
    mesh term the true maximum over the ball can exceed it by.

    With grid step h, every point of the cube is within h*sqrt(d)/2 of
    a grid point in the Euclidean norm.  Moving a maximizer that far
    toward the center first and then to its nearest grid point stays in
    the ball, so a grid point of the ball lies within h*sqrt(d) of it in
    either norm, and the function is 1-Lipschitz.  Rounding moves a
    grid point by far less than the tolerance the tests allow."""
    dim, rad = len(ball.center), float(ball.radius)
    mid = [float(c) for c in ball.center]
    near = [([float(a) for a in c], float(w)) for c, w in targets]
    step = 2 * rad / (n - 1)
    best = -math.inf
    for x in itertools.product(*([c - rad + step * j for j in range(n)]
                                 for c in mid)):
        if _reach(x, mid, ball.norm) <= rad:
            best = max(best, min(_reach(x, c, ball.norm) + w
                                 for c, w in near))
    return best, step * math.sqrt(dim)
