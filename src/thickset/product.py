"""Triangles with vertices in Cartesian squares C x C of thick linear
sets, plus triangle normalization to the (height, base-split) form.

A triangle is realized in C x C by composing two one-dimensional
certified searches: a convex-combination witness supplies the base, and
a difference-set hit supplies the pair of heights.  All coordinates come
out as exact rationals or shrinking enclosures.  Normalization has one
formula for proper and exactly collinear triangles: the split is the
apex's projection on the base over the squared base, so it needs no
square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cantor import (
    IfsSet1D,
    ThicknessReport,
    require_thickness_at_least_one,
)
from .errors import Indeterminate, InputError
from .patterns1d import _convex_combo, certified_descent
from .scalars import Interval, Q, interval_sqrt, sqrt3

Coord = Union[Q, int, str, Interval]


@dataclass(frozen=True)
class Triangle:
    """Three points in the plane; coordinates exact rationals or
    interval enclosures (for irrational placements)."""

    vertices: tuple[tuple[Interval, Interval], ...]

    @staticmethod
    def make(points: Sequence[Sequence[Coord]]) -> "Triangle":
        def sized(v, n: int) -> bool:  # a sequence of n items, not a str
            return isinstance(v, Sequence) and not isinstance(v, str) \
                and len(v) == n

        if not (sized(points, 3) and all(sized(p, 2) for p in points)):
            raise InputError("a triangle needs exactly three vertices of "
                             "two coordinates each")
        return Triangle(tuple((Interval.coerce(x), Interval.coerce(y))
                              for x, y in points))

    def is_exact(self) -> bool:
        return all(x.is_point() and y.is_point() for x, y in self.vertices)


@dataclass(frozen=True)
class NormalizedTriangle:
    """Similarity class data: longest side scaled to 1, apex height
    ``alpha``, altitude foot splitting the base into ``lam`` and
    1 - lam with lam <= 1/2.

    ``alpha_sq``/``lam_exact`` carry exact rational values when the
    input data allows them (rational vertices, or explicitly provided),
    which keeps downstream scale factors exact.
    """

    alpha: Interval
    lam: Interval
    alpha_sq: Optional[Q] = None
    lam_exact: Optional[Q] = None
    degenerate: bool = False

    def region_ok(self, slack: Q = Q(1, 2**60)) -> bool:
        """Certified check of 0 < alpha, 0 <= lam <= 1/2, and
        alpha^2 + (1-lam)^2 <= 1, with tolerance for enclosure width at
        the boundary (the equilateral class sits exactly on it)."""
        if self.degenerate:
            return False
        a2 = Interval.point(self.alpha_sq) if self.alpha_sq is not None \
            else self.alpha.square()
        reach = a2 + (1 - self.lam).square()
        return (self.alpha.hi > 0 and self.lam.lo >= -slack
                and self.lam.hi <= Q(1, 2) + slack
                and reach.lo <= 1 + slack)


def equilateral(bits: int = 128) -> NormalizedTriangle:
    """The equilateral similarity class: lam = 1/2, alpha = sqrt(3)/2."""
    return NormalizedTriangle(alpha=sqrt3(bits) / 2, lam=Interval.point(Q(1, 2)),
                              alpha_sq=Q(3, 4), lam_exact=Q(1, 2))


def _sq_dist(p, q) -> Interval:
    return (p[0] - q[0]).square() + (p[1] - q[1]).square()


def _cross(p0, p1, p2) -> Interval:
    return ((p1[0] - p0[0]) * (p2[1] - p0[1])
            - (p2[0] - p0[0]) * (p1[1] - p0[1]))


def normalize_triangle(t: Triangle) -> NormalizedTriangle:
    """Similarity invariants of a triangle: scale the longest side to 1,
    measure the apex height and the altitude-foot split.

    For rational vertices both invariants are exact rationals (the height
    over the base equals twice the area divided by the squared base, no
    square root involved).  Exactly collinear input takes the same path
    and returns a degenerate record with alpha = 0 and lam the interior
    split ratio; collinearity that is not decided is Indeterminate.
    """
    v = t.vertices
    sides = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = sides[i, j] = _sq_dist(v[i], v[j])
        if d.hi == 0:
            raise InputError("triangle vertices must be pairwise distinct")
        if d.lo <= 0:
            raise Indeterminate("vertex separation not certified at this "
                                "precision")

    cross = _cross(*v)

    degenerate = cross.lo <= 0 <= cross.hi
    if degenerate and not (cross.is_point() and t.is_exact()):
        raise Indeterminate("collinearity not decided at this precision")

    # base = longest side (certified or tie; ties are harmless since the
    # invariants agree for congruent candidates)
    (i, j), base_sq = max(sides.items(),
                          key=lambda kv: (kv[1].hi + kv[1].lo))
    for key, val in sides.items():
        if key != (i, j) and val.certainly_gt(base_sq):
            (i, j), base_sq = key, val
    k = 3 - i - j
    base_vec = (v[j][0] - v[i][0], v[j][1] - v[i][1])
    apex_vec = (v[k][0] - v[i][0], v[k][1] - v[i][1])
    dot = base_vec[0] * apex_vec[0] + base_vec[1] * apex_vec[1]
    lam_iv = dot / base_sq
    alpha_iv = abs(_cross(v[i], v[j], v[k])) / base_sq

    alpha_sq = None
    lam_exact = None
    if t.is_exact():
        alpha_sq = alpha_iv.lo * alpha_iv.lo
        lam_exact = lam_iv.lo

    if lam_iv.certainly_gt(Interval.point(Q(1, 2))):
        lam_iv = 1 - lam_iv
        lam_exact = None if lam_exact is None else 1 - lam_exact
    elif not lam_iv.certainly_le(Interval.point(Q(1, 2))):
        # straddles 1/2: fold the enclosure through the reflection
        lam_iv = Interval(min(lam_iv.lo, 1 - lam_iv.hi), Q(1, 2))
        lam_exact = None if lam_exact is None else min(lam_exact,
                                                       1 - lam_exact)
    return NormalizedTriangle(alpha=alpha_iv, lam=lam_iv,
                              alpha_sq=alpha_sq, lam_exact=lam_exact,
                              degenerate=degenerate)


# -- difference hits -----------------------------------------------------


def difference_hit(s: IfsSet1D, delta, depth: int = 20
                   ) -> tuple[Interval, Interval]:
    """Enclosures (u, v) with u, v in the set and v - u = delta, for any
    delta in [0, w], w the hull width: for a set of certified thickness
    >= 1 the gap lemma makes [0, w] the difference segment (see
    ``difference_interval``, which also checks that hypothesis).

    A ``certified_descent`` of the set against its translate by -delta:
    the two sides are placed once, as C and C - delta.lo, with y sliding
    over the enclosure's width, and the gap-lemma pair test certifies
    each pair choice for every value delta* in the enclosure at once.
    That requires the enclosure to be narrow relative to the final cover
    width.  The root pair is the first pair test, charged to the node
    budget like every other.  The descent commits, so an enclosure
    straddling a chain transition can dead-end it.
    """
    return _difference_hit(s, delta, depth, None)


def _difference_hit(s: IfsSet1D, delta, depth: int,
                    thickness: Optional[ThicknessReport]
                    ) -> tuple[Interval, Interval]:
    """``difference_hit``; a caller that has already certified the set's
    thickness passes its report, and the check is not repeated."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    div = Interval.coerce(delta)
    if div.lo < 0:
        raise InputError("delta must be nonnegative")
    if thickness is None:
        require_thickness_at_least_one(s)
    # the hull width is the difference segment (``difference_interval``)
    # once the thickness is certified
    if div.hi > s.width:
        raise InputError("delta exceeds the certified difference bound")
    x, y = certified_descent(s, (1, 0), [()], (1, -div.lo), [()], depth,
                             div.hi - div.lo)
    return Interval(*x.interval), Interval(*y.interval)


# -- triangles in the product ---------------------------------------------


@dataclass(frozen=True)
class ProductWitness:
    """Three points of C x C forming the requested similarity class, as
    coordinate enclosures with a side-ratio deviation bound."""

    base_left: tuple[Interval, Interval]
    base_right: tuple[Interval, Interval]
    apex: tuple[Interval, Interval]
    side_lengths: tuple[Interval, Interval, Interval]
    ratio_deviation: Q
    depth_used: int
    collinear: bool = False

    @property
    def vertices(self):
        return (self.base_left, self.base_right, self.apex)


def find_triangle_in_product(s: IfsSet1D, t: Union[Triangle,
                                                   NormalizedTriangle],
                             depth: int = 40,
                             bits: int = 192) -> ProductWitness:
    """Vertices of a similar copy of ``t`` inside C x C for a set of
    certified thickness >= 1.

    Pipeline: a convex-combination witness at split ``lam`` provides the
    base pair (a, b) and the foot point, a difference hit at
    span * alpha provides the two heights, and the apex is assembled from
    the foot and the upper height.  Collinear triangles route through the
    one-dimensional search directly.  By the gap lemma the difference
    segment is the hull width w, so the base span and the height
    span * alpha both stay in it once the span is at most
    w / max(alpha, 1).
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    norm = t if isinstance(t, NormalizedTriangle) else normalize_triangle(t)
    thickness = require_thickness_at_least_one(s)

    if norm.degenerate:
        if norm.lam_exact is None:
            raise Indeterminate("collinear split ratio not exact")
        w = _convex_combo(s, norm.lam_exact, depth, thickness)
        e = Interval.point(s.hull[0])  # hull endpoints always belong
        sides = _triangle_sides((w.a.enclosure, e), (w.b.enclosure, e),
                                (w.m.enclosure, e))
        return ProductWitness((w.a.enclosure, e), (w.b.enclosure, e),
                              (w.m.enclosure, e), sides,
                              ratio_deviation=w.residual,
                              depth_used=depth, collinear=True)

    if not norm.region_ok():
        raise InputError("triangle data outside the admissible "
                         "normalized region")
    if norm.lam_exact is None:
        raise Indeterminate("base split ratio must be exact for the "
                            "product search")
    lam = norm.lam_exact
    if lam == 0:
        raise InputError("degenerate split")
    alpha = norm.alpha

    # scale cap: span <= c_dyadic * w <= w / max(alpha, 1), w the hull width
    c_dyadic = Q(1)
    while c_dyadic * max(alpha.hi, 1) > 1:
        c_dyadic /= 2

    # move the combination witness into the subtree of the word 0...0
    # that is no wider than the cap, so the witness span obeys it
    # automatically: branch 0 shares the hull's left end lo, so that
    # subtree is the image of x -> lo + m*(x - lo), m = s_0^j
    lo, m = s.hull[0], Q(1)
    while m > c_dyadic:  # the subtree's width is m * w
        m *= s.branches[0].scale
    combo_depth = depth + 8
    w = _convex_combo(s, lam, combo_depth, thickness)

    def push(iv: Interval) -> Interval:
        return Interval(lo + m * (iv.lo - lo), lo + m * (iv.hi - lo))

    if w.a_exact is not None and w.b_exact is not None:
        # exact base pair: the span is a point and the height enclosure
        # is as tight as the height data itself
        a_iv = Interval.point(lo + m * (w.a_exact - lo))
        b_iv = Interval.point(lo + m * (w.b_exact - lo))
        m_iv = push(w.m.enclosure)
    else:
        a_iv, m_iv, b_iv = push(w.a.enclosure), push(w.m.enclosure), \
            push(w.b.enclosure)
    span = b_iv - a_iv
    delta = span * alpha
    u_iv, v_iv = _difference_hit(s, delta, depth, thickness)

    base_left = (a_iv, u_iv)
    base_right = (b_iv, u_iv)
    apex = (m_iv, v_iv)
    sides = _triangle_sides(base_left, base_right, apex, bits)

    # expected side ratios for the similarity class
    a2 = Interval.point(norm.alpha_sq) if norm.alpha_sq is not None \
        else alpha.square()
    dev = _ratio_deviation(*sides, *_side_ratios(a2, lam, bits))
    return ProductWitness(base_left, base_right, apex, sides,
                          ratio_deviation=dev, depth_used=depth)


def _side_ratios(a2: Interval, lam: Q, bits: int
                 ) -> tuple[Interval, Interval]:
    """s_f = sqrt(alpha^2 + lam^2) and s_g = sqrt(alpha^2 + (1-lam)^2),
    the apex's side lengths over a unit base split at lam, from the
    enclosure ``a2`` of alpha^2."""
    return (interval_sqrt(a2 + lam * lam, bits),
            interval_sqrt(a2 + (1 - lam) ** 2, bits))


def _ratio_deviation(base: Interval, left: Interval, right: Interval,
                     s_f: Interval, s_g: Interval) -> Q:
    """The largest possible |measured - expected| of the side ratios
    left/base against s_f and right/base against s_g, over all values in
    the enclosures."""
    dev = Q(0)
    for measured, expected in ((left / base, s_f), (right / base, s_g)):
        dev = max(dev, abs(measured.hi - expected.lo),
                  abs(expected.hi - measured.lo))
    return dev


def _triangle_sides(p0, p1, p2, bits: int = 192):
    d01 = interval_sqrt(_sq_dist(p0, p1), bits)
    d02 = interval_sqrt(_sq_dist(p0, p2), bits)
    d12 = interval_sqrt(_sq_dist(p1, p2), bits)
    return (d01, d02, d12)
