"""Triangles with vertices in Cartesian squares C x C of thick linear
sets, plus triangle normalization to the (height, base-split) form.

A triangle is realized in C x C by composing the two public line
searches, ``find_convex_combo`` for the base and ``difference_hit`` for
the pair of heights; each checks the thickness hypothesis itself.  All
coordinates come out as exact rationals or shrinking enclosures.  A
triangle's vertices are rational, so its similarity class is a pair of
rationals: the split is the apex's projection on the base over the
squared base, and the squared height the squared cross product over the
squared base squared, with no square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .cantor import IfsSet1D, require_thickness_at_least_one
from .errors import InputError
from .patterns1d import certified_descent, find_convex_combo
from .scalars import Interval, Q, interval_sqrt, sqrt3, to_q

Coord = Union[Q, int, str]


@dataclass(frozen=True)
class Triangle:
    """Three points in the plane with exact rational coordinates."""

    vertices: tuple[tuple[Q, Q], ...]

    @staticmethod
    def make(points: Sequence[Sequence[Coord]]) -> "Triangle":
        def sized(v, n: int) -> bool:  # a sequence of n items, not a str
            return isinstance(v, Sequence) and not isinstance(v, str) \
                and len(v) == n

        if not (sized(points, 3) and all(sized(p, 2) for p in points)):
            raise InputError("a triangle needs exactly three vertices of "
                             "two coordinates each")
        return Triangle(tuple((to_q(x), to_q(y)) for x, y in points))


@dataclass(frozen=True)
class NormalizedTriangle:
    """Similarity class data: longest side scaled to 1, apex height
    ``alpha`` with its exact square ``alpha_sq``, altitude foot
    splitting the base into ``lam`` and 1 - lam with lam <= 1/2.

    ``alpha`` is an enclosure of the square root of ``alpha_sq``: a
    point for rational vertices, sqrt(3)/2 for the equilateral class.
    """

    alpha: Interval
    alpha_sq: Q
    lam: Q
    degenerate: bool = False

    def __post_init__(self):
        # the searches read alpha_sq for the region and the threshold and
        # alpha for the apex, so the two must describe one class
        a = self.alpha
        if not (0 <= a.lo and a.lo ** 2 <= self.alpha_sq <= a.hi ** 2):
            raise InputError("alpha must enclose the square root of alpha_sq")

    def region_ok(self) -> bool:
        """0 < alpha^2, 0 < lam <= 1/2 and alpha^2 + (1-lam)^2 <= 1: the
        apex is off the base, over its nearer half, and no farther from
        the far end than the base is long.  The equilateral class sits
        on the boundary."""
        return (0 < self.alpha_sq and 0 < self.lam <= Q(1, 2)
                and self.alpha_sq + (1 - self.lam) ** 2 <= 1)

    def side_ratios(self, bits: int) -> tuple[Interval, Interval]:
        """s_f = sqrt(alpha^2 + lam^2) and s_g = sqrt(alpha^2 + (1-lam)^2),
        the apex's side lengths over the unit base, from the exact
        alpha^2."""
        a2, lam = self.alpha_sq, self.lam
        return (interval_sqrt(a2 + lam * lam, bits),
                interval_sqrt(a2 + (1 - lam) ** 2, bits))


def equilateral(bits: int = 128) -> NormalizedTriangle:
    """The equilateral similarity class: lam = 1/2, alpha = sqrt(3)/2."""
    return NormalizedTriangle(alpha=sqrt3(bits) / 2, alpha_sq=Q(3, 4),
                              lam=Q(1, 2))


def normalize_triangle(t: Triangle) -> NormalizedTriangle:
    """Similarity invariants of a triangle: scale the longest side to 1,
    measure the apex height and the altitude-foot split.

    The base is the first longest side in the order (0, 1), (0, 2),
    (1, 2).  The height over the base is twice the area over the squared
    base and the split is the apex's projection over the squared base,
    so both are exact rationals.  Exactly collinear input takes the same
    path and returns a degenerate record with alpha = 0 and lam the
    interior split ratio.
    """
    v = t.vertices
    sides = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        sides[i, j] = (v[i][0] - v[j][0]) ** 2 + (v[i][1] - v[j][1]) ** 2
        if sides[i, j] == 0:
            raise InputError("triangle vertices must be pairwise distinct")
    (i, j), base_sq = max(sides.items(), key=lambda kv: kv[1])
    k = 3 - i - j
    bx, by = v[j][0] - v[i][0], v[j][1] - v[i][1]
    ax, ay = v[k][0] - v[i][0], v[k][1] - v[i][1]
    lam = (bx * ax + by * ay) / base_sq
    alpha = abs(bx * ay - ax * by) / base_sq
    return NormalizedTriangle(alpha=Interval.point(alpha),
                              alpha_sq=alpha * alpha,
                              lam=min(lam, 1 - lam), degenerate=alpha == 0)


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
    if depth < 0:
        raise InputError("depth must be nonnegative")
    div = Interval.coerce(delta)
    if div.lo < 0:
        raise InputError("delta must be nonnegative")
    require_thickness_at_least_one(s)
    # the hull width is the difference segment (``difference_interval``)
    # once the thickness is certified
    if div.hi > s.width:
        raise InputError("delta exceeds the certified difference bound")
    # with thickness >= 1 an exact delta has a chain to every depth, so
    # a dead end comes from the width of its enclosure
    width = div.hi - div.lo
    x, y = certified_descent(
        s, (1, 0), [()], (1, -div.lo), [()], depth, width,
        f"difference hit (delta enclosure {float(width):.3g} wide; "
        "a deeper chain needs a narrower height enclosure, from more "
        "precision bits)")
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
    one-dimensional search directly; any other class is checked against
    the admissible region before either search.  Each search checks the
    thickness hypothesis itself.  By the gap lemma the difference
    segment is [0, w], w the hull width.  The base pair lies in the hull,
    so its span is at most w; the base is the longest side, so
    alpha^2 <= 1 - (1 - lam)^2 <= 3/4 and the height span * alpha stays
    in the segment too.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    norm = t if isinstance(t, NormalizedTriangle) else normalize_triangle(t)

    if norm.degenerate:
        w = find_convex_combo(s, norm.lam, depth)
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
    w = find_convex_combo(s, norm.lam, depth + 8)
    if w.a_exact is not None and w.b_exact is not None:
        # exact base pair: the span is a point and the height enclosure
        # is as tight as the height data itself
        a_iv, b_iv = Interval.point(w.a_exact), Interval.point(w.b_exact)
    else:
        a_iv, b_iv = w.a.enclosure, w.b.enclosure
    u_iv, v_iv = difference_hit(s, (b_iv - a_iv) * norm.alpha, depth)

    base_left = (a_iv, u_iv)
    base_right = (b_iv, u_iv)
    apex = (w.m.enclosure, v_iv)
    sides = _triangle_sides(base_left, base_right, apex, bits)
    # expected side ratios for the similarity class
    dev = _ratio_deviation(*sides, *norm.side_ratios(bits))
    return ProductWitness(base_left, base_right, apex, sides,
                          ratio_deviation=dev, depth_used=depth)


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


def _sq_dist(p, q) -> Interval:
    return (p[0] - q[0]).square() + (p[1] - q[1]).square()


def _triangle_sides(p0, p1, p2, bits: int = 192):
    d01 = interval_sqrt(_sq_dist(p0, p1), bits)
    d02 = interval_sqrt(_sq_dist(p0, p2), bits)
    d12 = interval_sqrt(_sq_dist(p1, p2), bits)
    return (d01, d02, d12)
