"""Witness construction and (in)feasibility certification for 3-point
configurations and longer arithmetic progressions on the line.

Witness searches run a certified nested descent: at every level the pair
of working pieces is re-checked against the gap-lemma hypotheses (hull
intersection, neither piece inside a gap of the other, thickness product
at least one), which guarantees the pieces genuinely intersect and the
descent can never dead-end.  Infeasibility certificates for k-term
progressions come from an exhaustive interval-feasibility search over
split tuples of cover intervals, which is sound by self-similarity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .cantor import (
    IfsSet1D,
    descend,
    gap_holds_translate,
    membership,
    IN_CERTIFIED,
    ThicknessReport,
    newhouse_thickness,
    node_budget,
    middle_cantor,
    position_member,
    require_thickness_at_least_one,
)
from .errors import InputError
from .scalars import Interval, Q, simplest_between, to_q


# -- gap geometry -------------------------------------------------------


def _longest_gap(gaps: list[tuple[Q, Q]], rightmost: bool) -> int:
    """The index g of the longest of a set's first-level ``gaps``, the
    gap between branches g and g + 1: the leftmost on ties, or the
    rightmost."""
    if not gaps:
        raise InputError("set with a single branch has no gap")
    side = 1 if rightmost else -1
    return max(range(len(gaps)),
               key=lambda g: (gaps[g][1] - gaps[g][0], side * g))


# -- certified piece descent --------------------------------------------


class Piece:
    """An affine image mul*(C restricted to a branch word) + shift, a node
    of ``certified_descent``.

    The restriction of the attractor to any word image is an affine copy
    of the whole attractor, so a piece carries full structural knowledge:
    exact hull, children, and gap queries all reduce to the base set.
    The piece holds its hull in image coordinates as integer numerators
    ``lo < hi`` over ``den``; its children follow by the child rule of
    ``form``, the base's integer form, mirrored when mul < 0 so that
    child i stays the image of the base's child i.  ``origin`` places
    the image of the base's hull: (a, w, unit) for the image of its left
    end at a/unit and a signed width w/unit.  ``hull`` and ``interval``
    are built as rationals only when asked for.  Pieces are made by the
    descent's placement and by ``children``.
    """

    __slots__ = ("base", "mul", "shift", "form", "origin", "lo", "hi", "den")

    @property
    def hull(self) -> tuple[Q, Q]:  # of the image
        return Q(self.lo, self.den), Q(self.hi, self.den)

    @property
    def interval(self) -> tuple[Q, Q]:  # in the base
        a, b = ((v - self.shift) / self.mul for v in self.hull)
        return (a, b) if a <= b else (b, a)

    def children(self) -> list["Piece"]:
        kids, den = [], self.den * self.form.den
        for lo, hi in self.form.children(self.lo, self.hi):
            p = object.__new__(Piece)
            p.base, p.mul, p.shift, p.form, p.origin = \
                self.base, self.mul, self.shift, self.form, self.origin
            p.lo, p.hi, p.den = lo, hi, den
            kids.append(p)
        return kids

    def contains_set_point(self, x: Q) -> bool:
        """Certified membership of x in the piece's set: x lies in the
        hull, and ``position_member`` certifies x's position in the image
        of the base's hull (endpoint or periodic-descent certificates),
        which is the position of (x - shift)/mul in the base's hull.
        Integers throughout."""
        n, d = x.numerator, x.denominator
        if not (self.lo * d <= n * self.den <= self.hi * d):
            return False
        a, w, unit = self.origin
        p, q = n * unit - a * d, w * d
        if q < 0:  # a mirrored placement
            p, q = -p, -q
        return position_member(self.base.form, p, q)


def _placed(s: IfsSet1D, x, x_words, y, y_words, slide: Q
            ) -> tuple[list[Piece], list[Piece]]:
    """The top pieces of both sides of a descent, each side a placement
    (mul, shift) of ``s`` and its words, over one denominator: unit *
    den**k, k the words' common length, den the set's form denominator,
    and unit the least multiple of the slide's denominator over which
    mul/hull_den and shift are integers for both placements."""
    sides = [(to_q(mul), to_q(shift), words)
             for (mul, shift), words in ((x, x_words), (y, y_words))]
    if any(mul == 0 for mul, _, _ in sides):
        raise InputError("a piece needs a nonzero multiplier")
    lengths = {len(w) for _, _, words in sides for w in words}
    if len(lengths) != 1:
        raise InputError("a descent needs top words of one length")
    if not (x_words and y_words):
        raise InputError("a descent needs top words on both sides")
    (k,) = lengths
    unit = math.lcm(slide.denominator,
                    *((mul / s.hull_den).denominator for mul, _, _ in sides),
                    *(shift.denominator for _, shift, _ in sides))
    den = unit * s.form.den ** k
    xs, ys = out = [], []
    for (mul, shift, words), pieces in zip(sides, out):
        alpha, beta = mul * unit / s.hull_den, shift * unit  # integers
        a, b = (int(alpha * h + beta) for h in s.hull_num)
        origin, form = (a, b - a, unit), s.form
        if mul < 0:
            form, a, b = form.mirrored(), b, a
        for w in words:
            p = object.__new__(Piece)
            p.base, p.mul, p.shift, p.form, p.origin, p.den = \
                s, mul, shift, form, origin, den
            p.lo, p.hi = form.walk(a, b, w)
            pieces.append(p)
    return xs, ys


def _certified(x: Piece, y: Piece, slide: Q) -> bool:
    """Gap-lemma hypotheses for x's set against every placement of y's
    set in y - [0, slide]: hulls intersect and neither set lies inside a
    gap of the other.  Together with thickness product >= 1 (checked
    once per search) this certifies the sets intersect at every
    placement.  The pieces are over one denominator, a multiple of the
    slide's."""
    sl = slide.numerator * (x.den // slide.denominator)
    if x.hi < y.lo or y.hi - sl < x.lo:
        return False
    if gap_holds_translate(x.form, x.lo, x.hi, y.lo - sl, y.lo,
                           y.hi - y.lo):
        return False
    return not gap_holds_translate(y.form, y.lo, y.hi, x.lo, x.lo + sl,
                                   x.hi - x.lo)


def certified_descent(s: IfsSet1D, x, x_words, y, y_words, depth: int,
                      slide: Q = 0) -> tuple[Piece, Piece]:
    """Leftmost pair of top pieces certified for every placement of y in
    y - [0, slide], refined level by level.  The two sides are affine
    placements x = (mul, shift) and y of the set ``s``; their top pieces
    are the images of ``x_words`` and ``y_words``, all of one length,
    and each is placed once, over one denominator, so the pair tests
    compare integers.  A certified pair's sets intersect, and any
    intersection point lies in some child pair, which is then itself
    certified, so ``descend`` commits to the leftmost one at every
    level."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    slide = to_q(slide)
    xs, ys = _placed(s, x, x_words, y, y_words, slide)
    levels = max(depth - len(x_words[0]), 0)

    def pairs(xs: list[Piece], ys: list[Piece]) -> list[tuple[Piece, Piece]]:
        return sorted(((px, py) for px in xs for py in ys),
                      key=lambda t: (t[0].lo, t[1].lo))

    return descend(pairs(xs, ys),
                   lambda px, py: pairs(px.children(), py.children()),
                   lambda px, py: _certified(px, py, slide),
                   levels, "certified descent", backtrack=False)


def _exact_point(px: Piece, py: Piece, simplest: bool
                 ) -> tuple[Q, Q, Optional[Q]]:
    """The intersection [lo, hi] of a final pair's hulls, and the first
    of lo, hi and, with ``simplest``, the simplest rational in [lo, hi]
    that is a certified member of both pieces' sets, or None.  Each
    value is tried once, and the simplest rational is computed only when
    both ends fail."""
    den = px.den  # the pair's common denominator
    lo, hi = Q(max(px.lo, py.lo), den), Q(min(px.hi, py.hi), den)

    def member(u: Q) -> bool:
        return px.contains_set_point(u) and py.contains_set_point(u)

    u = next(filter(member, dict.fromkeys((lo, hi))), None)
    if u is None and simplest:
        u = simplest_between(lo, hi)
        if not (lo < u < hi and member(u)):
            u = None
    return lo, hi, u


# -- convex-combination witnesses ----------------------------------------


@dataclass(frozen=True)
class WitnessPoint:
    enclosure: Interval
    status: str  # IN_CERTIFIED or IN_COVER-style tag


@dataclass(frozen=True)
class Witness1D:
    """Three points {a, m, b} with m = (1-lam)*a + lam*b, given as
    shrinking enclosures with a certified residual bound.

    When the enclosure endpoints (always genuine members, being word
    image endpoints) satisfy the combination identity exactly, the
    witness carries the exact pair as well.
    """

    a: WitnessPoint
    m: WitnessPoint
    b: WitnessPoint
    lam: Q
    residual: Q
    depth_used: int
    a_exact: Optional[Q] = None
    b_exact: Optional[Q] = None
    convention: str = "m = (1-lam)*a + lam*b"

    @property
    def points(self) -> tuple[WitnessPoint, WitnessPoint, WitnessPoint]:
        return (self.a, self.m, self.b)


def find_convex_combo(s: IfsSet1D, lam, depth: int = 20) -> Witness1D:
    """A nondegenerate configuration {a, (1-lam)a + lam b, b} inside a
    set of certified thickness >= 1, for any lam in (0, 1).

    The search reads the set in a unit coordinate t of its hull, from
    the left end for lam >= 1/2 and from the right end below, so that
    the far side always weighs max(lam, 1 - lam) >= 1/2.  Its pieces
    carry that change of coordinates in their multipliers and shifts,
    so the enclosures and the exact pair come out in the set's own
    coordinates.
    """
    return _convex_combo(s, lam, depth, None)


def _convex_combo(s: IfsSet1D, lam, depth: int,
                  thickness: Optional[ThicknessReport]) -> Witness1D:
    """``find_convex_combo``; a caller that has already certified the
    set's thickness passes its report, and the check is not repeated.

    With t = (x - o)/w, where o = lo and w = hi - lo for lam >= 1/2 and
    o = hi and w = lo - hi (mirrored) below, the far weight is
    lt = max(lam, 1 - lam).  The middle point m is pinned at the far end
    of the longest gap, leftmost in t on ties: an exact member.  The
    near side's branches are placed as -(1 - lt)*t and the far side's as
    lt*t - t(m), and a certified descent refines the two ends."""
    lamv = to_q(lam)
    if not (0 < lamv < 1):
        raise InputError("lambda must lie in (0, 1)")
    if depth < 0:
        raise InputError("depth must be nonnegative")
    if thickness is None:
        require_thickness_at_least_one(s)
    (lo, hi), n = s.hull, len(s.branches)
    mirrored = lamv < Q(1, 2)
    o, w, lt = (hi, lo - hi, 1 - lamv) if mirrored else (lo, hi - lo, lamv)
    gaps = s.top_gaps()
    g = _longest_gap(gaps, rightmost=mirrored)
    m = gaps[g][0] if mirrored else gaps[g][1]
    near, far = (range(g + 1, n), range(g + 1)) if mirrored \
        else (range(g + 1), range(g + 1, n))
    px, py = certified_descent(
        s, ((lt - 1) / w, (1 - lt) * o / w), [(i,) for i in near],
        (lt / w, ((1 - lt) * o - m) / w), [(j,) for j in far], depth)
    assert membership(s, m).kind == IN_CERTIFIED
    pa, pb = (py, px) if mirrored else (px, py)
    # try to pin an exact pair: any point u of the final intersection
    # that is a certified member of both pieces yields the ends
    # (u - shift)/mul, which m combines exactly.  Candidates: the
    # intersection endpoints (word-image endpoints) and the simplest
    # rational inside (catches eventually periodic witnesses)
    _, _, u = _exact_point(px, py, simplest=True)
    a_exact = b_exact = None
    if u is not None:
        a_exact, b_exact = ((u - p.shift) / p.mul for p in (pa, pb))
    (a_lo, a_hi), (b_lo, b_hi) = pa.interval, pb.interval
    status = f"in_cover_at_depth({depth})"
    return Witness1D(
        a=WitnessPoint(Interval(a_lo, a_hi), status),
        m=WitnessPoint(Interval.point(m), IN_CERTIFIED),
        b=WitnessPoint(Interval(b_lo, b_hi), status),
        lam=lamv, residual=(1 - lamv) * (a_hi - a_lo) + lamv * (b_hi - b_lo),
        depth_used=depth, a_exact=a_exact, b_exact=b_exact)


def find_3ap(s: IfsSet1D, depth: int = 20) -> Witness1D:
    """Three-term arithmetic progression witness (lam = 1/2)."""
    return find_convex_combo(s, Q(1, 2), depth)


# -- k-term progression certificates --------------------------------------


FEASIBLE = "feasible"
INFEASIBLE = "infeasible_at_depth"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class KapCertificate:
    k: int
    verdict: str
    depth: int
    explored_nodes: int
    x: Optional[Interval] = None   # first point enclosure
    y: Optional[Interval] = None   # common difference enclosure
    points: tuple[WitnessPoint, ...] = ()


# the upper bound on y before any pair constrains it: +infinity as a
# (numerator, step) pair, since cross-multiplied comparisons never let it
# bind
_NO_UPPER = (1, 0)
# the bounds lo_n/lo_d and hi_n/hi_d of a y-range, as (lo_n, lo_d, hi_n, hi_d)
_YRange = tuple[int, int, int, int]
# a box [a, b] as integer numerators over one denominator
_Box = tuple[int, int]


def _ordered_extensions(row: Callable[[int], Sequence[_Box]], k: int,
                        y_range: _YRange, budget: Optional[int] = None,
                        first: bool = False
                        ) -> Optional[list[tuple[tuple[_Box, ...], _YRange]]]:
    """The box tuples (row(0)[e[0]], ..., row(k-1)[e[k-1]]), in
    lexicographic order of their index tuples e, whose boxes have
    nondecreasing left ends and a pairwise y-range that meets
    ``y_range``: every (a_l - b_j)/(l - j) at most every
    (b_l - a_j)/(l - j), j < l, for boxes [a, b], with ``y_range`` as
    one more such pair.  Each comes with the bounds its
    walk ended on, where the two ranges meet; with ``first``, only the
    first of them.  Every row holds the same number of boxes.

    Boxes are integers over one common denominator; y bounds are
    (numerator, step) pairs compared by cross-multiplication, so no
    integer grows with k.  Positions are chosen one at a time with every
    prefix checked: each constraint involves two positions, so a tuple
    passes exactly when all its prefixes do, and a dead prefix drops its
    whole subtree.  The walk keeps its own stack rather than recursing
    over k.

    With a ``budget``, each prefix charges its pair checks (one per
    earlier position) and the walk returns None once they pass it.  A
    prefix that ends at position m has then charged at least m(m+1)/2,
    so the walk keeps state only for the positions up to
    isqrt(2 * budget) + 1, however long k is.
    """
    size = k if budget is None else \
        min(k, math.isqrt(2 * max(budget, 0)) + 2)
    lefts, rights, chosen = [0] * size, [0] * size, [0] * size
    bounds = [y_range] * size
    nxt = [0] * size
    out = []
    checks = 0
    m = 0
    kids = row(0)
    n = len(kids)
    while True:
        e = nxt[m]
        if e == n:
            m -= 1
            if m < 0:
                return out
            kids = row(m)
            continue
        nxt[m] = e + 1
        a, b = box = kids[e]
        lo_n, lo_d, hi_n, hi_d = bounds[m]
        if m:
            if a < lefts[m - 1]:
                # keep tuples ordered; boxes of one depth are disjoint, so
                # the y-range would reject this pair too, only later
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
        lefts[m], rights[m], chosen[m] = a, b, box
        if m == k - 1:
            out.append((tuple(chosen), (lo_n, lo_d, hi_n, hi_d)))
            if first:
                return out
        else:
            m += 1
            kids = row(m)
            bounds[m] = (lo_n, lo_d, hi_n, hi_d)
            nxt[m] = 0


def kap_search(s: IfsSet1D, k: int, depth: int = 8) -> KapCertificate:
    """Branch-and-prune search for k-term arithmetic progressions.

    By self-similarity a progression exists iff one exists that is split
    at the first level (not all points inside one branch image), and a
    split progression must jump a first-level gap, forcing
    y >= g_min/(k-1).  All split tuples of cover intervals are tested with
    the exact pairwise y-range; if every tuple dies by some depth, no
    k-term progression exists in the set at all.

    Boxes at depth d are integers over den**d in the hull's unit
    coordinate, den the denominator of the set's integer form, and a
    child box comes from its parent's.  A live tuple is its k boxes and
    the bounds of their pairwise y-range at or above g_min/(k-1).  The
    walk below it starts from that range, put over the children's
    denominator: a child box lies inside its parent box, so a child
    tuple's range lies inside its parent's, and the walk drops dead
    prefixes earlier but returns the tuples, order and ranges of a walk
    from g_min/(k-1) alone.  Each distinct box's children are derived
    once per level, from a store emptied at every level.

    On the last level the walk below each tuple stops at its first
    surviving extension.  The children of one tuple are sorted by left
    end at every position, so their lexicographic index order is the
    order of their left-end vectors, and that first survivor is the
    tuple's smallest child; distinct tuples have distinct children, so
    the smallest of these survivors is the smallest live tuple of the
    full expansion, which is the witness.  The last level walks the live
    tuples in groups that share a first box, in order of that box's left
    end, and stops after the first group with a survivor: boxes of one
    depth are disjoint and ordered, so every child of a tuple whose first
    box lies further left has a smaller first left end than every child
    of a tuple to its right, and the smallest survivor lies in the
    leftmost group that has one.

    The witness is built on one denominator: with its range lo_n/lo_d to
    hi_n/hi_d over den**d, the midpoint step is Y/(D * den**d),
    D = 2 * lo_d * hi_d and Y = lo_n * hi_d + hi_n * lo_d, and the
    starts run from the largest a_j * D - j * Y to the smallest
    b_j * D - j * Y; rationals are built only for the reported values.

    ``explored_nodes`` counts the C(n+k-1, k) - n split tuples at depth 1
    and the full fan of n**k candidate extensions of every live tuple
    below, last level included, however many prefix pruning or the early
    stops visit.  The budget is checked once per level, before its walks:
    the search stops with ``unknown`` when the level's fans would pass
    the node budget, with the same certificate as a check before each
    tuple's fan, and at depth 1 once the pair checks of the tuple walk
    pass it.

    When (k-1) * g_min > 1, g_min the shortest first-level gap in t,
    the verdict is immediate: consecutive points on the two sides of a
    first-level gap force y >= g_min, while (k-1) * y <= 1, so every
    depth-1 tuple dies.
    """
    if k < 3:
        raise InputError("k must be at least 3")
    if depth < 1:
        raise InputError("depth must be at least 1")
    n = len(s.branches)
    # the integer form's images relative to the hull are the branch
    # images in the hull's unit coordinate t = (x - lo)/w
    den, images = s.form.den, s.form.rel
    g_min = min(a1 - b0 for (_, b0), (a1, _) in zip(images, images[1:]))
    explored = math.comb(n + k - 1, k) - n
    if (k - 1) * g_min > den:
        return KapCertificate(k, INFEASIBLE, 1, explored)
    budget = node_budget()

    # depth 1: every position takes one of the same first-level images,
    # ordered tuples of them are the nondecreasing index tuples, and the
    # unsplit ones drop out
    top = _ordered_extensions(lambda m: images, k,
                              (g_min, k - 1) + _NO_UPPER, budget)
    if top is None:
        return KapCertificate(k, UNKNOWN, 1, max(explored, budget) + 1)
    live = [(boxes, y) for boxes, y in top if boxes[0] != boxes[-1]]
    children = s.form.children

    def extend(boxes, y, rows, first=False):
        kids = [rows[b] if b in rows else rows.setdefault(b, children(*b))
                for b in boxes]
        lo_n, lo_d, hi_n, hi_d = y
        return _ordered_extensions(kids.__getitem__, k,
                                   (lo_n * den, lo_d, hi_n * den, hi_d),
                                   first=first)

    d = 1
    while live and d < depth:
        # a live tuple means the walk charged k(k-1)/2 <= budget checks,
        # so this stays small
        fan = n ** k
        if explored + fan * len(live) > budget:
            return KapCertificate(k, UNKNOWN, d, max(explored, budget) + 1)
        explored += fan * len(live)
        d += 1
        rows = {}  # this level's children, by parent box
        if d < depth:
            live = [t for boxes, y in live for t in extend(boxes, y, rows)]
            continue
        # the last level: groups of one first box, leftmost first, up to
        # the first group with a survivor
        live.sort(key=lambda t: t[0][0])
        found = []
        for _, group in itertools.groupby(live, key=lambda t: t[0][0]):
            found = [t for boxes, y in group
                     for t in extend(boxes, y, rows, True)]
            if found:
                break
        live = found
    if not live:
        return KapCertificate(k, INFEASIBLE, d, explored)

    # boxes share the denominator den**d, so numerators order them;
    # eliminating x leaves exactly the bounds on y from the pairs j < l,
    # whose range the walk found nonempty, so every y in it has an x
    scale = den ** d
    witness, (lo_n, lo_d, hi_n, hi_d) = min(
        live, key=lambda t: [lo for lo, _ in t[0]])
    dd, yy = 2 * lo_d * hi_d, lo_n * hi_d + hi_n * lo_d
    x_lo = max(lo * dd - j * yy for j, (lo, _) in enumerate(witness))
    x_hi = min(hi * dd - j * yy for j, (_, hi) in enumerate(witness))
    for j, (lo, hi) in enumerate(witness):
        # the midpoint start plus j midpoint steps, over 2 * D * den**d
        assert 2 * lo * dd <= x_lo + x_hi + 2 * j * yy <= 2 * hi * dd
    # t = num/m maps to the set as w*t + lo, one Fraction per value
    (wn, wd), (ln, ld) = (q.as_integer_ratio() for q in (s.width, s.hull[0]))

    def back(num: int, m: int) -> Q:
        return Q(wn * ld * num + ln * wd * m, wd * ld * m)

    status = f"in_cover_at_depth({d})"
    return KapCertificate(
        k, FEASIBLE, d, explored,
        x=Interval(back(x_lo, dd * scale), back(x_hi, dd * scale)),
        y=Interval(Q(wn * lo_n, wd * lo_d * scale),
                   Q(wn * hi_n, wd * hi_d * scale)),
        points=tuple(WitnessPoint(Interval(back(lo, scale),
                                           back(hi, scale)), status)
                     for lo, hi in witness))


# -- symmetric 4-term progressions ---------------------------------------


def shmerkin_4ap(epsilon, depth: int = 16) -> KapCertificate:
    """Symmetric 4-term progression in the centred-gap set with gap ratio
    eps <= 1/3: refine t in (C - 1/2) intersect (1/3)(C - 1/2); then
    {1/2 - 3t, 1/2 - t, 1/2 + t, 1/2 + 3t} lies in C by the set's
    symmetry about 1/2."""
    eps = to_q(epsilon)
    if not (0 < eps <= Q(1, 3)):
        raise InputError("epsilon must lie in (0, 1/3] (no 4-term "
                         "progression exists for larger gaps)")
    if depth < 0:
        raise InputError("depth must be nonnegative")
    s = middle_cantor(eps)
    require_thickness_at_least_one(s)
    px, py = certified_descent(s, (1, Q(-1, 2)), [()],
                               (Q(1, 3), Q(-1, 6)), [()], depth)
    # try to pin an exact witness at an enclosure endpoint
    t_lo, t_hi, t_exact = _exact_point(px, py, simplest=False)

    def ap_points(tv_lo: Q, tv_hi: Q):
        out = []
        for coeff in (-3, -1, 1, 3):
            vals = sorted((Q(1, 2) + coeff * tv_lo, Q(1, 2) + coeff * tv_hi))
            iv = Interval(vals[0], vals[1])
            if iv.is_point():
                st = membership(s, iv.lo, depth=64).kind
            else:
                # t lies in the final pieces of C - 1/2 and (C - 1/2)/3,
                # so 1/2 + t and 1/2 + 3t lie in depth-``depth`` word
                # images, and so do 1/2 - t and 1/2 - 3t, C being
                # symmetric about 1/2
                st = f"in_cover_at_depth({depth})"
            out.append(WitnessPoint(iv, st))
        out.sort(key=lambda p: p.enclosure.lo)
        return out

    if t_exact is not None:
        pts = ap_points(t_exact, t_exact)
        t_iv = Interval.point(t_exact)
    else:
        pts = ap_points(t_lo, t_hi)
        t_iv = Interval(t_lo, t_hi)
    step = abs(t_iv) * 2
    return KapCertificate(4, FEASIBLE, depth, 0,
                          x=pts[0].enclosure, y=step, points=tuple(pts))


# -- gap lemma hypothesis checker -----------------------------------------


@dataclass(frozen=True)
class GapLemmaReport:
    hull_intersect: bool
    interwoven: bool
    thickness_product: Interval
    verdict: str  # "hypotheses_hold" | "fail"
    reason: str = ""


def gap_lemma_check(c1: IfsSet1D, c2: IfsSet1D,
                    thickness_depth: int = 8) -> GapLemmaReport:
    """Certified check of the three intersection criteria for two compact
    sets on the line: overlapping hulls, neither inside a gap of the
    other, and thickness product at least one.  Thickness values are
    exact, so ``thickness_depth`` does not change the verdict."""
    h1, h2 = c1.hull, c2.hull
    hull_ok = h1[0] <= h2[1] and h2[0] <= h1[1]
    inter_ok = False
    if hull_ok:
        # both hulls over one denominator; each set's hull is a point
        # query against the other set's gaps
        e = math.lcm(c1.hull_den, c2.hull_den)
        (a1, b1), (a2, b2) = [[v * (e // c.hull_den) for v in c.hull_num]
                              for c in (c1, c2)]
        inter_ok = not (
            gap_holds_translate(c1.form, a1, b1, a2, a2, b2 - a2)
            or gap_holds_translate(c2.form, a2, b2, a1, a1, b1 - a1))

    tau1 = newhouse_thickness(c1, thickness_depth).value
    tau2 = newhouse_thickness(c2, thickness_depth).value
    product = Interval.point(tau1 * tau2)

    if not hull_ok:
        return GapLemmaReport(hull_ok, inter_ok, product, "fail",
                              "hulls are disjoint")
    if not inter_ok:
        return GapLemmaReport(hull_ok, inter_ok, product, "fail",
                              "one set lies inside a gap of the other")
    if product.lo >= 1:
        return GapLemmaReport(hull_ok, inter_ok, product,
                              "hypotheses_hold")
    return GapLemmaReport(hull_ok, inter_ok, product, "fail",
                          f"thickness product {product.hi} below 1")
