"""Witness pipelines for convex combinations in R^d and triangles in the
plane over compact sets generated by ball systems.

Both look for the apex f(a) - g(b) of a similar copy of a three-point
configuration, f and g the maps of its class (``_class_images``); the
combination {a, lam*a + (1-lam)*b, b} is the degenerate class, which
acts in any dimension.  Each certifies a thickness threshold, builds a
disk inside f(A) - g(B) for the designated subtrees A and B, picks an
exact target point close to the set inside that disk, and refines the
pair of subtrees level by level, checking every hypothesis with
certified arithmetic and recording it in the witness report.

The two share one path, on a class record (the class and its side
ratios, built once per pipeline): ``_designated_pair`` checks the
designated children, ``_disk`` certifies the threshold and the disk
radius against the covering slack and centers the disk, and
``_refine_to_target`` certifies r-uniformity, picks the target, refines
the pair and measures the witness.  Only the triangle's planar,
half-ball and disk-meets-set checks, and each report's keys, stay with
its pipeline.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Union

from .balls import (
    CERTIFIED,
    CERTIFIED_ANALYTIC,
    FALSIFIED,
    Ball,
    BallSystem,
    FULL_BOUND,
    L2,
    Lattice,
    Word,
    first_touching_sibling,
    h_upper,
    lattice_of,
    on_common_scale,
    r_uniformity_check,
    subset_thickness,
    yavicoli_thickness,
)
from .cantor import descend
from .errors import HypothesisError, Indeterminate, InputError
from .product import (
    NormalizedTriangle,
    Triangle,
    _ratio_deviation,
    normalize_triangle,
)
from .scalars import (
    Interval,
    Q,
    _sqrt_bounds,
    interval_sqrt,
    to_q,
)

STANDARD = "standard"
APPENDIX = "appendix"

IVec = tuple[Interval, ...]


def _as_r(r) -> Interval:
    iv = Interval.coerce(r)
    if not (0 < iv.lo and iv.hi < Q(1, 2)):
        raise InputError("r must lie in (0, 1/2)")
    return iv


def _vsub(a, b) -> IVec:
    return tuple(x - y for x, y in zip(a, b))


def _sq_norm(a: IVec) -> Interval:
    return sum(x.square() for x in a)


def _norm(a: IVec, bits: int = 128) -> Interval:
    return interval_sqrt(_sq_norm(a), bits)


# -- thresholds and windows ------------------------------------------------


def threshold(alpha_sq, lam, r, mode: str = STANDARD,
              bits: int = 128) -> Interval:
    """Certified thickness threshold for the triangle class of squared
    height ``alpha_sq``; the linear combination is the class alpha^2 = 0,
    where the square root is the exact rational (1-lam)/lam.

    Standard: sqrt((a^2+(1-lam)^2)/(a^2+lam^2)) * 2/(1-2r)
    Appendix: same ratio * 3/(2(1-2r))
    """
    a2 = to_q(alpha_sq)
    lamv = to_q(lam)
    if not (0 < lamv <= Q(1, 2)):
        raise InputError("lambda must lie in (0, 1/2]")
    r_iv = _as_r(r)
    if mode not in (STANDARD, APPENDIX):
        raise InputError(f"unknown mode {mode!r}")
    one_minus_2r = 1 - 2 * r_iv
    ratio = interval_sqrt((a2 + (1 - lamv) ** 2) / (a2 + lamv ** 2), bits)
    if mode == STANDARD:
        return ratio * 2 / one_minus_2r
    return ratio * 3 / (2 * one_minus_2r)


def lambda_window(sys: BallSystem, r, mode: str = STANDARD
                  ) -> Optional[tuple[Interval, Q]]:
    """The range of lam in (0, 1/2] whose linear-combination threshold is
    met by the system's certified thickness bound: a closed-form lower
    endpoint (enclosure) paired with the upper endpoint 1/2, or None when
    even lam = 1/2 fails."""
    r_iv = _as_r(r)
    tau = yavicoli_thickness(sys).lower_bound
    at_half = threshold(Q(0), Q(1, 2), r_iv, mode)
    if not Interval.point(tau.lo).certainly_ge(at_half):
        return None
    if mode == STANDARD:
        lo = 2 / (tau * (1 - 2 * r_iv) + 2)
    else:
        lo = 3 / (2 * tau * (1 - 2 * r_iv) + 3)
    return (lo, Q(1, 2))


# -- designated children and shared hypothesis plumbing ---------------------


Pair = tuple[int, int, Ball, Ball]
# a class and its side ratios (s_f, s_g), made once per pipeline
ClassRecord = tuple[NormalizedTriangle, Interval, Interval]


def _designated_pair(sys: BallSystem) -> Pair:
    """The generator's designated root children, checked in range and
    disjoint from their siblings, as their indices and balls with the
    smaller ball first."""
    idx_a, idx_b = sys.generator.designated
    kids = sys.kids(())
    for j in (idx_a, idx_b):
        if not (0 <= j < len(kids)):
            raise InputError("designated child index out of range")
        i = first_touching_sibling(kids, j, sys.norm)
        if i is not None:
            raise HypothesisError(
                f"designated child {j} is not disjoint from sibling {i}")
    s = sys.scale(1)
    ball_a, ball_b = sys.to_ball(kids[idx_a], s), sys.to_ball(kids[idx_b], s)
    if ball_a.radius > ball_b.radius:
        return idx_b, idx_a, ball_b, ball_a
    return idx_a, idx_b, ball_a, ball_b


def _h_b_bound(sys: BallSystem, idx_a: int, idx_b: int, h_root: Interval,
               mode: str, bits: int) -> tuple[Interval, str]:
    """Certified stand-in for the covering slack of the designated
    subtrees: twice the root slack ``h_root`` in standard mode, the root
    slack itself in appendix mode (valid only when each designated
    child's own slack certifiably stays below its distance to every
    sibling)."""
    if mode == STANDARD:
        return 2 * h_root, "2*h_root (generic subset bound)"
    for j in (idx_a, idx_b):
        rep = subset_thickness(sys, j, bits)
        if rep.kind != FULL_BOUND:
            raise HypothesisError(
                "appendix mode needs the distance-child condition; it "
                f"fails for designated child {j}")
    return h_root, "h_root (distance-child condition certified)"


def _disk(sys: BallSystem, pair: Pair, cls: ClassRecord,
          r_iv: Interval, mode: str, h_root: Interval,
          bits: int) -> tuple[Disk, dict, dict]:
    """The disk certificate both pipelines share.  The thickness bound
    tau must be certified at or above the threshold of the class
    ``cls``; then the disk radius c_a(1-2r)t_a + c_b t_b - c_b h_b, for
    the designated balls of radii t_a <= t_b, must be certified positive
    and above the root covering slack ``h_root``.  (c_a, c_b) are the
    side ratios (s_f, s_g) the class carries, the exact (lam, 1-lam) for
    the linear combination.  The center is the apex f(a) - g(b) of the
    balls' centers.  Returns the disk, the report entries of the
    designated pair and the threshold, and those of the radius; each
    pipeline places its own entries around them."""
    ia, ib, ball_a, ball_b = pair
    tri, c_a, c_b = cls
    tau = yavicoli_thickness(sys, bits).lower_bound
    thr = threshold(tri.alpha_sq, tri.lam, r_iv, mode, bits)
    if tau.lo < thr.lo:
        raise HypothesisError(
            f"thickness lower bound {tau.approx_str(8)} is below the "
            f"threshold {thr.approx_str(8)}")
    if tau.lo < thr.hi:
        raise Indeterminate("threshold comparison undecided at the "
                            "current precision")
    h_b, h_b_note = _h_b_bound(sys, ia, ib, h_root, mode, bits)
    t_d = (c_a * (1 - 2 * r_iv) * ball_a.radius + c_b * ball_b.radius
           - c_b * h_b)
    if not t_d.certainly_gt(Interval.point(Q(0))):
        raise Indeterminate("disk radius not certified positive")
    if not t_d.certainly_gt(h_root):
        raise Indeterminate("disk radius not certified above the root "
                            "covering slack")
    s = sys.scale(1)
    apex = _class_images(cls, (Q(0),) * len(ball_a.center))[0]
    center, _ = apex(lattice_of(ball_a, s), lattice_of(ball_b, s), s)
    return (Disk(center, t_d),
            {"tau_lower": tau, "threshold": thr, "threshold_ok": True,
             "children": (ia, ib), "children_disjoint": True},
            {"h_b_bound": h_b, "h_b_note": h_b_note, "h_root": h_root,
             "disk_radius": t_d})


# -- the class's maps --------------------------------------------------------


def _line(lam: Q) -> ClassRecord:
    """The class of {a, lam*a + (1-lam)*b, b}, alpha = 0, whose side
    ratios are exactly lam and 1 - lam."""
    return (NormalizedTriangle(alpha=Interval.point(Q(0)), alpha_sq=Q(0),
                               lam=lam, degenerate=True),
            Interval.point(lam), Interval.point(1 - lam))


def _ends(rows, lat: Lattice, shifts) -> tuple[tuple[int, int], ...]:
    """The ends of each coordinate of the image of the lattice point
    ``lat`` under the integer ``rows`` of a map, plus ``shifts``: row i
    sums [p, q] times coordinate k of ``lat`` over its terms (k, p, q).
    A point term (p == q) is one product; an interval term's ends are
    the smaller and the larger of its two products, as
    ``Interval.__mul__`` takes them."""
    out = []
    for row, lo in zip(rows, shifts):
        hi = lo
        for k, p, q in row:
            u = p * lat[k]
            v = u if p == q else q * lat[k]
            if u > v:
                u, v = v, u
            lo += u
            hi += v
        out.append((lo, hi))
    return tuple(out)


def _class_images(cls: ClassRecord, z: tuple[Q, ...]):
    """The maps of the class ``cls``, f = lam*I + alpha*J and
    g = -(1-lam)*I + alpha*J with J the plane's quarter turn
    (x, y) -> (-y, x), as integer rows (``_ends``) over one common
    denominator D of lam, alpha's ends, the radius factors s_f.hi and
    s_g.hi (the side ratios the class carries) and the point z.  The
    degenerate class, the linear combination, has no J term and acts in
    the dimension of z; any other class is planar.

    Returns the apex map and, in ``_refine_pair``'s protocol, the image
    maps refining f(A) - z against g(B) with the b map's spread and
    projection.  Images are over D*s, the radii s_f.hi and s_g.hi times
    the ball's.  ``apex(a, b, s)`` gives f(a) - z - g(b) for two lattice
    balls of one level, and the sum of their image radii.

    The spread, summed over a row: moving a center by at most e in every
    coordinate moves a point term p*x by at most |p|*e, and an interval
    term [p, q]*x's ends by at most max(|p|, |q|)*e and its width
    (q - p)*|x| by at most (q - p)*e.  The projection is the first row
    of the b image."""
    tri, s_f, s_g = cls
    d, (lam, a_lo, a_hi, sf, sg, *zn) = on_common_scale(
        (tri.lam, tri.alpha.lo, tri.alpha.hi, s_f.hi, s_g.hi, *z))

    def rows(diagonal: int):
        if not tri.alpha_sq:
            return tuple(((k, diagonal, diagonal),) for k in range(len(z)))
        return (((0, diagonal, diagonal), (1, -a_hi, -a_lo)),
                ((0, a_lo, a_hi), (1, diagonal, diagonal)))

    f, g = rows(lam), rows(lam - d)
    zero = (0,) * len(z)
    shift = max(sum(max(abs(p), abs(q)) for _, p, q in row) for row in g)
    stretch = sum(q - p for _, p, q in g[0])
    minus_z = {}  # -z over D*s, made once per scale s

    def image_a(lat: Lattice, s: int) -> Image:
        if s not in minus_z:
            minus_z[s] = [-c * s for c in zn]
        return _ends(f, lat, minus_z[s]), sf * lat[-1]

    def image_b(lat: Lattice, s: int) -> Image:
        return _ends(g, lat, zero), sg * lat[-1]

    def spread_b(e: int) -> tuple[int, int]:
        return shift * e, stretch * e

    def project_b(cells: list[Lattice], s: int):
        lows, widths = [0] * len(cells), [0] * len(cells)
        for k, p, q in g[0]:  # ``_ends`` of the first row, fan-wide
            if p == q:
                lows = [lo + p * c[k] for lo, c in zip(lows, cells)]
                continue
            lows = [lo + min(p * c[k], q * c[k])
                    for lo, c in zip(lows, cells)]
            widths = [w + (q - p) * abs(c[k])
                      for w, c in zip(widths, cells)]
        return lows, widths, sg * max(c[-1] for c in cells)

    def apex(lat_a: Lattice, lat_b: Lattice, s: int) -> tuple[IVec, Q]:
        (box_a, r_a), (box_b, r_b) = image_a(lat_a, s), image_b(lat_b, s)
        n = d * s
        return (tuple(Interval(Q(alo - bhi, n), Q(ahi - blo, n))
                      for (alo, ahi), (blo, bhi) in zip(box_a, box_b)),
                Q(r_a + r_b, n))

    return apex, image_a, image_b, spread_b, project_b


# -- disks ------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    center: IVec
    radius: Interval


def x_constant(r, mode: str = STANDARD) -> Interval:
    """The slack constant used in the enlarged-ball containment check:
    max(1 - 2r/(1-2r), 0) in standard mode, max(7/4 - 3/(4(1-2r)), 0) in
    appendix mode (the smaller of the two candidate constants, sound
    for either reading)."""
    r_iv = _as_r(r)
    if mode == STANDARD:
        e = 1 - (2 * r_iv) / (1 - 2 * r_iv)
    else:
        e = Interval.point(Q(7, 4)) - 3 / (4 * (1 - 2 * r_iv))
    return Interval(max(e.lo, Q(0)), max(e.hi, Q(0)))


def convex_combo_disk(sys: BallSystem, lam, r, mode: str = STANDARD,
                      bits: int = 128) -> tuple[Disk, dict]:
    """Disk certified to lie inside lam*A + (1-lam)*B for the designated
    subtrees, with radius exceeding the root covering slack so it must
    meet the set."""
    lamv = to_q(lam)
    r_iv = _as_r(r)
    disk, hypotheses, radius = _disk(sys, _designated_pair(sys), _line(lamv),
                                     r_iv, mode, h_upper(sys, (), bits), bits)
    return disk, {"mode": mode, "lambda": lamv, "r": r_iv, **hypotheses,
                  **radius, "disk_radius_above_h_root": True}


# -- target point selection --------------------------------------------------


def _certainly_inside(center: tuple[Q, ...], disk: Disk, bits: int) -> bool:
    """Whether the point ``center`` is certified inside ``disk``: the
    upper end of the enclosure of |center - disk.center| is below
    ``disk.radius.lo``.  That upper end is the upper square-root bound,
    at bits + 1, of the sum over the coordinates of the larger squared
    distance from the point's coordinate to the two ends of the disk
    center's.  These are the two rationals that
    ``_norm(_vsub(center, disk.center), bits).certainly_lt(disk.radius)``
    compares, found without building intervals."""
    far = sum(max((c - d.lo) ** 2, (c - d.hi) ** 2)
              for c, d in zip(center, disk.center))
    return _sqrt_bounds(far, bits + 1)[1] < disk.radius.lo


def _nearest_child(sys: BallSystem, word: Word, lat: Lattice,
                   at: tuple[int, ...], den: int) -> tuple[int, Lattice]:
    """The index and lattice of the child of the ball at ``word`` (of
    lattice ``lat``) whose center is nearest to the point ``at`` over
    s*den, s the children's scale, ties to the lower index.  Squared
    distances times (s*den)^2 order the children as rational ones do.

    The sorted-projection search of Friedman, Baskett and Shustek (1975)
    on the cells.  Bounds run on small integers: each offset of a cell
    from the point, scaled by den, is rounded down to a multiple of 2^k,
    k keeping about 32 bits of a child's radius, so the child's offset
    lies within one unit plus e*den (e the cells' widening) of it.
    Summed over the coordinates, the squares of the smallest and largest
    such offsets bound the child's squared distance from below and
    above.  Cells are visited nearest first in x until that x-offset's
    lower bound alone, squared, passes the least upper bound U so far,
    which every cell left also passes.  The nearest child, and any tied
    with it, is at most U away, so only the cells whose lower bound is
    at most U are derived (taken as they are when e = 0) and measured
    exactly."""
    cells, e = sys.generator.cells(lat, word)
    k = max((cells[0][-1] * den).bit_length() - 32, 0)
    slack = -(-e * den >> k)  # e*den in units of 2^k, rounded up

    def offsets(v: int) -> tuple[int, int]:
        """Bounds of |v + t| in units of 2^k, for |t| <= e*den."""
        w = v >> k
        lo, hi = (w, w + 1) if w >= 0 else (-w - 1, -w)
        return max(lo - slack, 0), hi + slack

    xs = [c[0] * den for c in cells]
    order = sorted(range(len(cells)), key=xs.__getitem__)
    right = bisect_left([xs[i] for i in order], at[0])
    left, least, seen = right - 1, None, []
    while left >= 0 or right < len(order):
        if right == len(order) or left >= 0 and (
                at[0] - xs[order[left]] <= xs[order[right]] - at[0]):
            i, left = order[left], left - 1
        else:
            i, right = order[right], right + 1
        near, _ = offsets(xs[i] - at[0])
        if least is not None and near * near > least:
            break  # the nearest cell left in x, so every one left
        lo = hi = 0
        for x, a in zip(cells[i], at):  # zip stops at the radius
            low, high = offsets(x * den - a)
            lo, hi = lo + low * low, hi + high * high
        seen.append((lo, i))
        least = hi if least is None else min(least, hi)
    kept = sorted(i for lo, i in seen if lo <= least)
    kids = (sys.generator.children(lat, word, kept) if e
            else [cells[i] for i in kept])
    _, j, kid = min((sum((x * den - a) ** 2 for x, a in zip(kid, at)), j,
                     kid) for j, kid in zip(kept, kids))
    return j, kid


def _deepest_center_in_disk(sys: BallSystem, disk: Disk, depth: int,
                            bits: int = 128) -> tuple[Word, tuple[Q, ...]]:
    """Greedy descent toward the disk center; returns the deepest word
    (up to ``depth``, or to a leaf of a finite table) whose ball center
    is certified inside the disk.

    Each step takes the child nearest to the guide point, the disk
    center's midpoint over G, on integers (``_nearest_child``).  Only the
    children whose cells cannot exclude them are derived: a child whose
    distance is bounded below, by its cell, above the least upper bound
    of any child's distance is not the nearest, nor tied with it."""
    g_den, guide_n = on_common_scale([c.mid for c in disk.center])
    word: Word = ()
    lat = sys.lattice(word)
    best: Optional[tuple[Word, tuple[Q, ...]]] = None
    for k in range(1, depth + 1):
        if not sys.child_count(word):
            break
        s = sys.scale(k)
        j, lat = _nearest_child(sys, word, lat, tuple(g * s for g in guide_n),
                                g_den)
        word += (j,)
        center = tuple(Q(x, s) for x in lat[:-1])
        if _certainly_inside(center, disk, bits):
            best = (word, center)
    if best is None:
        raise Indeterminate("no ball center certified inside the disk")
    return best


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class WitnessNd:
    """Configuration witness: point enclosures for a, b (in the two
    designated subtrees) and the combination point c, with a certified
    residual bound at the reported centers."""

    a: IVec
    b: IVec
    c: tuple[Q, ...]
    residual: Q
    defect: Interval
    depth_used: int
    hypotheses_report: dict = field(default_factory=dict)
    convention: str = "c = lam*a + (1-lam)*b"


def _ball_box(b: Ball) -> IVec:
    return tuple(Interval(c - b.radius, c + b.radius) for c in b.center)


# an image in the comparison space: (lo, hi) per coordinate and the upper
# end of the radius, as integers over an image scale
Image = tuple[tuple[tuple[int, int], ...], int]


def _may_meet(a: Image, b: Image) -> bool:
    """False when the images are certifiably disjoint: the lower end of
    the squared center gap (coordinate by coordinate as
    ``Interval.square`` bounds it) exceeds the squared reach.  A single
    coordinate whose gap exceeds the reach decides it before anything is
    squared, since the squared gap is at least that coordinate's
    square."""
    reach, gap = a[1] + b[1], 0
    for (alo, ahi), (blo, bhi) in zip(a[0], b[0]):
        d = alo - bhi
        if d <= 0:
            d = blo - ahi
            if d <= 0:
                continue
        if d > reach:
            return False
        gap += d * d
    return gap <= reach * reach


def _refine_pair(sys: BallSystem, image_a, image_b, spread_b, project_b,
                 start_a: Word, start_b: Word, depth: int
                 ) -> tuple[Word, Word]:
    """Lexicographic depth-first search for a chain of possibly
    intersecting image-ball pairs down to the requested word length.

    The maps are a class's (``_class_images``); tests pass hand-made
    ones.  ``image_a``/``image_b`` send a lattice ball and its level's
    scale s to its ``Image`` in the common comparison space, as integers
    over an image scale that depends only on s; an image's radius
    depends on the ball's radius alone.  ``spread_b(e)`` bounds how far
    moving a center by at most e in every coordinate moves each end of
    its b image, and the width (hi - lo) of its first coordinate.
    ``project_b(cells, s)`` gives, from a fan's integers, the low end
    and the width of each b image's first coordinate and the largest b
    image radius, as the full images have them.  The two words of a pair
    have the same length, so they share s and their images share a
    scale.  Pairs whose images are certifiably disjoint are pruned.  The
    test compares Euclidean disks on both norms: on an L2 system the
    true witness pair survives at every level, so the search cannot
    exhaust, but on a sup-norm system it is stricter than box
    intersection and may.  Exhaustion is ``Indeterminate``, and so is a
    search that charges more than ``node_budget()`` child-pair tests.

    The integer tests decide exactly what tests on the rational images
    would: every endpoint, reach and gap is the rational one times the
    positive image scale, the squared comparison is multiplied by its
    square, and orderings and ties are unchanged.

    ``descend`` runs the search, backtracking past dead ends; a node is
    a word, its lattice ball (None until derived) and its image.  A
    frame derives each a-side child only when its loop reaches it, and
    takes the child pairs in lexicographic order.  It skips, uncharged,
    the pairs whose first coordinates alone are farther apart than the
    largest reach of the frame: a b child is in the window of an a
    child when the low end of its first coordinate lies within the
    reach of the a image's, widened below by the widest b image.  The
    frame sorts the b fan on its projection, and builds a b image only
    for a cell that some window reaches.  A pair in a window whose last
    coordinates (y in the plane) are farther apart than its own reach
    is charged but not tested, since ``_may_meet`` rejects it on that
    coordinate alone.  Such charges ride in the count of the next pair
    tested, or in one item of their own at the frame's end, so the count
    and the budget stop are those of testing every pair of the window.

    The b side starts as cells (``Generator.cells``): a child's image
    has its cell's radius and ends within spread_b(e) of its cell's.  So
    a cell that far inside a window end is in, one that far outside is
    out, and only a cell straddling an end is derived to decide; the
    widest image is the widest cell's unless widths move, and then the
    widest among the children derived whose cells may be widest.  An
    underived b node carries its cell's image widened by spread_b(e),
    which holds the child's: the last-coordinate filter and then the
    test see that image first, the test answering False when it is
    certifiably disjoint from the a image, and otherwise deriving the
    child and testing its own.  So the frames charge the pairs, in the
    order and with the answers, of whole b fans.
    """
    def settle(node: list) -> list:
        """Derive an underived b node's child and its image, once."""
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

    def candidates(a, b):
        (wa, lat_a), (wb, lat_b) = a[:2], b[:2]
        s = sys.scale(len(wa) + 1)
        cells, e = sys.generator.cells(lat_b, wb)
        if not cells:
            return
        shift, stretch = spread_b(e)
        lows, widths, r_b = project_b(cells, s)
        nodes: list = [None] * len(cells)

        def node(j: int) -> list:
            """The b node of child j, made once: derived, or its cell."""
            if nodes[j] is None:
                box, r = image_b(cells[j], s)
                nodes[j] = ([wb + (j,), None, (tuple(
                    (lo - shift, hi + shift) for lo, hi in box), r), lat_b, s]
                    if e else [wb + (j,), cells[j], (box, r)])
            return nodes[j]

        by_x = sorted(range(len(cells)), key=lows.__getitem__)
        xs = [lows[j] for j in by_x]
        width = max(widths)
        if e and stretch:  # the widest child is among those settled
            width = max(hi - lo for (lo, hi), *_ in (
                settle(node(j))[2][0] for j, w in enumerate(widths)
                if w + 2 * stretch >= width))
        dropped = 0  # charges not yet passed to descend
        for i in range(sys.child_count(wa)):
            x, = sys.generator.children(lat_a, wa, (i,))
            a = (wa + (i,), x, image_a(x, s))
            box_a, r_a = a[2]
            (alo, ahi), (ylo, yhi), reach = box_a[0], box_a[-1], r_a + r_b
            low, high = alo - reach - width, ahi + reach
            near = by_x[bisect_left(xs, low - shift):
                        bisect_right(xs, high + shift)]
            for j in sorted(near):
                b = node(j)
                if b[1] is None and not (low <= lows[j] - shift
                                         and lows[j] + shift <= high):
                    settle(b)  # the cell straddles a window end
                if b[1] is None or low <= b[2][0][0][0] <= high:
                    (lo, hi), r = b[2][0][-1], r_a + b[2][1]
                    if ylo - hi > r or lo - yhi > r:
                        dropped += 1
                    else:
                        yield dropped + 1, a, b
                        dropped = 0
        if dropped:
            yield dropped, None, None

    lat_a, lat_b = sys.lattice(start_a), sys.lattice(start_b)
    s = sys.scale(len(start_a))
    if not _may_meet(image_a(lat_a, s), image_b(lat_b, s)):
        raise Indeterminate("designated pair images do not meet")
    if len(start_a) >= depth:
        return start_a, start_b
    a, b = descend(candidates((start_a, lat_a), (start_b, lat_b)),
                   candidates, meets, depth - len(start_a) - 1,
                   "pair refinement", backtrack=True)
    return a[0], b[0]


def _refine_to_target(sys: BallSystem, cls: ClassRecord, disk: Disk,
                      report: dict, target_key: str, depth: int, bits: int
                      ) -> tuple[tuple[Q, ...], Ball, Ball, Q, Interval]:
    """The step after the disk, shared by both drivers: certify
    r-uniformity (falsified is a hypothesis failure, anything short of
    certified is indeterminate), take the deepest ball center inside the
    disk as the target z (its word recorded under ``target_key``), and
    refine the designated pair against it with the maps of the class
    ``cls``, the record the disk was made from, down to ``depth``.
    Returns z, the refined balls a and b, and from their images the
    residual 2(s_f.hi*r_a + s_g.hi*r_b) and the defect |f(a) - g(b) - z|."""
    uni = r_uniformity_check(sys, report["r"])
    report["r_uniformity"] = uni.status
    if uni.status == FALSIFIED:
        raise HypothesisError("system is not r-uniformly dense")
    if uni.status not in (CERTIFIED_ANALYTIC, CERTIFIED):
        raise Indeterminate("r-uniformity not certified")
    word, target = _deepest_center_in_disk(sys, disk, depth, bits)
    report[target_key] = word
    ia, ib = report["children"]
    apex, *maps = _class_images(cls, target)
    wa, wb = _refine_pair(sys, *maps, (ia,), (ib,), depth)
    report["depth"] = depth
    s = sys.scale(len(wa))
    lat_a, lat_b = sys.lattice(wa), sys.lattice(wb)
    gap, reach = apex(lat_a, lat_b, s)
    return (target, sys.to_ball(lat_a, s), sys.to_ball(lat_b, s),
            2 * reach, _norm(gap, bits))


def find_convex_combo_nd(sys: BallSystem, lam, r, depth: int = 8,
                         mode: str = STANDARD,
                         bits: int = 128) -> WitnessNd:
    """Witness for a three-point configuration {a, lam*a + (1-lam)*b, b}
    in the set generated by the system, under the certified threshold.

    The combination point c is an exact ball center inside the certified
    disk; the searches refine lam*A - c against -(1-lam)*B.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    disk, report = convex_combo_disk(sys, lam, r, mode, bits)
    c, ball_a, ball_b, residual, defect = _refine_to_target(
        sys, _line(report["lambda"]), disk, report, "c_word", depth, bits)
    return WitnessNd(_ball_box(ball_a), _ball_box(ball_b), c,
                     residual, defect, depth, report)


# -- triangle pipeline -------------------------------------------------------


def triangle_disk(sys: BallSystem, tri: NormalizedTriangle, r,
                  mode: str = STANDARD,
                  bits: int = 128) -> tuple[Disk, dict]:
    """Disk certified inside f(A) - g(B) whose radius clears the root
    covering slack, so it meets the set: the apex locations of similar
    copies of the class ``tri`` with base pairs in the designated
    subtrees (``_disk``).  The threshold ratio is exact, from the
    class's alpha^2.

    The disk meets the set when it lies inside the root, or when it
    overlaps the root by 2 h_root.  The second branch stays as safety
    code, though no input found reaches it: children certified in the
    half ball (or its enlargement) keep the center well inside the
    root.  Every one of the 7140 designated pairs of the hex system at
    gamma = 99999/100000, with the equilateral class and r =
    26243/100000, and 8000 random draws of pair, gamma, class and r,
    either failed an earlier check or gave a disk inside the root."""
    if not tri.region_ok():
        raise InputError("triangle data outside the admissible region")
    s_f, s_g = tri.side_ratios(bits)
    if sys.norm != L2:
        raise InputError("triangle search needs a Euclidean-norm system")
    if len(sys.root.center) != 2:
        raise InputError("triangle search needs a planar system")
    r_iv = _as_r(r)
    pair = _designated_pair(sys)
    _, _, ball_a, ball_b = pair
    root = sys.root
    t_min = Q(min(lat[-1] for lat in sys.kids(())), sys.scale(1))
    h_root = h_upper(sys, (), bits)
    x_c = x_constant(r_iv, mode)

    # containment of the designated children: the basic half ball, else
    # the enlarged ball with radius 1/2 + t_min - h*x/(2 s_f)
    half = Ball(root.center, root.radius / 2, sys.norm)
    containment = "half_ball"
    if not (half.contains_ball(ball_a) and half.contains_ball(ball_b)):
        enlarged = (Interval.point(root.radius / 2 + t_min)
                    - h_root * x_c / (2 * s_f))
        if not all(_ball_pair_distance(b.center, root.center, b.radius,
                                       Q(0), bits).certainly_le(enlarged)
                   for b in (ball_a, ball_b)):
            raise HypothesisError("designated children not certified "
                                  "inside the half ball (or its "
                                  "enlargement)")
        containment = "enlarged_ball"

    disk, hypotheses, radius = _disk(sys, pair, (tri, s_f, s_g), r_iv, mode,
                                     h_root, bits)
    t_d = disk.radius
    center_norm = _norm(_vsub(disk.center, root.center), bits)

    # the disk must reach the set: entirely inside the root, or
    # overlapping it deeply enough to trap a slack-sized ball
    if (center_norm + t_d).certainly_le(Interval.point(root.radius)):
        meets = "disk_inside_root"
    elif (Interval.point(root.radius) + t_d - 2 * h_root
          - center_norm).certainly_ge(Interval.point(Q(0))):
        meets = "boundary_overlap"
    else:
        raise Indeterminate("disk-meets-set condition not certified")

    report = {
        "mode": mode,
        "lambda": tri.lam,
        "alpha": tri.alpha,
        "r": r_iv,
        **hypotheses,
        "containment": containment,
        "x_constant": x_c,
        "x_formula": ("max(1 - 2r/(1-2r), 0)" if mode == STANDARD
                      else "max(7/4 - 3/(4(1-2r)), 0)"),
        "x_note": "smaller of the two candidate constants; sound for both",
        "s_f": s_f,
        "s_g": s_g,
        **radius,
        "disk_meets_set": meets,
    }
    return disk, report


def find_triangle_nd(sys: BallSystem, tri: Union[Triangle,
                                                 NormalizedTriangle],
                     r, depth: int = 6, mode: str = STANDARD,
                     bits: int = 128) -> WitnessNd:
    """Witness for the vertices of a similar copy of ``tri`` in the set
    generated by a Euclidean ball system: base points x, y in the two
    designated subtrees and apex z = lam*x + (1-lam)*y + alpha*(y-x)_perp
    within the certified residual."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    norm = tri if isinstance(tri, NormalizedTriangle) \
        else normalize_triangle(tri)
    if norm.degenerate:
        raise InputError("degenerate triangle: use the linear "
                         "combination search instead")
    disk, report = triangle_disk(sys, norm, r, mode, bits)
    cls = (norm, report["s_f"], report["s_g"])
    z, ball_a, ball_b, residual, defect = _refine_to_target(
        sys, cls, disk, report, "apex_word", depth, bits)
    report["side_ratio_deviation"] = _side_ratio_deviation(
        ball_a, ball_b, z, *cls[1:], bits)
    return WitnessNd(_ball_box(ball_a), _ball_box(ball_b), z,
                     residual, defect, depth, report,
                     convention="z = lam*x + (1-lam)*y + alpha*(y-x)_perp")


def _ball_pair_distance(ca, cb, ra, rb, bits: int) -> Interval:
    """Enclosure of |p - q| over p, q ranging in the two balls."""
    mid = interval_sqrt(Interval.point(
        sum((a - b) ** 2 for a, b in zip(ca, cb))), bits)
    spread = ra + rb
    return Interval(max(mid.lo - spread, Q(0)), mid.hi + spread)


def _side_ratio_deviation(ball_a: Ball, ball_b: Ball, z, s_f: Interval,
                          s_g: Interval, bits: int) -> Q:
    """Certified bound on how far the measured side ratios deviate from
    the similarity class (s_f and s_g over the unit base)."""
    base = _ball_pair_distance(ball_a.center, ball_b.center,
                               ball_a.radius, ball_b.radius, bits)
    left = _ball_pair_distance(ball_a.center, z, ball_a.radius, Q(0), bits)
    right = _ball_pair_distance(ball_b.center, z, ball_b.radius, Q(0), bits)
    return _ratio_deviation(base, left, right, s_f, s_g)
