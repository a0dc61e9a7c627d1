"""Independent exact oracle for one-dimensional self-similar sets.

The benchmark checks every certificate with this module and never with the
function that produced it.  A set is held as ``(lo, hi, maps)``: the hull
and the branch maps ``x -> s*x + o`` as Fraction pairs, built from the same
parameters the benchmark hands to the library.  Everything here is plain
Fraction arithmetic over word images.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F


class BadResult(Exception):
    """A certificate failed an independent check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise BadResult(what)


# -- sets --------------------------------------------------------------------


def centred(eps: F):
    s = (1 - eps) / 2
    return (F(0), F(1), ((s, F(0)), (s, (1 + eps) / 2)))


def off_centre(a: F):
    return (F(0), F(1), ((a, F(0)), (1 - 2 * a, 2 * a)))


def branches(lo, hi, pairs):
    return (F(lo), F(hi), tuple((F(s), F(o)) for s, o in pairs))


def affine(ifs, a: F, b: F):
    """The set a*C + b: conjugated maps, reversed when a < 0."""
    lo, hi, maps = ifs
    ends = sorted((a * lo + b, a * hi + b))
    new = [(s, a * o + b * (1 - s)) for s, o in maps]
    return (ends[0], ends[1], tuple(reversed(new) if a < 0 else new))


def width(ifs) -> F:
    return ifs[1] - ifs[0]


def children(ifs, lo: F, hi: F):
    """Images of the branch maps conjugated into the word image [lo, hi]."""
    h0, h1, maps = ifs
    k = (hi - lo) / (h1 - h0)
    for s, o in maps:
        a = lo + k * (s * h0 + o - h0)
        yield a, a + k * s * (h1 - h0)


def cover(ifs, depth: int) -> list[tuple[F, F]]:
    level = [(ifs[0], ifs[1])]
    for _ in range(depth):
        level = [c for lo, hi in level for c in children(ifs, lo, hi)]
    return level


def interval_in_cover(ifs, lo: F, hi: F, depth: int) -> bool:
    """Whether [lo, hi] lies inside one word image of length ``depth``."""
    cur = (ifs[0], ifs[1])
    if not (cur[0] <= lo <= hi <= cur[1]):
        return False
    for _ in range(depth):
        cur = next((c for c in children(ifs, *cur)
                    if c[0] <= lo and hi <= c[1]), None)
        if cur is None:
            return False
    return True


def point_status(ifs, x: F, depth: int) -> tuple[str, int]:
    """("in_certified", d) when x is a word-image endpoint at level d,
    ("out_at_depth", d) when it falls into a gap created at level d, and
    ("in_cover_at_depth", depth) otherwise."""
    cur = (ifs[0], ifs[1])
    if not (cur[0] <= x <= cur[1]):
        return "out_at_depth", 0
    for d in range(depth + 1):
        if x in cur:
            return "in_certified", d
        if d == depth:
            break
        cur = next((c for c in children(ifs, *cur) if c[0] <= x <= c[1]),
                   None)
        if cur is None:
            return "out_at_depth", d + 1
    return "in_cover_at_depth", depth


# -- progressions ------------------------------------------------------------


def ap_fits(boxes) -> bool:
    """Whether some x and y >= 0 put x + j*y into boxes[j] for every j."""
    y_lo, y_hi = F(0), None
    for j, l in itertools.combinations(range(len(boxes)), 2):
        y_lo = max(y_lo, (boxes[l][0] - boxes[j][1]) / (l - j))
        top = (boxes[l][1] - boxes[j][0]) / (l - j)
        y_hi = top if y_hi is None else min(y_hi, top)
    return y_hi is None or y_lo <= y_hi


def has_split_ap(ifs, k: int, depth: int) -> bool:
    """Brute force over every nondecreasing k-tuple of depth-d cover
    intervals that is split at the first level.  False proves the set holds
    no k-term progression (any one rescales to a split one)."""
    ints = cover(ifs, depth)
    per_branch = len(ints) // len(ifs[2])
    for combo in itertools.combinations_with_replacement(range(len(ints)), k):
        if combo[0] // per_branch != combo[-1] // per_branch and \
                ap_fits([ints[i] for i in combo]):
            return True
    return False


# -- closed forms ------------------------------------------------------------


def thickness_centred(eps: F) -> F:
    return (1 - eps) / (2 * eps)


def sq_ratios(p0, p1, p2) -> list[F]:
    """Squared side ratios of a rational triangle over its longest side,
    sorted: the similarity class as two exact numbers."""
    pts = (p0, p1, p2)
    sides = sorted(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
                   for i, j in ((0, 1), (0, 2), (1, 2)))
    return sorted(s / sides[2] for s in sides[:2])
