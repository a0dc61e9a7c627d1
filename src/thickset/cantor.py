"""Self-similar compact subsets of the line presented by iterated function
systems, with exact covers, gap enumeration, Newhouse thickness, membership
queries, gap queries, and the difference segment of a thick set.

All geometry is exact: hull endpoints, branch maps, cover intervals, and
gap endpoints are rationals, so thickness values are exact rationals rather
than approximations.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass

from .errors import HypothesisError, Indeterminate, InputError
from .scalars import Q, to_q

DEFAULT_NODE_BUDGET = 10_000_000


def node_budget() -> int:
    raw = os.environ.get("THICKSET_MAX_NODES")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise InputError("THICKSET_MAX_NODES must be an integer")


def descend(first, children, ok, levels: int, what: str, *,
            backtrack: bool):
    """The pair ``levels`` steps below a survivor of ``first``: a survivor
    is a candidate ``(x, y)`` with ``ok(x, y)``, and ``children(x, y)``
    are the candidates below it, in order.  A certifying test commits to
    the first survivor at every level; a pruning test backtracks.  Every
    test is charged to ``node_budget()``; passing it, or running out of
    candidates, is ``Indeterminate``."""
    budget, tests = node_budget(), 0

    def survivors(candidates):
        nonlocal tests
        for x, y in candidates:
            tests += 1
            if tests > budget:
                raise Indeterminate(f"{what} passed the budget of {budget} "
                                    "pair tests")
            if ok(x, y):
                yield x, y

    stack = [survivors(first)]  # one lazy frame per level
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
        elif len(stack) > levels:
            return pair
        else:
            if not backtrack:
                stack[-1] = iter(())  # forget the pair's siblings
            stack.append(survivors(children(*pair)))
    raise Indeterminate(f"{what} exhausted (no chain to the requested depth)")


@dataclass(frozen=True, slots=True)
class AffineMap:
    """x -> scale*x + offset with scale in (0, 1)."""

    scale: Q
    offset: Q

    def __call__(self, x: Q) -> Q:
        return self.scale * x + self.offset

    def apply_interval(self, lo: Q, hi: Q) -> tuple[Q, Q]:
        return self.scale * lo + self.offset, self.scale * hi + self.offset

    def compose(self, inner: "AffineMap") -> "AffineMap":
        # self after inner: x -> self(inner(x))
        return AffineMap(self.scale * inner.scale,
                         self.scale * inner.offset + self.offset)


IDENTITY = AffineMap(Q(1), Q(0))


@dataclass(frozen=True)
class IfsSet1D:
    """Attractor of finitely many orientation-preserving contractions on a
    hull interval.

    Branch images are pairwise disjoint with positive gaps between
    consecutive images, the leftmost image shares the hull's left endpoint
    and the rightmost shares the right endpoint, so the convex hull of the
    attractor is exactly ``hull``.
    """

    hull: tuple[Q, Q]
    branches: tuple[AffineMap, ...]

    def __post_init__(self):
        lo, hi = self.hull
        if lo >= hi:
            raise InputError("hull must have positive length")
        if not self.branches:
            raise InputError("at least one branch required")
        images = []
        for b in self.branches:
            if not (0 < b.scale < 1):
                raise InputError(f"branch scale {b.scale} outside (0, 1)")
            ilo, ihi = b.apply_interval(lo, hi)
            if ilo < lo or ihi > hi:
                raise InputError("branch image escapes the hull")
            images.append((ilo, ihi))
        for (a0, a1), (b0, b1) in zip(images, images[1:]):
            if a1 >= b0:
                raise InputError("branch images must be disjoint and "
                                 "ordered left to right")
        if images[0][0] != lo or images[-1][1] != hi:
            raise InputError("extreme branch images must share the hull "
                             "endpoints")

    # -- basic structure ------------------------------------------------

    @property
    def width(self) -> Q:
        return self.hull[1] - self.hull[0]

    def branch_images(self) -> list[tuple[Q, Q]]:
        lo, hi = self.hull
        return [b.apply_interval(lo, hi) for b in self.branches]

    def top_gaps(self) -> list[tuple[Q, Q]]:
        imgs = self.branch_images()
        return [(a1, b0) for (a0, a1), (b0, b1) in zip(imgs, imgs[1:])]

    def word_map(self, word: tuple[int, ...]) -> AffineMap:
        m = IDENTITY
        for i in word:
            m = m.compose(self.branches[i])
        return m

    def word_interval(self, word: tuple[int, ...]) -> tuple[Q, Q]:
        return self.word_map(word).apply_interval(*self.hull)


# -- builders ----------------------------------------------------------


def middle_cantor(epsilon) -> IfsSet1D:
    """Two branches on [0, 1] with scale (1-eps)/2, leaving a centred open
    gap of length eps."""
    eps = to_q(epsilon)
    if not (0 < eps < 1):
        raise InputError("epsilon must lie in (0, 1)")
    s = (1 - eps) / 2
    return IfsSet1D((Q(0), Q(1)),
                    (AffineMap(s, Q(0)), AffineMap(s, (1 + eps) / 2)))


def middle_thirds() -> IfsSet1D:
    return middle_cantor(Q(1, 3))


def off_center_cantor(a) -> IfsSet1D:
    """Remove (a, 2a) from [0, 1] and iterate self-similarly: the left
    piece [0, a] carries scale a and the right piece [2a, 1] carries scale
    1 - 2a.  Requires 0 < a < 1/3 so the left piece is the shorter one."""
    av = to_q(a)
    if not (0 < av < Q(1, 3)):
        raise InputError("a must lie in (0, 1/3)")
    return IfsSet1D((Q(0), Q(1)),
                    (AffineMap(av, Q(0)), AffineMap(1 - 2 * av, 2 * av)))


def ifs_from_branches(hull_lo, hull_hi, scale_offset_pairs) -> IfsSet1D:
    branches = tuple(AffineMap(to_q(s), to_q(o)) for s, o in scale_offset_pairs)
    return IfsSet1D((to_q(hull_lo), to_q(hull_hi)), branches)


def affine_image(s: IfsSet1D, a, b) -> IfsSet1D:
    """The set a*C + b as an IFS on the transformed hull (a nonzero).

    Branch maps conjugate to keep positive scales; a negative ``a``
    reverses the branch order.
    """
    av, bv = to_q(a), to_q(b)
    if av == 0:
        raise InputError("affine scale must be nonzero")
    lo, hi = s.hull
    pts = sorted((av * lo + bv, av * hi + bv))
    branches = [AffineMap(m.scale, av * m.offset + bv * (1 - m.scale))
                for m in s.branches]
    if av < 0:
        branches.reverse()
    return IfsSet1D((pts[0], pts[1]), tuple(branches))


def normalize_to_unit(s: IfsSet1D) -> tuple[IfsSet1D, AffineMap]:
    """Rescale so the hull is [0, 1]; returns the map sending the
    normalized set back onto the original one."""
    lo, hi = s.hull
    w = hi - lo
    back = AffineMap(w, lo)  # not a contraction in general; used as a map only
    normalized = affine_image(s, 1 / w, -lo / w)
    return normalized, back


# -- covers ------------------------------------------------------------


@dataclass(frozen=True)
class Cover1D:
    """Finite-depth outer approximation: the sorted disjoint union of all
    depth-n branch-word images."""

    depth: int
    intervals: tuple[tuple[Q, Q], ...]


def cover(s: IfsSet1D, depth: int) -> Cover1D:
    if depth < 0:
        raise InputError("depth must be nonnegative")
    lo, hi = s.hull
    out: list[tuple[Q, Q]] = []

    def rec(m: AffineMap, d: int):
        if d == 0:
            out.append(m.apply_interval(lo, hi))
            return
        for b in s.branches:
            rec(m.compose(b), d - 1)

    rec(IDENTITY, depth)
    return Cover1D(depth, tuple(out))


def interval_in_cover(s: IfsSet1D, lo: Q, hi: Q, depth: int) -> bool:
    """Whether [lo, hi] is contained in some depth-``depth`` word image,
    by branch descent (no cover materialization)."""
    if not (s.hull[0] <= lo and hi <= s.hull[1]):
        return False
    m = IDENTITY
    for _ in range(depth):
        for b in s.branches:
            nm = m.compose(b)
            c_lo, c_hi = nm.apply_interval(*s.hull)
            if c_lo <= lo and hi <= c_hi:
                m = nm
                break
        else:
            return False
    return True


# -- gaps and thickness ------------------------------------------------


@dataclass(frozen=True)
class GapRecord:
    """A complementary interval together with the closed bridges adjacent
    to it at its removal step."""

    gap: tuple[Q, Q]
    left_bridge: tuple[Q, Q]
    right_bridge: tuple[Q, Q]
    creation_depth: int

    @property
    def ratio(self) -> Q:
        g = self.gap[1] - self.gap[0]
        left = self.left_bridge[1] - self.left_bridge[0]
        right = self.right_bridge[1] - self.right_bridge[0]
        return min(left, right) / g


STABILIZED = "stabilized"


@dataclass(frozen=True)
class ThicknessReport:
    value: Q
    status: str  # always STABILIZED: the value is exact
    witness: GapRecord
    max_depth: int

    def __str__(self):
        return f"{self.value} ({self.status})"


def enumerate_gaps(s: IfsSet1D, max_depth: int) -> list[tuple[Q, Q, int]]:
    """All gaps created at depths 1..max_depth as (lo, hi, depth)."""
    gaps: list[tuple[Q, Q, int]] = []
    top = s.top_gaps()

    def rec(m: AffineMap, d: int):
        for glo, ghi in top:
            gaps.append((m(glo), m(ghi), d + 1))
        if d + 1 >= max_depth:
            return
        for b in s.branches:
            rec(m.compose(b), d + 1)

    rec(IDENTITY, 0)
    return gaps


def _ordered_removal(s: IfsSet1D, gaps: list[tuple[Q, Q, int]]
                     ) -> list[GapRecord]:
    """Simulate removal in decreasing length (ties by left endpoint) and
    record the bridges flanking each gap at its removal step."""
    hull_lo, hull_hi = s.hull
    order = sorted(gaps, key=lambda g: (g[0] - g[1], g[0]))
    removed_rights: list[Q] = []  # right endpoints of removed gaps
    removed_lefts: list[Q] = []   # left endpoints of removed gaps
    records = []
    for glo, ghi, d in order:
        i = bisect.bisect_right(removed_rights, glo)
        left_bound = removed_rights[i - 1] if i else hull_lo
        j = bisect.bisect_left(removed_lefts, ghi)
        right_bound = removed_lefts[j] if j < len(removed_lefts) else hull_hi
        records.append(GapRecord((glo, ghi), (left_bound, glo),
                                 (ghi, right_bound), d))
        bisect.insort(removed_rights, ghi)
        bisect.insort(removed_lefts, glo)
    return records


def gap_depth(s: IfsSet1D) -> int:
    """Deepest creation depth D at which a gap can still be as long as the
    shortest first-level gap: the largest m with
    s_max^(m-1) * g_max >= g_min.

    Raises Indeterminate, before any gap is enumerated, when enumerating
    to depth D would visit more than ``node_budget()`` nodes.
    """
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


def newhouse_thickness(s: IfsSet1D, max_depth: int = 8) -> ThicknessReport:
    """Exact Newhouse thickness: the infimum of bridge/gap ratios under
    ordered removal (decreasing length, ties by left endpoint).

    The value is exact, so the status is always STABILIZED.  Every gap
    below the first level is an affine copy w(g) of a first-level gap g;
    gaps outside the subtree image w(hull) cannot enter it, and inside it
    removal order is preserved by w, so the bridges of w(g) contain the
    w-images of the bridges of g and its ratio is no smaller.  Hence the
    thickness is the minimum over first-level gaps.  The bridges of a gap
    depend only on gaps at least as long as it, and a gap created at
    depth m is no longer than s_max^(m-1) * g_max, so the gaps created at
    depths up to ``gap_depth(s)`` include every gap at least g_min long
    and decide their records exactly.  Those records hold the minimum
    and the witness: the earliest-removed gap of minimum ratio, which is
    removed no later than the first-level minimizer.  ``max_depth`` is
    validated and echoed in the report but does not change it.
    """
    if max_depth < 2:
        raise InputError("max_depth must be at least 2")
    if len(s.branches) == 1:
        raise InputError("set with a single branch has no gaps")
    records = _ordered_removal(s, enumerate_gaps(s, gap_depth(s)))
    witness = records[0]  # keep the earliest-removed gap on ratio ties
    for r in records[1:]:
        if r.ratio < witness.ratio:
            witness = r
    return ThicknessReport(witness.ratio, STABILIZED, witness, max_depth)


def require_thickness_at_least_one(s: IfsSet1D) -> ThicknessReport:
    rep = newhouse_thickness(s)
    if rep.value < 1:
        raise HypothesisError(f"thickness {rep.value} is below 1")
    return rep


# -- membership --------------------------------------------------------


IN_CERTIFIED = "in_certified"
IN_COVER = "in_cover_at_depth"
OUT = "out_at_depth"


@dataclass(frozen=True)
class MembershipResult:
    kind: str
    depth: int

    def __str__(self):
        return f"{self.kind}({self.depth})"


def membership(s: IfsSet1D, x, depth: int = 32) -> MembershipResult:
    """Greedy branch descent.  Word-image endpoints are genuine members
    (the extreme branches pin them), so hitting one certifies membership;
    landing in a gap refutes it at the gap's creation depth; otherwise the
    point stays in the cover to the requested depth.
    """
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
            nm = m.compose(b)
            c_lo, c_hi = nm.apply_interval(lo, hi)
            if c_lo <= q <= c_hi:
                m = nm
                break
        else:
            return MembershipResult(OUT, d + 1)
    return MembershipResult(IN_COVER, depth)


def certified_member(s: IfsSet1D, x, max_steps: int = 256) -> bool:
    """Stronger membership certificate than the endpoint rule: descend
    greedily tracking the point's position rescaled to the unit hull of
    the current subtree; a repeated position means the descent recurs
    forever, so the point lies in every cover and hence in the set.

    Decides eventually-periodic rationals (the typical exact witnesses);
    returns False when neither a certificate nor a refutation appears
    within ``max_steps``.
    """
    q = to_q(x)
    lo, hi = s.hull
    rel = (q - lo) / (hi - lo)
    seen = set()
    for _ in range(max_steps):
        if rel == 0 or rel == 1:
            return True  # hull endpoint of the current subtree
        if rel in seen:
            return True  # periodic descent
        seen.add(rel)
        pos = lo + rel * (hi - lo)
        for b in s.branches:
            c_lo, c_hi = b.apply_interval(lo, hi)
            if c_lo <= pos <= c_hi:
                rel = (pos - c_lo) / (c_hi - c_lo)
                break
        else:
            return False  # lies in a gap
    return False


def slides_into_gap(s: IfsSet1D, m: AffineMap, lo: Q, hi: Q,
                    t0: Q = 0, t1: Q = 0) -> bool:
    """Whether [lo + t, hi + t], for some t in [t0, t1], lies strictly
    inside a bounded gap of the subtree with word map ``m``.

    The translates sweep from [lo + t0, hi + t0] to [lo + t1, hi + t1].
    An interval holds one exactly when it is at least hi - lo long,
    starts no later than the last translate starts and ends no earlier
    than the first one ends.  A gap counts when it does so strictly at
    both ends, so an equal-length gap that the sweep straddles counts.
    A counting gap holds a translate, so only subtrees whose hull holds
    one are searched.  When one child's hull holds the whole sweep, no
    gap of the node can count and the search steps into that child
    alone: a point query (t0 = t1) is a greedy descent.  Otherwise the
    node's gaps are checked and every child holding a translate is
    searched.  Every subtree searched below the start is at least
    hi - lo wide, so the search ends; an empty interval or an empty
    range of t, which would break that, is an InputError.
    """
    if lo >= hi or t0 > t1:
        raise InputError("a gap query needs lo < hi and t0 <= t1")
    # zero slides are not added, so a point query costs what the greedy
    # descent alone costs
    first_lo, first_hi = (lo + t0, hi + t0) if t0 else (lo, hi)
    last_lo, last_hi = (lo + t1, hi + t1) if t1 else (lo, hi)
    h_lo, h_hi = s.hull
    c_lo, c_hi = m.apply_interval(h_lo, h_hi)
    # the start's width goes unchecked: below a start narrower than
    # hi - lo, no child passes the tests in the loop
    if not (c_lo <= last_lo and c_hi >= first_hi):
        return False
    stack = [m]
    while stack:
        m = stack.pop()
        kids = []
        for b in s.branches:
            c = m.compose(b)
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


# -- difference set ----------------------------------------------------


def difference_interval(s: IfsSet1D, max_depth: int = 10) -> Q:
    """Largest L with [0, L] inside C - C, for a set whose thickness is
    certified >= 1: the hull width w.

    Under that hypothesis Newhouse's gap lemma gives C - C = [-w, w]
    (Palis-Takens 1993, ch. 4; Astels 2000): for 0 <= t <= w the hulls
    of C and C + t meet, neither set lies in a bounded gap of the other,
    and tau(C)^2 >= 1, so the sets meet.  On covers: C lies in
    every cover, so [0, w] lies in the cover of C - C at every depth,
    and nothing in that cover lies beyond w, the hull width.
    ``max_depth`` is validated but does not change the value, as with
    ``newhouse_thickness``."""
    require_thickness_at_least_one(s)
    if max_depth < 0:
        raise InputError("max_depth must be nonnegative")
    return s.hull[1] - s.hull[0]
