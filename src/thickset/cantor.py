"""Self-similar compact subsets of the line presented by iterated function
systems, with gap enumeration, Newhouse thickness, membership queries, gap
queries, and the difference segment of a thick set.

All geometry is exact.  Each set has one integer form, computed once: the
hull endpoints are numerators over E, the lcm of their denominators, and
each branch image's position relative to the hull is a pair of numerators
over D, the lcm of those denominators.  A depth-k word image is then a
pair of integer numerators [L, R] over E * D**k, and child i of [L, R] is
[L*D + (R-L)*a_i, L*D + (R-L)*b_i].  Gaps, membership, gap queries and
the line descents walk these integers; a query's rationals are put over
one denominator with the hull first.  The branch maps are the
set's presentation and are applied, never composed.  ``Fraction``s are
built only for what is reported (gap records), so thickness values are
exact rationals rather than approximations.
"""

from __future__ import annotations

import bisect
import math
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
    """x -> scale*x + offset; a branch map has scale in (0, 1)."""

    scale: Q
    offset: Q

    def __call__(self, x: Q) -> Q:
        return self.scale * x + self.offset

    def apply_interval(self, lo: Q, hi: Q) -> tuple[Q, Q]:
        return self.scale * lo + self.offset, self.scale * hi + self.offset


@dataclass(frozen=True, slots=True)
class WordForm:
    """Branch images relative to a parent image, as numerators over
    ``den``: the child i of an image with numerators [lo, hi] over N has
    numerators ``[lo*den + (hi-lo)*a, lo*den + (hi-lo)*b]`` over
    ``N*den``, (a, b) = ``rel[i]``, and ``gaps`` are the relative gaps
    between consecutive children."""

    den: int
    rel: tuple[tuple[int, int], ...]
    gaps: tuple[tuple[int, int], ...]

    def children(self, lo: int, hi: int) -> list[tuple[int, int]]:
        w, base = hi - lo, lo * self.den
        return [(base + w * a, base + w * b) for a, b in self.rel]

    def walk(self, lo: int, hi: int, word) -> tuple[int, int]:
        """The image of ``word`` below the image [lo, hi]."""
        den, rel = self.den, self.rel
        for i in word:
            a, b = rel[i]
            lo, hi = lo * den + (hi - lo) * a, lo * den + (hi - lo) * b
        return lo, hi

    def mirrored(self) -> "WordForm":
        """The form of the reflected images, branch order kept: child i
        of a reflected image is the reflection of child i."""
        d = self.den
        return WordForm(d, tuple((d - b, d - a) for a, b in self.rel),
                        tuple((d - b, d - a) for a, b in self.gaps))


@dataclass(frozen=True)
class IfsSet1D:
    """Attractor of finitely many orientation-preserving contractions on a
    hull interval.

    Branch images are pairwise disjoint with positive gaps between
    consecutive images, the leftmost image shares the hull's left endpoint
    and the rightmost shares the right endpoint, so the convex hull of the
    attractor is exactly ``hull``.

    The integer form is computed once: ``hull_num`` holds the hull's
    numerators over ``hull_den``, and ``form`` the branch images relative
    to the hull, so a depth-k word image has numerators over
    ``hull_den * form.den**k``.
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
        e = math.lcm(lo.denominator, hi.denominator)
        rel = [((a - lo) / (hi - lo), (b - lo) / (hi - lo))
               for a, b in images]
        d = math.lcm(*(q.denominator for pair in rel for q in pair))
        rel = tuple((_over(a, d), _over(b, d)) for a, b in rel)
        object.__setattr__(self, "hull_den", e)
        object.__setattr__(self, "hull_num", (_over(lo, e), _over(hi, e)))
        object.__setattr__(self, "form", WordForm(d, rel, tuple(
            (b, a) for (_, b), (a, _) in zip(rel, rel[1:]))))

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


def _over(q: Q, den: int) -> int:
    """The numerator of q over ``den``, a multiple of its denominator."""
    return q.numerator * (den // q.denominator)


def _lift(s: IfsSet1D, *qs) -> tuple[int, int, list[int]]:
    """The hull of ``s`` and the rationals ``qs`` as numerators over one
    denominator, a multiple of ``hull_den``: (lo, hi, [q...])."""
    c = math.lcm(s.hull_den, *(q.denominator for q in qs))
    f = c // s.hull_den
    return s.hull_num[0] * f, s.hull_num[1] * f, [_over(q, c) for q in qs]


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
        return Q(*_bridge_and_gap(self))


def _bridge_and_gap(r: GapRecord) -> tuple:
    """The shorter bridge's length and the gap's, whose quotient is the
    ratio; numerators when the record holds numerators."""
    left = r.left_bridge[1] - r.left_bridge[0]
    right = r.right_bridge[1] - r.right_bridge[0]
    return min(left, right), r.gap[1] - r.gap[0]


STABILIZED = "stabilized"


@dataclass(frozen=True)
class ThicknessReport:
    value: Q
    status: str  # always STABILIZED: the value is exact
    witness: GapRecord
    max_depth: int


def _gap_numerators(s: IfsSet1D, max_depth: int
                    ) -> list[tuple[int, int, int]]:
    """All gaps created at depths 1..max_depth, depth first and left to
    right below each image, a gap created at depth d as numerators over
    hull_den * den**d: (lo, hi, d)."""
    gaps: list[tuple[int, int, int]] = []
    form = s.form
    stack = [(*s.hull_num, 1)]  # an image and the depth of its gaps
    while stack:
        lo, hi, d = stack.pop()
        w, base = hi - lo, lo * form.den
        gaps.extend((base + w * a, base + w * b, d) for a, b in form.gaps)
        if d < max_depth:
            stack.extend((c_lo, c_hi, d + 1) for c_lo, c_hi
                         in reversed(form.children(lo, hi)))
    return gaps


def _ordered_removal(hull: tuple, gaps: list[tuple]) -> list[GapRecord]:
    """Simulate removal in decreasing length (ties by left endpoint) and
    record the bridges flanking each gap at its removal step.  The hull
    and the gaps are rationals, or numerators over one denominator."""
    hull_lo, hull_hi = hull
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
    depth = gap_depth(s)
    # every gap over the denominator of the deepest ones, ratios compared
    # by cross-multiplying
    up = [s.form.den ** (depth - d) for d in range(depth + 1)]
    records = _ordered_removal(
        tuple(h * up[0] for h in s.hull_num),
        [(lo * up[d], hi * up[d], d)
         for lo, hi, d in _gap_numerators(s, depth)])
    witness = records[0]  # keep the earliest-removed gap on ratio ties
    w_bridge, w_gap = _bridge_and_gap(witness)
    for r in records[1:]:
        bridge, gap = _bridge_and_gap(r)
        if bridge * w_gap < w_bridge * gap:
            witness, w_bridge, w_gap = r, bridge, gap
    scale = s.hull_den * up[0]
    witness = GapRecord(*(tuple(Q(v, scale) for v in pair) for pair in
                          (witness.gap, witness.left_bridge,
                           witness.right_bridge)), witness.creation_depth)
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


def membership(s: IfsSet1D, x, depth: int = 32) -> MembershipResult:
    """Greedy branch descent.  Word-image endpoints are genuine members
    (the extreme branches pin them), so hitting one certifies membership;
    landing in a gap refutes it at the gap's creation depth; otherwise the
    point stays in the cover to the requested depth.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    q = to_q(x)
    lo, hi = s.hull
    if q < lo or q > hi:
        return MembershipResult(OUT, 0)
    h_lo, h_hi, (y,) = _lift(s, q)
    # the point's offset from the current image's left end, and its width
    y, w = y - h_lo, h_hi - h_lo
    den, rel = s.form.den, s.form.rel
    for d in range(depth + 1):
        if y == 0 or y == w:
            return MembershipResult(IN_CERTIFIED, d)
        if d == depth:
            break
        y *= den
        for a, b in rel:
            c_lo = w * a
            if y < c_lo:
                return MembershipResult(OUT, d + 1)
            if y <= w * b:
                y, w = y - c_lo, w * (b - a)
                break
        else:
            return MembershipResult(OUT, d + 1)
    return MembershipResult(IN_COVER, depth)


# below it the repeat check's two products cost about what a step does
_NARROW = 1 << 128


def position_member(form: WordForm, p: int, q: int,
                    max_steps: int = 256) -> bool:
    """Stronger membership certificate than the endpoint rule for the
    point at position p/q (q > 0) in the root hull of a set with the
    integer form ``form``: descend greedily tracking the point's
    position rescaled to the unit hull of the current subtree; a
    repeated position means the descent recurs forever, so the point
    lies in every cover and hence in the set.

    Decides eventually-periodic rationals (the typical exact witnesses);
    returns False when neither a certificate nor a refutation appears
    within ``max_steps``, counted from the root.

    The walk runs in two passes.  The first keeps the position
    unreduced, as (u, v), with no gcd: the branch test
    a*v <= u*den <= b*v and the endpoint test do not depend on scale, so
    it takes the reduced walk's branches and meets its endpoints and gaps
    at the same steps.  A position that repeats repeats forever and never
    meets a gap, so a gap within the cap is met before any repeat and is
    the answer, as is an endpoint.  Until v passes 2**128 (no step
    shrinks it) the first pass also looks for a repeat, by Brent's check
    on positions saved at steps 0, 2, 6, 14, ..., compared by
    cross-multiplication: a cycle of period L entered at step i shows by
    step 2*max(i + 2, L) + L.  A repeat at step j < max_steps certifies
    as the two passes would: the walk cycles from there and meets no
    gap, and the second pass finds the repeat by step j.  Only a walk
    that survives the cap needs the second pass, which looks for a
    repeat in lowest terms.  Its start takes one full-width gcd; after
    that a step's common factor is gcd(p' mod M, q' mod M, M) with
    M = den*(b - a): when gcd(p, q) = 1, gcd(p*den - a*q, q) =
    gcd(p*den, q) divides den, so gcd(p', q') divides den*(b - a).

    A start too fine to repeat skips the second pass.  If the position
    x_i at step i comes back at step j = i + L, the L steps between map
    it to (den**L * x_i - C)/W = x_i, C an integer and W < den**L the
    product of their widths b - a, so x_i = C/(den**L - W) has a
    denominator below den**L.  Since x_0 = (W' * x_i + C')/den**i for
    integers W' and C', x_0's denominator is below den**j, and a repeat
    within the cap needs j <= max_steps - 1.
    """
    den, rel = form.den, form.rel
    u, v = p, q
    su, sv, lap, span = 1, 0, 1, 1  # the saved position; 1/0 is none
    narrow = v < _NARROW
    for _ in range(max_steps):
        if u == 0 or u == v:
            return True  # hull endpoint of the current subtree
        if narrow:
            if u * sv == su * v:
                return True  # periodic descent
            if lap == span:
                su, sv, lap, span = u, v, 0, 2 * span
            lap += 1
            narrow = v < _NARROW  # v never shrinks: once wide, for good
        ud = u * den
        for a, b in rel:
            if a * v <= ud <= b * v:
                u, v = ud - a * v, (b - a) * v
                break
        else:
            return False  # lies in a gap
    # neither within the cap: only a repeat certifies
    g = math.gcd(p, q)
    p, q = p // g, q // g  # the position in lowest terms
    if q >= den ** max(max_steps - 1, 0):
        return False  # no repeat fits within the cap
    seen = set()
    for _ in range(max_steps):
        if (p, q) in seen:
            return True  # periodic descent
        seen.add((p, q))
        pd = p * den
        for a, b in rel:  # the first pass's branches: no gap is met
            if a * q <= pd <= b * q:
                m = den * (b - a)
                p, q = pd - a * q, (b - a) * q
                g = math.gcd(p % m, q % m, m)
                p, q = p // g, q // g
                break
    return False


def gap_holds_translate(form: WordForm, c_lo: int, c_hi: int,
                        first: int, last: int, width: int) -> bool:
    """Whether some translate [x, x + width], first <= x <= last, lies
    strictly inside a bounded gap below the subtree image [c_lo, c_hi] of
    ``form``, all numerators over one denominator.

    The translates sweep from [first, first + width] to
    [last, last + width].  An interval holds one exactly when it is at
    least ``width`` long, starts no later than ``last`` and ends no
    earlier than first + width.  A gap counts when it does so strictly
    at both ends, so an equal-length gap that the sweep straddles
    counts.  A counting gap holds a translate, so only subtrees whose
    hull holds one are searched.  When one child's hull holds the whole
    sweep, no gap of the node can count and the search steps into that
    child alone: a point query (first = last) is a greedy descent.
    Otherwise the node's gaps are checked and every child holding a
    translate is searched.  Every subtree searched below the start is at
    least ``width`` wide, so the search ends when width > 0 and
    first <= last, which the caller guarantees.
    """
    # the start's width goes unchecked: below a start narrower than
    # width, no child passes the tests in the loop
    if not (c_lo <= last and c_hi >= first + width):
        return False
    den, rel, gaps = form.den, form.rel, form.gaps
    stack = [(c_lo, c_hi, first, last, width)]
    while stack:
        lo, hi, first, last, width = stack.pop()
        # the children's level
        first, last, width = first * den, last * den, width * den
        w, base = hi - lo, lo * den
        kids = []
        for a, b in rel:
            c_lo, c_hi = base + w * a, base + w * b
            if c_lo <= first and last + width <= c_hi:
                stack.append((c_lo, c_hi, first, last, width))
                break
            kids.append((c_lo, c_hi))
        else:
            for a, b in gaps:
                g_lo, g_hi = base + w * a, base + w * b
                if g_lo < last and g_hi > first + width \
                        and g_hi - g_lo >= width:
                    return True
            stack.extend((c_lo, c_hi, first, last, width)
                         for c_lo, c_hi in kids
                         if c_lo <= last and c_hi >= first + width
                         and c_hi - c_lo >= width)
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
    if max_depth < 0:
        raise InputError("max_depth must be nonnegative")
    require_thickness_at_least_one(s)
    return s.width
