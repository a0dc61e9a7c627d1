"""Self-similar compact subsets of the line presented by iterated function
systems, with Newhouse thickness (one walk through a chain of images per
side of each first-level gap; ``gap_depth`` only gates refusals),
membership queries, gap queries, and the difference segment of a thick set.

All geometry is exact.  Each set has one integer form, computed once: the
hull endpoints are numerators over E, the lcm of their denominators, and
each branch image's position relative to the hull is a pair of numerators
over D, the lcm of those denominators.  A depth-k word image is then a
pair of integer numerators [L, R] over E * D**k, and child i of [L, R] is
[L*D + (R-L)*a_i, L*D + (R-L)*b_i].  Thickness, membership, gap queries
and the line descents walk these integers; a query's rationals are put
over one denominator with the hull first.  The branch maps are the
set's presentation and are applied, never composed.  ``Fraction``s are
built only for what is reported (gap records), so thickness values are
exact rationals rather than approximations.
"""

from __future__ import annotations

import functools
import math
import operator
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


def descend(first, children, ok, levels: int, what: str, *, backtrack: bool):
    """The pair ``levels`` steps below a survivor of ``first``: a survivor
    is a candidate ``(x, y)`` with ``ok(x, y)``, and ``children(x, y)``
    are the candidates below it, in order.  A certifying test commits to
    the first survivor at every level; a pruning test backtracks.  Every
    test is charged to ``node_budget()``; passing it, or running out of
    candidates, is ``Indeterminate``.

    A frame's items are ``(n, x, y)``: n tests are charged at once, the
    last of them ``ok(x, y)``, or, when x is None, none of them run.  A
    caller that drops candidates the test would reject charges them this
    way, in order, and the count and the stop are those of testing each
    one; a frame that tests every candidate gives each a count of 1."""
    budget, tests = node_budget(), 0
    over = f"{what} passed the budget of {budget} pair tests"

    def frame(candidates):
        nonlocal tests
        for n, x, y in candidates:
            tests += n
            if tests > budget:
                raise Indeterminate(over)
            if x is not None and ok(x, y):
                yield x, y

    stack = [frame(first)]  # one lazy frame per level
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
        elif len(stack) > levels:
            return pair
        else:
            if not backtrack:
                stack[-1] = iter(())  # forget the pair's siblings
            stack.append(frame(children(*pair)))
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
        """The form of the reflected set: child i of a reflected image is
        the reflection of child n - 1 - i, so the children stay in
        increasing order."""
        d = self.den
        return WordForm(d, *(tuple((d - b, d - a) for a, b in reversed(t))
                             for t in (self.rel, self.gaps)))


@dataclass(frozen=True)
class IfsSet1D:
    """Attractor of finitely many orientation-preserving contractions on a
    hull interval.

    Branch images are pairwise disjoint with positive gaps between
    consecutive images, the leftmost image shares the hull's left endpoint
    and the rightmost shares the right endpoint, so the convex hull of the
    attractor is exactly ``hull``.  So a set has at least two branches,
    and at least one first-level gap: a single image with a scale in
    (0, 1) is shorter than the hull and cannot share both its ends.

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

    @functools.cached_property
    def mirror(self) -> WordForm:  # the reflected set's integer form
        return self.form.mirrored()

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

    @property
    def ratio(self) -> Q:
        """The shorter bridge's length over the gap's."""
        return min(self.left_bridge[1] - self.left_bridge[0],
                   self.right_bridge[1] - self.right_bridge[0]) \
            / (self.gap[1] - self.gap[0])


STABILIZED = "stabilized"


@dataclass(frozen=True)
class ThicknessReport:
    value: Q
    status: str  # always STABILIZED: the value is exact
    witness: GapRecord


def gap_depth(s: IfsSet1D) -> int:
    """Deepest creation depth D at which a gap can still be as long as the
    shortest first-level gap: the largest m with
    s_max^(m-1) * g_max >= g_min, so no bridge walk goes deeper.

    In integers: the first-level gaps are the ``b - a`` of the form's
    ``gaps`` and s_max is the largest ``b - a`` of its ``rel``, all in
    units of the hull width over ``den``, so after k steps the test
    reads reach * s_max >= g_min * den**(k+1), reach = g_max * s_max**k.

    It only gates refusals: Indeterminate when the 1 + n + ... +
    n**(D-1) images to depth D number more than ``node_budget()``.
    """
    form = s.form
    lens = [b - a for a, b in form.gaps]
    reach, floor = max(lens), min(lens) * form.den
    s_max = max(b - a for a, b in form.rel)
    n, budget = len(s.branches), node_budget()
    depth, level, nodes = 1, 1, 1
    while reach * s_max >= floor:
        reach *= s_max
        floor *= form.den
        depth += 1
        level *= n
        nodes += level
        if nodes > budget:
            raise Indeterminate(f"thickness needs gaps to depth {depth}, "
                                f"over the node budget of {budget}")
    return depth


def _bridge_end(form: WordForm, lo: int, hi: int, j: int, g: int,
                reaches) -> tuple[int, int]:
    """The far end of the left bridge of gap j of the image [lo, hi]: the
    right end of the nearest gap to its left with ``reaches(length, g)``,
    or the image's left end, as (numerator, k) over the image's
    denominator times den**k.  A child's longest gap is its width times
    the longest relative gap, so the walk passes the children on the
    left that hold no reaching gap, checking the gap left of each, and
    descends into the first that holds one, to start again from its
    rightmost child; below the top it always ends at a gap."""
    den, rel, gaps = form.den, form.rel, form.gaps
    g_max = max(b - a for a, b in gaps)
    start, k = j, 1  # the first child to pass; the children's level
    while True:
        w, base = hi - lo, lo * den
        for i in range(start, -1, -1):
            a, b = rel[i]
            c_lo, c_hi = base + w * a, base + w * b
            if reaches((c_hi - c_lo) * g_max, g * den):
                break
            if i and reaches(w * (gaps[i - 1][1] - gaps[i - 1][0]), g):
                return base + w * gaps[i - 1][1], k
        else:
            return base, k
        lo, hi, g, start, k = c_lo, c_hi, g * den, len(rel) - 1, k + 1


def newhouse_thickness(s: IfsSet1D, max_depth: int = 8) -> ThicknessReport:
    """Exact Newhouse thickness: the infimum of bridge/gap ratios under
    ordered removal (decreasing length, ties by left endpoint), as in
    Palis-Takens (1993, ch. 4).  The value is exact, so the status is
    always STABILIZED.

    When a gap G is removed, the removed gaps on its left are those at
    least |G| long and those on its right are those longer, so its
    bridges end at the nearest such gap on each side, or at the hull;
    ``_bridge_end`` walks to each.  Every deeper gap is an affine copy
    w(g) of a first-level gap g; gaps outside w(hull) cannot enter it,
    and inside it w preserves removal order, so the bridges of w(g)
    contain the w-images of those of g and its ratio is no smaller.  So
    the thickness is the least ratio of the n - 1 first-level gaps, and
    every gap of least ratio copies a first-level minimizer, no longer
    and removed no earlier: the witness, the earliest-removed one, is
    the first-level minimizer of greatest length, then leftmost.
    ``max_depth`` is validated but does not change the report.
    """
    if max_depth < 2:
        raise InputError("max_depth must be at least 2")
    gap_depth(s)
    form, (lo, hi) = s.form, s.hull_num
    den, w, base, last = form.den, hi - lo, lo * form.den, len(form.gaps) - 1
    best = None  # (bridge, gap, g, ends), the ratio over one denominator
    for j, (a, b) in enumerate(form.gaps):
        g_lo, g_hi, g = base + w * a, base + w * b, w * (b - a)
        left, kl = _bridge_end(form, lo, hi, j, g, operator.ge)
        # the right bridge is the left one of the reflected set
        right, kr = _bridge_end(s.mirror, -hi, -lo, last - j, g, operator.gt)
        k = max(kl, kr)
        bridge = min((g_lo * den ** (kl - 1) - left) * den ** (k - kl),
                     (-right - g_hi * den ** (kr - 1)) * den ** (k - kr))
        gap = g * den ** (k - 1)
        if best is None or bridge * best[1] < best[0] * gap or (
                bridge * best[1] == best[0] * gap and g > best[2]):
            best = bridge, gap, g, ((g_lo, 1), (g_hi, 1)), \
                ((left, kl), (g_lo, 1)), ((g_hi, 1), (-right, kr))
    bridge, gap, _, *ends = best
    witness = GapRecord(*(tuple(Q(v, s.hull_den * den ** k) for v, k in pair)
                          for pair in ends))
    return ThicknessReport(Q(bridge, gap), STABILIZED, witness)


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
