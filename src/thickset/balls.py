"""Systems of balls in the plane and in R^d: finitely-branching trees of
closed balls generating compact sets, with certified covering-slack
bounds, thickness lower bounds, uniform-density checks, subset-thickness
bounds, and the higher-dimensional gap-lemma hypothesis checker.

Ball predicates are exact: centers and radii are rational, and both
norms compare squared distances, so containment and disjointness never
involve rounding.  Square roots appear only in reported enclosures.
The searches work on lattice balls, integers over one scale per level,
derived by each builder's one ``children`` method, and build rational
``Ball`` objects only for what they report.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Protocol

from .cantor import node_budget
from .errors import Indeterminate, InputError
from .scalars import Interval, Q, interval_sqrt, sqrt3, to_q

LINF = "linf"
L2 = "l2"

Word = tuple[int, ...]


@dataclass(frozen=True)
class Ball:
    center: tuple[Q, ...]
    radius: Q
    norm: str = L2

    def __post_init__(self):
        if self.radius < 0:
            raise InputError("ball radius must be nonnegative")
        if self.norm not in (LINF, L2):
            raise InputError(f"unknown norm {self.norm!r}")

    def contains_ball(self, other: "Ball") -> bool:
        s = math.lcm(common_denominator(self), common_denominator(other))
        return lattice_contains(lattice_of(self, s), lattice_of(other, s),
                                self.norm)


# -- lattice balls ---------------------------------------------------------
#
# A lattice ball is a tuple of integers, its center numerators followed by
# its radius numerator, over a scale shared by every ball of one level.


Lattice = tuple[int, ...]


def common_denominator(ball: Ball) -> int:
    return math.lcm(*(q.denominator for q in (*ball.center, ball.radius)))


def lattice_of(ball: Ball, scale: int) -> Lattice:
    """``ball`` as integers over ``scale``, a multiple of its
    denominators."""
    return tuple(q.numerator * (scale // q.denominator)
                 for q in (*ball.center, ball.radius))


def sq_dist(a: Lattice, b: Lattice, norm: str) -> int:
    """Squared center distance of two lattice balls on one scale."""
    if norm == LINF:
        return max(abs(x - y) for x, y in zip(a[:-1], b[:-1])) ** 2
    return sum((x - y) ** 2 for x, y in zip(a[:-1], b[:-1]))


def lattice_contains(a: Lattice, b: Lattice, norm: str) -> bool:
    """Whether ball ``a`` contains ball ``b``, both on one scale."""
    slack = a[-1] - b[-1]
    return slack >= 0 and sq_dist(a, b, norm) <= slack * slack


def lattice_disjoint(a: Lattice, b: Lattice, norm: str) -> bool:
    """Strict disjointness of two closed balls on one scale."""
    reach = a[-1] + b[-1]
    return sq_dist(a, b, norm) > reach * reach


def first_touching_sibling(kids: list[Lattice], j: int,
                           norm: str) -> Optional[int]:
    """Index of the first sibling that ``kids[j]`` is not strictly
    disjoint from, or None when it is disjoint from all of them.

    Both norms are at least the gap in any one coordinate, so a sibling
    whose first or last center coordinate (the same one on a line) is
    farther from that of ``kids[j]`` than ``kids[j]``'s radius plus the
    largest sibling radius is strictly disjoint from it; only the
    siblings inside that window, in both coordinates, get the exact
    test, in index order."""
    child = kids[j]
    x, y, reach = child[0], child[-2], child[-1] + max(k[-1] for k in kids)
    return next((i for i, other in enumerate(kids)
                 if -reach <= other[0] - x <= reach
                 and -reach <= other[-2] - y <= reach and i != j
                 and not lattice_disjoint(child, other, norm)), None)


# -- farthest point ----------------------------------------------------------


def _farthest(region: Lattice, targets: list[Lattice], scale: int,
              norm: str, *, width: Optional[Q] = None,
              threshold: Optional[Q] = None) -> tuple[Q, Q, tuple[Q, ...]]:
    """Enclosure ``(lo, hi, x)`` of the maximum over the ball ``region``
    of F(y) = min_i (|y - c_i| + w_i), for targets given as center
    numerators followed by the weight numerator w_i (of either sign),
    all over ``scale``; F(x) >= lo at the point x of the region.

    Branch and bound on integers.  The region is translated to the
    origin and the whole input divided by its gcd, so the search, and
    hence its result up to that similarity, does not depend on where the
    region sits or how large it is.  With D the region's radius, boxes
    of level k are the cubes of half-width D centered at odd multiples
    of D, in units of 1/2^k of the reduced lattice step, covering the
    region's bounding cube.  F is 1-Lipschitz in the norm, so on a box
    with center y and half-diagonal delta (D in the sup norm, at least
    D*sqrt(d) in the Euclidean one) the maximum is at most F(y) + delta,
    and F(y) is a lower end when y lies in the region.  Euclidean
    distances are bracketed by integer square roots.  A target whose
    lower end at y exceeds the box's least upper end by more than
    2*delta is the minimizer nowhere in the box, so its sub-boxes drop
    it.  The box with the largest upper end is split first; the region
    center is the first point evaluated.

    The search stops once ``hi - lo <= width`` or, with a ``threshold``,
    once ``lo > threshold`` or ``hi <= threshold``, or when the region is
    a point.  Every box evaluated is charged to ``node_budget()``, and
    passing it is ``Indeterminate``.
    """
    dim, center = len(region) - 1, region[:-1]
    g = math.gcd(region[-1], *(t - c for tg in targets
                               for t, c in zip(tg, center)),
                 *(tg[-1] for tg in targets)) or 1
    d = region[-1] // g
    levels = {0: [(tuple((t - c) // g for t, c in zip(tg, center)),
                   tg[-1] // g) for tg in targets]}
    unit = Q(g, scale)  # the reduced lattice step at level 0
    if norm == LINF:
        delta = d
    else:
        root = math.isqrt(dim * d * d)
        delta = root + (root * root < dim * d * d)

    def evaluate(k: int, m: tuple[int, ...], live: list[int]):
        """Bounds of F at the center of box (k, m), its least upper end
        and the targets that stay live below it, in level-k units."""
        if k not in levels:
            levels[k] = [(tuple(x << k for x in c), w << k)
                         for c, w in levels[0]]
        at, ends = levels[k], []
        y = [mj * d for mj in m]
        for i in live:
            c, w = at[i]
            if norm == LINF:
                lo = hi = max(abs(a - b) for a, b in zip(y, c))
            else:
                n = sum((a - b) ** 2 for a, b in zip(y, c))
                lo = math.isqrt(n)
                hi = lo + (lo * lo < n)
            ends.append((lo + w, hi + w, i))
        least = min(hi for _, hi, _ in ends)
        kept = [i for lo, _, i in ends if lo - 2 * delta <= least]
        return min(lo for lo, _, _ in ends), least, kept

    budget, boxes = node_budget(), 1
    origin = (0,) * dim
    f_lo, least, live = evaluate(0, origin, list(range(len(targets))))
    lo, best = Q(f_lo), (0, origin)
    heap = [(-Q(least + delta), 0, origin, live)]
    thr = None if threshold is None else threshold / unit
    wide = None if width is None else width / unit
    while True:
        hi = max(-heap[0][0], lo) if heap else lo
        if (wide is not None and hi - lo <= wide or thr is not None
                and (lo > thr or hi <= thr) or not heap or d == 0):
            break
        _, k, m, live = heapq.heappop(heap)
        k += 1
        for signs in itertools.product((-1, 1), repeat=dim):
            sub = tuple(2 * x + s for x, s in zip(m, signs))
            if norm == L2 and sum(max(abs(x) - 1, 0) ** 2
                                  for x in sub) > 4 ** k:
                continue  # the box misses the Euclidean region
            boxes += 1
            if boxes > budget:
                raise Indeterminate("farthest-point search passed the "
                                    f"budget of {budget} boxes")
            f_lo, least, kept = evaluate(k, sub, live)
            if Q(f_lo, 1 << k) > lo and (
                    norm == LINF or sum(x * x for x in sub) <= 4 ** k):
                lo, best = Q(f_lo, 1 << k), (k, sub)  # a point of the region
            upper = Q(least + delta, 1 << k)
            if upper > lo:
                heapq.heappush(heap, (-upper, k, sub, kept))
    k, m = best
    x = tuple(Q(c * (1 << k) + mj * d * g, scale << k)
              for c, mj in zip(center, m))
    return lo * unit, hi * unit, x


# -- generators ----------------------------------------------------------


def _hash_words(seed: int, word: Word, children):
    """Deterministic 64-bit values, one per coordinate, for each of the
    ``children`` of ``word`` (keys "seed|word|child|coord").  The key
    prefix "seed|word|" is hashed once and its SHA-256 state copied for
    each key."""
    prefix = hashlib.sha256(f"{seed}|{','.join(map(str, word))}|".encode())
    for child in children:
        x, y = prefix.copy(), prefix.copy()
        x.update(f"{child}|0".encode())
        y.update(f"{child}|1".encode())
        yield (int.from_bytes(x.digest()[:8], "big"),
               int.from_bytes(y.digest()[:8], "big"))


PERTURB_CLAMP = 1 - Q(1, 2**20)


class Generator(Protocol):
    """What a builder supplies to a ``BallSystem``: the scale of each
    level; the lattice forms of the children ``indices`` of the lattice
    ball ``parent`` found at ``word`` (``children``, which does the
    per-parent work once for all of them, whether a whole fan or the one
    child that a walk to a word or a pair refinement takes); a word's
    certified covering-slack bound, the thickness bound (no table of the
    slack bounds behind it), the analytic r-uniformity constant (None
    when there is none), the designated pair of root children, and the
    structural check behind ``validate_system``.

    ``cells`` is what a search may know of a fan before deriving it:
    every child's nominal lattice ball and one integer widening e such
    that each child, as ``children`` derives it, has the nominal radius
    and a center within e of the nominal one in every coordinate.  A
    child that a search excludes from its cell alone need not be
    derived; with e = 0 the cells are the children themselves."""

    designated: tuple[int, int]
    def child_count(self, word: Word) -> int: ...
    def scale(self, root_scale: int, k: int) -> int: ...
    def children(self, parent: Lattice, word: Word,
                 indices) -> list[Lattice]: ...
    def cells(self, parent: Lattice, word: Word
              ) -> tuple[list[Lattice], int]: ...
    def h_upper(self, sys: BallSystem, word: Word, bits: int) -> Interval: ...
    def thickness(self, sys: BallSystem, bits: int) -> ThicknessReportNd: ...
    def density(self) -> Optional[Interval]: ...
    def validate(self, sys: BallSystem, depth: int) -> None: ...


def on_common_scale(values) -> tuple[int, list[int]]:
    """A common denominator of ``values`` and their numerators over it."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


@dataclass(frozen=True)
class GridIfs:
    """n x n grid of radius-rho children inside the unit sup-norm ball,
    spaced d apart and d/2 from the boundary; levels below the first are
    re-drawn with seed-deterministic perturbations of sup-norm strictly
    below d/2 of the parent's scale.

    Lattice step, with rho = p/q, cell offsets tau_i/T and the
    perturbation K*(v - 2^63)/T for a sha256 word v: a child's center
    numerators are N*q*T + N_r*q*(tau_i + K*(v - 2^63)) and its radius
    numerator N_r*p*T, so every level multiplies the scale by q*T."""

    n: int
    rho: Q
    d_spacing: Q
    seed: int
    designated = (0, 1)

    def __post_init__(self):
        if self.n < 2 or self.rho <= 0 or self.d_spacing <= 0:
            raise InputError("need n >= 2 and positive rho, d")
        if 2 * self.rho * self.n + self.n * self.d_spacing != 2:
            raise InputError("grid constraint 2*rho*n + n*d = 2 violated")

    @functools.cached_property
    def _table(self) -> tuple[int, int, int, list[tuple[int, int]], int]:
        """(p, q, T, [tau_i], K), built on first use."""
        pitch = 2 * self.rho + self.d_spacing
        start = -1 + self.d_spacing / 2 + self.rho
        offsets = [start + i * pitch for i in range(self.n)]
        step = (self.d_spacing / 2) * PERTURB_CLAMP / 2**63
        t, (k, *ticks) = on_common_scale([step, *offsets])
        taus = [(ticks[i % self.n], ticks[i // self.n])
                for i in range(self.n * self.n)]
        return self.rho.numerator, self.rho.denominator, t, taus, k

    def child_count(self, word: Word) -> int:
        return self.n * self.n

    def scale(self, root_scale: int, k: int) -> int:
        _, q, t, _, _ = self._table
        return root_scale * (q * t) ** k

    def _nominal(self, parent: Lattice) -> tuple[int, int, int, int]:
        """The parent's integers on the children's scale: the grid origin
        x0, y0, the factor q*N_r of the cell offsets and the children's
        radius numerator."""
        p, q, t, _, _ = self._table
        nx, ny, nr = parent
        return nx * q * t, ny * q * t, q * nr, nr * p * t

    def children(self, parent: Lattice, word: Word,
                 indices) -> list[Lattice]:
        """Children ``indices`` of ``parent``: the parent's integers are
        scaled and the key prefix hashed once for them all."""
        _, _, _, taus, k = self._table
        x0, y0, qr, r = self._nominal(parent)
        if not word:
            return [(x0 + qr * taus[i][0], y0 + qr * taus[i][1], r)
                    for i in indices]
        # deeper levels are perturbed
        return [(x0 + qr * (taus[i][0] + k * (vx - 2**63)),
                 y0 + qr * (taus[i][1] + k * (vy - 2**63)), r)
                for i, (vx, vy) in zip(indices, _hash_words(
                    self.seed, word, indices))]

    def cells(self, parent: Lattice, word: Word
              ) -> tuple[list[Lattice], int]:
        """The unperturbed children, with no hashing.  A hash v lies in
        [0, 2^64), so the perturbation q*N_r*K*(v - 2^63) that
        ``children`` adds below the root is at most q*N_r*K*2^63 in
        size."""
        _, _, _, taus, k = self._table
        x0, y0, qr, r = self._nominal(parent)
        return ([(x0 + qr * tx, y0 + qr * ty, r) for tx, ty in taus],
                qr * k * 2**63 if word else 0)

    def h_upper(self, sys: BallSystem, word: Word, bits: int) -> Interval:
        return Interval.point(sys.root.radius * self.d_spacing
                              * self.rho ** len(word) / (1 - self.rho))

    def thickness(self, sys: BallSystem, bits: int) -> ThicknessReportNd:
        val = self.rho * (1 - self.rho) / self.d_spacing
        return ThicknessReportNd(Interval.point(val), (), SELF_SIMILAR)

    def density(self) -> Interval:
        # any such sub-ball contains a whole grid cell, even perturbed
        return Interval.point(2 * self.rho + self.d_spacing)

    def validate(self, sys: BallSystem, depth: int) -> None:
        if sys.norm != LINF:
            raise InputError("grid children escape a Euclidean root; the "
                             "grid builder needs the sup norm")


@dataclass(frozen=True)
class HexPacking:
    """Hexagonal arrangement of 85 congruent circles (55 core plus 30
    edge circles) copied self-similarly into every child; the two
    designated children near the origin, and their whole subtrees, are
    shrunk by gamma so they become strictly disjoint from their
    neighbours for gamma < 1.

    Lattice step: the grid's without perturbation, with the hex centers
    over T; at the root level gamma = g/h is folded in, the scale gaining
    the factor h and the designated radius numerators g in place of h."""

    gamma: Q
    rho = Q(12179, 100000)  # the spacing of the bundled centers
    designated = (0, 1)

    def __post_init__(self):
        if not (0 < self.gamma <= 1):
            raise InputError("gamma must lie in (0, 1]")

    @functools.cached_property
    def _table(self) -> tuple[int, int, int, list[tuple[int, int]]]:
        """(p, q, T, [tau_i]), built on first use."""
        t, flat = on_common_scale([c for xy in hex_centers() for c in xy])
        taus = list(zip(flat[::2], flat[1::2]))
        return self.rho.numerator, self.rho.denominator, t, taus

    def child_count(self, word: Word) -> int:
        return 85

    def scale(self, root_scale: int, k: int) -> int:
        _, q, t, _ = self._table
        return root_scale * (q * t) ** k * (self.gamma.denominator if k
                                            else 1)

    def children(self, parent: Lattice, word: Word,
                 indices) -> list[Lattice]:
        """Children ``indices`` of ``parent``, with the parent's integers
        scaled, and gamma folded at the root, once for them all."""
        p, q, t, taus = self._table
        nx, ny, nr = parent
        r = nr * p * t
        if word:
            m, plain, shrunk = q, r, r
        else:  # gamma = g/h folded into the root level
            g, h = self.gamma.numerator, self.gamma.denominator
            m, plain, shrunk = q * h, r * h, r * g
        x0, y0, nm = nx * m * t, ny * m * t, nr * m
        return [(x0 + nm * taus[i][0], y0 + nm * taus[i][1],
                 shrunk if i in self.designated else plain)
                for i in indices]

    def cells(self, parent: Lattice, word: Word
              ) -> tuple[list[Lattice], int]:
        """The exact children: they cost no more than their cells."""
        return self.children(parent, word, range(85)), 0

    def h_upper(self, sys: BallSystem, word: Word, bits: int) -> Interval:
        # one level of interstitial slack below the ball's own radius:
        # h <= q * rho * rad(ball) / (1 + rho)
        q = _hex_q(bits)
        if not word:
            return (Interval.point((1 - self.gamma) * self.rho)
                    + q * self.rho / (1 + self.rho)) * sys.root.radius
        rad = sys.root.radius * self.rho ** len(word)
        if word[0] in self.designated:
            rad *= self.gamma
        return q * self.rho * rad / (1 + self.rho)

    def thickness(self, sys: BallSystem, bits: int) -> ThicknessReportNd:
        q = _hex_q(bits)
        h0 = self.h_upper(sys, (), bits)
        if q.lo <= 0 or h0.lo <= 0:
            raise Indeterminate("the hex thickness bound's divisors are not "
                                f"certified positive at {bits} precision "
                                "bits")
        root = Interval.point(self.gamma * self.rho * sys.root.radius) / h0
        interior = Interval.point(1 + self.rho) / q
        # the smaller ratio, or their pointwise minimum when they overlap
        lower = Interval(min(root.lo, interior.lo), min(root.hi, interior.hi))
        word = (2,) if root.certainly_gt(interior) else ()
        return ThicknessReportNd(lower, word, SELF_SIMILAR)

    def density(self) -> Interval:
        """1312111/5000000 = 0.2624222, at and above which every ball is
        r-uniform.  ``_uniform_word`` certifies it on the 85 bundled
        circles (the root at gamma = 1) and falsifies 0.2624221.  Every
        word's children repeat that pattern up to similarity, and the
        root's designated children, shrunk by gamma about their own
        centers, lie in any sub-ball that holds the unshrunk ones.  The
        closed form (2 + sqrt(3))/sqrt(3) * rho = 0.26242098 is below
        the kernel's threshold, which lies in (0.26242215, 0.26242216)."""
        return Interval.point(Q(1312111, 5000000))

    def validate(self, sys: BallSystem, depth: int) -> None:
        unit = Ball((Q(0), Q(0)), Q(1), sys.norm)
        for i, c in enumerate(hex_centers()):
            if not unit.contains_ball(Ball(c, self.rho, sys.norm)):
                raise InputError(f"hex circle {i} escapes the unit ball")
        if self.gamma < 1:
            kids = sys.kids(())
            for j in self.designated:
                i = first_touching_sibling(kids, j, sys.norm)
                if i is not None:
                    raise InputError("designated child is not disjoint "
                                     f"from sibling {i}")


@dataclass(frozen=True)
class ExplicitTree:
    """Finite table of balls: the ball at a nonempty word has the center
    and radius of ``nodes[word]`` (and the system's norm), the children
    of a word are its one-letter extensions present in the table, and the
    ball at () is the system's root.  Level k's lattice scale is the lcm
    of the denominators of the table's balls at that level."""

    nodes: dict[Word, Ball]
    designated = (0, 1)

    @functools.cached_property
    def _scales(self) -> dict[int, int]:
        """Lattice scale of each nonempty level, built on first use."""
        out: dict[int, int] = {}
        for w, b in self.nodes.items():
            if w:
                out[len(w)] = math.lcm(out.get(len(w), 1),
                                       common_denominator(b))
        return out

    def child_count(self, word: Word) -> int:
        i = 0
        while word + (i,) in self.nodes:
            i += 1
        return i

    def scale(self, root_scale: int, k: int) -> int:
        return self._scales.get(k, 1) if k else root_scale

    def children(self, parent: Lattice, word: Word,
                 indices) -> list[Lattice]:
        return [lattice_of(self.nodes[word + (i,)],
                           self._scales[len(word) + 1]) for i in indices]

    def cells(self, parent: Lattice, word: Word
              ) -> tuple[list[Lattice], int]:
        """The exact children, read from the table."""
        return self.children(parent, word,
                             range(self.child_count(word))), 0

    def h_upper(self, sys: BallSystem, word: Word, bits: int) -> Interval:
        """Every ball of the table meets the generated set, so a point x
        lies within |x - c| + r of it for each ball (c, r) of the
        deepest level below ``word``.  The bound is the upper end of the
        farthest-point enclosure of the smallest such reach over the
        ball, run to a width of a sixteenth of its radius; zero for a
        ball-filling chain."""
        words = [word]
        while nxt := [w + (i,) for w in words
                      for i in range(self.child_count(w))]:
            words = nxt
        s = math.lcm(sys.scale(len(word)), sys.scale(len(words[0])))
        ball, *deepest = (tuple(x * (s // sys.scale(len(w)))
                                for x in sys.lattice(w))
                          for w in (word, *words))
        if ball in deepest:
            return Interval.point(Q(0))  # ball-filling chain
        _, hi, _ = _farthest(ball, deepest, s, sys.norm,
                             width=Q(ball[-1], 16 * s))
        return Interval(Q(0), hi)

    def thickness(self, sys: BallSystem, bits: int) -> ThicknessReportNd:
        """The minimum over the table's internal words, tagged with the
        table's depth."""
        best: Optional[Q] = None
        best_word: Word = ()
        for w in sorted([(), *(w for w in self.nodes if w)], key=len):
            count = self.child_count(w)
            if not count:
                continue
            min_rad = min(self.nodes[w + (i,)].radius for i in range(count))
            h = self.h_upper(sys, w, bits)
            if h.hi == 0:
                continue  # slack-free word imposes no constraint
            lo = min_rad / h.hi
            if best is None or lo < best:
                best, best_word = lo, w
        if best is None:
            raise InputError("explicit tree has no internal nodes")
        max_depth = max(map(len, self.nodes), default=0)
        return ThicknessReportNd(Interval.point(best), best_word,
                                 f"truncated_depth({max_depth})")

    def density(self) -> None:
        return None

    def validate(self, sys: BallSystem, depth: int) -> None:
        if self.nodes.get((), sys.root) != sys.root:
            raise InputError("the explicit tree's ball at () is not the "
                             "system's root")
        # the children of a word are numbered 0, 1, ... without a gap,
        # so every letter of every word is below its prefix's count
        for w in self.nodes:
            for j, i in enumerate(w):
                count = self.child_count(w[:j])
                if i >= count:
                    raise InputError(
                        f"explicit tree word {w} skips child index {count} "
                        f"of word {w[:j]}")
        for w in sorted([(), *(w for w in self.nodes if w)], key=len):
            if len(w) >= depth:
                break
            parent = sys.ball(w)
            for kid in sys.children(w):
                if not parent.contains_ball(kid):
                    raise InputError(f"child escapes parent at word {w}")
        max_depth = max(map(len, self.nodes), default=0)
        for w in self.nodes:
            if len(w) < max_depth and not self.child_count(w):
                raise InputError(f"ball at word {w} has no descendants, "
                                 "so it cannot meet the generated set")


@functools.cache
def hex_centers() -> list[tuple[Q, Q]]:
    """The bundled arrangement: one \"x y\" rational pair per line."""
    text = resources.files("thickset").joinpath(
        "data/hex_centers.txt").read_text()
    out = []
    for line in text.strip().splitlines():
        xs, ys = line.split()
        out.append((Q(xs), Q(ys)))
    if len(out) != 85:
        raise InputError("hex centers data must hold 85 entries")
    return out


@dataclass(frozen=True)
class BallSystem:
    """A root ball and the generator of its descendants.

    Every ball has a lattice form: integers over the scale of its level,
    ``scale(k)``, which the generator derives from the root's common
    denominator.  One scale per level means siblings, and the two sides
    of a pair of equal-length words, compare as plain integers.  A
    child's integers come from its parent's, so searches walk lattices
    and build a ``Ball`` only for what they report.  Nothing is cached:
    ``ball`` and ``children`` walk from the root on every call.  Both
    walks derive children through the generator's ``children``: a walk
    to one word (``lattice``) asks for one child per level, a walk over a
    whole fan (``kids``) for all of them at once.  Searches derive only
    the children that the generator's ``cells`` cannot exclude.
    """

    root: Ball
    generator: Generator

    @property
    def norm(self) -> str:
        return self.root.norm

    def child_count(self, word: Word) -> int:
        return self.generator.child_count(word)

    def scale(self, k: int) -> int:
        """The lattice scale of the balls at words of length ``k``."""
        return self.generator.scale(common_denominator(self.root), k)

    def lattice(self, word: Word) -> Lattice:
        """The ball at ``word`` in lattice form, one letter at a time (a
        loop, so any word length works)."""
        lat = lattice_of(self.root, common_denominator(self.root))
        for j, i in enumerate(word):
            if not (0 <= i < self.child_count(word[:j])):
                raise InputError("child index out of range")
            lat, = self.generator.children(lat, word[:j], (i,))
        return lat

    def kids(self, word: Word, lat: Optional[Lattice] = None
             ) -> list[Lattice]:
        """The children of the ball at ``word`` in lattice form, from its
        lattice ``lat`` when the caller has it, derived in one batch by
        the generator's ``children``."""
        if lat is None:
            lat = self.lattice(word)
        return self.generator.children(lat, word,
                                       range(self.child_count(word)))

    def to_ball(self, lat: Lattice, scale: int) -> Ball:
        return Ball(tuple(Q(x, scale) for x in lat[:-1]), Q(lat[-1], scale),
                    self.norm)

    def ball(self, word: Word) -> Ball:
        if not word:
            return self.root
        return self.to_ball(self.lattice(word), self.scale(len(word)))

    def children(self, word: Word) -> list[Ball]:
        s = self.scale(len(word) + 1)
        return [self.to_ball(lat, s) for lat in self.kids(word)]


def grid_ifs_example(n: int, rho, d_spacing, seed: int) -> BallSystem:
    g = GridIfs(n, to_q(rho), to_q(d_spacing), seed)
    root = Ball((Q(0), Q(0)), Q(1), LINF)
    return BallSystem(root, g)


def hex_packing_example(gamma) -> BallSystem:
    g = HexPacking(to_q(gamma))
    root = Ball((Q(0), Q(0)), Q(1), L2)
    return BallSystem(root, g)


def validate_system(sys: BallSystem, depth: int = 2) -> None:
    """Raise InputError unless every ball of the system lies inside its
    parent and can meet the generated set, and, for the hex builder with
    gamma < 1, its designated children are strictly disjoint from their
    siblings.  The builders are decided at every depth by an argument,
    so ``depth`` only bounds the enumeration of explicit trees.

    Grid (sup norm).  The constraint 2*rho*n + n*d = 2 puts every cell
    center at most 1 - rho - d/2 from the parent center, in units of the
    parent radius, and the perturbations below the first level move it
    by at most (d/2) * PERTURB_CLAMP.  The sum is strictly less than
    1 - rho because PERTURB_CLAMP < 1, so the child, of radius rho, lies
    strictly inside its parent at every level.  The argument needs the sup norm: a
    Euclidean root is rejected (its corner children escape).

    Hex.  Every level is the same copy of the 85 circles scaled to its
    parent; only the root's designated children shrink, by gamma <= 1,
    about their own centers.  So |h_i| + rho <= 1 for the 85 unshrunk
    circles decides containment at every depth, and the designated
    children are checked once against their siblings.

    Explicit trees.  A finite table has no such argument: containment is
    enumerated for the parents shallower than ``depth``, and a ball with
    no children above the table's deepest level is rejected, since it
    cannot meet the generated set.
    """
    sys.generator.validate(sys, depth)


# -- covering slack (h) and thickness -------------------------------------


@functools.cache
def _hex_q(bits: int = 128) -> Interval:
    """Enclosure of (2 - sqrt(3))/sqrt(3) = (2*sqrt(3) - 3)/3, a
    function of ``bits`` alone like ``sqrt3``."""
    return (2 * sqrt3(bits) - 3) / 3


def h_upper(sys: BallSystem, word: Word = (), bits: int = 128) -> Interval:
    """Certified upper bound on the covering slack of the ball at
    ``word``: the largest distance from a point of that ball to the
    generated set.

    Closed forms for the self-similar builders; for explicit trees the
    upper end of the farthest-point enclosure over the ball against the
    deepest level of the table, in any dimension.
    """
    return sys.generator.h_upper(sys, word, bits)


SELF_SIMILAR = "self_similar_closed_form"


@dataclass(frozen=True)
class ThicknessReportNd:
    lower_bound: Interval
    achieved_word: Word
    tail_certificate: str


def yavicoli_thickness(sys: BallSystem, bits: int = 128) -> ThicknessReportNd:
    """Lower bound for inf over words of (min child radius) / h(word).

    Self-similar builders have level-independent ratios, so the bound is
    a closed form; explicit trees report the minimum over evaluated
    words, tagged with the truncation depth.
    """
    return sys.generator.thickness(sys, bits)


# -- uniform density -------------------------------------------------------


CERTIFIED_ANALYTIC = "certified_analytic"
CERTIFIED = "certified"
FALSIFIED = "falsified"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class UniformityResult:
    status: str
    counterexample: Optional[Ball] = None


def _uniform_word(sys: BallSystem, word: Word, r_iv: Interval
                  ) -> UniformityResult:
    """Whether the ball at ``word``, of center c and radius R, is
    r-uniform.  B(x, rR) contains child i exactly when
    |x - c_i| + r_i <= rR, and a sub-ball of radius at least rR contains
    one of radius rR, so the ball is r-uniform exactly when the largest
    min_i (|x - c_i| + r_i) over |x - c| <= (1 - r)R is at most rR.
    Certified at r.lo holds for the whole interval, and so does
    falsified at r.hi, with the sub-ball at the farthest point as the
    counterexample."""
    own, below = sys.scale(len(word)), sys.scale(len(word) + 1)
    s = math.lcm(own, below)
    ball = tuple(x * (s // own) for x in sys.lattice(word))
    kids = sys.kids(word)
    for r in dict.fromkeys((r_iv.lo, r_iv.hi)):
        p, q = r.numerator, r.denominator
        reach = r * Q(ball[-1], s)
        step = s // below * q
        lo, hi, x = _farthest((*(c * q for c in ball[:-1]),
                               (q - p) * ball[-1]),
                              [tuple(v * step for v in kid) for kid in kids],
                              s * q, sys.norm, threshold=reach)
        if r == r_iv.lo and hi <= reach:
            return UniformityResult(CERTIFIED)
        if r == r_iv.hi and lo > reach:
            return UniformityResult(FALSIFIED, Ball(x, reach, sys.norm))
    return UniformityResult(UNKNOWN)


def r_uniformity_check(sys: BallSystem, r) -> UniformityResult:
    """Check whether every sub-ball of relative radius at least r inside
    any tree ball contains a child ball.

    The builders admit analytic constants: the grid is (2*rho + d)-dense
    (any such sub-ball contains a whole grid cell even after
    perturbation) and the hexagonal arrangement is 0.2624222-dense, a
    rational that this kernel certifies on the 85 circles every level
    repeats (``HexPacking.density``).  Larger r values inherit the
    certificate.  Below it, the root and the depth-1 words are checked
    exactly with the farthest-point enclosure, which can falsify but not
    certify the levels below: the answer is ``falsified`` or
    ``unknown``.  A system with no analytic constant, a finite table, is
    checked at every word with children, the words its thickness bound
    ranges over, and the answer is ``certified`` or ``falsified``.  A
    search that passes the node budget is ``Indeterminate``.
    """
    r_iv = Interval.coerce(r)
    if not (0 < r_iv.lo and r_iv.hi < 1):
        raise InputError("r must lie in (0, 1)")
    analytic = sys.generator.density()
    if analytic is not None and r_iv.certainly_ge(analytic):
        return UniformityResult(CERTIFIED_ANALYTIC)
    status = CERTIFIED if analytic is None else UNKNOWN
    words: list[Word] = [()]
    for w in words:  # breadth first; the list grows as it is walked
        count = sys.child_count(w)
        if not count:
            continue
        res = _uniform_word(sys, w, r_iv)
        if res.status == FALSIFIED:
            return res
        if res.status == UNKNOWN:
            status = UNKNOWN
        if analytic is None or not w:
            words += [w + (i,) for i in range(count)]
    return UniformityResult(status)


# -- subset thickness ------------------------------------------------------


FULL_BOUND = "full_bound"
HALF_BOUND = "half_bound"


@dataclass(frozen=True)
class SubsetThicknessReport:
    kind: str
    bound: Interval
    min_sibling_gap: Interval


def _gap(d2: int, reach: int, scale: int, norm: str, bits: int) -> Interval:
    """Enclosure of the distance between two closed lattice balls over
    ``scale`` with squared center distance ``d2`` (``sq_dist``) and radii
    summing to ``reach``; zero when they meet."""
    if norm == LINF:
        d = Interval.point(Q(math.isqrt(d2), scale))
    else:
        d = interval_sqrt(Interval.point(Q(d2, scale * scale)), bits)
    d = d - Q(reach, scale)
    return Interval(max(d.lo, Q(0)), max(d.hi, Q(0)))


def subset_thickness(sys: BallSystem, child_index: int,
                     bits: int = 128) -> SubsetThicknessReport:
    """Thickness bound inherited by the subset generated below one
    first-generation child that is disjoint from all its siblings.

    The generic bound halves the parent thickness.  When the child's
    covering slack is certifiably smaller than its distance to every
    sibling, the farthest point of the child ball is realized inside the
    child itself and the full parent bound carries over.

    The distance is the minimum, endpoint by endpoint, of the siblings'
    gap enclosures, but only siblings that an exact test cannot exclude
    get one.  A gap's lower end is at least d_j - R_j - 2^-(bits+1), with
    d_j the center distance and R_j the two radii's sum, because the
    square-root enclosure is at most 2^-(bits+1) wide; so when
    d_j^2 > (H + R_j + 2^-(bits+1))^2, with H the least upper end found
    so far, sibling j can lower neither minimum.  The test multiplies
    both sides by the level's squared scale and compares integers.  The
    nearest siblings, by an integer square root, are visited first; the
    order changes only how many enclosures are computed.  The same
    squared distances give the first sibling the child touches, in
    index order, with ``lattice_disjoint``'s strictness.
    """
    kids = sys.kids(())
    if not (0 <= child_index < len(kids)):
        raise InputError("child index out of range")
    norm, child = sys.norm, kids[child_index]
    d2 = [sq_dist(child, other, norm) for other in kids]
    reach = [child[-1] + other[-1] for other in kids]
    i = next((i for i, d in enumerate(d2)
              if i != child_index and d <= reach[i] * reach[i]), None)
    if i is not None:
        raise InputError(f"designated child intersects sibling {i}")
    if len(kids) < 2:
        raise InputError("the child has no siblings")
    s = sys.scale(1)
    order = sorted((j for j in range(len(kids)) if j != child_index),
                   key=lambda j: math.isqrt(d2[j]) - reach[j])
    slack = Q(1, 2 ** (bits + 1))
    lo = hi = None
    for j in order:
        if hi is not None and d2[j] * bd * bd > (bn + reach[j] * bd) ** 2:
            continue
        gap = _gap(d2[j], reach[j], s, norm, bits)
        lo = gap.lo if lo is None else min(lo, gap.lo)
        if hi is None or gap.hi < hi:
            hi = gap.hi
            bound = (hi + slack) * s  # H + 2^-(bits+1) on the lattice
            bn, bd = bound.numerator, bound.denominator
    min_gap = Interval(lo, hi)
    tau = yavicoli_thickness(sys, bits).lower_bound
    if h_upper(sys, (child_index,), bits).certainly_lt(min_gap):
        return SubsetThicknessReport(FULL_BOUND, tau, min_gap)
    return SubsetThicknessReport(HALF_BOUND, tau / 2, min_gap)


# -- higher-dimensional gap-lemma hypotheses --------------------------------


HOLDS = "hypotheses_hold"
FAILS = "fail"


@dataclass(frozen=True)
class RdHypothesesReport:
    thickness_product_ok: Optional[bool]
    root_meets_shrunk_ball: Optional[bool]
    radius_ratio_ok: Optional[bool]
    uniformity_ok: Optional[bool]
    verdict: str
    reason: str = ""
    details: dict = field(default_factory=dict)


def _meets_shrunk_ball(sys: BallSystem, target: Ball,
                       depth: int = 3) -> Optional[bool]:
    """Three-valued: does the generated set meet ``target``?  A tree ball
    inside the target certifies yes (every ball meets the set); all
    depth-d balls disjoint from it certifies no."""
    own = common_denominator(target)
    t = lattice_of(target, own)
    frontier = [((), sys.lattice(()))]
    for k in range(1, depth + 1):
        s = sys.scale(k)
        tk = tuple(x * s for x in t)
        nxt = []
        for w, lat in frontier:
            for i, kid in enumerate(sys.kids(w, lat)):
                b = tuple(x * own for x in kid)
                if lattice_contains(tk, b, target.norm):
                    return True
                if not lattice_disjoint(tk, b, target.norm):
                    nxt.append((w + (i,), kid))
        if not nxt:
            return False
        frontier = nxt
    return None


def _decided_ge(a: Interval, b: Interval) -> Optional[bool]:
    """Three-valued a >= b: True when certainly, False when a < b
    certainly, None when the enclosures overlap."""
    if a.certainly_ge(b):
        return True
    if a.certainly_lt(b):
        return False
    return None


def gap_lemma_rd_check(sys1: BallSystem, sys2: BallSystem, r,
                       depth: int = 3, bits: int = 128
                       ) -> RdHypothesesReport:
    """Certified check of the four intersection criteria for compact
    sets generated by ball systems: thickness product at least
    1/(1-2r)^2, the first set meeting the (1-2r)-shrunk root of the
    second, root radii comparable through r, and r-uniform density of
    both systems."""
    r_iv = Interval.coerce(r)
    if not (0 < r_iv.lo and r_iv.hi < Q(1, 2)):
        raise InputError("r must lie in (0, 1/2)")
    if depth < 0:
        raise InputError("depth must be nonnegative")
    details: dict = {}

    t1 = yavicoli_thickness(sys1, bits).lower_bound
    t2 = yavicoli_thickness(sys2, bits).lower_bound
    product = t1 * t2
    need = 1 / (1 - 2 * r_iv).square()
    details["thickness_product"] = product
    details["thickness_required"] = need
    prod_ok = _decided_ge(product, need)

    shrink = 1 - 2 * r_iv
    target = Ball(sys2.root.center, shrink.lo * sys2.root.radius,
                  sys2.root.norm)
    meets = _meets_shrunk_ball(sys1, target, depth)
    details["shrunk_ball_radius"] = Interval.point(target.radius)

    ratio_ok = _decided_ge(Interval.point(sys1.root.radius),
                           r_iv * sys2.root.radius)

    unis = [r_uniformity_check(s, r_iv) for s in (sys1, sys2)]
    details["uniformity"] = tuple(u.status for u in unis)
    if all(u.status in (CERTIFIED_ANALYTIC, CERTIFIED) for u in unis):
        uni_ok: Optional[bool] = True
    elif any(u.status == FALSIFIED for u in unis):
        uni_ok = False
    else:
        uni_ok = None

    checks = (prod_ok, meets, ratio_ok, uni_ok)
    names = ("thickness product", "root meets shrunk ball",
             "radius ratio", "r-uniformity")
    if all(c is True for c in checks):
        verdict, reason = HOLDS, ""
    elif any(c is False for c in checks):
        verdict = FAILS
        reason = "; ".join(n for n, c in zip(names, checks) if c is False)
    else:
        verdict = UNKNOWN
        reason = "; ".join(f"{n} undecided"
                           for n, c in zip(names, checks) if c is None)
    return RdHypothesesReport(prod_ok, meets, ratio_ok, uni_ok,
                              verdict, reason, details)
