"""Witness pipelines for convex combinations in R^d and triangles in the
plane over compact sets generated by ball systems.

Both pipelines follow the same shape: certify a thickness threshold,
build a disk guaranteed to lie inside the relevant combination of the
two designated subtrees, pick an exact target point close to the set
inside that disk, and refine the preimage pair of subtrees level by
level.  Every hypothesis that the construction relies on is checked with
certified arithmetic and recorded in the witness report.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Union

from .balls import (
    Ball,
    BallSystem,
    FULL_BOUND,
    HexPacking,
    L2,
    Word,
    h_upper,
    r_uniformity_check,
    subset_thickness,
    yavicoli_thickness,
)
from .cantor import node_budget
from .errors import HypothesisError, Indeterminate, InputError
from .product import NormalizedTriangle, Triangle, normalize_triangle
from .scalars import (
    Cmp,
    Interval,
    Q,
    interval_atan,
    interval_pi,
    interval_sqrt,
    to_q,
)

STANDARD = "standard"
APPENDIX = "appendix"

IVec = tuple[Interval, Interval]


def _as_r(r) -> Interval:
    iv = r if isinstance(r, Interval) else Interval.point(to_q(r))
    if not (0 < iv.lo and iv.hi < Q(1, 2)):
        raise InputError("r must lie in (0, 1/2)")
    return iv


def _ivec(p) -> IVec:
    return tuple(Interval.coerce(c) for c in p)  # type: ignore[return-value]


def _vsub(a: IVec, b: IVec) -> IVec:
    return (a[0] - b[0], a[1] - b[1])


def _sq_norm(a: IVec) -> Interval:
    return a[0].square() + a[1].square()


def _norm(a: IVec, bits: int = 128) -> Interval:
    return interval_sqrt(_sq_norm(a), bits)


# -- thresholds and windows ------------------------------------------------


def threshold(alpha: Optional[Interval], lam, r, mode: str = STANDARD,
              alpha_sq: Optional[Q] = None, bits: int = 128) -> Interval:
    """Certified thickness threshold for the requested configuration:
    linear combinations when alpha is absent, triangles otherwise.

    Linear, standard:   2(1-lam) / (lam (1-2r))
    Linear, appendix:   3(1-lam) / (2 lam (1-2r))
    Triangle, standard: sqrt((a^2+(1-lam)^2)/(a^2+lam^2)) * 2/(1-2r)
    Triangle, appendix: same ratio * 3/(2(1-2r))
    """
    lamv = to_q(lam)
    if not (0 < lamv <= Q(1, 2)):
        raise InputError("lambda must lie in (0, 1/2]")
    r_iv = _as_r(r)
    if mode not in (STANDARD, APPENDIX):
        raise InputError(f"unknown mode {mode!r}")
    one_minus_2r = 1 - 2 * r_iv
    if alpha is None:
        if mode == STANDARD:
            return Interval.point(2 * (1 - lamv)) / (lamv * one_minus_2r)
        return Interval.point(3 * (1 - lamv)) / (2 * lamv * one_minus_2r)
    if alpha_sq is not None:
        ratio_sq = Interval.point((alpha_sq + (1 - lamv) ** 2)
                                  / (alpha_sq + lamv ** 2))
    else:
        a2 = alpha.square()
        ratio_sq = (a2 + (1 - lamv) ** 2) / (a2 + lamv ** 2)
    ratio = interval_sqrt(ratio_sq, bits)
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
    at_half = threshold(None, Q(1, 2), r_iv, mode)
    if not Interval.point(tau.lo).certainly_ge(at_half):
        return None
    if mode == STANDARD:
        lo = 2 / (tau * (1 - 2 * r_iv) + 2)
    else:
        lo = 3 / (2 * tau * (1 - 2 * r_iv) + 3)
    return (lo, Q(1, 2))


# -- designated children and shared hypothesis plumbing ---------------------


def _designated(sys: BallSystem, idx_a: Optional[int],
                idx_b: Optional[int]) -> tuple[int, int]:
    if idx_a is None or idx_b is None:
        g = sys.generator
        if isinstance(g, HexPacking):
            return g.designated
        return (0, 1)
    return (idx_a, idx_b)


def _check_disjoint_children(sys: BallSystem, idx_a: int, idx_b: int
                             ) -> tuple[Ball, Ball]:
    kids = sys.children(())
    for j in (idx_a, idx_b):
        if not (0 <= j < len(kids)):
            raise InputError("designated child index out of range")
        for i, other in enumerate(kids):
            if i != j and not kids[j].disjoint_from(other):
                raise HypothesisError(
                    f"designated child {j} is not disjoint from sibling {i}")
    return kids[idx_a], kids[idx_b]


def _h_b_bound(sys: BallSystem, idx_a: int, idx_b: int, mode: str,
               bits: int) -> tuple[Interval, str]:
    """Certified stand-in for the covering slack of the designated
    subtrees: twice the root slack in standard mode, the root slack
    itself in appendix mode (valid only when each designated child's own
    slack certifiably stays below its distance to every sibling)."""
    h_root = h_upper(sys, (), bits)
    if mode == STANDARD:
        return 2 * h_root, "2*h_root (generic subset bound)"
    for j in (idx_a, idx_b):
        rep = subset_thickness(sys, j, bits)
        if rep.kind != FULL_BOUND:
            raise HypothesisError(
                "appendix mode needs the distance-child condition; it "
                f"fails for designated child {j}")
    return h_root, "h_root (distance-child condition certified)"


def _certify_threshold(tau: Interval, thr: Interval) -> None:
    c = Interval.point(tau.lo).compare(thr)
    if c is Cmp.LESS:
        raise HypothesisError(
            f"thickness lower bound {tau.approx_str(8)} is below the "
            f"threshold {thr.approx_str(8)}")
    if c is Cmp.OVERLAP and tau.lo < thr.hi:
        raise Indeterminate("threshold comparison undecided at the "
                            "current precision")


# -- disks ------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    center: IVec
    radius: Interval
    provenance: str  # "convex_combo" | "triangle"


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
                      idx_a: Optional[int] = None,
                      idx_b: Optional[int] = None,
                      bits: int = 128) -> tuple[Disk, dict]:
    """Disk certified to lie inside lam*A + (1-lam)*B for the designated
    subtrees, with radius exceeding the root covering slack so it must
    meet the set."""
    lamv = to_q(lam)
    r_iv = _as_r(r)
    ia, ib = _designated(sys, idx_a, idx_b)
    ball_a, ball_b = _check_disjoint_children(sys, ia, ib)
    if ball_a.radius > ball_b.radius:
        ia, ib = ib, ia
        ball_a, ball_b = ball_b, ball_a
    tau = yavicoli_thickness(sys, bits).lower_bound
    thr = threshold(None, lamv, r_iv, mode)
    _certify_threshold(tau, thr)
    h_b, h_b_note = _h_b_bound(sys, ia, ib, mode, bits)
    h_root = h_upper(sys, (), bits)

    t_a, t_b = ball_a.radius, ball_b.radius
    t_d = (lamv * (1 - 2 * r_iv) * t_a + Interval.point((1 - lamv) * t_b)
           - (1 - lamv) * h_b)
    if not t_d.certainly_gt(Interval.point(Q(0))):
        raise Indeterminate("disk radius not certified positive")
    if not t_d.certainly_gt(h_root):
        raise Indeterminate("disk radius not certified above the root "
                            "covering slack")
    center = tuple(Interval.point(lamv * ca + (1 - lamv) * cb)
                   for ca, cb in zip(ball_a.center, ball_b.center))
    report = {
        "mode": mode,
        "lambda": lamv,
        "r": r_iv,
        "tau_lower": tau,
        "threshold": thr,
        "threshold_ok": True,
        "children": (ia, ib),
        "children_disjoint": True,
        "h_b_bound": h_b,
        "h_b_note": h_b_note,
        "h_root": h_root,
        "disk_radius": t_d,
        "disk_radius_above_h_root": True,
    }
    return Disk(center, t_d, "convex_combo"), report


# -- target point selection --------------------------------------------------


def _deepest_center_in_disk(sys: BallSystem, disk: Disk, depth: int,
                            bits: int = 128) -> tuple[Word, tuple[Q, ...]]:
    """Greedy descent toward the disk center; returns the deepest word
    (up to ``depth``) whose ball center is certified inside the disk."""
    guide = tuple(c.mid for c in disk.center)
    word: Word = ()
    best: Optional[tuple[Word, tuple[Q, ...]]] = None
    for _ in range(depth):
        kids = sys.children(word)
        j = min(range(len(kids)),
                key=lambda i: sum((a - b) ** 2 for a, b in
                                  zip(kids[i].center, guide)))
        word = word + (j,)
        center = sys.ball(word).center
        diff = tuple(Interval.point(a) - b
                     for a, b in zip(center, disk.center))
        dist = interval_sqrt(diff[0].square() + diff[1].square(), bits)
        if dist.certainly_lt(disk.radius):
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

    def points(self):
        return (self.a, self.b, tuple(Interval.point(x) for x in self.c))


def _ball_box(b: Ball) -> IVec:
    return tuple(Interval(c - b.radius, c + b.radius) for c in b.center)


# an image in the comparison space: (lo, hi) per coordinate and the upper
# end of the radius
Image = tuple[tuple[tuple[Q, Q], ...], Q]


def _image(center: IVec, radius: Interval) -> Image:
    return tuple((c.lo, c.hi) for c in center), radius.hi


def _may_meet(a: Image, b: Image) -> bool:
    """False when the images are certifiably disjoint: the lower end of
    the squared center gap (coordinate by coordinate as
    ``Interval.square`` bounds it) exceeds the squared reach."""
    gap = 0
    for (alo, ahi), (blo, bhi) in zip(a[0], b[0]):
        d = alo - bhi
        if d > 0:
            gap += d * d
        else:
            d = ahi - blo
            if d < 0:
                gap += d * d
    reach = a[1] + b[1]
    return gap <= reach * reach


def _refine_pair(sys: BallSystem, image_a, image_b, start_a: Word,
                 start_b: Word, depth: int) -> tuple[Word, Word]:
    """Lexicographic depth-first search for a chain of possibly
    intersecting image-ball pairs down to the requested word length.

    ``image_a``/``image_b`` send a tree ball to its ``Image`` in the
    common comparison space.  Pairs whose images are certifiably disjoint
    are pruned.  The test compares Euclidean disks on both norms: on an
    L2 system the true witness pair survives at every level, so the
    search cannot exhaust, but on a sup-norm system it is stricter than
    box intersection and may.  Exhaustion is ``Indeterminate``, and so is
    a search that needs more than ``node_budget()`` child-pair tests.

    The search keeps an explicit stack of frames, one per pair on the
    current chain.  A frame maps each child of its pair once and yields
    the surviving child pairs in lexicographic order.  Before the full
    test, a child pair is skipped when the first coordinates alone are
    farther apart than the largest reach of the frame, which the full
    test would reject too.
    """
    budget = node_budget()
    tests = 0

    def survivors(wa: Word, wb: Word):
        nonlocal tests
        kids_b = [image_b(sys.ball(wb + (j,)))
                  for j in range(sys.child_count(wb))]
        if not kids_b:
            return
        by_x = sorted(range(len(kids_b)), key=lambda j: kids_b[j][0][0][0])
        xs = [kids_b[j][0][0][0] for j in by_x]
        r_b = max(r for _, r in kids_b)
        width = max(c[0][1] - c[0][0] for c, _ in kids_b)
        for i in range(sys.child_count(wa)):
            a = image_a(sys.ball(wa + (i,)))
            (alo, ahi), reach = a[0][0], a[1] + r_b
            near = by_x[bisect_left(xs, alo - reach - width):
                        bisect_right(xs, ahi + reach)]
            for j in sorted(near):
                tests += 1
                if tests > budget:
                    raise Indeterminate(
                        f"pair refinement passed the budget of {budget} "
                        "pair tests")
                if _may_meet(a, kids_b[j]):
                    yield wa + (i,), wb + (j,)

    if not _may_meet(image_a(sys.ball(start_a)), image_b(sys.ball(start_b))):
        raise Indeterminate("designated pair images do not meet")
    if len(start_a) >= depth:
        return start_a, start_b
    stack = [survivors(start_a, start_b)]
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
        elif len(pair[0]) >= depth:
            return pair
        else:
            stack.append(survivors(*pair))
    raise Indeterminate("pair refinement exhausted (no chain to the "
                        "requested depth)")


def _combo_images(lam: Q, c: tuple[Q, ...]):
    """Image maps refining -lam*A against (1-lam)*B - c.  They are
    exact, so every coordinate has lo = hi."""

    def image_a(b: Ball) -> Image:
        return tuple((-lam * x,) * 2 for x in b.center), lam * b.radius

    def image_b(b: Ball) -> Image:
        return (tuple(((1 - lam) * x - cc,) * 2
                      for x, cc in zip(b.center, c)),
                (1 - lam) * b.radius)

    return image_a, image_b


def find_convex_combo_nd(sys: BallSystem, lam, r, depth: int = 8,
                         mode: str = STANDARD,
                         idx_a: Optional[int] = None,
                         idx_b: Optional[int] = None,
                         bits: int = 128) -> WitnessNd:
    """Witness for a three-point configuration {a, lam*a + (1-lam)*b, b}
    in the set generated by the system, under the certified threshold.

    The combination point c is an exact ball center inside the certified
    disk; the searches refine -lam*A against (1-lam)*B - c.
    """
    lamv = to_q(lam)
    disk, report = convex_combo_disk(sys, lamv, r, mode, idx_a, idx_b, bits)
    ia, ib = report["children"]
    uni = r_uniformity_check(sys, _as_r(r))
    report["r_uniformity"] = uni.status
    if uni.status == "falsified":
        raise HypothesisError("system is not r-uniformly dense")
    word_c, c = _deepest_center_in_disk(sys, disk, depth, bits)
    report["c_word"] = word_c

    wa, wb = _refine_pair(sys, *_combo_images(lamv, c), (ia,), (ib,), depth)
    ball_a, ball_b = sys.ball(wa), sys.ball(wb)
    residual = lamv * 2 * ball_a.radius + (1 - lamv) * 2 * ball_b.radius
    defect_vec = tuple(
        Interval.point(lamv * xa + (1 - lamv) * xb - xc)
        for xa, xb, xc in zip(ball_a.center, ball_b.center, c))
    defect = _norm(defect_vec, bits)
    report["depth"] = depth
    return WitnessNd(_ball_box(ball_a), _ball_box(ball_b), c,
                     residual, defect, depth, report)


# -- triangle pipeline -------------------------------------------------------


@dataclass(frozen=True)
class VertexMaps:
    """The two rotation-scalings sending base vertices to the apex
    equation: f has matrix [[lam, -alpha], [alpha, lam]] (scaling s_f =
    sqrt(alpha^2 + lam^2)) and g has matrix [[-(1-lam), -alpha],
    [alpha, -(1-lam)]] (scaling s_g = sqrt(alpha^2 + (1-lam)^2))."""

    alpha: Interval
    lam: Q
    s_f: Interval
    s_g: Interval
    theta_f: Interval
    theta_g: Interval

    def apply_f(self, p) -> IVec:
        x, y = (Interval.coerce(c) for c in p)
        return (self.lam * x - self.alpha * y,
                self.alpha * x + self.lam * y)

    def apply_g(self, p) -> IVec:
        x, y = (Interval.coerce(c) for c in p)
        lm = 1 - self.lam
        return (-lm * x - self.alpha * y, self.alpha * x - lm * y)


def vertex_maps(alpha: Interval, lam, alpha_sq: Optional[Q] = None,
                bits: int = 128) -> VertexMaps:
    lamv = to_q(lam)
    if alpha.lo <= 0 and alpha_sq is None:
        raise InputError("alpha must be certified positive")
    if not (0 < lamv <= Q(1, 2)):
        raise InputError("lambda must lie in (0, 1/2]")
    a2 = Interval.point(alpha_sq) if alpha_sq is not None else alpha.square()
    reach = a2 + (1 - lamv) ** 2
    if reach.lo > 1:
        raise InputError("triangle data outside the admissible region")
    s_f = interval_sqrt(a2 + lamv * lamv, bits)
    s_g = interval_sqrt(a2 + (1 - lamv) ** 2, bits)
    theta_f = interval_atan(alpha / lamv, bits)
    theta_g = interval_atan(-alpha / (1 - lamv), bits) + interval_pi(bits)
    return VertexMaps(alpha, lamv, s_f, s_g, theta_f, theta_g)


def triangle_disk(sys: BallSystem, maps: VertexMaps, r,
                  mode: str = STANDARD,
                  idx_a: Optional[int] = None, idx_b: Optional[int] = None,
                  alpha_sq: Optional[Q] = None,
                  bits: int = 128) -> tuple[Disk, dict]:
    """Disk certified inside f(A) - g(B) whose radius clears the root
    covering slack, so it meets the set: the apex locations of similar
    copies with base pairs in the designated subtrees."""
    if sys.norm != L2:
        raise InputError("triangle search needs a Euclidean-norm system")
    r_iv = _as_r(r)
    ia, ib = _designated(sys, idx_a, idx_b)
    ball_a, ball_b = _check_disjoint_children(sys, ia, ib)
    if ball_a.radius > ball_b.radius:
        ia, ib = ib, ia
        ball_a, ball_b = ball_b, ball_a
    kids = sys.children(())
    t_min = min(b.radius for b in kids)
    h_root = h_upper(sys, (), bits)
    x_c = x_constant(r_iv, mode)

    # containment of the designated children: the basic half ball, else
    # the enlarged ball with radius 1/2 + t_min - h*x/(2 s_f)
    containment = None
    root_rad = sys.root.radius
    half = Ball(sys.root.center, root_rad / 2, sys.norm)
    if half.contains_ball(ball_a) and half.contains_ball(ball_b):
        containment = "half_ball"
    else:
        enlarged = (Interval.point(root_rad / 2 + t_min)
                    - h_root * x_c / (2 * maps.s_f))
        ok = True
        for b in (ball_a, ball_b):
            off = sum((c - rc) ** 2
                      for c, rc in zip(b.center, sys.root.center))
            reach = interval_sqrt(Interval.point(off), bits) + b.radius
            if not reach.certainly_le(enlarged):
                ok = False
        if ok:
            containment = "enlarged_ball"
    if containment is None:
        raise HypothesisError("designated children not certified inside "
                              "the half ball (or its enlargement)")

    tau = yavicoli_thickness(sys, bits).lower_bound
    thr = threshold(maps.alpha, maps.lam, r_iv, mode, alpha_sq, bits)
    _certify_threshold(tau, thr)
    h_b, h_b_note = _h_b_bound(sys, ia, ib, mode, bits)

    t_a, t_b = ball_a.radius, ball_b.radius
    t_d = ((1 - 2 * r_iv) * maps.s_f * t_a + maps.s_g * t_b
           - maps.s_g * h_b)
    if not t_d.certainly_gt(Interval.point(Q(0))):
        raise Indeterminate("disk radius not certified positive")
    if not t_d.certainly_gt(h_root):
        raise Indeterminate("disk radius not certified above the root "
                            "covering slack")
    center = _vsub(maps.apply_f(ball_a.center), maps.apply_g(ball_b.center))
    center_norm = _norm(center, bits)

    # the disk must reach the set: entirely inside the root, or
    # overlapping it deeply enough to trap a slack-sized ball
    inside = (center_norm + t_d).certainly_le(
        Interval.point(sys.root.radius))
    overlap = (Interval.point(sys.root.radius) + t_d - 2 * h_root
               - center_norm)
    meets = "disk_inside_root" if inside else None
    if meets is None and overlap.certainly_ge(Interval.point(Q(0))):
        meets = "boundary_overlap"
    if meets is None:
        raise Indeterminate("disk-meets-set condition not certified")

    report = {
        "mode": mode,
        "lambda": maps.lam,
        "alpha": maps.alpha,
        "r": r_iv,
        "tau_lower": tau,
        "threshold": thr,
        "threshold_ok": True,
        "children": (ia, ib),
        "children_disjoint": True,
        "containment": containment,
        "x_constant": x_c,
        "x_formula": ("max(1 - 2r/(1-2r), 0)" if mode == STANDARD
                      else "max(7/4 - 3/(4(1-2r)), 0)"),
        "x_note": "smaller of the two candidate constants; sound for both",
        "s_f": maps.s_f,
        "s_g": maps.s_g,
        "h_b_bound": h_b,
        "h_b_note": h_b_note,
        "h_root": h_root,
        "disk_radius": t_d,
        "disk_meets_set": meets,
    }
    return Disk(center, t_d, "triangle"), report


def _triangle_images(maps: VertexMaps, z: IVec):
    """Image maps refining f(A) - z against g(B); the endpoints are
    those of the interval evaluation, which is exact when alpha is."""

    def image_a(b: Ball) -> Image:
        return _image(_vsub(maps.apply_f(b.center), z), maps.s_f * b.radius)

    def image_b(b: Ball) -> Image:
        return _image(maps.apply_g(b.center), maps.s_g * b.radius)

    return image_a, image_b


def find_triangle_nd(sys: BallSystem, tri: Union[Triangle,
                                                 NormalizedTriangle],
                     r, depth: int = 6, mode: str = STANDARD,
                     idx_a: Optional[int] = None,
                     idx_b: Optional[int] = None,
                     bits: int = 128) -> WitnessNd:
    """Witness for the vertices of a similar copy of ``tri`` in the set
    generated by a Euclidean ball system: base points x, y in the two
    designated subtrees and apex z = lam*x + (1-lam)*y + alpha*(y-x)_perp
    within the certified residual."""
    norm = tri if isinstance(tri, NormalizedTriangle) \
        else normalize_triangle(tri)
    if norm.degenerate:
        raise InputError("degenerate triangle: use the linear "
                         "combination search instead")
    if not norm.region_ok():
        raise InputError("triangle data outside the admissible region")
    if norm.lam_exact is None:
        raise Indeterminate("base split ratio must be exact for the "
                            "search")
    maps = vertex_maps(norm.alpha, norm.lam_exact, norm.alpha_sq, bits)
    disk, report = triangle_disk(sys, maps, r, mode, idx_a, idx_b,
                                 norm.alpha_sq, bits)
    ia, ib = report["children"]
    uni = r_uniformity_check(sys, _as_r(r))
    report["r_uniformity"] = uni.status
    if uni.status == "falsified":
        raise HypothesisError("system is not r-uniformly dense")
    word_c, z = _deepest_center_in_disk(sys, disk, depth, bits)
    report["apex_word"] = word_c
    z_iv = _ivec(z)

    wa, wb = _refine_pair(sys, *_triangle_images(maps, z_iv), (ia,), (ib,),
                          depth)
    ball_a, ball_b = sys.ball(wa), sys.ball(wb)
    residual = (maps.s_f.hi * 2 * ball_a.radius
                + maps.s_g.hi * 2 * ball_b.radius)
    # defect of the apex equation at the reported centers; the apex map
    # lam*x + (1-lam)*y + alpha*(y2-x2, x1-y1) equals f(x) - g(y)
    apex = _vsub(maps.apply_f(ball_a.center), maps.apply_g(ball_b.center))
    defect = _norm(_vsub(apex, z_iv), bits)
    report["depth"] = depth
    report["side_ratio_deviation"] = _side_ratio_deviation(
        ball_a, ball_b, z, maps, bits)
    return WitnessNd(_ball_box(ball_a), _ball_box(ball_b), z,
                     residual, defect, depth, report,
                     convention="z = lam*x + (1-lam)*y + alpha*(y-x)_perp")


def _ball_pair_distance(ca, cb, ra, rb, bits: int) -> Interval:
    """Enclosure of |p - q| over p, q ranging in the two balls."""
    mid = interval_sqrt(Interval.point(
        sum((a - b) ** 2 for a, b in zip(ca, cb))), bits)
    spread = ra + rb
    return Interval(max(mid.lo - spread, Q(0)), mid.hi + spread)


def _side_ratio_deviation(ball_a: Ball, ball_b: Ball, z, maps: VertexMaps,
                          bits: int) -> Q:
    """Certified bound on how far the measured side ratios deviate from
    the similarity class (s_f and s_g over the unit base)."""
    base = _ball_pair_distance(ball_a.center, ball_b.center,
                               ball_a.radius, ball_b.radius, bits)
    left = _ball_pair_distance(ball_a.center, z, ball_a.radius, Q(0), bits)
    right = _ball_pair_distance(ball_b.center, z, ball_b.radius, Q(0), bits)
    dev = Q(0)
    for measured, expected in ((left / base, maps.s_f),
                               (right / base, maps.s_g)):
        gap = max(abs(measured.hi - expected.lo),
                  abs(expected.hi - measured.lo))
        dev = max(dev, gap)
    return dev
