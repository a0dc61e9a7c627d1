"""Static SVG emission for sets, ball systems, and witnesses.

Output is deterministic: coordinates are formatted from exact rationals
with a fixed precision and no timestamps or environment data are
embedded.
"""

from __future__ import annotations

from fractions import Fraction

from .balls import BallSystem, LINF
from .cantor import IfsSet1D, node_budget
from .errors import Indeterminate, InputError
from .scalars import Q, decimal_approx, decimal_ratio

_W = 640.0
# a bar is about 70 bytes of SVG, so a plot stays under about 7 MB
MAX_SHAPES = 100_000


def _fmt(q) -> str:
    return decimal_approx(Q(q) if not isinstance(q, Fraction) else q, 3)


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _check_budget(shapes: int, depth: int) -> None:
    """Refuse a plot of ``shapes`` shapes to ``depth``, counted before
    the level at ``depth`` is derived, past ``MAX_SHAPES`` or
    ``node_budget()``, whichever is lower."""
    budget = node_budget()
    limit = f"the node budget of {budget}" if budget < MAX_SHAPES \
        else f"the plot cap of {MAX_SHAPES} shapes"
    if shapes > min(budget, MAX_SHAPES):
        raise Indeterminate(f"plot needs {shapes} shapes to depth {depth}, "
                            f"over {limit}")


def render_set_1d(s: IfsSet1D, depth: int = 4,
                  marks: list[Q] | None = None) -> str:
    """Nested interval bars, one row per depth, deepest at the bottom;
    optional marked points drawn as circles under the last row; each row
    counted against the node budget first.  A bar [a, b] of the hull
    [h0, h0 + w], numerators over one denominator, starts at
    ((a - h0)*616 + 12*w)/w pixels and is (b - a)*616/w wide."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    row_h, pad = 28, 12
    px = int(_W - 2 * pad)
    height = pad * 2 + row_h * (depth + 1) + (24 if marks else 0)
    body = []
    level, (h0, h1), den = [s.hull_num], s.hull_num, s.form.den
    for d in range(depth + 1):
        _check_budget(len(body) + len(s.branches) ** d, d)
        if d:
            level = [kid for a, b in level for kid in s.form.children(a, b)]
            h0, h1 = h0 * den, h1 * den
        w, y = h1 - h0, pad + d * row_h
        for a, b in level:
            body.append(
                f'<rect x="{decimal_ratio((a - h0) * px + pad * w, w, 3)}" '
                f'y="{y}" width="{decimal_ratio((b - a) * px, w, 3)}" '
                f'height="{row_h - 8}" fill="#30567f" />')
    if marks:
        lo, y = s.hull[0], pad + (depth + 1) * row_h + 4
        for p in marks:
            cx = _fmt((p - lo) / s.width * Q(px) + pad)
            body.append(f'<circle cx="{cx}" cy="{y}" r="5" '
                        f'fill="#c23b21" />')
    return _svg(int(_W), height, body)


def render_ball_system(sys: BallSystem, depth: int = 1,
                       marks: list[tuple[Q, Q]] | None = None) -> str:
    """Tree balls to the given depth as circles (Euclidean norm) or
    squares (sup norm), drawn over the root outline; optional marked
    points as filled dots; each level counted against the node budget
    first."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    size = int(_W)
    half = _W / 2
    root = sys.root
    scale = Q(int(half - 20)) / root.radius

    def px(v, c, off) -> str:
        return _fmt((v - c) * scale + Q(int(off)))

    body = []
    shapes = [(0, root)]
    frontier = [((), sys.lattice(()))]
    for d in range(1, depth + 1):
        _check_budget(len(shapes) + sum(sys.child_count(w)
                                        for w, _ in frontier), d)
        s = sys.scale(d)
        nxt = []
        for w, lat in frontier:
            for i, kid in enumerate(sys.kids(w, lat)):
                nxt.append((w + (i,), kid))
                shapes.append((d, sys.to_ball(kid, s)))
        frontier = nxt
    palette = ["#888888", "#30567f", "#4f8f4f", "#b07830"]
    for d, b in shapes:
        color = palette[min(d, len(palette) - 1)]
        r = _fmt(b.radius * scale)
        cx = px(b.center[0], root.center[0], half)
        cy = px(-b.center[1], -root.center[1], half)
        if sys.norm == LINF:
            x = px(b.center[0] - b.radius, root.center[0], half)
            y = px(-b.center[1] - b.radius, -root.center[1], half)
            w = _fmt(2 * b.radius * scale)
            body.append(f'<rect x="{x}" y="{y}" width="{w}" height="{w}" '
                        f'fill="none" stroke="{color}" />')
        else:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" '
                        f'fill="none" stroke="{color}" />')
    for p in marks or []:
        cx = px(p[0], root.center[0], half)
        cy = px(-p[1], -root.center[1], half)
        body.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="#c23b21" />')
    if marks and len(marks) == 3:
        pts = " ".join(
            f"{px(p[0], root.center[0], half)},"
            f"{px(-p[1], -root.center[1], half)}" for p in marks)
        body.append(f'<polygon points="{pts}" fill="none" '
                    f'stroke="#c23b21" stroke-width="1.5" />')
    return _svg(size, size, body)
