"""Command-line surface: set construction, thickness reports, pattern
search, certification, reproduction of the worked-example constants, and
SVG/CSV/JSON artifact emission.

Exit codes: 0 a verdict was produced (including a sound infeasibility),
1 input error (or an internal error), 2 a certified hypothesis or
threshold failure, 3 indeterminate (precision, search budget, recursion
depth or memory exhausted).  Once the arguments parse, every exit
writes the manifest when ``--out`` is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys as _sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Union

from . import cantor, patterns1d, patterns_nd, product, render
from .balls import (
    BallSystem,
    gap_lemma_rd_check,
    grid_ifs_example,
    hex_packing_example,
    validate_system,
    yavicoli_thickness,
)
from .errors import HypothesisError, Indeterminate, InputError
from .scalars import Interval, Q, decimal_approx, decimal_str, sqrt3, to_q

SCHEMA = "thickset/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_UNKNOWN = 3


# -- descriptions ------------------------------------------------------------


def parse_description(text: str) -> dict:
    """Set/system description: inline JSON, a path to a JSON file, or the
    compact form kind:arg (e.g. middle_cantor:1/3)."""
    text = text.strip()
    if text.startswith("{"):
        desc = json.loads(text)
    elif text.endswith(".json") and Path(text).exists():
        desc = json.loads(Path(text).read_text())
        if not isinstance(desc, dict):
            raise InputError(f"{text} holds no JSON object")
    else:
        kind, _, arg = text.partition(":")
        desc = {"kind": kind}
        if kind == "middle_cantor":
            desc["epsilon"] = arg or "1/3"
        elif kind == "off_center":
            desc["a"] = arg
        elif kind == "hex_packing":
            desc["gamma"] = arg or "1"
        elif kind == "grid_ifs":
            parts = dict(p.split("=") for p in arg.split(",") if p)
            desc.update({"n": int(parts.get("n", 10)),
                         "rho": parts.get("rho", "19/200"),
                         "d": parts.get("d", "1/100"),
                         "seed": int(parts.get("seed", 1))})
        elif kind == "middle_thirds":
            desc = {"kind": "middle_cantor", "epsilon": "1/3"}
        elif arg:
            raise InputError(f"unrecognized description {text!r}")
    desc.setdefault("schema", SCHEMA)
    if desc["schema"] != SCHEMA:
        raise InputError(f"unsupported schema {desc['schema']!r}")
    return desc


def build_object(desc: dict) -> Union[cantor.IfsSet1D, BallSystem]:
    """The set or ball system a description names.  A field of the wrong
    type or length is an InputError, like any other bad description."""
    kind = desc.get("kind")
    try:
        if kind == "middle_cantor":
            return cantor.middle_cantor(to_q(desc["epsilon"]))
        if kind == "off_center":
            return cantor.off_center_cantor(to_q(desc["a"]))
        if kind == "ifs1d":
            return cantor.ifs_from_branches(
                desc["hull"][0], desc["hull"][1],
                [(b["scale"], b["offset"]) for b in desc["branches"]])
        if kind == "grid_ifs":
            return grid_ifs_example(int(desc["n"]), to_q(desc["rho"]),
                                    to_q(desc["d"]),
                                    int(desc.get("seed", 1)))
        if kind == "hex_packing":
            return hex_packing_example(to_q(desc["gamma"]))
    except (TypeError, IndexError) as e:
        raise InputError(f"malformed {kind!r} description: {e}") from e
    raise InputError(f"unknown description kind {kind!r}")


def canonical_description(desc: dict) -> str:
    return json.dumps(desc, sort_keys=True, separators=(",", ":"))


def default_r(sys: BallSystem, raw: Optional[str]):
    if raw and raw != "auto":
        return to_q(raw)
    g = sys.generator
    from .balls import GridIfs, HexPacking

    if isinstance(g, GridIfs):
        return 2 * g.rho + g.d_spacing
    if isinstance(g, HexPacking):
        # rational value certified at or above the analytic constant
        from .scalars import sqrt3

        bound = (2 * sqrt3() + 3) / 3 * g.rho
        num = bound.hi.numerator * 10**8 // bound.hi.denominator + 1
        return Q(num, 10**8)
    raise InputError("pass --r explicitly for explicit trees")


# -- serialization ------------------------------------------------------------


def jsonable(x: Any) -> Any:
    if isinstance(x, Interval):
        out = {"lo": str(x.lo), "hi": str(x.hi),
               "approx": x.approx_str(12)}
        return out
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def witness1d_json(w: patterns1d.Witness1D, desc: dict) -> dict:
    return {
        "schema": SCHEMA,
        "type": "witness_1d",
        "input": desc,
        "lambda": str(w.lam),
        "convention": w.convention,
        "points": [{"enclosure": jsonable(p.enclosure), "status": p.status}
                   for p in w.points],
        "exact_pair": None if w.a_exact is None else
            {"a": str(w.a_exact), "b": str(w.b_exact)},
        "residual": str(w.residual),
        "residual_approx": decimal_approx(w.residual, 15),
        "depth_used": w.depth_used,
    }


def witness_nd_json(w, desc: dict) -> dict:
    return {
        "schema": SCHEMA,
        "type": "witness_nd",
        "input": desc,
        "convention": w.convention,
        "a": jsonable(w.a),
        "b": jsonable(w.b),
        "c": jsonable(w.c),
        "residual": str(w.residual),
        "residual_approx": decimal_approx(w.residual, 15),
        "defect": jsonable(w.defect),
        "depth_used": w.depth_used,
        "hypotheses_report": jsonable(w.hypotheses_report),
    }


def witness_csv(points) -> str:
    lines = ["point,approx,error_bound"]
    for i, enclosure in enumerate(points):
        if isinstance(enclosure, Interval):
            mid, err = enclosure.mid, enclosure.width / 2
            lines.append(f"p{i},{decimal_approx(mid, 15)},"
                         f"{decimal_approx(err, 18)}")
        else:  # coordinate tuple
            mids = ",".join(decimal_approx(c.mid, 15) for c in enclosure)
            err = max(c.width / 2 for c in enclosure)
            lines.append(f'p{i},"{mids}",{decimal_approx(err, 18)}')
    return "\n".join(lines) + "\n"


def kap_json(cert: patterns1d.KapCertificate, desc: dict) -> dict:
    out = {
        "schema": SCHEMA,
        "type": "kap_certificate",
        "input": desc,
        "k": cert.k,
        "verdict": cert.verdict,
        "depth": cert.depth,
        "explored_nodes": cert.explored_nodes,
    }
    if cert.x is not None:
        out["x"] = jsonable(cert.x)
        out["y"] = jsonable(cert.y)
        out["points"] = [{"enclosure": jsonable(p.enclosure),
                          "status": p.status} for p in cert.points]
    return out


# -- artifact output -----------------------------------------------------------


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.artifacts: list[tuple[str, str]] = []  # (path, content)
        self.verdicts: list[str] = []
        self.lines: list[str] = []

    def say(self, line: str):
        self.lines.append(line)
        print(line)

    def emit(self, payload, kind: str):
        out = getattr(self.args, "out", None)
        fmt = getattr(self.args, "format", None) or "json"
        if out is None:
            return
        path = Path(out)
        if isinstance(payload, str):
            content = payload
        elif fmt == "csv" and kind in ("witness", "kap"):
            pts = payload.get("_csv_points", [])
            content = witness_csv(pts)
        else:
            payload = {k: v for k, v in payload.items()
                       if not k.startswith("_")}
            content = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        path.write_text(content)
        self.artifacts.append((str(path), content))

    def manifest(self, desc: Optional[dict], code: int):
        out = getattr(self.args, "out", None)
        if out is None:
            return
        m = {
            "schema": SCHEMA,
            "command": self.args.command,
            "input_hash": hashlib.sha256(
                canonical_description(desc or {}).encode()).hexdigest(),
            "seed": getattr(self.args, "seed", None),
            "depth": getattr(self.args, "depth", None),
            "precision_bits": getattr(self.args, "precision_bits", None),
            "mode": getattr(self.args, "mode", None),
            "verdicts": self.verdicts,
            "exit_code": code,
            "outputs": [p for p, _ in self.artifacts],
            "wall_time_s": round(time.monotonic() - self.start, 6),
        }
        Path(str(out) + ".manifest.json").write_text(
            json.dumps(m, indent=2, sort_keys=True) + "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_construct(run: Run) -> int:
    desc = parse_description(run.args.set)
    obj = build_object(desc)
    if isinstance(obj, BallSystem):
        validate_system(obj, depth=2)
        run.say(f"valid ball system ({obj.norm}), "
                f"{obj.child_count(())} first-generation children")
    else:
        c = cantor.cover(obj, min(run.args.depth, 10))
        run.say(f"valid set, hull [{decimal_str(obj.hull[0])}, "
                f"{decimal_str(obj.hull[1])}], "
                f"{len(obj.branches)} branches, "
                f"{len(c.intervals)} cover intervals at depth "
                f"{min(run.args.depth, 10)}")
    run.emit({"schema": SCHEMA, "type": "description", **desc},
             "description")
    run.verdicts.append("constructed")
    return EXIT_OK


def cmd_thickness(run: Run) -> int:
    desc = parse_description(run.args.set)
    obj = build_object(desc)
    if isinstance(obj, BallSystem):
        rep = yavicoli_thickness(obj)
        run.say(f"thickness lower bound {rep.lower_bound.approx_str(8)} "
                f"[{rep.tail_certificate}]")
        run.verdicts.append(str(rep.lower_bound.approx_str(8)))
        run.emit({"schema": SCHEMA, "type": "thickness_nd",
                  "input": desc,
                  "lower_bound": jsonable(rep.lower_bound),
                  "achieved_word": list(rep.achieved_word),
                  "tail_certificate": rep.tail_certificate}, "report")
        return EXIT_OK
    rep = cantor.newhouse_thickness(obj)
    run.say(f"{decimal_str(rep.value)} ({rep.status})")
    run.verdicts.append(f"{rep.value} ({rep.status})")
    run.emit({"schema": SCHEMA, "type": "thickness_1d", "input": desc,
              "value": str(rep.value), "status": rep.status,
              "witness_gap": jsonable(list(rep.witness.gap)),
              "ratio": str(rep.witness.ratio)}, "report")
    return EXIT_OK


def _combo_common(run: Run, lam) -> int:
    desc = parse_description(run.args.set)
    obj = build_object(desc)
    if isinstance(obj, BallSystem):
        r = default_r(obj, getattr(run.args, "r", None))
        w = patterns_nd.find_convex_combo_nd(
            obj, lam, r, depth=run.args.depth, mode=run.args.mode,
            bits=run.args.precision_bits)
        run.say(f"witness found: residual <= "
                f"{decimal_approx(w.residual, 12)} at depth {w.depth_used}")
        payload = witness_nd_json(w, desc)
        payload["_csv_points"] = [w.a, w.b,
                                  tuple(Interval.point(x) for x in w.c)]
        run.emit(payload, "witness")
        run.verdicts.append("witness")
        return EXIT_OK
    w = patterns1d.find_convex_combo(obj, lam, depth=run.args.depth)
    run.say(f"witness found: m = {w.m.enclosure.approx_str(12)}, "
            f"residual <= {decimal_approx(w.residual, 15)}")
    payload = witness1d_json(w, desc)
    payload["_csv_points"] = [p.enclosure for p in w.points]
    run.emit(payload, "witness")
    run.verdicts.append("witness")
    return EXIT_OK


def cmd_find_ap(run: Run) -> int:
    return _combo_common(run, Q(1, 2))


def cmd_find_combo(run: Run) -> int:
    return _combo_common(run, to_q(run.args.lam))


def _parse_triangle(raw: str):
    if raw == "equilateral":
        return product.equilateral()
    if raw.startswith("{"):
        data = json.loads(raw)
        return product.Triangle.make(data["vertices"])
    pts = [tuple(c for c in p.split(",")) for p in raw.split(";")]
    return product.Triangle.make(pts)


def cmd_find_triangle(run: Run) -> int:
    desc = parse_description(run.args.set)
    obj = build_object(desc)
    tri = _parse_triangle(run.args.triangle)
    if isinstance(obj, BallSystem):
        r = default_r(obj, getattr(run.args, "r", None))
        w = patterns_nd.find_triangle_nd(obj, tri, r,
                                         depth=run.args.depth,
                                         mode=run.args.mode,
                                         bits=run.args.precision_bits)
        run.say(f"triangle witness: side-ratio deviation <= "
                f"{decimal_approx(w.hypotheses_report['side_ratio_deviation'], 12)}")
        payload = witness_nd_json(w, desc)
        payload["_csv_points"] = [w.a, w.b,
                                  tuple(Interval.point(x) for x in w.c)]
        run.emit(payload, "witness")
        run.verdicts.append("witness")
        return EXIT_OK
    w = product.find_triangle_in_product(obj, tri, depth=run.args.depth,
                                         bits=run.args.precision_bits)
    run.say(f"product witness: side ratio deviation <= "
            f"{decimal_approx(w.ratio_deviation, 15)}")
    run.emit({
        "schema": SCHEMA, "type": "witness_product", "input": desc,
        "vertices": jsonable(w.vertices),
        "side_lengths": jsonable(w.side_lengths),
        "ratio_deviation": str(w.ratio_deviation),
        "depth_used": w.depth_used,
        "collinear": w.collinear,
        "_csv_points": list(w.vertices),
    }, "witness")
    run.verdicts.append("witness")
    return EXIT_OK


def cmd_search_kap(run: Run) -> int:
    desc = parse_description(run.args.set)
    obj = build_object(desc)
    if isinstance(obj, BallSystem):
        raise InputError("progression search runs on one-dimensional sets")
    cert = patterns1d.kap_search(obj, run.args.k, depth=run.args.depth)
    run.say(f"{cert.verdict} (k={cert.k}, depth={cert.depth}, "
            f"explored={cert.explored_nodes})")
    payload = kap_json(cert, desc)
    if cert.points:
        payload["_csv_points"] = [p.enclosure for p in cert.points]
    run.emit(payload, "kap")
    run.verdicts.append(cert.verdict)
    if cert.verdict == patterns1d.UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_certify_gap_lemma(run: Run) -> int:
    desc1 = parse_description(run.args.set)
    desc2 = parse_description(run.args.set2)
    o1, o2 = build_object(desc1), build_object(desc2)
    if isinstance(o1, BallSystem) != isinstance(o2, BallSystem):
        raise InputError("both inputs must be sets or both ball systems")
    if isinstance(o1, BallSystem):
        r = default_r(o1, getattr(run.args, "r", None))
        rep = gap_lemma_rd_check(o1, o2, r, depth=run.args.depth)
        run.say(f"{rep.verdict}" + (f": {rep.reason}" if rep.reason else ""))
        run.emit({"schema": SCHEMA, "type": "gap_lemma_nd",
                  "inputs": [desc1, desc2], "verdict": rep.verdict,
                  "reason": rep.reason,
                  "checks": {
                      "thickness_product": rep.thickness_product_ok,
                      "root_meets_shrunk_ball": rep.root_meets_shrunk_ball,
                      "radius_ratio": rep.radius_ratio_ok,
                      "uniformity": rep.uniformity_ok},
                  "details": jsonable(rep.details)}, "report")
        run.verdicts.append(rep.verdict)
        if rep.verdict == "hypotheses_hold":
            return EXIT_OK
        return EXIT_HYPOTHESIS if rep.verdict == "fail" else EXIT_UNKNOWN
    rep = patterns1d.gap_lemma_check(o1, o2)
    run.say(f"{rep.verdict}" + (f": {rep.reason}" if rep.reason else ""))
    run.emit({"schema": SCHEMA, "type": "gap_lemma_1d",
              "inputs": [desc1, desc2], "verdict": rep.verdict,
              "reason": rep.reason,
              "hull_intersect": rep.hull_intersect,
              "interwoven": rep.interwoven,
              "thickness_product": jsonable(rep.thickness_product)},
             "report")
    run.verdicts.append(rep.verdict)
    return EXIT_OK if rep.verdict == "hypotheses_hold" else EXIT_HYPOTHESIS


def reproduce_rows() -> list[dict]:
    """The reference constants of the two worked examples, re-derived
    with certified arithmetic and compared at their stated tolerances."""
    rows = []
    grid = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
    tau_g = yavicoli_thickness(grid).lower_bound
    rows.append(("grid thickness lower bound", "8.5975", tau_g,
                 Q(0), "exact rational"))
    thr = patterns_nd.threshold(None, Q(1, 2), Q(1, 5))
    rows.append(("grid progression threshold", "10/3", thr, Q(0),
                 "exact rational"))
    lam_lo, _ = patterns_nd.lambda_window(grid, Q(1, 5))
    rows.append(("grid lambda window lower end", "0.27938814", lam_lo,
                 Q(1, 10**6), "within 1e-6"))
    hex1 = hex_packing_example(1)
    rows.append(("hex thickness (gamma=1)", "7.25137",
                 yavicoli_thickness(hex1).lower_bound, Q(1, 1000),
                 "within 1e-3"))
    uni = (2 * sqrt3() + 3) / 3 * Q(12179, 100000)
    rows.append(("hex uniformity constant", "0.26243", uni, Q(1, 10**4),
                 "within 1e-4"))
    hexg = hex_packing_example(Q(99999, 100000))
    rows.append(("hex thickness (gamma=0.99999)", "7.25077",
                 yavicoli_thickness(hexg).lower_bound, Q(1, 1000),
                 "within 1e-3"))
    out = []
    for name, target_s, got, tol, note in rows:
        target = to_q(target_s)
        if tol == 0:
            ok = got.lo == got.hi == target
        else:
            ok = abs(got.mid - target) <= tol and got.width <= 2 * tol
        out.append({"name": name, "target": target_s,
                    "computed": got.approx_str(10), "tolerance": note,
                    "pass": bool(ok)})
    return out


def cmd_reproduce(run: Run) -> int:
    table = run.args.table
    if table not in ("section6", "examples"):
        raise InputError(f"unknown table {table!r}")
    rows = reproduce_rows()
    width = max(len(r["name"]) for r in rows)
    ok_all = True
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        ok_all &= r["pass"]
        run.say(f"{r['name']:<{width}}  target {r['target']:<12} "
                f"computed {r['computed']:<28} {status}")
    run.emit({"schema": SCHEMA, "type": "reproduction", "table": "section6",
              "rows": rows}, "report")
    run.verdicts.append("all_pass" if ok_all else "mismatch")
    return EXIT_OK if ok_all else EXIT_HYPOTHESIS


def cmd_plot(run: Run) -> int:
    desc = parse_description(run.args.set)
    obj = build_object(desc)
    marks = []
    if run.args.witness:
        data = json.loads(Path(run.args.witness).read_text())
        pts = data.get("points") or []
        if not pts and "a" not in data:
            raise InputError("witness artifact holds no points")
        if pts:
            for p in pts:
                enc = p["enclosure"]
                marks.append((to_q(enc["lo"]) + to_q(enc["hi"])) / 2)
        else:
            for key in ("a", "b"):
                coords = data[key]
                marks.append(tuple(
                    (to_q(c["lo"]) + to_q(c["hi"])) / 2 for c in coords))
            marks.append(tuple(to_q(c) for c in data["c"]))
    if isinstance(obj, BallSystem):
        svg = render.render_ball_system(obj, depth=min(run.args.depth, 2),
                                        marks=marks or None)
    else:
        svg = render.render_set_1d(obj, depth=min(run.args.depth, 8),
                                   marks=marks or None)
    if run.args.out is None:
        raise InputError("plot needs --out")
    run.emit(svg, "svg")
    run.say(f"wrote {run.args.out}")
    run.verdicts.append("plotted")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thickset",
        description="Certified computations on thick compact sets")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_set=True):
        if with_set:
            sp.add_argument("--set", required=True,
                            help="set/system description (kind:arg, JSON, "
                                 "or a JSON file path)")
        sp.add_argument("--out", help="artifact output path")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--depth", type=int, default=8)
        sp.add_argument("--precision-bits", type=int, default=128,
                        dest="precision_bits")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--mode", choices=["standard", "appendix"],
                        default="standard")

    common(sub.add_parser("construct", help="validate and normalize a "
                                            "set/system description"))
    common(sub.add_parser("thickness", help="thickness report"))
    common(sub.add_parser("find-ap", help="3-term progression witness"))
    sp = sub.add_parser("find-combo", help="convex combination witness")
    common(sp)
    sp.add_argument("--lam", required=True, help="combination ratio")
    sp.add_argument("--r", default="auto")
    sp = sub.add_parser("find-triangle", help="triangle witness")
    common(sp)
    sp.add_argument("--triangle", default="equilateral",
                    help='"equilateral", "x,y;x,y;x,y", or JSON')
    sp.add_argument("--r", default="auto")
    sp = sub.add_parser("search-kap", help="k-term progression search")
    common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp = sub.add_parser("certify-gap-lemma",
                        help="check intersection criteria for two sets")
    common(sp)
    sp.add_argument("--set2", required=True)
    sp.add_argument("--r", default="auto")
    sp = sub.add_parser("reproduce", help="re-derive the worked-example "
                                          "constants with pass/fail")
    common(sp, with_set=False)
    sp.add_argument("--table", default="section6")
    sp = sub.add_parser("plot", help="emit an SVG rendering")
    common(sp)
    sp.add_argument("--witness", help="witness artifact to overlay")
    # progression search on ball systems also needs the density constant
    sub.choices["find-ap"].add_argument("--r", default="auto")
    return p


HANDLERS = {
    "construct": cmd_construct,
    "thickness": cmd_thickness,
    "find-ap": cmd_find_ap,
    "find-combo": cmd_find_combo,
    "find-triangle": cmd_find_triangle,
    "search-kap": cmd_search_kap,
    "certify-gap-lemma": cmd_certify_gap_lemma,
    "reproduce": cmd_reproduce,
    "plot": cmd_plot,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    run = Run(args)
    desc = None
    try:
        code = HANDLERS[args.command](run)
    except InputError as e:
        print(f"input error: {e}", file=_sys.stderr)
        code = EXIT_INPUT
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"input error: {e}", file=_sys.stderr)
        code = EXIT_INPUT
    except HypothesisError as e:
        print(f"hypothesis failure: {e}", file=_sys.stderr)
        code = EXIT_HYPOTHESIS
    except Indeterminate as e:
        print(f"indeterminate: {e}", file=_sys.stderr)
        code = EXIT_UNKNOWN
    except (RecursionError, MemoryError) as e:
        print(f"indeterminate: {type(e).__name__}: {e}", file=_sys.stderr)
        code = EXIT_UNKNOWN
    except Exception as e:
        # a defect, not an input problem: report it, keep the traceback,
        # and still write the manifest below
        import traceback  # only on this path: it costs memory at startup

        print(f"internal error: {type(e).__name__}: {e}", file=_sys.stderr)
        traceback.print_exc(file=_sys.stderr)
        code = EXIT_INPUT
    try:
        if getattr(args, "set", None):
            desc = parse_description(args.set)
    except Exception:
        desc = None
    run.manifest(desc, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
