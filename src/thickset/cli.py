"""Command-line surface: set construction, thickness reports, pattern
search, certification, reproduction of the worked-example constants, and
SVG/CSV/JSON artifact emission.

Each command takes only the options it reads (``COMMANDS``): only
find-ap, find-combo, find-triangle and search-kap take ``--format``,
whose csv form is their witness points.  A command returns a ``Result``,
and ``Run.write`` writes ``--out`` before it prints the result or
records its verdict, so a run whose artifact cannot be written reports
no verdict.  The argument parser is built on the first ``main()`` call
and kept for the rest of the process; nothing derived from a set, a
system or a description outlives a call.

Exit codes: 0 a verdict was produced (including a sound infeasibility),
1 input error (unreadable or unwritable files included) or an internal
error, 2 a certified hypothesis or threshold failure, 3 indeterminate
(precision, search budget, recursion depth or memory exhausted).  Every
exit writes the manifest when ``--out`` is given, also on ``--help`` or
rejected arguments; an unwritable manifest is exit 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys as _sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence, Union

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
from .scalars import Interval, Q, decimal_approx, decimal_str, to_q

SCHEMA = "thickset/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_UNKNOWN = 3

# the inputs besides --set that the manifest's input_hash covers
OTHER_INPUTS = ("set2", "lam", "r", "triangle", "k", "table", "witness")


# -- descriptions ------------------------------------------------------------


# the fields each description kind takes besides "kind" and "schema", and
# those of one ifs1d branch
FIELDS = {"middle_cantor": ("epsilon",), "off_center": ("a",),
          "ifs1d": ("hull", "branches"), "grid_ifs": ("n", "rho", "d", "seed"),
          "hex_packing": ("gamma",), "branch": ("scale", "offset")}


def _reject_unknown_fields(kind, keys, shown: Optional[str] = None) -> None:
    """An InputError when a known kind is given a field it does not take,
    quoting ``shown`` or else the unknown fields; build_object names an
    unknown kind."""
    if not isinstance(kind, str) or kind not in FIELDS:
        return
    unknown = set(keys) - set(FIELDS[kind])
    if unknown:
        *rest, last = FIELDS[kind]
        takes = f"{', '.join(rest)} and {last}" if rest else last
        shown = ", ".join(sorted(unknown)) if shown is None else shown
        raise InputError(f"{kind} takes {takes}: {shown!r}")


def parse_description(text: str) -> dict:
    """Set/system description: inline JSON, a path to a JSON file, or the
    compact form kind:arg (e.g. middle_cantor:1/3).  A field the kind
    does not take is an InputError."""
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
            parts = {}
            for part in filter(None, arg.split(",")):
                key, eq, value = part.partition("=")
                if not eq:
                    raise InputError(f"grid_ifs part {part!r} is not of the "
                                     "form key=value")
                parts[key] = value
            _reject_unknown_fields(kind, parts, arg)
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
    _reject_unknown_fields(desc.get("kind"), set(desc) - {"kind", "schema"})
    return desc


def _field(obj: dict, name: str, owner: str):
    """``obj[name]``, or an InputError saying that ``owner`` lacks it."""
    if name not in obj:
        raise InputError(f"{owner} lacks {name}")
    return obj[name]


def _branches(desc: dict) -> list[tuple]:
    """The (scale, offset) pairs of an ifs1d description; a branch that
    is not a JSON object, lacks a field or has another is an
    InputError naming its index."""
    pairs = []
    for i, b in enumerate(_field(desc, "branches", "ifs1d")):
        if not isinstance(b, dict):
            raise InputError(f"ifs1d branch {i} is not a JSON object")
        _reject_unknown_fields("branch", b)
        pairs.append(tuple(_field(b, name, f"ifs1d branch {i}")
                           for name in FIELDS["branch"]))
    return pairs


def _integer(value, name: str) -> int:
    """A description's integer field, given as a JSON integer or a
    string of one; a float is not truncated, nor a bool read as 0 or 1,
    but refused."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"{name} must be an integer, not {value!r}")
    return int(value)


def build_object(desc: dict) -> Union[cantor.IfsSet1D, BallSystem]:
    """The set or ball system a description names.  A missing field, a
    field of the wrong type or length, or a branch field other than
    scale and offset, is an InputError, like any other bad
    description."""
    kind = desc.get("kind")
    try:
        if kind == "middle_cantor":
            return cantor.middle_cantor(to_q(_field(desc, "epsilon", kind)))
        if kind == "off_center":
            return cantor.off_center_cantor(to_q(_field(desc, "a", kind)))
        if kind == "ifs1d":
            branches = _branches(desc)
            hull = _field(desc, "hull", kind)
            if not (isinstance(hull, list) and len(hull) == 2):
                raise InputError("ifs1d hull must be a list of two "
                                 f"numbers, not {hull!r}")
            return cantor.ifs_from_branches(*hull, branches)
        if kind == "grid_ifs":
            return grid_ifs_example(_integer(_field(desc, "n", kind), "n"),
                                    to_q(_field(desc, "rho", kind)),
                                    to_q(_field(desc, "d", kind)),
                                    _integer(desc.get("seed", 1), "seed"))
        if kind == "hex_packing":
            return hex_packing_example(to_q(_field(desc, "gamma", kind)))
    except (TypeError, IndexError) as e:
        raise InputError(f"malformed {kind!r} description: {e}") from e
    raise InputError(f"unknown description kind {kind!r}")


def canonical_description(desc: dict) -> str:
    return json.dumps(desc, sort_keys=True, separators=(",", ":"))


def default_r(sys: BallSystem, raw: Optional[str]):
    """The --r value: the given one, else the builder's analytic density
    constant (rounded up to 8 decimals when it is not rational).  Every
    builder the command line makes has one."""
    if raw and raw != "auto":
        return to_q(raw)
    c = sys.generator.density()
    if c.lo == c.hi:
        return c.lo
    return Q(c.hi * 10**8 // 1 + 1, 10**8)


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


@dataclass(frozen=True)
class Result:
    """What a command returns: the text it prints, its verdict, its
    artifact (a JSON payload or the SVG text), the witness points of its
    CSV form and its exit code."""
    text: str
    verdict: str
    artifact: Union[dict, str]
    points: Sequence = ()
    code: int = EXIT_OK


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.outputs: list[str] = []  # the paths written
        self.verdicts: list[str] = []
        self._desc: dict[str, dict] = {}
        self._witness: Optional[str] = None

    def description(self, key: str = "set") -> dict:
        """The parsed ``--set`` (``--set2`` for key "set2"), parsed on
        the first call and the same dict on every later one, so that the
        handler and the manifest read a description file once."""
        if key not in self._desc:
            self._desc[key] = parse_description(getattr(self.args, key))
        return self._desc[key]

    def witness(self) -> str:
        """The text of the ``--witness`` file, read once per run."""
        if self._witness is None:
            self._witness = Path(self.args.witness).read_text()
        return self._witness

    def input_hash(self, desc: Optional[dict]) -> str:
        """sha256 of the canonical ``--set`` description (``{}`` when
        there is none or it did not parse), followed, when the command
        reads other inputs, by a newline and those inputs as canonical
        JSON: ``--set2`` parsed, ``--witness`` as the sha256 of its
        text, the others as given, and null for one that cannot be read.
        A command with ``--set`` alone hashes its description alone."""
        text = canonical_description(desc or {})
        other: dict[str, Any] = {}
        for key in OTHER_INPUTS:
            value = getattr(self.args, key, None)
            if value is None:
                continue
            try:
                if key == "set2":
                    value = self.description("set2")
                elif key == "witness":
                    value = hashlib.sha256(
                        self.witness().encode()).hexdigest()
            except Exception:  # the handler reported it; still hash
                value = None
            other[key] = value
        if other:
            text += "\n" + canonical_description(other)
        return hashlib.sha256(text.encode()).hexdigest()

    def write(self, result: Result) -> int:
        """Write ``--out``, when given: the SVG text as it is, the witness
        points as CSV under ``--format csv``, else the payload as JSON
        with the schema.  Only then print the result and record its
        verdict; returns its exit code."""
        if self.args.out is not None:
            path = Path(self.args.out)
            if isinstance(result.artifact, str):
                content = result.artifact
            elif getattr(self.args, "format", "json") == "csv":
                content = witness_csv(result.points)
            else:
                content = json.dumps({"schema": SCHEMA, **result.artifact},
                                     indent=2, sort_keys=True) + "\n"
            path.write_text(content)
            self.outputs.append(str(path))
        print(result.text)
        self.verdicts.append(result.verdict)
        return result.code

    def manifest(self, desc: Optional[dict], code: int):
        out = self.args.out
        if out is None:
            return
        m = {
            "schema": SCHEMA,
            "command": self.args.command,
            "input_hash": self.input_hash(desc),
            "depth": getattr(self.args, "depth", None),
            "precision_bits": getattr(self.args, "precision_bits", None),
            "mode": getattr(self.args, "mode", None),
            "verdicts": self.verdicts,
            "exit_code": code,
            "outputs": self.outputs,
            "wall_time_s": round(time.monotonic() - self.start, 6),
        }
        manifest_path(out).write_text(
            json.dumps(m, indent=2, sort_keys=True) + "\n")


def manifest_path(out: str) -> Path:
    """Where the manifest of ``--out out`` goes: the absolute, normalized
    form of ``out`` with ``.manifest.json`` appended, so ``--out .`` run
    in /work/runs writes /work/runs.manifest.json."""
    return Path(os.path.abspath(out) + ".manifest.json")


# -- subcommands ----------------------------------------------------------------


def cmd_construct(run: Run) -> Result:
    desc = run.description()
    obj = build_object(desc)
    if isinstance(obj, BallSystem):
        validate_system(obj, depth=2)
        text = (f"valid ball system ({obj.norm}), "
                f"{obj.child_count(())} first-generation children")
    else:
        depth = min(run.args.depth, 10)
        n = len(obj.branches)
        text = (f"valid set, hull [{decimal_str(obj.hull[0])}, "
                f"{decimal_str(obj.hull[1])}], {n} branches, "
                f"{n ** depth} cover intervals at depth {depth}")
    return Result(text, "constructed", {"type": "description", **desc})


def cmd_thickness(run: Run) -> Result:
    desc = run.description()
    obj = build_object(desc)
    if isinstance(obj, BallSystem):
        rep = yavicoli_thickness(obj, run.args.precision_bits)
        bound = rep.lower_bound.approx_str(8)
        return Result(
            f"thickness lower bound {bound} [{rep.tail_certificate}]", bound,
            {"type": "thickness_nd", "input": desc,
             "lower_bound": jsonable(rep.lower_bound),
             "achieved_word": list(rep.achieved_word),
             "tail_certificate": rep.tail_certificate})
    rep = cantor.newhouse_thickness(obj)
    return Result(f"{decimal_str(rep.value)} ({rep.status})",
                  f"{rep.value} ({rep.status})",
                  {"type": "thickness_1d", "input": desc,
                   "value": str(rep.value), "status": rep.status,
                   "witness_gap": jsonable(list(rep.witness.gap)),
                   "ratio": str(rep.witness.ratio)})


def _witness_nd(w, desc: dict, text: str) -> Result:
    """A ball-system witness, printed as ``text``."""
    return Result(text, "witness", witness_nd_json(w, desc),
                  [w.a, w.b, tuple(Interval.point(x) for x in w.c)])


def _combo_common(run: Run, lam) -> Result:
    desc = run.description()
    obj = build_object(desc)
    if isinstance(obj, BallSystem):
        r = default_r(obj, run.args.r)
        w = patterns_nd.find_convex_combo_nd(
            obj, lam, r, depth=run.args.depth, mode=run.args.mode,
            bits=run.args.precision_bits)
        return _witness_nd(w, desc, (
            f"witness found: residual <= "
            f"{decimal_approx(w.residual, 12)} at depth {w.depth_used}"))
    w = patterns1d.find_convex_combo(obj, lam, depth=run.args.depth)
    return Result(f"witness found: m = {w.m.enclosure.approx_str(12)}, "
                  f"residual <= {decimal_approx(w.residual, 15)}",
                  "witness", witness1d_json(w, desc),
                  [p.enclosure for p in w.points])


def cmd_find_ap(run: Run) -> Result:
    return _combo_common(run, Q(1, 2))


def cmd_find_combo(run: Run) -> Result:
    return _combo_common(run, to_q(run.args.lam))


def _parse_triangle(raw: str, bits: int):
    """The ``--triangle`` argument; "equilateral" encloses sqrt(3)/2 to
    ``bits`` bits."""
    if raw == "equilateral":
        return product.equilateral(bits)
    if raw.startswith("{"):
        data = json.loads(raw)
        return product.Triangle.make(data["vertices"])
    pts = [tuple(c for c in p.split(",")) for p in raw.split(";")]
    return product.Triangle.make(pts)


def cmd_find_triangle(run: Run) -> Result:
    desc = run.description()
    obj = build_object(desc)
    tri = _parse_triangle(run.args.triangle, run.args.precision_bits)
    if isinstance(obj, BallSystem):
        r = default_r(obj, run.args.r)
        w = patterns_nd.find_triangle_nd(obj, tri, r,
                                         depth=run.args.depth,
                                         mode=run.args.mode,
                                         bits=run.args.precision_bits)
        dev = w.hypotheses_report["side_ratio_deviation"]
        return _witness_nd(w, desc, (
            f"triangle witness: side-ratio deviation <= "
            f"{decimal_approx(dev, 12)}"))
    w = product.find_triangle_in_product(obj, tri, depth=run.args.depth,
                                         bits=run.args.precision_bits)
    return Result(f"product witness: side ratio deviation <= "
                  f"{decimal_approx(w.ratio_deviation, 15)}", "witness", {
                      "type": "witness_product", "input": desc,
                      "vertices": jsonable(w.vertices),
                      "side_lengths": jsonable(w.side_lengths),
                      "ratio_deviation": str(w.ratio_deviation),
                      "depth_used": w.depth_used,
                      "collinear": w.collinear,
                  }, w.vertices)


def cmd_search_kap(run: Run) -> Result:
    desc = run.description()
    obj = build_object(desc)
    if isinstance(obj, BallSystem):
        raise InputError("progression search runs on one-dimensional sets")
    cert = patterns1d.kap_search(obj, run.args.k, depth=run.args.depth)
    return Result(f"{cert.verdict} (k={cert.k}, depth={cert.depth}, "
                  f"explored={cert.explored_nodes})", cert.verdict,
                  kap_json(cert, desc), [p.enclosure for p in cert.points],
                  EXIT_UNKNOWN if cert.verdict == patterns1d.UNKNOWN
                  else EXIT_OK)


def cmd_certify_gap_lemma(run: Run) -> Result:
    desc1 = run.description()
    desc2 = run.description("set2")
    o1, o2 = build_object(desc1), build_object(desc2)
    if isinstance(o1, BallSystem) != isinstance(o2, BallSystem):
        raise InputError("both inputs must be sets or both ball systems")
    if isinstance(o1, BallSystem):
        rep = gap_lemma_rd_check(o1, o2, default_r(o1, run.args.r),
                                 depth=run.args.depth,
                                 bits=run.args.precision_bits)
        payload = {"type": "gap_lemma_nd", "checks": {
            "thickness_product": rep.thickness_product_ok,
            "root_meets_shrunk_ball": rep.root_meets_shrunk_ball,
            "radius_ratio": rep.radius_ratio_ok,
            "uniformity": rep.uniformity_ok},
            "details": jsonable(rep.details)}
        failed = EXIT_HYPOTHESIS if rep.verdict == "fail" else EXIT_UNKNOWN
    else:
        rep = patterns1d.gap_lemma_check(o1, o2)
        payload = {"type": "gap_lemma_1d",
                   "hull_intersect": rep.hull_intersect,
                   "interwoven": rep.interwoven,
                   "thickness_product": jsonable(rep.thickness_product)}
        failed = EXIT_HYPOTHESIS
    return Result(
        f"{rep.verdict}" + (f": {rep.reason}" if rep.reason else ""),
        rep.verdict, {**payload, "inputs": [desc1, desc2],
                      "verdict": rep.verdict, "reason": rep.reason},
        code=EXIT_OK if rep.verdict == "hypotheses_hold" else failed)


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
    rows.append(("hex uniformity constant", "0.26243",
                 hex1.generator.density(), Q(1, 10**4), "within 1e-4"))
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


def cmd_reproduce(run: Run) -> Result:
    table = run.args.table
    if table != "section6":
        raise InputError(f"unknown table {table!r}")
    rows = reproduce_rows()
    width = max(len(r["name"]) for r in rows)
    ok_all = all(r["pass"] for r in rows)
    return Result("\n".join(
        f"{r['name']:<{width}}  target {r['target']:<12} "
        f"computed {r['computed']:<28} {'PASS' if r['pass'] else 'FAIL'}"
        for r in rows), "all_pass" if ok_all else "mismatch",
        {"type": "reproduction", "table": "section6", "rows": rows},
        code=EXIT_OK if ok_all else EXIT_HYPOTHESIS)


def _midpoint(enc) -> Q:
    if not (isinstance(enc, dict) and "lo" in enc and "hi" in enc):
        raise InputError("a witness enclosure needs lo and hi")
    return (to_q(enc["lo"]) + to_q(enc["hi"])) / 2


def witness_marks(data, obj) -> list:
    """The points a witness artifact marks on a plot of ``obj``: over a
    1-D set the midpoints of its ``points`` enclosures; over a ball
    system the midpoints of ``a`` and ``b`` and the point ``c``, each
    with the system's coordinate count.  Any other artifact is an
    InputError."""
    if not isinstance(data, dict):
        raise InputError("witness artifact must be a JSON object")
    if isinstance(obj, BallSystem):
        dim = len(obj.root.center)
        a, b, c = (data.get(key) for key in ("a", "b", "c"))
        if not all(isinstance(v, list) and len(v) == dim for v in (a, b, c)):
            raise InputError("a witness over a ball system needs a, b and c "
                             f"with {dim} coordinates each")
        return [tuple(map(_midpoint, a)), tuple(map(_midpoint, b)),
                tuple(map(to_q, c))]
    pts = data.get("points")
    if not (isinstance(pts, list) and pts):
        raise InputError("a witness over a one-dimensional set needs a "
                         "nonempty points list")
    return [_midpoint(p.get("enclosure") if isinstance(p, dict) else None)
            for p in pts]


def cmd_plot(run: Run) -> Result:
    desc = run.description()
    if run.args.out is None:
        raise InputError("plot needs --out")
    obj = build_object(desc)
    marks = []
    if run.args.witness:
        marks = witness_marks(json.loads(run.witness()), obj)
    if isinstance(obj, BallSystem):
        svg = render.render_ball_system(obj, depth=min(run.args.depth, 2),
                                        marks=marks or None)
    else:
        svg = render.render_set_1d(obj, depth=min(run.args.depth, 8),
                                   marks=marks or None)
    return Result(f"wrote {run.args.out}", "plotted", svg)


# -- argument parsing -----------------------------------------------------------


# the argparse keywords of each option
OPTIONS = {
    "set": dict(required=True, help="set/system description (kind:arg, "
                                    "JSON, or a JSON file path)"),
    "out": dict(help="artifact output path"),
    "format": dict(choices=["json", "csv"], default="json",
                   help="csv writes the witness points"),
    "depth": dict(type=int, default=8),
    "precision-bits": dict(type=int, default=128,
                           help="interval precision in bits, at least 1; "
                                "find-triangle also encloses the "
                                "sqrt(3)/2 of --triangle equilateral to it"),
    "mode": dict(choices=["standard", "appendix"], default="standard"),
    "lam": dict(required=True, help="combination ratio"),
    "triangle": dict(default="equilateral",
                     help='"equilateral", "x,y;x,y;x,y", or JSON'),
    "r": dict(default="auto"),
    "k": dict(type=int, required=True),
    "set2": dict(required=True),
    "table": dict(default="section6"),
    "witness": dict(help="witness artifact to overlay"),
}

# each command's help and the options it reads besides --out; thickness
# also keeps --depth, which it does not read, because the bench passes it
SEARCH = ("set", "format", "depth", "precision-bits", "mode")
COMMANDS = {
    "construct": ("validate and normalize a set/system description",
                  ("set", "depth")),
    "thickness": ("thickness report", ("set", "depth", "precision-bits")),
    "find-ap": ("3-term progression witness", SEARCH + ("r",)),
    "find-combo": ("convex combination witness", SEARCH + ("lam", "r")),
    "find-triangle": ("triangle witness", SEARCH + ("triangle", "r")),
    "search-kap": ("k-term progression search",
                   ("set", "format", "depth", "k")),
    "certify-gap-lemma": ("check intersection criteria for two sets",
                          ("set", "set2", "depth", "precision-bits", "r")),
    "reproduce": ("re-derive the worked-example constants with pass/fail",
                  ("table",)),
    "plot": ("emit an SVG rendering", ("set", "depth", "witness")),
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The full parser, built on the first call and shared by every later
    one: ``parse_args`` stores nothing on it, and help text reads
    ``COLUMNS`` when it is formatted.  Callers must not add to it."""
    p = argparse.ArgumentParser(
        prog="thickset",
        description="Certified computations on thick compact sets")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, options) in COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for name in ("out", *options):
            sp.add_argument(f"--{name}", **OPTIONS[name])
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


def _rejected_args(argv: list[str]) -> argparse.Namespace:
    """The command, ``--out`` and ``--set`` of an argument list that the
    full parser rejected or answered with its help, read leniently so
    that the exit still gets a manifest; ``out`` is None when it cannot
    be read."""
    p = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    p.add_argument("command", nargs="?")
    p.add_argument("--out")
    p.add_argument("--set")
    try:
        return p.parse_known_args(argv)[0]
    except argparse.ArgumentError:
        return argparse.Namespace(command=None, out=None, set=None)


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    handler = None
    try:
        args = parser.parse_args(argv)
        handler = HANDLERS[args.command]
    except SystemExit as e:  # --help, or a rejection argparse printed
        args = _rejected_args(_sys.argv[1:] if argv is None else argv)
        code = 0 if e.code in (0, None) else EXIT_INPUT
    run = Run(args)
    desc = None
    # Python (3.10.7 on) limits int/str conversion to 4300 digits, which a
    # deep witness's rationals pass: lifted for the command, then restored
    limit = getattr(_sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if limit:
            _sys.set_int_max_str_digits(0)
        if getattr(args, "precision_bits", 1) <= 0:
            raise InputError("precision bits must be positive")
        if getattr(args, "depth", 0) < 0:
            raise InputError("depth must be nonnegative")
        if handler is not None:
            code = run.write(handler(run))
    except (KeyError, ValueError, OSError) as e:  # InputError and bad JSON
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
    finally:
        if limit:
            _sys.set_int_max_str_digits(limit)
    try:
        if getattr(args, "set", None):
            desc = run.description()
    except Exception:
        desc = None
    try:
        run.manifest(desc, code)
    except OSError as e:
        print(f"cannot write manifest: {e}", file=_sys.stderr)
        code = EXIT_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
