"""Benchmark for thickset: time how long a caller waits for a certificate,
and prove that every certificate it timed is correct.

    python3 bench/run.py --workload line --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``line`` (deep 1-D descents and thickness),
``kap`` (k-term progression searches), ``plane`` (ball systems) and ``cli``
(the README's command lines).  Load shape: one process, one thread, one
client, closed loop; the next job starts when the previous one returns.

With ``--trace 0`` the loop repeats whole passes over the workload's job
list until ``--seconds`` have passed and at least 100 jobs ran, checks every
result, and prints the end-to-end metrics named in BENCHMARK.json.  With
``--trace 1`` it runs one pass with spans around each call into the library
and then one pass under cProfile, and prints the per-layer metrics.  The
last line of standard output is always one JSON object.

The harness cannot pin CPUs or isolate the machine, and the machine's speed
drifts by 20% to twofold within seconds.  So every timing is measured
against a fixed reference computation run at least every 0.2 s between
jobs: a duration is reported as ``raw * NOMINAL_PROBE_MS / probe_ms``, that
is in milliseconds at the speed where the reference loop takes
NOMINAL_PROBE_MS.  The raw figures are printed alongside.  Memory and the
exact counters need no such correction.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import enum
import gc
import hashlib
import importlib
import json
import os
import platform
import pstats
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
MIN_SAMPLES = 100
PROBE_EVERY_S = 0.2
NOMINAL_PROBE_MS = 5.4
MODULES = ("scalars", "cantor", "patterns1d", "product", "balls",
           "patterns_nd", "render", "cli")

# functions the workloads call, by layer (module); the per-layer metrics
# in BENCHMARK.json are derived from this table
FUNCS = {
    "cantor": ("newhouse_thickness", "difference_interval", "membership"),
    "patterns1d": ("find_3ap", "find_convex_combo", "shmerkin_4ap",
                   "gap_lemma_check", "kap_search"),
    "product": ("find_triangle_in_product", "difference_hit"),
    "patterns_nd": ("find_convex_combo_nd", "find_triangle_nd"),
    "balls": ("yavicoli_thickness", "r_uniformity_check",
              "gap_lemma_rd_check", "subset_thickness", "validate_system"),
    "scalars": ("interval_sqrt", "interval_atan", "interval_ln"),
    "cli": ("construct", "thickness", "reproduce", "search-kap", "find-ap",
            "find-triangle", "certify-gap-lemma", "plot"),
}
RESULT_BITS = ("find_3ap", "find_convex_combo", "shmerkin_4ap",
               "gap_lemma_check")
SHARES = ("cantor", "fractions", "patterns1d", "product", "patterns_nd",
          "scalars", "balls", "cli", "render")


# -- reference clock -----------------------------------------------------------


PROBE_SET = oracle.centred(Fraction(13, 64))


def probe_ms() -> float:
    """Duration of a fixed piece of exact word geometry from the oracle,
    the machine-speed reference.  It tracked the speed of the library's
    jobs better than a bare Fraction loop did."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    for lo, hi in oracle.cover(PROBE_SET, 6)[::8]:
        oracle.interval_in_cover(PROBE_SET, lo, hi, 6)
    dt = time.perf_counter() - t
    if enabled:
        gc.enable()
    return dt * 1000


class Clock:
    """Reference probes interleaved with the timed calls.  A call made
    between probes k and k+1 is scaled by the mean of the two."""

    def __init__(self):
        self.probes = [probe_ms()]
        self.last = time.perf_counter()

    def before_call(self) -> int:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probes.append(probe_ms())
            self.last = time.perf_counter()
        return len(self.probes) - 1

    def close(self) -> None:
        self.probes.append(probe_ms())
        self.last = time.perf_counter()

    def scale(self, k: int) -> float:
        return NOMINAL_PROBE_MS / ((self.probes[k] + self.probes[k + 1]) / 2)


# -- library loading and canonical output --------------------------------------


def load_library() -> SimpleNamespace:
    """Import thickset afresh from this checkout's src/ (set-up cost)."""
    for name in [m for m in sys.modules
                 if m == "thickset" or m.startswith("thickset.")]:
        del sys.modules[name]
    pkg = importlib.import_module("thickset")
    if Path(pkg.__file__).resolve().parent != SRC / "thickset":
        raise SystemExit(f"thickset imported from {pkg.__file__}, "
                         f"not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"thickset.{m}")
                              for m in MODULES})


def canon(x) -> str:
    """Deterministic text of a result, for hashing and pass comparison."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, enum.Enum):
        return canon(x.value)
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + "(" + ",".join(
            f"{f.name}={canon(getattr(x, f.name))}"
            for f in dataclasses.fields(x) if not f.name.startswith("_")) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(sorted(f"{canon(k)}:{canon(v)}"
                                     for k, v in x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, str):
        return json.dumps(x)
    return repr(x)


def max_bits(x) -> int:
    """Largest numerator or denominator bit length inside a result."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int) and not isinstance(x, bool):
        return x.bit_length()
    if dataclasses.is_dataclass(x):
        return max((max_bits(getattr(x, f.name))
                    for f in dataclasses.fields(x)), default=0)
    if isinstance(x, dict):
        return max((max_bits(v) for v in x.values()), default=0)
    if isinstance(x, (list, tuple)):
        return max((max_bits(v) for v in x), default=0)
    return 0


# -- the closed loop -----------------------------------------------------------


@dataclasses.dataclass
class Sample:
    job: int
    raw_s: float
    probe: int
    ok: bool


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool, tamper=None):
        import workloads
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.make_jobs = workloads.WORKLOADS[workload]
        if workload == "cli":
            # relative, so artifacts and hashes do not name the checkout
            self.workdir = OUT_DIR.relative_to(ROOT) / "cli"
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.make_jobs = partial(self.make_jobs, workdir=self.workdir)
        self.tamper = tamper          # self-tests corrupt one result
        self.clock = Clock()
        self.first: dict[int, tuple[str, bool, str]] = {}  # canon, ok, why
        self.results: dict[int, object] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def build(self):
        return self.make_jobs(self.lib, random.Random(self.seed), self.tiny)

    def setup(self) -> list[float]:
        """Import, generate inputs and build the sets and systems,
        SETUP_REPEATS times; returns the scaled durations in seconds."""
        times = []
        for _ in range(SETUP_REPEATS):
            p0 = probe_ms()
            t = time.perf_counter()
            self.lib = load_library()
            self.jobs = self.build()
            raw = time.perf_counter() - t
            times.append(raw * NOMINAL_PROBE_MS / ((p0 + probe_ms()) / 2))
        return times

    def run_job(self, i: int, job, profiler=None, spans=None) -> Sample:
        k = self.clock.before_call()
        error = None
        t0 = time.perf_counter()
        if profiler:
            profiler.enable()
        try:
            res = job.call()
        except Exception as e:       # a failed job is a result to report
            res, error = None, e
        finally:
            if profiler:
                profiler.disable()
        t1 = time.perf_counter()
        ok = self.verify(i, job, res, error)
        if spans is not None:
            spans.record(i, job, t0, t1, time.perf_counter(), k)
        self.attempted += 1
        return Sample(i, t1 - t0, k, ok)

    def verify(self, i: int, job, res, error) -> bool:
        if self.tamper and error is None:
            res = self.tamper(i, job, res)
        if error is not None:
            text, ok, why = f"error:{type(error).__name__}", False, repr(error)
        else:
            text = canon(res)
            if i in self.first:
                same = self.first[i][0] == text
                ok = same and self.first[i][1]
                why = self.first[i][2] if same else "output changed"
            else:
                try:
                    job.check(res)
                    ok, why = True, ""
                except Exception as e:   # includes oracle.BadResult
                    ok, why = False, f"{type(e).__name__}: {e}"
            self.results.setdefault(i, res)
        self.first.setdefault(i, (text, ok, why))
        if not ok:
            self.failures.append(f"{i} {job.layer}.{job.func}: {why}")
        return ok

    def loop(self, seconds: float) -> tuple[list[Sample], int]:
        samples, passes = [], 0
        t0 = time.perf_counter()
        while True:
            jobs = self.jobs if passes == 0 else self.build()
            samples += [self.run_job(i, job) for i, job in enumerate(jobs)]
            passes += 1
            done = time.perf_counter() - t0 >= seconds
            if done and (self.tiny or len(samples) >= MIN_SAMPLES):
                break
        self.clock.close()
        return samples, passes

    def results_sha256(self) -> str:
        h = hashlib.sha256()
        for i, job in enumerate(self.jobs):
            h.update(f"{i}:{job.layer}.{job.func}:{self.first[i][0]}\n"
                     .encode())
        return h.hexdigest()

    def cleanup(self) -> None:
        if self.workload == "cli":
            shutil.rmtree(self.workdir, ignore_errors=True)


# -- tracing ------------------------------------------------------------------


class Spans:
    """Spans kept in memory: one per job, with children for the call into
    the library and for the benchmark's own check."""

    def __init__(self, workload: str, pass_no: int, origin: float,
                 first_id: int = 0):
        self.workload, self.pass_no, self.origin = workload, pass_no, origin
        self.first_id = first_id
        self.items: list[dict] = []
        self.calls: list[tuple[str, str, float, int]] = []

    def record(self, i, job, t0, t1, t2, probe):
        job_id = f"{self.pass_no}:{i}"
        root = self.first_id + len(self.items)
        base = dict(workload=self.workload, job=job_id)
        self.items.append(dict(base, id=root, parent=None, layer="bench",
                               function="job", start=t0 - self.origin,
                               end=t2 - self.origin))
        self.items.append(dict(base, id=root + 1, parent=root,
                               layer=job.layer, function=job.func,
                               start=t0 - self.origin, end=t1 - self.origin))
        self.items.append(dict(base, id=root + 2, parent=root,
                               layer="bench", function="check",
                               start=t1 - self.origin, end=t2 - self.origin))
        self.calls.append((job.layer, job.func, t1 - t0, probe))


def profile_counts(prof: cProfile.Profile) -> dict:
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values()) or 1.0
    self_time = dict.fromkeys(SHARES, 0.0)
    counts = {"compose": 0, "fraction": 0, "interval": 0}
    for (path, _, name), (_, ncalls, tottime, _, _) in stats.items():
        mod = Path(path).stem
        parent = Path(path).parent.name
        if mod == "fractions" and parent != "thickset":
            self_time["fractions"] += tottime
            if name == "__new__":
                counts["fraction"] += ncalls
        elif parent == "thickset" and mod in self_time:
            self_time[mod] += tottime
            if mod == "cantor" and name == "compose":
                counts["compose"] += ncalls
            if mod == "scalars" and name == "__post_init__":
                counts["interval"] += ncalls
    counts["shares"] = {m: t / total for m, t in self_time.items()}
    return counts


def layer_metrics(runner: Runner, spans: Spans, clock: Clock,
                  prof_counts: dict, overhead: float) -> dict:
    m: dict[str, float] = {}
    for layer, funcs in FUNCS.items():
        for f in funcs:
            m[f"{layer}.{f}.busy_ms"] = 0.0
            m[f"{layer}.{f}.failed"] = 0
    for layer, func, raw, k in spans.calls:
        m[f"{layer}.{func}.busy_ms"] += raw * 1000 * clock.scale(k)
    for i, job in enumerate(runner.jobs):
        if not runner.first[i][1]:
            m[f"{job.layer}.{job.func}.failed"] += 1
    jobs = list(enumerate(runner.jobs))
    m["cantor.newhouse_thickness.calls"] = sum(
        j.func == "newhouse_thickness" for _, j in jobs)
    kap = [runner.results.get(i) for i, j in jobs if j.func == "kap_search"]
    kap = [c for c in kap if c is not None]
    nodes = sum(c.explored_nodes for c in kap)
    m["patterns1d.kap_search.nodes"] = nodes
    m["patterns1d.kap_search.us_per_node"] = (
        m["patterns1d.kap_search.busy_ms"] * 1000 / nodes if nodes else 0.0)
    m["patterns1d.kap_search.feasible"] = sum(c.verdict == "feasible"
                                              for c in kap)
    m["patterns1d.kap_search.infeasible"] = sum(
        c.verdict == "infeasible_at_depth" for c in kap)
    for f in RESULT_BITS:
        m[f"patterns1d.{f}.result_bits"] = max(
            (max_bits(runner.results[i]) for i, j in jobs
             if j.func == f and i in runner.results), default=0)
    m["cli.artifact_bytes"] = sum(
        len(text.encode()) for i, j in jobs if j.layer == "cli"
        and i in runner.results for _, text in runner.results[i].files)
    m["cantor.AffineMap.compose_calls"] = prof_counts["compose"]
    m["fractions.Fraction.new_calls"] = prof_counts["fraction"]
    m["scalars.Interval.new_calls"] = prof_counts["interval"]
    for mod, share in prof_counts["shares"].items():
        m[f"{mod}.self_share"] = share
    m["trace.overhead_ratio"] = overhead
    m["bench.jobs_per_pass"] = len(runner.jobs)
    return m


# -- reporting ----------------------------------------------------------------


def run_record(seed: int) -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        commit = ref
    return (f"record: python {platform.python_version()}, nproc "
            f"{os.cpu_count()}, cpu {cpu!r}, commit {commit}, seed {seed}; "
            "CPUs are not pinned, timings are scaled by an interleaved "
            "reference loop")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(metrics: dict, units: dict, runner: Runner) -> None:
    failed = sum(1 for i in runner.first if not runner.first[i][1])
    failed_runs = len(runner.failures)
    out = {"correct": failed_runs == 0, "attempted": runner.attempted,
           "failed": failed_runs,
           "metrics": {k: {"value": metrics[k], "unit": units[k]}
                       for k in units}}
    if failed:
        print(f"{failed} distinct jobs failed:", file=sys.stderr)
        for line in runner.failures[:20]:
            print("  " + line, file=sys.stderr)
    print(json.dumps(out))


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1] if len(values) > 1 else values[0]


def untraced(runner: Runner, seconds: float, spec: dict) -> None:
    setup = runner.setup()
    samples, passes = runner.loop(seconds)
    clock = runner.clock
    lat = [s.raw_s * 1000 * clock.scale(s.probe) for s in samples]
    raw = [s.raw_s * 1000 for s in samples]
    ok = sum(s.ok for s in samples)
    p90 = quantile(lat, 0.9)
    metrics = {
        "certs_per_s": ok / (sum(lat) / 1000),
        "job_p50_ms": statistics.median(lat),
        "job_p90_ms": p90,
        "failed_frac": (len(samples) - ok) / len(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    units = {"certs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
             "failed_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
    print(f"workload {runner.workload}  seed {runner.seed}  passes {passes}"
          f"  jobs {len(samples)} ({len(runner.jobs)} per pass)")
    for name, value in metrics.items():
        note = f"  (n={len(lat)}, {sum(x > p90 for x in lat)} beyond)" \
            if name == "job_p90_ms" else ""
        print(f"{name:<14}{value:14.6f} {units[name]}{note}")
    print(f"raw, unscaled: certs_per_s {ok / (sum(raw) / 1000):.4f} 1/s, "
          f"job_p50_ms {statistics.median(raw):.4f}, job_p90_ms "
          f"{quantile(raw, 0.9):.4f}; reference loop median "
          f"{statistics.median(clock.probes):.3f} ms (nominal "
          f"{NOMINAL_PROBE_MS} ms), {len(clock.probes)} probes")
    print(f"results_sha256 {runner.results_sha256()}")
    print(run_record(runner.seed))
    end_to_end = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    emit(metrics, end_to_end, runner)


def traced(runner: Runner, spec: dict) -> None:
    runner.setup()
    origin = time.perf_counter()
    spans = Spans(runner.workload, 0, origin)
    for i, job in enumerate(runner.jobs):
        runner.run_job(i, job, spans=spans)
    runner.jobs = runner.build()
    prof = cProfile.Profile()
    profiled = Spans(runner.workload, 1, origin, len(spans.items))
    for i, job in enumerate(runner.jobs):
        runner.run_job(i, job, profiler=prof, spans=profiled)
    runner.clock.close()
    clock = runner.clock

    def scaled(s: Spans) -> float:
        return sum(raw * clock.scale(k) for _, _, raw, k in s.calls)

    overhead = scaled(profiled) / scaled(spans)
    metrics = layer_metrics(runner, spans, clock, profile_counts(prof),
                            overhead)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{runner.workload}-seed{runner.seed}.json"
    path.write_text(json.dumps(spans.items + profiled.items))
    per_layer = {e["name"]: e["unit"] for e in spec["per_layer"]}
    print(f"workload {runner.workload}  seed {runner.seed}  traced: one "
          f"span pass, one profiled pass of {len(runner.jobs)} jobs; "
          f"spans in {path.relative_to(ROOT)}")
    for name in per_layer:
        print(f"{name:<48}{metrics[name]:>16.6g} {per_layer[name]}")
    print(f"tracing overhead (profiled pass / span pass): {overhead:.3f}")
    print(f"results_sha256 {runner.results_sha256()}")
    print(run_record(runner.seed))
    emit(metrics, per_layer, runner)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("line", "kap", "plane", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one small job per kind (the benchmark's self-tests)")
    args = p.parse_args(argv)
    if not (SRC / "thickset" / "__init__.py").is_file():
        print(f"no thickset sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    runner = Runner(args.workload, args.seed, args.tiny)
    try:
        if args.trace:
            traced(runner, spec)
        else:
            untraced(runner, args.seconds, spec)
    finally:
        runner.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
