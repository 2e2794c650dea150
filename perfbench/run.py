"""Closed-loop benchmark of ``cause_sieve.analyze``.

One client in one process runs ``analyze(..., mode="both")`` on one
generated table after another, with no process pool and one BLAS thread.
Usage, from the root of a checkout::

    python3 perfbench/run.py --workload b1-additive --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
tables untraced and then traced, and reports per-layer self time and counts
from the spans.  Human-readable lines come first; the last line of standard
output is one JSON object.  A full record (environment, per-table digests,
spans) is written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

# One BLAS thread, set before numpy loads: idle OpenBLAS workers spin on the
# other core after every call, which on a 2-vCPU machine slows the main
# thread by a varying amount and would skew the Reference.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_PROBES = 3  # setup_s is the median over this many fresh processes
WARMUP_N = 100  # the warm-up table is small: it only has to trigger lazy set-up
POOL_HEADROOM = 3  # the pool still covers the run if analyze gets this much faster


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # attribute of cause_sieve.synth
    n: int
    function_class: str
    nominal_s: float  # rough analyze cost per table on 2 cores; only sizes the pool
    min_tables: int  # always analysed; accuracy and the digest cover exactly these


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("b1-additive", "gen_benchmark1", 500, "additive", 3.5, 4),
        Workload("b1-linear-n2000", "gen_benchmark1", 2000, "linear", 7.0, 2),
        Workload("b3-pareto", "gen_benchmark3", 500, "cpcm:pareto", 0.45, 24),
    )
}

END_TO_END_UNITS = {
    "analyze_ref.p50": "ref",
    "datasets_per_kref": "1/kref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Also end-to-end, but printed and recorded only.  The raw times swing with
# the host's speed (see Reference); the rest are 0 or vary from seed to seed
# by design, so none of them can carry a run-to-run bound.
REPORTED_UNITS = {
    "analyze_s.p50": "s",
    "datasets_per_s": "1/s",
    "ref_ms.p50": "ms",
    "analyze_s.samples": "count",
    "failed_frac": "ratio",
    "candidate_error_frac": "ratio",
    "isd.correct_pct": "%",
    "isd.nfp_pct": "%",
    "score.correct_pct": "%",
    "score.nfp_pct": "%",
}
PER_LAYER_UNITS = {
    "regress.recover_noise.self_s": "s/table",
    "regress.recover_noise.calls": "count/table",
    "stattests.perm_significance.self_s": "s/table",
    "stattests.perm_significance.calls": "count/table",
    "stattests.perm_significance.loss_evals": "count/table",
    "stattests.hsic_test.self_s": "s/table",
    "stattests.hsic_test.calls": "count/table",
    "stattests.hsic_test.kernel_cells": "count/table",
    "stattests.ad_uniform_test.self_s": "s/table",
    "stattests.ad_uniform_test.calls": "count/table",
    "discover.analyze.self_s": "s/table",
    "discover.analyze.total_s": "s/table",
    "discover.candidates": "count/table",
    "discover.candidates_failed": "count/table",
    "discover.plausible_ratio": "ratio",
    "synth.generate_s": "s",
    "trace.overhead_frac": "ratio",
}


class MissingLibrary(RuntimeError):
    pass


def load_library():
    """Import cause_sieve from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cause_sieve" / "__init__.py").is_file():
        raise MissingLibrary(f"no cause_sieve sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("cause_sieve")
    if Path(lib.__file__).resolve().parent != SRC / "cause_sieve":
        raise MissingLibrary(f"imported cause_sieve from {lib.__file__}, not from {SRC}")
    return lib


def table_seed(workload_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1, np.uint64)[0] >> 1)


# --------------------------------------------------------------------- #
# tracing: spans recorded around the library's public functions
# --------------------------------------------------------------------- #


class Tracer:
    """In-memory span recorder.

    A span is ``{name, start, end, parent, table, counts}``; ``parent`` is
    the index of the enclosing span and ``table`` the id of the table being
    analysed.  Spans are kept in memory and written once, at the end.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.table: int | None = None
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            counts = {}
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = count(bound.arguments)
            span = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "table": self.table,
                "counts": counts,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace ``module.attr`` by a traced wrapper for each target, then restore."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _hsic_cells(a) -> dict:
    # the x kernel has one n x n factor per column, the noise kernel one more
    n = len(a["e"])
    d = 1 if getattr(a["x"], "ndim", 1) == 1 else a["x"].shape[1]
    return {"kernel_cells": n * n * (d + 1)}


def _loss_evals(a) -> dict:
    return {"loss_evals": a["n_perm"] * len(a["s"])}


def layer_targets(lib):
    """Where the wrappers go.  ``discover`` imported its callees by name, so
    they are replaced there; ``regress`` reaches ``perm_significance``
    through the ``stattests`` module."""
    discover, stattests = lib.discover, lib.stattests
    return [
        (discover, "analyze", "discover.analyze", None),
        (discover, "recover_noise", "regress.recover_noise", None),
        (discover, "hsic_test", "stattests.hsic_test", _hsic_cells),
        (discover, "ad_uniform_test", "stattests.ad_uniform_test", None),
        (stattests, "perm_significance", "stattests.perm_significance", _loss_evals),
    ]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so siblings never overlap."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], records: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the traced pass, per analysed table."""
    totals: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        totals[f"{name}.self_s"] += own
        totals[f"{name}.total_s"] += span["end"] - span["start"]
        totals[f"{name}.calls"] += 1
        for key, value in span["counts"].items():
            totals[f"{name}.{key}"] += value
    totals["discover.candidates"] = sum(r["candidates"] for r in records)
    totals["discover.candidates_failed"] = sum(r["candidates_failed"] for r in records)
    tables = max(len(records), 1)
    out = {name: totals[name] / tables for name, unit in PER_LAYER_UNITS.items() if unit.endswith("/table")}
    out["discover.plausible_ratio"] = sum(r["plausible"] for r in records) / max(totals["discover.candidates"], 1)
    out["synth.generate_s"] = totals["synth.generate.total_s"]
    out["trace.overhead_frac"] = traced_s / max(untraced_s, 1e-9) - 1.0
    return {name: out[name] for name in PER_LAYER_UNITS}


class Reference:
    """A fixed mix of the kinds of work analyze does: an n x n elementwise
    kernel (HSIC, kernel weights) and an interpreted loop (orchestration and
    permutation loops).  It makes no BLAS call, because the first call after
    the BLAS threads went idle can take over 100 ms, and allocates nothing,
    because whether a large array costs fresh page faults depends on what
    the process freed before.

    On a shared virtual machine the same table can take up to 1.9x as long
    from one minute to the next, in every library layer at once.  The loop times this reference
    before the first table and after each one, and reports analyze time in
    units of the mean of the two references around it, which cancels most
    of that drift while a change to the program still shows in full.
    """

    REPS = 3

    def __init__(self):
        x = np.linspace(-1.0, 1.0, 600)
        self._col, self._row = x[:, None], x[None, :]
        self._d = np.empty((x.size, x.size))

    def _once(self) -> None:
        d = self._d
        np.subtract(self._col, self._row, out=d)
        np.multiply(d, d, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        d.sum()
        total = 0
        for i in range(30000):
            total += i * i

    def seconds(self) -> float:
        times = []
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


# --------------------------------------------------------------------- #
# set-up, the closed loop, and output checks
# --------------------------------------------------------------------- #


def generate(lib, workload: Workload, seed: int, n: int):
    return getattr(lib.synth, workload.generator)(seed, n)


@dataclasses.dataclass
class Prepared:
    lib: object
    f_class: object
    pool: list
    warm: object  # the small warm-up table
    warm_json: str  # its result, for the determinism check


def analyze_warm(prep) -> str:
    cfg = prep.lib.DiscoveryConfig(seed=prep.warm.seed)
    return prep.lib.result_to_json(prep.lib.discover.analyze(prep.warm.data, prep.f_class, cfg, mode="both"))


def setup(workload: Workload, seed: int, seconds: float, tracer: Tracer | None = None) -> Prepared:
    """Import, generate the table pool, and analyse one small warm-up table.

    The pool holds distinct tables, enough for the run even if analyze gets
    ``POOL_HEADROOM`` times faster than ``nominal_s``; the loop never
    repeats a table, so nothing can be reused across calls.
    """
    lib = load_library()
    size = max(workload.min_tables, math.ceil(POOL_HEADROOM * seconds / workload.nominal_s))
    targets = [(lib.synth, workload.generator, "synth.generate", None)]
    with tracer.installed(targets) if tracer else nullcontext():
        pool = [generate(lib, workload, table_seed(seed, i), workload.n) for i in range(size)]
        warm = generate(lib, workload, table_seed(seed, size), WARMUP_N)
    prep = Prepared(lib, lib.FunctionClass.parse(workload.function_class), pool, warm, "")
    prep.warm_json = analyze_warm(prep)
    return prep


def check_result(lib, result, p: int) -> list[str]:
    """Invariants every result must satisfy; returns the violations."""
    problems = []
    estimates = [result.isd_estimate, result.score_estimate.members]
    estimates += [s.members for s in result.plausible_sets]
    if any(i < 1 or i > p for est in estimates for i in est):
        problems.append(f"estimate index outside 1..{p}: {estimates}")
    if any(not set(result.isd_estimate) <= set(s.members) for s in result.plausible_sets):
        problems.append(f"isd_estimate {result.isd_estimate} not inside every plausible set")
    best = max(row.total for row in result.score_table)
    chosen = [row.total for row in result.score_table if row.candidate == result.score_estimate]
    if chosen != [best]:
        problems.append(f"score_estimate {result.score_estimate.members} is not the argmax of score_table")
    return problems


def analyze_one(prep: Prepared, table, tracer: Tracer | None, table_id: int):
    """One timed call.  Returns (result JSON, record) or raises."""
    lib = prep.lib
    if tracer is not None:
        tracer.table = table_id
    cfg = lib.DiscoveryConfig(seed=table.seed)
    t0 = time.perf_counter()
    result = lib.discover.analyze(table.data, prep.f_class, cfg, mode="both")
    elapsed = time.perf_counter() - t0
    text = lib.result_to_json(result)
    record = {
        "table": table_id,
        "analyze_s": elapsed,
        "seed": table.seed,
        "true_pa": list(table.true_pa),
        "isd_estimate": list(result.isd_estimate),
        "score_estimate": list(result.score_estimate.members),
        "candidates": len(result.verdicts),
        "candidates_failed": sum(v.reason is not None for v in result.verdicts),
        "plausible": len(result.plausible_sets),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "problems": check_result(lib, result, table.data.p),
    }
    return text, record


def closed_loop(
    prep: Prepared,
    pool,
    seconds: float,
    min_tables: int,
    tracer: Tracer | None = None,
    reference: Reference | None = None,
):
    """Analyse pool tables in order until the next one would overrun ``seconds``.

    Each record gets ``cycle_s``, the time for the call plus serialising and
    checking its result, and with a ``reference`` also ``ref_s``, the mean
    of the reference times taken just before and just after it.
    """
    texts, records, failures = [], [], []
    start = time.perf_counter()
    ref_before = reference.seconds() if reference else None
    for i, table in enumerate(pool):
        elapsed = time.perf_counter() - start
        if i >= min_tables and records and elapsed + statistics.median(r["cycle_s"] for r in records) > seconds:
            break
        t0 = time.perf_counter()
        try:
            text, record = analyze_one(prep, table, tracer, i)
            record["cycle_s"] = time.perf_counter() - t0
        except Exception as exc:  # a failed call is counted and the loop goes on
            failures.append({"table": i, "error": type(exc).__name__, "traceback": traceback.format_exc()})
            record = None
        if reference:
            ref_after = reference.seconds()
            if record:
                record["ref_s"] = (ref_before + ref_after) / 2.0
            ref_before = ref_after
        if record:
            texts.append(text)
            records.append(record)
    return {"texts": texts, "records": records, "failures": failures, "attempted": len(records) + len(failures)}


def accuracy(lib, records: list[dict]) -> dict:
    """The paper's two metrics per algorithm, averaged over tables (each
    table has its own truth)."""
    out = {}
    for algo in ("isd", "score"):
        pairs = [lib.metrics(r["true_pa"], [r[f"{algo}_estimate"]]) for r in records]
        out[f"{algo}.correct_pct"] = statistics.fmean(c for c, _ in pairs)
        out[f"{algo}.nfp_pct"] = statistics.fmean(f for _, f in pairs)
    return out


def probe_setup(workload: Workload, seed: int, seconds: float) -> float:
    """Seconds from spawning a fresh process until it is ready to time its
    first table: interpreter start, import, pool generation and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {code}")
    return ready


def _total(loop: dict, key: str) -> float:
    return sum(r[key] for r in loop["records"])


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark and return everything it measured."""
    if trace:
        tracer = Tracer()
        prep = setup(workload, seed, seconds, tracer)
        plain = closed_loop(prep, prep.pool, seconds / 2, 1)
        done = prep.pool[: plain["attempted"]]
        with tracer.installed(layer_targets(prep.lib)):
            traced = closed_loop(prep, done, math.inf, len(done), tracer)
        problems = [p for r in traced["records"] for p in r["problems"]]
        if traced["texts"] != plain["texts"]:
            problems.append("traced results differ from untraced results")
        return {
            "metrics": layer_metrics(tracer.spans, traced["records"], _total(plain, "analyze_s"), _total(traced, "analyze_s")),
            "units": PER_LAYER_UNITS,
            "attempted": plain["attempted"],
            "failed": len(plain["failures"]),
            "failures": plain["failures"] + traced["failures"],
            "problems": problems,
            "records": traced["records"],
            "spans": tracer.spans,
        }

    setups = [probe_setup(workload, seed, seconds) for _ in range(SETUP_PROBES)]
    prep = setup(workload, seed, seconds)
    loop = closed_loop(prep, prep.pool, seconds, workload.min_tables, reference=Reference())
    records = loop["records"]
    problems = [p for r in records for p in r["problems"]]
    if not records:
        problems.append("no analyze call succeeded")
    # determinism, outside the timed loop; the traced run re-runs every timed table
    if analyze_warm(prep) != prep.warm_json:
        problems.append("re-running the warm-up table changed its result JSON")
    head = [r for r in records if r["table"] < workload.min_tables]
    metrics = {
        "analyze_ref.p50": _median(r["analyze_s"] / r["ref_s"] for r in records),
        "datasets_per_kref": 1000.0 * len(records) / max(sum(r["cycle_s"] / r["ref_s"] for r in records), 1e-9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    candidates = sum(r["candidates"] for r in records)
    reported = {
        "analyze_s.p50": _median(r["analyze_s"] for r in records),
        "datasets_per_s": len(records) / max(_total(loop, "cycle_s"), 1e-9),
        "ref_ms.p50": 1000.0 * _median(r["ref_s"] for r in records),
        "analyze_s.samples": len(records),
        "failed_frac": len(loop["failures"]) / loop["attempted"],
        "candidate_error_frac": sum(r["candidates_failed"] for r in records) / candidates if candidates else math.nan,
        **(accuracy(prep.lib, head) if len(head) == workload.min_tables else {}),
    }
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "reported": reported,
        "attempted": loop["attempted"],
        "failed": len(loop["failures"]),
        "failures": loop["failures"],
        "problems": problems,
        "records": records,
        "setup_samples": setups,
        "digest": hashlib.sha256("".join(r["sha256"] for r in head).encode()).hexdigest(),
    }


# --------------------------------------------------------------------- #
# environment and output
# --------------------------------------------------------------------- #


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "cause_sieve").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": _git_revision(),
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            setup(workload, args.seed, args.seconds)
            print("ready", flush=True)
            return 0
        load_library()
    except MissingLibrary as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.seed)
    for failure in run["failures"]:
        print(failure["traceback"], file=sys.stderr)
    for problem in run["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    print(f"# workload={workload.name} n={workload.n} class={workload.function_class} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in run["metrics"].items():
        print(f"{name:40s} {value:.6g} {run['units'][name]}")
    for name, value in run.get("reported", {}).items():
        print(f"{name:40s} {value:.6g} {REPORTED_UNITS[name]}  (reported only)")
    if "digest" in run:
        print(f"results_sha256 {run['digest']} over tables 0..{workload.min_tables - 1}")

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record = {"args": vars(args), "workload": dataclasses.asdict(workload), "env": env, **run}
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    summary = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": run["units"][name]} for name, value in run["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
