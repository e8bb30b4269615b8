"""unigraph benchmark: one workload as a closed loop from a single caller.

    python3 bench/run.py --workload battery-scale --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

One caller in this one process sends the next input only when the previous
answer has come back.  The decision verbs go through `unigraph.cli.main`
in-process, the round trip through the `unigraph.linedigraphs` functions.
Every answer is checked by `checker.py`; a wrong or unverifiable answer,
an exit code of 3 or 4 and an exception each count as one failed
operation, and the run goes on.

Passes over the seeded corpus repeat until the time spent inside the
program reaches --seconds, and at least MIN_PASSES times; only whole passes
count.  A shared host's speed drifts, so every answer's time is
calibrated (see calibrate.py), and an input's latency is the median of its
calibrated answers over the passes.  Latency percentiles are taken over
the inputs (every corpus has over 100, so at least ten lie above p90), and
ops_per_s is the number of inputs divided by the sum of their latencies,
the rate of one typical pass.  The raw per-answer figures go to the
results file as well.  --trace 1 alternates untraced and traced passes and
reports per-layer means per answer from the traced ones (raw times), with
the calibrated throughput of both.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics.  A fuller record (run metadata, corpus digest and families, the
whole span table) goes to bench/results/.  --smoke runs one traced and one
untraced pass over a few inputs of every family of every workload.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checker
from calibrate import NOMINAL_KERNEL_S, kernel
from corpus import WORKLOADS, build_corpus, check_solver_defaults, smoke_subset
from setup_probe import DECISION_VERBS, WARMUP_GRAPH, warm_up
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
MIN_PASSES = 3        # each input's latency is the median of at least this many answers
SETUP_SAMPLES = 7     # fresh interpreters timed for setup_s; the median is reported
MAX_FAILURES_KEPT = 20

# per-layer metrics reported by --trace 1: (span name, statistic, metric suffix)
LAYER_METRICS = (
    ("digraphs.structure_report", "self_ms"),
    ("digraphs.connectivity_numbers", "self_ms"),
    ("digraphs.hall_violations", "self_ms"),
    ("digraphs.quadrangularity_violations", "self_ms"),
    ("digraphs.bipartition", "self_ms"),
    ("membership.necessary_battery", "self_ms"),
    ("digraphs.term_rank", "calls"),
    ("matrices.nearest_unitary", "calls"),
    ("matrices.nearest_unitary", "self_ms"),
    ("matrices.unitarity_residual", "calls"),
    ("matrices.unitarity_residual", "self_ms"),
    ("membership.alternating_projection", "calls"),
    ("membership.alternating_projection", "self_ms"),
    ("linedigraphs.line_digraph", "self_ms"),
    ("linedigraphs.recognize_line_digraph", "self_ms"),
    ("linedigraphs.independent_full_submatrices", "self_ms"),
    ("digraphs.Digraph.init", "calls"),
    ("digraphs.Digraph.init", "self_ms"),
    ("digraphs.induced_subgraph_search", "self_ms"),
    ("cli.main", "self_ms"),
    ("cli.parse_digraph", "self_ms"),
)
_UNITS = {"self_ms": "ms", "calls": "count"}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program source, wrong settings)."""


def load_program():
    """Import unigraph from this checkout's src/, never from anywhere else."""
    if not (SRC / "unigraph" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'unigraph'}")
    sys.path.insert(0, str(SRC))
    import unigraph
    import unigraph.cli
    import unigraph.digraphs
    import unigraph.linedigraphs

    if Path(unigraph.__file__).resolve().parent != (SRC / "unigraph").resolve():
        raise SetupError(f"imported unigraph from {unigraph.__file__}, not from {SRC}")
    try:
        check_solver_defaults(unigraph.cli.build_parser)
    except RuntimeError as exc:
        raise SetupError(str(exc)) from exc
    return unigraph


# === workloads: one timed call and one untimed check per input ===

class DecisionWorkload:
    """`unigraph analyze|certify --in FILE` through cli.main, stdout captured."""

    def __init__(self, workload, corpus, workdir: Path, cli):
        self.verb = DECISION_VERBS[workload]
        self.cli = cli
        self.items = corpus.items
        self.argv = []
        for k, it in enumerate(self.items):
            path = workdir / f"input-{k}.txt"
            rows = "\n".join(" ".join(str(int(x)) for x in row) for row in it.adj)
            path.write_text(f"{len(it.adj)}\n{rows}\n")
            self.argv.append([self.verb, "--in", str(path)])

    def call(self, k):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(self.argv[k])
        return code, out.getvalue()

    def check(self, k, answer):
        code, stdout = answer
        it = self.items[k]
        status, reason = checker.check_decision(self.verb, it.adj, it.never_excluded, code, stdout)
        return status in ("certified", "excluded"), reason


class RoundTripWorkload:
    """line_digraph(B) then recognize_line_digraph(L); non-line inputs are only recognized."""

    def __init__(self, corpus, ld, digraphs):
        self.ld = ld
        self.digraphs = digraphs
        self.items = corpus.items

    def call(self, k):
        it, ld = self.items[k], self.ld
        if it.mult is not None:
            line = ld.line_digraph(ld.Multidigraph(it.mult))
            return line, ld.recognize_line_digraph(line.digraph)
        return None, ld.recognize_line_digraph(self.digraphs.Digraph(it.adj))

    def check(self, k, answer):
        line, rec = answer
        it = self.items[k]
        if line is not None:
            return True, checker.check_round_trip(
                it.mult, line.digraph.adj, line.labels,
                rec.vertex_arcs if rec.is_line_digraph else None,
                rec.base.mult if rec.is_line_digraph else None,
            )
        if rec.is_line_digraph:
            return True, checker.check_reconstruction(it.adj, rec.vertex_arcs, rec.base.mult)
        return True, checker.check_non_line_witness(it.adj, rec.witness)


def make_workload(name, corpus, workdir, program):
    if name in DECISION_VERBS:
        return DecisionWorkload(name, corpus, workdir, program.cli)
    return RoundTripWorkload(corpus, program.linedigraphs, program.digraphs)


# === measurement ===

def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    def __init__(self, inputs: int):
        self.calibrated = [[] for _ in range(inputs)]  # per input, seconds
        self.latencies: list[float] = []  # every answer, raw seconds
        self.busy = 0.0
        self.attempted = self.failed = self.decided = self.passes = 0
        self.failures: list[str] = []

    def run_pass(self, wl, labels) -> None:
        clock = time.perf_counter
        before = kernel()
        for k in range(len(wl.items)):
            start = clock()
            try:
                answer, error = wl.call(k), None
            except Exception as exc:  # an answer that crashed is one failed operation
                answer, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = clock() - start
            after = kernel()
            calibrated = elapsed * NOMINAL_KERNEL_S / ((before + after) / 2)
            before = after
            self.latencies.append(elapsed)
            self.calibrated[k].append(calibrated)
            self.busy += elapsed
            self.attempted += 1
            if error is None:
                try:
                    decided, error = wl.check(k, answer)
                except Exception as exc:  # a check that cannot run leaves the answer unverified
                    decided, error = False, f"unverifiable: {type(exc).__name__}: {exc}"
                self.decided += bool(decided) and error is None
            if error is not None:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_KEPT:
                    self.failures.append(f"{labels[k]}: {error}")
        self.passes += 1

    def input_latencies(self) -> list[float]:
        """Each input's median calibrated answer time, seconds."""
        return [statistics.median(c) for c in self.calibrated]

    @property
    def ops_per_s(self) -> float:
        """Inputs per second at the inputs' median calibrated latencies."""
        return len(self.calibrated) / sum(self.input_latencies())

    def latency_ms(self, q: float) -> float:
        return _percentile(self.input_latencies(), q) * 1e3

    def plain(self) -> dict:
        """Raw figures over every answer: no calibration, no median per input."""
        return {
            "answers": self.attempted,
            "ops_per_s": self.attempted / self.busy,
            "latency_p50_ms": _percentile(self.latencies, 0.50) * 1e3,
            "latency_p90_ms": _percentile(self.latencies, 0.90) * 1e3,
        }


def measure(wl, labels, seconds: float) -> Tally:
    tally = Tally(len(wl.items))
    while tally.passes < MIN_PASSES or tally.busy < seconds:
        tally.run_pass(wl, labels)
    return tally


def measure_traced(wl, labels, seconds: float, tracer: Tracer) -> tuple[Tally, Tally]:
    plain, traced = Tally(len(wl.items)), Tally(len(wl.items))
    while traced.passes == 0 or plain.busy + traced.busy < seconds:
        if plain.passes <= traced.passes:
            plain.run_pass(wl, labels)
        else:
            tracer.install()
            try:
                traced.run_pass(wl, labels)
            finally:
                tracer.uninstall()
    return plain, traced


def measure_setup(workload: str, warmup_file: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload, str(warmup_file)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise SetupError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(tally: Tally, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "latency_p50_ms": (tally.latency_ms(0.50), "ms"),
        "latency_p90_ms": (tally.latency_ms(0.90), "ms"),
        "decided_share": (tally.decided / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(plain: Tally, traced: Tally, table: dict) -> dict:
    metrics = {}
    for name, stat in LAYER_METRICS:
        metrics[f"{name}.{stat}"] = (table.get(name, {}).get(stat, 0.0), _UNITS[stat])
    ap = table.get("membership.alternating_projection", {})
    metrics["membership.alternating_projection.success_ratio"] = (ap.get("non_none_ratio", 0.0), "ratio")
    metrics["tracing.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
    metrics["tracing.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
    metrics["tracing.slowdown"] = (plain.ops_per_s / traced.ops_per_s, "ratio")
    return metrics


# === run metadata ===

def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}
    except (TypeError, AttributeError):  # numpy < 1.25 has no mode="dicts"
        return {}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "unigraph").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "seed": seed,
    }


# === entry points ===

def _family_counts(corpus) -> dict:
    counts: dict[str, int] = {}
    for it in corpus.items:
        counts[it.family] = counts.get(it.family, 0) + 1
    return counts


def run(args, program, workdir: Path) -> dict:
    corpus = build_corpus(args.workload, args.seed)
    labels = [f"{it.family}:{it.label}" for it in corpus.items]
    wl = make_workload(args.workload, corpus, workdir, program)
    warmup_file = workdir / "warmup.txt"
    warmup_file.write_text(WARMUP_GRAPH)
    setup = [] if args.trace else measure_setup(args.workload, warmup_file)
    warm_up(args.workload, str(warmup_file))

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": run_metadata(args.seed),
        "corpus": {
            "digest": corpus.digest(),
            "items": len(corpus.items),
            "families": {f: {"count": c, "why": corpus.families[f]}
                         for f, c in _family_counts(corpus).items()},
        },
        "loop": "closed, one caller, one process",
    }
    if args.trace:
        tracer = Tracer()
        plain, traced = measure_traced(wl, labels, args.seconds, tracer)
        tallies = (plain, traced)
        table = tracer.table(traced.attempted)
        metrics = per_layer_metrics(plain, traced, table)
        record["spans_per_answer"] = table
    else:
        tally = measure(wl, labels, args.seconds)
        tallies = (tally,)
        metrics = end_to_end_metrics(tally, setup)
        record["setup_samples_s"] = setup
        p90 = tally.latency_ms(0.90) / 1e3
        inputs = tally.input_latencies()
        record["latency"] = {"inputs": len(inputs),
                             "inputs_above_p90": sum(1 for x in inputs if x > p90)}
        record["per_answer"] = tally.plain()
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    record.update(
        passes=[t.passes for t in tallies],
        attempted=attempted,
        failed=failed,
        failures=[f for t in tallies for f in t.failures][:MAX_FAILURES_KEPT],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return record


def smoke(seed: int, program, workdir: Path) -> int:
    bad = 0
    for name in WORKLOADS:
        corpus = smoke_subset(build_corpus(name, seed))
        labels = [f"{it.family}:{it.label}" for it in corpus.items]
        wl = make_workload(name, corpus, workdir, program)
        tracer = Tracer()
        plain, traced = measure_traced(wl, labels, 0, tracer)  # one pass of each
        failed = plain.failed + traced.failed
        bad += failed
        print(f"{name}: {plain.attempted + traced.attempted} answers, {failed} failed, "
              f"{len(tracer.stats)} spans traced, digest {corpus.digest()[:16]}")
        for f in plain.failures + traced.failures:
            print(f"  {f}")
    return 1 if bad else 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one short pass per workload, then exit")
    args = p.parse_args(argv)
    if not args.smoke and (args.workload is None or args.seconds is None):
        p.error("--workload and --seconds are required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = load_program()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        if args.smoke:
            return smoke(args.seed, program, workdir)
        try:
            record = run(args, program, workdir)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  corpus {record['corpus']['digest'][:16]}  "
          f"passes {record['passes']}  results {out.relative_to(ROOT)}")
    for name, m in record["metrics"].items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
