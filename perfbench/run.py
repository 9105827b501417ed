#!/usr/bin/env python3
"""End-to-end benchmark for argstable, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload search|enumerate|decide|cli
                             --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the package is imported from the
checkout's `src/`, and the CLI workload starts `python -m argstable` with
that directory on PYTHONPATH.  One client runs operations in a closed loop
for S seconds; between operations each answer is checked against a
reference that does not come from the engines (reference.py).  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`, which
holds the end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  A readable summary goes to standard error.

`--trace 1` first runs the workload untraced for S/2 seconds, then replays
the same operations with spans around every layer's public functions
(tracing.py); the tracing overhead is the difference of the two op_p50_ms.
The trace is written to `.perfbench/` in the checkout.  On `search` it also
runs the ROADMAP's open-item probes.

`--ops N` runs exactly N operations instead of S seconds and `--size smoke`
shrinks every instance; the self-tests use both.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import families as fam
import speed
import workloads
from reference import Reference, check_dimacs, translation_lines
from launcher import Launcher, Process
from speed import Speed
from tracing import Tracer
from workloads import NO_BOUND, Op, Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
CLI_TIMEOUT_S = 150
CAP = 24  # the atom cap the CLI applies unless ARGSTABLE_BOUND is set

END_TO_END = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "framework.parse_ms": "ms",
    "translate.build_ms": "ms", "translate.clauses": "count", "translate.decode_ms": "ms",
    "logic.minimal_models_ms": "ms", "logic.minimal_models_calls": "count",
    "logic.stable_models_ms": "ms", "logic.reduct_candidates": "count",
    "logic.stable_yield": "ratio", "logic.entails_ms": "ms", "logic.unsat_calls": "count",
    "logic.export_dimacs_ms": "ms", "logic.self_ms": "ms",
    "engines.solve_ms": "ms", "engines.check_ms": "ms", "engines.query_ms": "ms",
    "engines.self_ms": "ms", "engines.extensions": "count",
    "cli.process_ms": "ms", "cli.main_ms": "ms", "cli.startup_ms": "ms",
    "cli.cross_check_ms": "ms", "cli.cross_check_overlap": "ratio",
    "oracle.reference_ms": "ms",
    "trace.op_p50_ms": "ms", "trace.overhead_ms": "ms",
}


def import_package():
    """Import argstable from this checkout's src/, never from elsewhere; a
    fresh import each call, so that set-up time includes it."""
    init = SRC / "argstable" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run inside an argstable checkout")
    for name in [m for m in sys.modules if m == "argstable" or m.startswith("argstable.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("argstable")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported argstable from {pkg.__file__}, not {init}")
    importlib.import_module("argstable.cli")
    return pkg


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """0.9 once a run has 100 operations; below that the highest quantile
    with at least ten samples beyond it."""
    return 0.9 if n >= 100 else max(0.5, 1 - 10 / n)


@dataclass
class Result:
    op: Op
    start: float
    seconds: float  # raw wall time
    answer: object = None
    error: str | None = None
    verdict: str | None = None  # None: correct; otherwise why it failed
    wrong: bool = False
    scale: float = 1.0  # to the reference machine speed, see speed.py

    @property
    def ms(self) -> float:
        return self.seconds * self.scale * 1000


class Runner:
    """Executes operations of one plan against one imported package."""

    def __init__(self, pkg, plan: Plan, workdir: Path, launcher: Launcher | None = None):
        self.pkg, self.plan, self.launcher = pkg, plan, launcher
        self.texts = [plan.text(i) for i in range(len(plan.instances))]
        self.paths: dict[int, str] = {}
        if plan.workload == "cli":
            workdir.mkdir(parents=True, exist_ok=True)
            for i, text in enumerate(self.texts):
                path = workdir / f"i{i}.{plan.formats[i]}"
                path.write_text(text, encoding="utf-8")
                self.paths[i] = str(path)

    def parse(self, index: int):
        framework = self.pkg.framework
        parse = framework.parse_tgf if self.plan.formats[index] == "tgf" else framework.parse_apx
        return parse(self.texts[index])

    def run(self, op: Op):
        if op.kind == "cli":
            return self.run_process(op)
        af = self.parse(op.instance)
        engines = self.pkg.engines
        if op.kind == "solve":
            solve = getattr(engines, f"preferred_via_{op.engine}")
            return solve(af, bound=NO_BOUND).extensions
        if op.kind == "check_unsat":
            return engines.check_preferred_unsat(af, op.members, bound=NO_BOUND).holds
        if op.kind == "check_consequence":
            return engines.check_preferred_consequence(af, op.members, bound=NO_BOUND)
        if op.kind == "query":
            verdict = engines.query(af, op.argument, op.engine, bound=NO_BOUND)
            return verdict.holds, verdict.evidence
        raise ValueError(f"unknown operation kind {op.kind!r}")

    # -- the CLI, as a process and in-process --------------------------------
    def argv(self, op: Op) -> list[str]:
        return [*op.argv, "--input", self.paths[op.instance],
                "--format", self.plan.formats[op.instance]]

    def bound_env(self, op: Op) -> dict[str, str]:
        n = len(self.plan.instances[op.instance].arguments)
        atoms = 2 * n if "--cross-check" in op.argv else n
        return {"ARGSTABLE_BOUND": str(NO_BOUND)} if atoms > CAP else {}

    def run_process(self, op: Op) -> Process:
        env = child_env()
        env.update(self.bound_env(op))
        return self.launcher.run([sys.executable, "-m", "argstable", *self.argv(op)],
                                 env, ROOT, CLI_TIMEOUT_S)

    def run_main(self, op: Op, main):
        """`cli.main(argv)` in this process, output captured."""
        saved = os.environ.pop("ARGSTABLE_BOUND", None)
        os.environ.update(self.bound_env(op))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(self.argv(op))
        finally:
            os.environ.pop("ARGSTABLE_BOUND", None)
            if saved is not None:
                os.environ["ARGSTABLE_BOUND"] = saved
        return code, out.getvalue(), err.getvalue()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ARGSTABLE_BOUND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def timed(fn, op: Op) -> Result:
    start = time.perf_counter()
    try:
        answer, error = fn(op), None
    except Exception as exc:  # RecursionError included: the op fails, the run goes on
        answer, error = None, f"{type(exc).__name__}: {str(exc)[:160]}"
    end = time.perf_counter()
    if isinstance(answer, Process):  # timed by the launcher, without the round trip
        start, end = answer.start, answer.start + answer.seconds
        answer = (answer.code, answer.out, answer.err)
    return Result(op, start, end - start, answer, error)


def operations(plan: Plan, limit: int | None):
    return itertools.islice(itertools.cycle(plan.cycle), limit)


def measure(fn, ops, seconds: float | None, clocks: dict[str, Speed], clock_for,
            check) -> list[Result]:
    """Closed loop, one client: the next operation starts when one ends.
    The speed probes and `check` run between operations, outside their
    times; `clock_for(op)` names the probe that scales an operation."""
    results: list[Result] = []
    start = time.perf_counter()
    for op in ops:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        for clock in clocks.values():
            if clock.due():
                clock.sample()
        results.append(timed(fn, op))
        check(results[-1])
    for clock in clocks.values():
        clock.sample()
    for r in results:
        r.scale = clocks[clock_for(r.op)].scale(r.start, r.start + r.seconds)
    return results


def clock_for(op: Op) -> str:
    """Operations in this process, and `translate` processes, spend their
    time in Python code: the Python loop tracks them.  A `solve` process on
    a small file is mostly interpreter start: a bare start tracks it."""
    if op.kind == "cli" and op.argv[0] != "translate":
        return "start"
    return "loop"


# -- checking -----------------------------------------------------------------
def _parse_sets(text: str) -> list[frozenset]:
    sets = []
    for line in text.splitlines():
        inner = line.strip()[1:-1]
        sets.append(frozenset(inner.split(",")) if inner else frozenset())
    return sets


def digest(answer) -> str:
    """A short, order-independent fingerprint of an answer."""
    def canonical(x):
        if isinstance(x, (set, frozenset)):
            return sorted(canonical(e) for e in x)
        if isinstance(x, (list, tuple)):
            return [canonical(e) for e in x]
        return x
    text = json.dumps(canonical(answer), sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Checker:
    """Judges each result right after its operation, outside its time, and
    keeps only a digest of the answer: retained answers would otherwise grow
    with the number of operations a run completes and show in peak_rss_mb."""

    def __init__(self, pkg, plan: Plan, reference: Reference):
        self.pkg, self.plan, self.ref = pkg, plan, reference
        self.seconds = 0.0
        self._seen_output: dict[tuple, str] = {}
        self._lines: dict[tuple, frozenset] = {}
        # Answers per instance and engine where only the partial check
        # applies, for the alpha == gamma comparison in `finish`.
        self._partial: dict[int, dict[str, set]] = {}

    def __call__(self, r: Result) -> None:
        start = time.perf_counter()
        if r.error is not None:
            r.verdict = r.error
        else:
            r.verdict, r.wrong = self._judge(r)
        r.answer = digest(r.answer)
        self.seconds += time.perf_counter() - start

    def finish(self, results: list[Result]) -> None:
        start = time.perf_counter()
        self._judge_pairs(results)
        self.seconds += time.perf_counter() - start

    def _judge(self, r: Result) -> tuple[str | None, bool]:
        op, inst = r.op, self.plan.instances[r.op.instance]
        if op.kind == "solve":
            return self._solve(inst, r.answer, op)
        if op.kind in ("check_unsat", "check_consequence"):
            truth = self.ref.is_preferred(inst, op.members)
            if truth != op.expect_preferred:
                raise AssertionError(f"{inst.name}: check set chosen wrongly")
            return (None, False) if r.answer == truth else (f"said {r.answer}", True)
        if op.kind == "query":
            return self._query(inst, op, *r.answer)
        return self._cli(inst, op, *r.answer)

    def _solve(self, inst, answer, op):
        if len(set(answer)) != len(answer):
            return "duplicate extension", True
        expected = self.ref.extensions(inst)
        if expected is None:
            reason = self.ref.partial_check(inst, answer)
            by_engine = self._partial.setdefault(op.instance, {})
            by_engine.setdefault(op.engine, set()).add(frozenset(answer))
            return (reason, reason is not None)
        if frozenset(answer) != expected:
            return f"{len(answer)} extensions differ from the {len(expected)} expected", True
        return None, False

    def _judge_pairs(self, results):
        """alpha must equal gamma where only the partial check applies; an
        engine a run did not reach is run here, outside the timed region."""
        for index, by_engine in self._partial.items():
            for engine in ("alpha", "gamma"):
                if engine not in by_engine:
                    af = self.pkg.framework.parse_apx(self.plan.instances[index].apx())
                    solve = getattr(self.pkg.engines, f"preferred_via_{engine}")
                    by_engine[engine] = {frozenset(solve(af, bound=NO_BOUND).extensions)}
            answers = by_engine["alpha"] | by_engine["gamma"]
            if len(answers) > 1:
                for r in results:
                    if r.op.instance == index and r.error is None:
                        r.verdict, r.wrong = "alpha and gamma differ", True

    def _query(self, inst, op, holds, evidence):
        exts = self.ref.extensions(inst)
        if op.engine == "brave":
            truth = any(op.argument in e for e in exts)
        else:
            truth = all(op.argument in e for e in exts)
        if holds != truth:
            return f"{op.engine} said {holds}", True
        if evidence is not None:
            shown = frozenset(evidence) & frozenset(inst.arguments)
            if shown not in exts or (op.argument in shown) != (op.engine == "brave"):
                return "evidence is not a fitting extension", True
        elif holds == (op.engine == "brave"):
            return "no evidence", True
        return None, False

    def _cli(self, inst, op, code, out, err):
        if "Traceback" in err:
            return f"traceback: {err.strip().splitlines()[-1]}", False
        if code != 0:
            return f"exit {code}: {err.strip()[:160]}", False
        key = (op.instance, op.argv)
        if self._seen_output.get(key) == out:
            return None, False
        reason = self._cli_output(inst, op, out)
        if reason is None:
            self._seen_output[key] = out
        return reason, reason is not None

    def _cli_output(self, inst, op, out):
        if op.argv[0] == "solve":
            got = _parse_sets(out)
            if len(set(got)) != len(got) or frozenset(got) != self.ref.extensions(inst):
                return "solve printed other extensions"
            return None
        target = op.argv[1]
        key = (op.instance, target)
        if key not in self._lines:
            self._lines[key] = translation_lines(inst, target)
        lines = self._lines[key]
        if "dimacs" in op.argv:
            return check_dimacs(inst, out, len(lines))
        printed = out.splitlines()
        if len(printed) != len(lines) or set(printed) != lines:
            return "translation differs"
        return None


# -- one run ----------------------------------------------------------------
@dataclass
class Outcome:
    workload: str
    seed: int
    results: list[Result]
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(r.verdict is not None for r in self.results)

    @property
    def correct(self) -> bool:
        return not any(r.wrong for r in self.results)


WARMUP = fam.knot("w")


def setup(workload: str, seed: int, size: str, workdir: Path, launcher: Launcher | None):
    """Import, generate, write inputs, warm up; timed as setup_s."""
    pkg = import_package()
    plan = workloads.build(workload, seed, size)
    runner = Runner(pkg, plan, workdir, launcher)
    warm = Plan("warm-up")
    warm.add(WARMUP)
    if workload == "cli":
        warm.workload = "cli"
        warm_runner = Runner(pkg, warm, workdir / "warm-up", launcher)
        warm_runner.run(Op("cli", 0, argv=("solve",)))
    else:
        warm_runner = Runner(pkg, warm, workdir)
        args = frozenset({"wa"})
        for op in (Op("solve", 0, engine="alpha"), Op("solve", 0, engine="gamma"),
                   Op("solve", 0, engine="lambda"), Op("check_unsat", 0, members=args),
                   Op("check_consequence", 0, members=args),
                   Op("query", 0, engine="brave", argument="wa")):
            warm_runner.run(op)
    return pkg, plan, runner


def peak_rss_mb(launcher: Launcher | None) -> float:
    """This process, or for the CLI the largest child; ru_maxrss is in KiB."""
    if launcher is not None:
        return launcher.maxrss_kb / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload: str, seed: int, seconds: float | None = None,
                 ops: int | None = None, trace: bool = False,
                 size: str = "full") -> Outcome:
    workdir = WORK / f"{workload}-{os.getpid()}"
    launcher = Launcher() if workload == "cli" else None
    try:
        setup_clock = speed.in_process()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup_clock.sample()
            start = time.perf_counter()
            pkg, plan, runner = setup(workload, seed, size, workdir, launcher)
            end = time.perf_counter()
            setup_clock.sample()
            setup_times.append((end - start) * setup_clock.scale(start, end))
        reference = Reference(pkg)
        ref_start = time.perf_counter()
        if plan.pending_checks:
            workloads.choose_check_sets(plan, reference, seed)
        ref_seconds = time.perf_counter() - ref_start
        checker = Checker(pkg, plan, reference)

        budget = seconds / 2 if trace and seconds is not None else seconds
        clocks = {"loop": speed.in_process()}
        if launcher is not None:
            bare = [sys.executable, "-c", "pass"]
            clocks["start"] = speed.interpreter(
                lambda: launcher.run(bare, child_env(), ROOT, CLI_TIMEOUT_S).seconds)
        results = measure(runner.run, operations(plan, ops), budget, clocks, clock_for,
                          checker)
        rss = peak_rss_mb(launcher)
        outcome = Outcome(workload, seed, list(results))
        if trace:
            traced = trace_pass(pkg, runner, results, outcome, checker)
        checker.finish(outcome.results)
        ref_seconds += checker.seconds

        samples = sorted(r.ms for r in results)
        q = tail_quantile(len(samples))
        raw = sorted(r.seconds * 1000 for r in results)
        outcome.notes.update(
            samples=len(samples), tail_quantile=q,
            failed_ops_ratio=outcome.failed / len(outcome.results),
            raw_op_p50_ms=statistics.median(raw), raw_op_p90_ms=percentile(raw, q),
            speed_scale_median={k: c.median_scale() for k, c in clocks.items()})
        if trace:
            layer_metrics(outcome, traced, results, ref_seconds)
            if workload == "search" and size == "full":
                outcome.notes["probes"] = probes(pkg)
            write_trace(outcome, traced["tracer"])
        else:
            busy = sum(r.seconds * r.scale for r in results)
            ok = sum(r.verdict is None for r in results)
            outcome.metrics = {
                "setup_s": statistics.median(setup_times),
                "op_p50_ms": statistics.median(samples),
                "op_p90_ms": percentile(samples, q),
                "ops_per_s": ok / busy,
                "peak_rss_mb": rss,
            }
        return outcome
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)


def trace_pass(pkg, runner: Runner, untraced: list[Result], outcome: Outcome,
               check) -> dict:
    """Replay the untraced run's operations with spans on.  For the CLI each
    operation runs `cli.main` in-process, once untraced and once traced, and
    a cross-check also runs its four engines one after another."""
    tracer = Tracer()
    clock = speed.in_process()
    in_process = runner.plan.workload == "cli"
    main = lambda o: runner.run_main(o, pkg.cli.main)
    plain: list[Result] = []
    solo: list[Result] = []
    traced: list[Result] = []
    for i, r in enumerate(untraced):
        op = r.op
        if clock.due():
            clock.sample()
        if in_process:
            plain.append(timed(main, op))
            plain[-1].answer = None
            if "--cross-check" in op.argv:
                solo.append(timed(lambda o: solo_engines(pkg, runner, o), op))
        tracer.install(pkg)
        try:
            tracer.begin_op(i)
            fn = main if in_process else runner.run
            traced.append(timed(lambda o: tracer.record("op", fn, o), op))
        finally:
            tracer.uninstall()
        check(traced[-1])
    clock.sample()
    for r in plain + solo + traced:
        r.scale = clock.scale(r.start, r.start + r.seconds)
    outcome.results += traced
    cross = [p for p in plain if "--cross-check" in p.op.argv]
    return {"tracer": tracer, "traced": traced, "plain": plain,
            "solo_ms": sum(r.ms for r in solo), "cross_ms": sum(r.ms for r in cross)}


def solo_engines(pkg, runner: Runner, op: Op) -> None:
    """The four engines of `solve --cross-check`, one after another."""
    af = runner.parse(op.instance)
    for name in ("alpha", "gamma", "lambda"):
        getattr(pkg.engines, f"preferred_via_{name}")(af, bound=NO_BOUND)
    pkg.oracle.preferred_oracle(af, bound=NO_BOUND)


def layer_metrics(outcome: Outcome, traced: dict, untraced: list[Result],
                  ref_seconds: float) -> None:
    """Per-layer figures, each a mean per operation of the workload."""
    tracer: Tracer = traced["tracer"]
    n = len(untraced)
    weights = [r.scale for r in traced["traced"]]
    own = {k: v * 1000 / n for k, v in tracer.self_times(weights).items()}
    incl = {k: v * 1000 / n for k, v in tracer.inclusive_times(weights).items()}
    counts = dict(tracer.counts)
    outcome.counts = counts
    per_op = lambda key: counts.get(key, 0) / n
    logic = ("logic.minimal_models", "logic.stable_models", "logic.entails",
             "logic.export_dimacs")
    traced_ms = [r.ms for r in traced["traced"]]
    baseline = traced["plain"] or untraced
    m = {
        "framework.parse_ms": own.get("framework.parse", 0.0),
        "translate.build_ms": own.get("translate.build", 0.0),
        "translate.clauses": per_op("translate.clauses"),
        "translate.decode_ms": own.get("translate.decode", 0.0),
        "logic.minimal_models_ms": own.get("logic.minimal_models", 0.0),
        "logic.minimal_models_calls": per_op("logic.minimal_models_calls"),
        "logic.stable_models_ms": own.get("logic.stable_models", 0.0),
        "logic.reduct_candidates": per_op("logic.reduct_candidates"),
        "logic.stable_yield": (counts.get("logic.stable_models", 0)
                               / max(1, counts.get("logic.reduct_candidates", 0))),
        "logic.entails_ms": own.get("logic.entails", 0.0),
        "logic.unsat_calls": per_op("logic.unsat_calls"),
        "logic.export_dimacs_ms": own.get("logic.export_dimacs", 0.0),
        "logic.self_ms": sum(own.get(k, 0.0) for k in logic),
        "engines.solve_ms": incl.get("engines.solve", 0.0),
        "engines.check_ms": incl.get("engines.check", 0.0),
        "engines.query_ms": incl.get("engines.query", 0.0),
        "engines.self_ms": sum(own.get(f"engines.{k}", 0.0) for k in ("solve", "check", "query")),
        "engines.extensions": per_op("engines.extensions"),
        "cli.process_ms": 0.0, "cli.main_ms": 0.0, "cli.startup_ms": 0.0,
        "cli.cross_check_ms": incl.get("cli.cross_check", 0.0),
        "cli.cross_check_overlap": 0.0,
        "oracle.reference_ms": ref_seconds * 1000 / n,
        "trace.op_p50_ms": statistics.median(traced_ms),
        "trace.overhead_ms": statistics.median(traced_ms) - statistics.median(
            r.ms for r in baseline),
    }
    if traced["plain"]:
        m["cli.process_ms"] = statistics.fmean(r.ms for r in untraced)
        m["cli.main_ms"] = statistics.fmean(r.ms for r in traced["plain"])
        m["cli.startup_ms"] = m["cli.process_ms"] - m["cli.main_ms"]
        if traced["cross_ms"]:
            m["cli.cross_check_overlap"] = traced["solo_ms"] / traced["cross_ms"]
    outcome.metrics = m
    if tracer.missing:
        outcome.notes["entry_points_not_traced"] = sorted(set(tracer.missing))
    op_ms = statistics.fmean(traced_ms)
    outcome.notes["traced_op_mean_ms"] = op_ms
    outcome.notes["logic_self_share_of_op"] = m["logic.self_ms"] / op_ms
    if traced["plain"]:
        front = m["framework.parse_ms"] + m["translate.build_ms"] + m["cli.startup_ms"]
        outcome.notes["parse_translate_startup_share_of_process"] = front / m["cli.process_ms"]


# -- ROADMAP open-item probes ----------------------------------------------------
PROBES = [
    # (label, ROADMAP figure, framework factory, engine).  The ROADMAP's
    # lambda probes at n=20 and n=30 take minutes with this generator, and
    # its 1100 mutual attacks fill hundreds of MB before the RecursionError,
    # so smaller stand-ins run here.
    ("random n=100 p=0.03 seed 1, alpha", "3.9 s",
     lambda: fam.random_af(random.Random(1), 100, 0.03, "a"), "alpha"),
    ("random n=100 p=0.03 seed 1, gamma", "3.6 s",
     lambda: fam.random_af(random.Random(1), 100, 0.03, "a"), "gamma"),
    ("random n=16 p=0.03 seed 1, lambda", "n=20 1.16 s, n=30 7.5 s",
     lambda: fam.random_af(random.Random(1), 16, 0.03, "a"), "lambda"),
    ("random n=16 p=0.03 seed 1, gamma", "n=20 0.005 s, n=30 0.028 s",
     lambda: fam.random_af(random.Random(1), 16, 0.03, "a"), "gamma"),
    ("chain-300, alpha", "chain-1200 178 s",
     lambda: fam.chain(300, "c"), "alpha"),
    # Its solve raises RecursionError today (ROADMAP, Open items).
    ("1000 odd 3-cycles (wide), alpha", "1100 mutual attacks: RecursionError",
     lambda: fam.odd_cycles(1000, 3, "w"), "alpha"),
]


def probes(pkg) -> list[dict]:
    """The ROADMAP's open-item probes that fit in a run."""
    found = []
    for label, roadmap, make, engine in PROBES:
        af = pkg.framework.parse_apx(make().apx())
        solve = getattr(pkg.engines, f"preferred_via_{engine}")
        start = time.perf_counter()
        try:
            result = f"{len(solve(af, bound=NO_BOUND).extensions)} extensions"
        except Exception as exc:
            result = type(exc).__name__
        found.append({"probe": label, "seconds": time.perf_counter() - start,
                      "outcome": result, "roadmap": roadmap})
    return found


def write_trace(outcome: Outcome, tracer: Tracer) -> None:
    WORK.mkdir(exist_ok=True)
    origin = min((s.start for s in tracer.spans), default=0.0)
    dump = {
        "workload": outcome.workload, "seed": outcome.seed,
        "metrics": outcome.metrics, "counts": outcome.counts, "notes": outcome.notes,
        "spans": [[s.name, s.start - origin, s.end - origin, s.parent, s.op]
                  for s in tracer.spans],
    }
    path = WORK / f"trace-{outcome.workload}-seed{outcome.seed}.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    outcome.notes["trace_file"] = str(path.relative_to(ROOT))


# -- entry point ----------------------------------------------------------------
def summary(outcome: Outcome, units: dict[str, str]) -> str:
    lines = [f"workload {outcome.workload}, seed {outcome.seed}: "
             f"{len(outcome.results)} operations, {outcome.failed} failed, "
             f"correct={outcome.correct}"]
    for name, unit in units.items():
        lines.append(f"  {name:28s} {outcome.metrics[name]:14.4f} {unit}")
    for key, value in outcome.notes.items():
        if key == "probes":
            for p in value:
                lines.append(f"  probe {p['probe']:42s} {p['seconds']:8.3f} s  "
                             f"{p['outcome'][:40]:40s} ROADMAP: {p['roadmap']}")
        else:
            lines.append(f"  {key:28s} {value}")
    failures = Counter(r.verdict for r in outcome.results if r.verdict is not None)
    for reason, count in failures.items():
        lines.append(f"  failed x{count}: {reason}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations instead of --seconds")
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ns = parser.parse_args(argv)
    seconds = None if ns.ops is not None else ns.seconds
    speed.pin()
    outcome = run_workload(ns.workload, ns.seed, seconds, ns.ops, bool(ns.trace), ns.size)
    units = PER_LAYER if ns.trace else END_TO_END
    print(summary(outcome, units), file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": len(outcome.results),
        "failed": outcome.failed,
        "metrics": {k: {"value": outcome.metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
