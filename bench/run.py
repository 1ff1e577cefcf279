#!/usr/bin/env python3
"""Closed-loop benchmark of bsrig.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --table [--seed N]

Each workload runs in its own process with one caller and no threads: the
next operation starts when the previous one returns.  Set-up imports the
package and parses the seeded inputs; it is repeated and its median is
``setup_s``.  The fixed operation list (one pass) is repeated
until the time is spent; each slot's latency is its fastest run over the
passes.  The outputs of the first pass are checked outside the timed
region, and every later pass must reproduce them.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the time is split between an untraced half and a traced half
(spans around every call into a layer) and the last line holds the
per-layer metrics; the spans go to bench/out/.  ``--table`` prints the
baseline table of the sizes that finish in under a second.  See spec.json
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

from tracing import LAYER_FUNCS, Tracer, make_layers
from workloads import WORKLOADS, Raised, canon, cli_output_ok, materialize, readme_examples, run_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 9
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}
LAYERS = tuple(LAYER_FUNCS)
GROWTH = (
    "hecke.double_coset.growth_per_b",
    "hecke.hecke_convolve.growth_per_b",
    "fusion.exchange_partners.growth_per_b",
    "hecke.coset_profile.growth_per_b",
    "tree.common_fixed_vertex.growth_per_radius",
    "tree.export_ball.growth_per_radius",
    "words.normalize.growth_per_exp_doubling",
)
EXTRAS = (
    "fusion.decompose_self_inverse.accept_ratio",
    "fusion.exchange_partners.yield_ratio",
    "tree.common_fixed_vertex.found_ratio",
    "tree.export_ball.bytes_per_s",
    "cli.interp_ms",
    "cli.import_ms",
    "cli.run_ms",
    "cli.main_ms",
    "trace.overhead",
)


def load_package() -> SimpleNamespace:
    """Import bsrig afresh: drop every loaded bsrig module first."""
    for name in [k for k in sys.modules if k == "bsrig" or k.startswith("bsrig.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bsrig")
    return SimpleNamespace(**{name: getattr(pkg, name) for name in LAYERS})


def set_up(workload: str, seed: int):
    """Generate the inputs as text from the seed, then take the median over
    SETUP_REPS of importing the package and parsing those inputs through
    it; the last repetition's objects are kept."""
    specs = WORKLOADS[workload].build(random.Random(seed))
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = perf_counter()
        mods = load_package()
        ops = [materialize(mods, op) for op in specs]
        times.append(perf_counter() - start)
    mods.oracles = importlib.import_module("bsrig.oracles")
    return mods, ops, statistics.median(times)


class Phase(NamedTuple):
    best: list[float]  # each slot's fastest run over the passes
    passes: int
    wall: float
    mismatches: int

    @property
    def ops_per_s(self) -> float:
        """Operations per second of one pass at the slot latencies."""
        return len(self.best) / sum(self.best)


def measure(ops, layers, seconds: float, ref: list, tracer=None) -> Phase:
    """Repeat the pass until the next one would overrun ``seconds``.

    A slot's latency is its fastest run over the passes: the work of a slot
    is the same in every pass, and what varies between passes is
    interference from other processes on the machine, which only adds.
    Only the running minimum is kept, so memory does not grow with the
    number of passes.  The first pass ever made fills ``ref``; later passes
    are compared with it."""
    best = [float("inf")] * len(ops)
    passes = mismatches = 0
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                out = op.call(layers, *op.args)
            except Exception as exc:  # recorded as the op's output and judged by the checks
                out = Raised(exc)
            t1 = perf_counter()
            if tracer:
                tracer.end_op(f"op.{op.kind}", t0, t1)
            if t1 - t0 < best[i]:
                best[i] = t1 - t0
            if len(ref) < len(ops):
                ref.append(out)
            elif out != ref[i]:
                mismatches += 1
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return Phase(best, passes, elapsed, mismatches)


def tail_index(n: int) -> int:
    """Index of the highest order statistic with ten samples beyond it."""
    return max(0, n - 11)


def growth(ops, lat) -> dict[str, float]:
    """Per ladder: (median at the last rung / median at the first) to the
    power 1 / (rung distance), the geometric mean of successive ratios."""
    rungs: dict = defaultdict(lambda: defaultdict(list))
    for op, t in zip(ops, lat):
        if op.ladder:
            rungs[op.ladder[0]][op.ladder[1]].append(t)
    out = {}
    for name, by_x in rungs.items():
        lo, hi = min(by_x), max(by_x)
        out[name] = (statistics.median(by_x[hi]) / statistics.median(by_x[lo])) ** (1 / (hi - lo))
    return out


def per_layer_names() -> list[str]:
    names = [f"{layer}.{fn}.{s}" for layer, fns in LAYER_FUNCS.items() for fn in fns for s in ("calls", "busy_s", "us_per_call")]
    return names + [f"{layer}.busy_share" for layer in LAYERS] + list(GROWTH) + list(EXTRAS)


def unit_of(name: str) -> str:
    for suffix, unit in (
        (".calls", "count"), (".busy_s", "s"), (".us_per_call", "us"), ("_ms", "ms"),
        (".bytes_per_s", "B/s"), ("growth_per_b", "x/b"), ("growth_per_radius", "x/radius"),
        ("growth_per_exp_doubling", "x/doubling"),
    ):
        if name.endswith(suffix):
            return unit
    return "ratio"


def timed_run(cmd, env=None) -> float:
    start = perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
    return perf_counter() - start


def cli_split(mods) -> tuple[dict[str, float], int, int]:
    """Where a command-line call spends its time, on the README examples:
    interpreter start-up, importing bsrig.cli, the in-process call, and the
    whole command as a user runs it.  Each command's stdout is checked
    against README.  Returns (metrics, commands run, wrong outputs)."""
    cli = importlib.import_module("bsrig.cli")
    env = dict(os.environ, PYTHONPATH="src")
    interp = [timed_run([sys.executable, "-c", "pass"]) for _ in range(5)]
    imp = [timed_run([sys.executable, "-c", "import bsrig.cli"], env) for _ in range(5)]
    inproc, whole, wrong = [], [], 0
    examples = readme_examples()
    for argv, shown in examples:
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            cli.run(list(argv))
            inproc.append(perf_counter() - start)
        start = perf_counter()
        code, stdout = run_cli(argv)
        whole.append(perf_counter() - start)
        wrong += not cli_output_ok(mods, argv, shown, code, stdout)
    metrics = {
        "cli.interp_ms": statistics.median(interp) * 1e3,
        "cli.import_ms": statistics.median(imp) * 1e3,
        "cli.run_ms": statistics.median(inproc) * 1e3,
        "cli.main_ms": statistics.median(whole) * 1e3,
    }
    return metrics, len(examples), wrong


def ratios(mods, ops, ref) -> dict[str, tuple[int, int]]:
    """(numerator, base) of the useful-outcome ratios, from one pass."""
    acc: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for op, out in zip(ops, ref):
        if op.kind == "decompose_self_inverse":
            acc["fusion.decompose_self_inverse.accept_ratio"][0] += not isinstance(out, Raised)
            acc["fusion.decompose_self_inverse.accept_ratio"][1] += 1
        elif op.kind == "exchange_partners":
            acc["fusion.exchange_partners.yield_ratio"][0] += len(out)
            acc["fusion.exchange_partners.yield_ratio"][1] += abs(mods.hecke.coset_profile(op.args[1], op.args[2]).L)
        elif op.kind.startswith("fixed_"):
            acc["tree.common_fixed_vertex.found_ratio"][0] += out is not None
            acc["tree.common_fixed_vertex.found_ratio"][1] += 1
    return {k: tuple(v) for k, v in acc.items()}


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    """calls, busy_s and us_per_call per function, busy_share per layer.
    Layer spans are leaves (the layers are called only by operations), so
    busy time is self time; no layer has a queue, so nothing waits."""
    calls: Counter = Counter()
    busy: dict[str, float] = defaultdict(float)
    for _, parent, _, name, t0, t1 in tracer.spans:
        if parent is not None:
            calls[name] += 1
            busy[name] += t1 - t0
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.us_per_call"] = busy[name] / calls[name] * 1e6
    for layer in LAYERS:
        out[f"{layer}.busy_share"] = sum(b for n, b in busy.items() if n.startswith(layer + ".")) / wall
    return out


def write_spans(workload: str, seed: int, tracer) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


def digest(ref) -> str:
    return hashlib.sha256("\n".join(canon(x) for x in ref).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--table", action="store_true", help="print the baseline table and exit")
    args = parser.parse_args(argv)
    if not (SRC / "bsrig" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'bsrig'}; run from a full checkout", file=sys.stderr)
        return 2
    if not args.table and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    if args.table:
        import table

        table.main(args.seed)
        return 0

    spec = json.loads((HERE / "spec.json").read_text())
    mods, ops, setup_s = set_up(args.workload, args.seed)
    layers = make_layers(mods)
    ref: list = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(ops, layers, seconds, ref)
    mismatches, all_passes = untraced.mismatches, untraced.passes
    if args.trace:
        tracer = Tracer()
        traced = measure(ops, make_layers(mods, tracer), seconds, ref, tracer)
        mismatches += traced.mismatches
        all_passes += traced.passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = WORKLOADS[args.workload].check(mods, ops, ref, random.Random(args.seed))
    failed = mismatches + len(wrong) * all_passes
    attempted = len(ops) * all_passes
    got = digest(ref)
    pinned = spec["workloads"][args.workload].get("digest") if args.seed == spec["digest_seed"] else None
    correct = failed == 0 and pinned in (None, got)

    n = len(ops)
    lat = untraced.best
    print(f"workload {args.workload} seed {args.seed}: {n} ops per pass, {untraced.passes} untraced passes, digest {got}"
          + (f" (pinned {pinned})" if pinned else ""))
    for i in sorted(wrong)[:10]:
        print(f"  wrong output: slot {i} {ops[i].kind} -> {canon(ref[i])[:200]}", file=sys.stderr)
    if args.trace:
        metrics = dict.fromkeys(per_layer_names(), 0.0)
        metrics.update(layer_metrics(tracer, traced.wall))
        metrics.update(growth(ops, lat))
        for name, (num, base) in ratios(mods, ops, ref).items():
            metrics[name] = num / base
            print(f"  {name} = {num} / {base}")
        ball_bytes = sum(len(out) for op, out in zip(ops, ref) if op.kind == "export_ball")
        if ball_bytes:
            metrics["tree.export_ball.bytes_per_s"] = ball_bytes * traced.passes / metrics["tree.export_ball.busy_s"]
        if args.workload == "words_stream":
            split, runs, wrong_cli = cli_split(mods)
            metrics.update(split)
            attempted += runs
            failed += wrong_cli
            correct = correct and not wrong_cli
            print(f"  cli: {runs} README commands, {wrong_cli} with wrong output")
        metrics["trace.overhead"] = 1 - traced.ops_per_s / untraced.ops_per_s
        path = write_spans(args.workload, args.seed, tracer)
        print(f"  {len(tracer.spans)} spans in {path.relative_to(ROOT)}; no layer has a queue, so wait time is 0 in every layer")
        print(f"  trace.overhead = 1 - {traced.ops_per_s:.1f} / {untraced.ops_per_s:.1f} ops/s")
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": untraced.ops_per_s,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": sorted(lat)[tail_index(n)] * 1e3,
            "ok_ratio": 1 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  op_tail_ms is p{100 * (tail_index(n) + 1) / n:.1f} of {n} slot latencies")
    result = {name: {"value": value, "unit": E2E_UNITS.get(name) or unit_of(name)} for name, value in metrics.items()}
    for name, m in result.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
