#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  The run
replays the workload once per sub-seed (``seed * 1000 + i``), each replay
in a fresh single-threaded process started one after another, with as many
sub-seeds as fit in ``--seconds`` by a fixed per-workload estimate (so the
set of sub-seeds, and with it every simulated metric, depends only on the
seed and ``--seconds``).  One more replay repeats the first sub-seed and
must reproduce it byte for byte.  Wall-clock metrics are medians over the
replays, in seconds of a reference host: each replay times a fixed
calibration workload between slices of its run and scales what it measures
by it (:mod:`perfbench.calibrate`), so drifts in the host's speed cancel.
Simulated metrics pool every request of the run.  The per-replay
wall-clock figures are kept in ``.perfbench_out/<workload>-<seed>.replays.json``.

``--trace 1`` replays the first sub-seed alternately untraced and traced
while another pair still fits in ``--seconds`` (at least twice each),
checks that tracing changed no outcome, and reports the
per-layer metrics of :mod:`perfbench.tracer` (medians over the traced
replays).  It also writes the last traced replay's spans to
``.perfbench_out/<workload>-<seed>.spans.jsonl`` and checks that the layers'
self times add up to the run time and that each workload still loads the
layer it was built for.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (replays, i.e. simulation runs, and those that
crashed or broke the correctness gate) and ``metrics``.  The lines before
it print every metric with its unit and the request counts.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import reference  # noqa: E402

#: Rough wall seconds of one replay (process start included), used only to
#: turn ``--seconds`` into a fixed number of sub-seeds.
NOMINAL_REPLAY_S = {"serve": 4.0, "churn": 2.3, "ingest": 2.8}

#: A replay that takes longer than this is treated as hung.
REPLAY_TIMEOUT_S = 120.0

#: Sub-seeds per seed: sub-seed ``i`` of seed ``n`` is ``n * SUB_SEEDS + i``.
SUB_SEEDS = 1000

#: A span may not have a self time below this (nesting is broken).
MIN_SELF_S = -1e-6

#: At least this many reaction samples, so p90 has ten beyond it.
MIN_REACT_SAMPLES = 100

#: Per-layer metrics computed across the replays of a traced run rather
#: than by one replay.
ACROSS_REPLAYS = (
    "core.server.react_ms_p50",
    "core.server.react_ms_p90",
    "trace.overhead_ratio",
)

SIM_KEYS = ("submitted", "completed", "unfinished", "dropped", "rejected", "shed")


class Replays:
    """Starts replays one after another and keeps what they report."""

    def __init__(self, workload: str, spans_path: Optional[Path]) -> None:
        self.workload = workload
        self.spans_path = spans_path
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.env = dict(os.environ)
        self.env.update(
            {
                "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
                "PYTHONHASHSEED": "0",
                "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1",
                "NUMEXPR_NUM_THREADS": "1",
            }
        )

    def run(self, seed: int, trace: bool) -> Optional[Dict]:
        self.attempted += 1
        command = [
            sys.executable,
            "-m",
            "perfbench.replay",
            "--workload",
            self.workload,
            "--seed",
            str(seed),
        ]
        if trace:
            command.append("--trace")
            if self.spans_path is not None:
                command += ["--spans", str(self.spans_path)]
        command += ["--spawned", repr(time.monotonic())]
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=REPLAY_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"replay seed {seed} timed out")
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            return self._fail(f"replay seed {seed} exited {done.returncode}: {tail[0]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["violations"]:
            return self._fail(f"replay seed {seed}: " + "; ".join(result["violations"]))
        return result

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        return None


def _out_dir() -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return out


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q))


def _same_outcome(a: Dict, b: Dict) -> bool:
    return a["sim"] == b["sim"] and a["latencies"] == b["latencies"]


Measured = Tuple[Replays, Dict[str, float], List[str]]


def measure(workload: str, seed: int, seconds: float) -> Measured:
    """The ``--trace 0`` run: end-to-end metrics over a set of sub-seeds."""
    replays = Replays(workload, None)
    count = max(3, int(seconds / NOMINAL_REPLAY_S[workload]) - 1)
    results = [replays.run(seed * SUB_SEEDS + i, trace=False) for i in range(count)]
    repeat = replays.run(seed * SUB_SEEDS, trace=False)
    results = [result for result in results if result is not None]
    lines: List[str] = []
    if replays.failed:
        return replays, {}, lines
    if not _same_outcome(results[0], repeat):
        replays.problems.append(f"sub-seed {seed * SUB_SEEDS} did not reproduce its outcome")
    timed = results + [repeat]
    keep = (
        "seed",
        "setup_s",
        "setup_wall_s",
        "import_s",
        "build_s",
        "initialize_s",
        "run_s",
        "run_wall_s",
        "host_slowdown",
        "peak_rss_mb",
    )
    (_out_dir() / f"{workload}-{seed}.replays.json").write_text(
        json.dumps(
            [{**{key: r[key] for key in keep}, "react_ms": r["react_ms"]} for r in timed]
        )
    )
    totals = {key: sum(result["sim"][key] for result in results) for key in SIM_KEYS}
    latencies = [latency for result in results for latency in result["latencies"]]
    within = sum(result["sim"]["within_limit"] for result in results)
    tokens = sum(result["sim"]["tokens"] for result in results)
    cost = sum(result["sim"]["cost_usd"] for result in results)
    submitted = totals["submitted"]
    metrics = {
        "setup_s": statistics.median(result["setup_s"] for result in timed),
        "run_s": statistics.median(result["run_s"] for result in timed),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in timed),
        "served_fraction": totals["completed"] / submitted,
        "slo_attainment": within / submitted,
        "sim_latency_p50_s": _percentile(latencies, 50),
        "sim_latency_p99_s": _percentile(latencies, 99),
        "cost_per_mtok_usd": cost / tokens * 1e6,
    }
    for name, value in metrics.items():
        if not value > 0:
            replays.problems.append(f"{name} is {value!r}, not positive")
    unserved = submitted - totals["completed"]
    lines.append(
        f"requests: attempted {submitted} failed {unserved} "
        f"(unfinished {totals['unfinished']}, shed {totals['shed']}, "
        f"rejected {totals['rejected']}, dropped {totals['dropped']})"
    )
    lines.append(
        f"replays: {len(results)} sub-seeds + 1 repeat; latency samples {len(latencies)}"
    )
    lines.append(
        "unscaled wall medians: "
        f"setup {statistics.median(r['setup_wall_s'] for r in timed):.4f} s, "
        f"run {statistics.median(r['run_wall_s'] for r in timed):.4f} s; "
        f"host slowdown {statistics.median(r['host_slowdown'] for r in timed):.3f}"
    )
    return replays, metrics, lines


def _purpose(workload: str, traced: Dict) -> List[str]:
    """Check the workload still loads the layer it was built for."""
    layers, sim = traced["layers"], traced["sim"]
    served = sim["completed"] / sim["submitted"]
    problems = []
    if workload == "serve":
        if served < 0.99:
            problems.append(f"serve: served fraction {served:.4f} < 0.99")
        if layers["trace.dataplane_share"] <= 0.5:
            problems.append(f"serve: dataplane share {layers['trace.dataplane_share']:.3f} <= 0.5")
    elif workload == "churn":
        if layers["trace.control_share"] <= 0.5:
            problems.append(f"churn: control share {layers['trace.control_share']:.3f} <= 0.5")
    elif workload == "ingest":
        if traced["largest_handler"] != "REQUEST_ARRIVAL":
            problems.append(f"ingest: largest handler is {traced['largest_handler']}")
        if served >= 0.5:
            problems.append(f"ingest: served fraction {served:.4f} >= 0.5")
        if sim["shed"] <= 0:
            problems.append("ingest: nothing was shed")
    return problems


def measure_layers(workload: str, seed: int, seconds: float) -> Measured:
    """The ``--trace 1`` run: per-layer metrics of the first sub-seed."""
    replays = Replays(workload, _out_dir() / f"{workload}-{seed}.spans.jsonl")
    sub_seed = seed * SUB_SEEDS
    plain: List[Dict] = []
    traced: List[Dict] = []
    start = time.monotonic()
    pair_s = 0.0
    while len(traced) < 2 or time.monotonic() - start + pair_s <= seconds:
        pair_start = time.monotonic()
        for bucket, trace in ((plain, False), (traced, True)):
            result = replays.run(sub_seed, trace=trace)
            if result is None:
                return replays, {}, []
            bucket.append(result)
        pair_s = time.monotonic() - pair_start
    for result in plain[1:] + traced:
        if not _same_outcome(plain[0], result):
            replays.problems.append(f"sub-seed {sub_seed} outcome changed between replays")
            break
    for result in traced:
        layers = result["layers"]
        if layers["trace.accounting_error_ratio"] > reference.ACCOUNTING_TOLERANCE:
            replays.problems.append(
                f"self times miss run_s by {layers['trace.accounting_error_ratio']:.4f}"
            )
        if result["min_self_s"] < MIN_SELF_S:
            replays.problems.append(f"a span has negative self time {result['min_self_s']!r}")
    replays.problems.extend(_purpose(workload, traced[-1]))
    metrics = {
        name: statistics.median(result["layers"][name] for result in traced)
        for name, *_rest in reference.PER_LAYER
        if name not in ACROSS_REPLAYS
    }
    react = [sample for result in plain for sample in result["react_ms"]]
    if len(react) < MIN_REACT_SAMPLES:
        replays.problems.append(f"only {len(react)} reaction samples")
        react = react or [0.0]
    metrics["core.server.react_ms_p50"] = _percentile(react, 50)
    metrics["core.server.react_ms_p90"] = _percentile(react, 90)
    metrics["trace.overhead_ratio"] = statistics.median(
        result["run_s"] for result in traced
    ) / statistics.median(result["run_s"] for result in plain)
    lines = [
        f"replays: sub-seed {sub_seed}, {len(plain)} untraced + {len(traced)} traced; "
        f"reaction samples {len(react)}; spans in {replays.spans_path.relative_to(ROOT)}"
    ]
    return replays, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(reference.WORKLOADS))
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=reference.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        replays, metrics, lines = measure_layers(args.workload, args.seed, args.seconds)
    else:
        replays, metrics, lines = measure(args.workload, args.seed, args.seconds)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {reference.UNITS[name]}")
    for line in lines:
        print(f"  {line}")
    for problem in replays.problems:
        print(f"  FAILED: {problem}")
    correct = not replays.problems and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": replays.attempted,
                "failed": replays.failed,
                "metrics": {
                    name: {"value": value, "unit": reference.UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
