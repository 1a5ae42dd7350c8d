"""Benchmark of vortexmoduli: CLI report latency, stratum-sweep and
wide-volume throughput, and a traced per-layer run.

    python3 perfbench/run.py --workload demo-reports --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; it uses the package in ``src/`` and the
oracles in ``tests/oracles.py`` of that checkout, and builds nothing.

Workloads (all closed loop, one caller, no threads; see workloads.py):
  demo-reports   ``vortexmoduli report`` on the four demo models, each in a
                 fresh interpreter, stdout compared byte for byte.
  stratum-sweep  stratum maximum (one LP per nonempty subset) and minimal
                 support of 14 seeded weight systems a pass, k = 1..3,
                 n = 4..7, ten sets of them a run, checked against the
                 brute-force oracles.
  wide-volumes   Kahler class, volume and scalar curvature of 10 seeded
                 stable models (values up to degree 34 in pi), rendered at
                 12 and 30 digits from a pi enclosure warmed to 100
                 digits, checked against independent routes.

A run repeats passes until their timed regions add up to ``--seconds``.
Every pass runs in a fresh worker process (see worker.py) on inputs drawn
from the seed; a run holds at least one pass of each of the workload's
input sets (see workloads.py).  Every time reported is a wall time
rescaled to a fixed machine speed by a reference loop run next to it
(clock.py), because the speed of a shared virtual machine swings by half
over a run.  Each instance's latency is the median of its rescaled
latencies over the passes of a run that ran it; the latency percentiles
are taken over these per-instance latencies, and ``instances_per_s`` is
the number of instances over their sum.  ``setup_s`` is the median over
dedicated set-up-only workers, each rescaled by the reference loop run
just before and after it.  The summary also prints the plain wall-clock
figures.  With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the run instead pairs an untraced and a
traced process on each of a fixed number of passes, so that counts repeat
exactly for a seed, and the result holds the per-layer metrics.  The last
line of stdout is the result as JSON; the lines before it are a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
TRACE_PASSES = 3
SETUPS = 9
# Start no new pass once this much wall time has gone, so a run ends well
# within three minutes even on a slow commit; a run still going after
# RUN_LIMIT_S is stopped with an error.
WALL_LIMIT_S = 120.0
RUN_LIMIT_S = 170

REQUIRED = {
    "demo-reports": ["src/vortexmoduli/cli.py"] + [f"demos/models/{m}.json" for m in workloads.DEMO_MODELS],
    "stratum-sweep": ["src/vortexmoduli/__init__.py", "tests/oracles.py"],
    "wide-volumes": ["src/vortexmoduli/__init__.py"],
}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn_pass(workload: str, seed: int, pass_index: int, trace: bool, setup_only: bool = False):
    """Run one worker; returns (set-up seconds, pass result or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(pass_index),
            "1" if trace else "0"] + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest = proc.stdout.read()
        except BenchmarkError:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI process it started
            raise
        code = proc.wait()
    if code != 0 or first.strip() != "ready":
        raise BenchmarkError(f"worker for {workload} pass {pass_index} exited with code {code}")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def instance_latencies(workload: str, passes: list[dict], key: str = "scaled_latencies_s") -> list[float]:
    """Each instance's median latency over the passes that ran its input set
    (pass i runs set i mod ``input_sets``), for every set that ran."""
    sets = workloads.WORKLOADS[workload].input_sets
    return [statistics.median(xs) for s in range(sets) for xs in zip(*(p[key] for p in passes[s::sets]))]


def percentiles(latencies: list[float]) -> tuple[float, float]:
    # Inclusive: with few instances the default method extrapolates past the slowest.
    return statistics.median(latencies), statistics.quantiles(latencies, n=10, method="inclusive")[8]


def measured_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Untraced passes until their timed regions add up to ``seconds``."""
    passes = []
    started = time.perf_counter()
    timed = 0.0
    min_passes = max(MIN_PASSES, workloads.WORKLOADS[workload].input_sets)
    while (timed < seconds or len(passes) < min_passes) and time.perf_counter() - started < WALL_LIMIT_S:
        result = spawn_pass(workload, seed, len(passes), trace=False)[1]
        passes.append(result)
        timed += result["elapsed_s"]
    setups, references = [], [clock.reference_s()]
    for i in range(SETUPS):
        setups.append(spawn_pass(workload, seed, i, trace=False, setup_only=True)[0])
        references.append(clock.reference_s())

    latencies = instance_latencies(workload, passes)
    p50, p90 = percentiles(latencies)
    wall = instance_latencies(workload, passes, "latencies_s")
    wall_p50, wall_p90 = percentiles(wall)
    instances = sum(p["instances"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(clock.scaled(s, *references[i:i + 2]) for i, s in enumerate(setups)), "s"),
        "instance_s.p50": (p50, "s"),
        "instance_s.p90": (p90, "s"),
        "instances_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
    }
    digits = [p["pi_max_digits"] for p in passes if p["pi_max_digits"] is not None]
    summary = [
        f"{workload} seed {seed}: {len(passes)} passes, {instances} instances, {timed:.2f} s timed",
        f"setup_s: median of {len(setups)} set-up-only workers, rescaled "
        f"(wall median {statistics.median(setups):.4f} s)",
        f"instance_s.*, instances_per_s: {len(latencies)} instances, "
        f"median of each over the passes that ran it ({len(passes)} passes), rescaled",
        f"wall clock: p50 {wall_p50:.4f} s, p90 {wall_p90:.4f} s, {len(wall) / sum(wall):.4f} instances/s",
        f"failed_ratio = {failed / instances:.4f} ({failed} failed of {instances} instances)",
    ]
    if digits:
        summary.append(f"scalars.pi_enclosure.max_digits = {max(digits)} (max over passes)")
    return {"attempted": instances, "failed": failed, "metrics": metrics}, summary


def traced_run(workload: str, seed: int) -> tuple[dict, list[str]]:
    """An untraced and a traced process on each of the first passes,
    alternating which of the two runs first."""
    plain, traced, totals = [], [], {}
    for pass_index in range(TRACE_PASSES):
        for trace in (False, True) if pass_index % 2 == 0 else (True, False):
            result = spawn_pass(workload, seed, pass_index, trace=trace)[1]
            (traced if trace else plain).append(result)
        tracer.combine(totals, traced[-1]["counters"])

    def rate(passes):  # computed as instances_per_s is
        latencies = instance_latencies(workload, passes)
        return len(latencies) / sum(latencies)

    values = {key: (value, "count") for key, value in totals.items()}
    for dotted in tracer.TRACED:
        for key in (f"{dotted}.busy_s", f"{dotted}.self_s"):
            values[key] = (totals[key], "s")
    lp_solves = totals["cones.in_cone_interior.calls"]
    approx_calls = totals["scalars.PiPoly.approx.calls"]
    values["cones.in_cone_interior.true_ratio"] = (
        totals["cones.in_cone_interior.true"] / lp_solves if lp_solves else 0.0, "ratio")
    values["scalars.PiPoly.approx.enclosures_per_call"] = (
        totals["scalars.PiPoly.approx.enclosure_calls"] / approx_calls if approx_calls else 0.0, "ratio")
    values["scalars.pi_enclosure.max_digits"] = (totals["scalars.pi_enclosure.max_digits"], "digits")
    values["trace.instances_per_s.untraced"] = (rate(plain), "1/s")
    values["trace.instances_per_s.traced"] = (rate(traced), "1/s")
    values["trace.overhead_ratio"] = (rate(plain) / rate(traced) - 1, "ratio")

    instances = sum(p["instances"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)
    ranked = sorted(tracer.TRACED, key=lambda d: -totals[f"{d}.self_s"])[:5]
    summary = [
        f"{workload} seed {seed}: traced {len(traced)} passes, {instances} instances in both runs",
        f"failed_ratio = {failed / instances:.4f} ({failed} failed of {instances} instances)",
        f"cones.in_cone_interior.true_ratio base: {lp_solves} LPs solved",
        f"scalars.PiPoly.approx.enclosures_per_call base: {approx_calls} approx calls",
        "largest self time: " + ", ".join(f"{d} {totals[d + '.self_s']:.3f} s" for d in ranked),
    ]
    return {"attempted": instances, "failed": failed, "metrics": values}, summary


def _on_alarm(signum, frame):
    raise BenchmarkError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED[args.workload] if not (ROOT / path).is_file()]
    if missing:
        print(f"benchmark error: missing {', '.join(missing)} in {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        if args.trace:
            result, summary = traced_run(args.workload, args.seed)
        else:
            result, summary = measured_run(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    signal.alarm(0)

    metrics = {}
    for entry in wanted:
        value, unit = result["metrics"][entry["name"]]
        if unit != entry["unit"]:
            raise AssertionError(f"{entry['name']} measured in {unit}, declared in {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
        summary.append(f"  {entry['name']} = {value:.6g} {unit}")
    for line in summary:
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
