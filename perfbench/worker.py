"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACE [--setup-only]

Set-up (interpreter start, ``import vortexmoduli``, generation of the
pass's inputs) ends with the line ``ready`` on stdout, so the caller can
time it.  The worker then runs the pass (the timed region), checks every
outcome, and prints one JSON line with the pass's results.  The reference
loop of clock.py runs before the first instance and after each one, so
every instance's latency is also reported rescaled to the reference
speed.  With TRACE 1 the layer tracer wraps the program during the timed
region and the spans are written under ``perfbench/out``.

Each pass gets a fresh process because the program keeps process-global
state that changes its speed: the pi enclosure cache only ever tightens,
and a tighter enclosure makes later sign and approx calls slower.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def main() -> int:
    workload_name, seed, pass_index = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    trace = sys.argv[4] == "1"
    import vortexmoduli

    if Path(vortexmoduli.__file__).resolve().parent != ROOT / "src" / "vortexmoduli":
        raise SystemExit(f"vortexmoduli imported from {vortexmoduli.__file__}, not from this checkout")
    import clock
    import tracer
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    instances = workload.generate(seed, pass_index % workload.input_sets)
    print("ready", flush=True)
    if "--setup-only" in sys.argv:
        return 0

    stem = f"{workload_name}-s{seed}-p{pass_index}"
    recorder = None
    if trace:
        OUT.mkdir(exist_ok=True)
        if not workload.children:
            recorder = tracer.Tracer()
            recorder.install()
    outcomes: list = []
    latencies: list[float] = []
    references = [clock.reference_s()]
    errors = 0
    for i, instance in enumerate(instances):
        spans_path = OUT / f"{stem}-{i}.json" if trace and workload.children else None
        t0 = time.perf_counter()
        try:
            outcomes.append(workload.run(instance, spans_path))
        except Exception:  # an unexpected error is a failed instance; keep going
            traceback.print_exc()
            outcomes.append(None)
            errors += 1
        latencies.append(time.perf_counter() - t0)
        references.append(clock.reference_s())
    scaled = [clock.scaled(wall, *references[i:i + 2]) for i, wall in enumerate(latencies)]
    usage = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(usage).ru_maxrss
    # Digits of the tightest pi enclosure this process needed (the CLI
    # processes of demo-reports report theirs in their spans).
    pi_max_digits = None if workload.children else vortexmoduli.scalars._enclosure_cache[0]

    counters: dict = {}
    if recorder is not None:
        recorder.uninstall()
        recorder.write(OUT / f"{stem}.json", pi_max_digits=pi_max_digits)
        counters = tracer.aggregate(recorder.table(pi_max_digits=pi_max_digits))
    elif trace:
        for i in range(len(instances)):
            tracer.combine(counters, tracer.aggregate(tracer.read(OUT / f"{stem}-{i}.json")))

    sys.path.insert(0, str(ROOT / "tests"))
    failed = errors + sum(
        1 for inst, out in zip(instances, outcomes) if out is not None and not workload.check(inst, out)
    )
    print(json.dumps({
        "instances": len(instances),
        "failed": failed,
        "elapsed_s": sum(latencies),
        "latencies_s": latencies,
        "scaled_latencies_s": scaled,
        "rss_kb": rss_kb,
        "pi_max_digits": pi_max_digits,
        "counters": counters,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
