"""Benchmark of dropctrl's worst-case analyses, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload study-lp --seed 1 --seconds 40 --trace 0

Each run draws the workload's plants, warms up, then repeats the
workload's fixed batch of public ``worst_*`` calls (closed loop, one call
after another, one process, BLAS pinned to one thread) for about
``--seconds`` (at least three times); each call counts with the mean of
the middle half of its times over the batches.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches and reports the per-layer metrics of the
fastest traced batch and the tracing overhead.  Afterwards every answer of the last batch is
checked against the independent references in ``reference.py``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details of the run, and the
spans of a traced run, are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

# pinned before numpy loads so BLAS starts no worker threads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# fresh interpreters timed before each untraced batch, so set-up time is
# sampled across the run rather than at one moment of it
SETUP_PROBES = 3
# each call is timed at this many moments of a run at least
MIN_BATCHES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import dropctrl from this checkout's sources, never from elsewhere."""
    package = SRC / "dropctrl"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no dropctrl sources at {package}")
    sys.path.insert(0, str(SRC))
    import dropctrl

    if Path(dropctrl.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported dropctrl from {dropctrl.__file__}, not {package}")


class Batch:
    """One pass over the workload's calls: times, results and a digest.

    ``call_seconds`` holds the wall time of each call in batch order, a
    plant's calls including their serialization; ``plant_seconds`` the
    time of each plant's ``worst_*`` calls alone.
    """

    def __init__(self, seconds, cpu_seconds, call_seconds, plant_seconds, results):
        self.seconds = seconds
        self.cpu_seconds = cpu_seconds
        self.call_seconds = call_seconds
        self.plant_seconds = plant_seconds
        self.results = results  # (problem, plant or None, result)

    def digest(self) -> str:
        h = hashlib.sha256()
        for problem, _plant, result in self.results:
            if hasattr(result, "per_signal"):
                h.update(repr((problem, result.worst_value, str(result.argmax_signal),
                               [(e.value, e.status) for e in result.per_signal])).encode())
            else:
                h.update(repr((problem, result.to_strings())).encode())
        return h.hexdigest()


def _no_span(name, layer):
    return nullcontext()


def run_batch(workload, plants, tracer=None) -> tuple[Batch, int]:
    """Run the workload's calls once; returns the batch and the bytes serialized."""
    from dropctrl import serialize

    span = tracer.span if tracer is not None else _no_span
    results, call_seconds, plant_seconds, serialized = [], [], [], 0
    with span("batch", "bench"):
        start, cpu_start = time.perf_counter(), time.process_time()
        for plant in plants:
            spent = 0.0
            for call in workload.plant_calls(plant.sys):
                with span(call.problem, "bench"):
                    t0 = time.perf_counter()
                    result = call.run()
                    t1 = time.perf_counter()
                    with span("report", "serialize"):
                        serialized += len(json.dumps(serialize.report_to_dict(result)))
                spent += t1 - t0
                call_seconds.append(time.perf_counter() - t0)
                results.append((call.problem, plant, result))
            plant_seconds.append(spent)
        for call in workload.extra_calls():
            with span(call.problem, "bench"):
                t0 = time.perf_counter()
                result = call.run()
            call_seconds.append(time.perf_counter() - t0)
            results.append((call.problem, None, result))
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
    return Batch(seconds, cpu_seconds, call_seconds, plant_seconds, results), serialized


def run_batches(workload, plants, seconds, tracer, before_batch=None):
    """Repeat the batch while another one fits in ``seconds``, and at least
    ``MIN_BATCHES`` times untraced; with a tracer, untraced and traced
    batches alternate.  ``before_batch()`` runs before each untraced
    batch.  Only the last batch keeps its results, so every batch starts
    from the same heap.  Returns the untraced and traced batches, the layer
    metrics and spans of the fastest traced one, and every batch's digest."""
    untraced, traced, digests = [], [], []
    layers, spans = None, None
    start = time.perf_counter()
    while True:
        untraced_next = tracer is None or len(untraced) <= len(traced)
        if untraced_next and before_batch is not None:
            before_batch()
        gc.collect()
        if untraced_next:
            batch = run_batch(workload, plants)[0]
            untraced.append(batch)
        else:
            tracer.install()
            try:
                batch, serialized = run_batch(workload, plants, tracer)
            finally:
                tracer.uninstall()
            traced.append(batch)
            if batch.seconds == min(b.seconds for b in traced):
                reports = [(p, r) for p, _plant, r in batch.results if hasattr(r, "per_signal")]
                layers = tracer.layer_metrics(reports)
                layers["serialize.bytes"] = serialized
                spans = tracer.spans
            tracer.reset()
        digests.append(batch.digest())
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if (len(untraced) >= MIN_BATCHES and (tracer is None or traced)
                and elapsed + elapsed / done > seconds):
            return untraced, traced, layers, spans, digests
        batch.results = None


def middle_mean(times) -> float:
    """Mean of the times left after dropping the fastest and slowest quarter.

    The shared machine changes speed by up to 1.7x for tens of seconds and
    in bursts of a few: dropping the quarters removes the bursts, and the
    mean, unlike a median, moves smoothly with the share of the run spent
    at each speed instead of jumping from one speed to the other."""
    times = sorted(times)
    cut = len(times) // 4
    return statistics.fmean(times[cut:len(times) - cut])


def measure_setup(args) -> list[float]:
    """Wall times of ``SETUP_PROBES`` fresh interpreters that import
    dropctrl and draw the plants."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def machine_info() -> dict:
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def verify(workload, seed, batch, consistent):
    """Check the last batch's answers; returns the checker and the self-check misses."""
    import numpy as np

    import reference
    from workloads import check_plants

    checker = reference.Checker()
    missed = reference.self_check()
    for index, (problem, plant, result) in enumerate(batch.results):
        where = f"{problem}@{plant.method}#{plant.index}" if plant else problem
        rng = np.random.default_rng([seed, index])
        sys_ = plant.sys if plant else None
        reference.check_call(checker, problem, sys_, result, rng, where)
    reference.check_modes(checker, workload.name, check_plants(seed))
    if not consistent:
        missed.append("batches returned different results")
    return checker, missed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from spans import PER_LAYER_METRICS, Tracer, write_spans
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    plants = workload.plants(args.seed)
    if args.setup_probe:
        return 0

    warm_up()
    tracer = Tracer() if args.trace else None
    setup = []
    untraced, traced, layers, spans, digests = run_batches(
        workload, plants, args.seconds, tracer,
        None if args.trace else lambda: setup.extend(measure_setup(args)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    last = next(b for b in untraced + traced if b.results is not None)
    checker, missed = verify(workload, args.seed, last, len(set(digests)) == 1)
    correct = not missed

    run_s = sum(middle_mean(times) for times in zip(*(b.call_seconds for b in untraced)))
    analyses = [middle_mean(times) for times in zip(*(b.plant_seconds for b in untraced))]
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
        untraced_s = min(b.seconds for b in untraced)
        metrics["trace.untraced_run_s"]["value"] = untraced_s
        metrics["trace.overhead"]["value"] = min(b.seconds for b in traced) / untraced_s - 1.0
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "analysis_s.p50": {"value": statistics.median(analyses), "unit": "s"},
            "ok_frac": {"value": 1.0 - checker.failed / checker.attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    info = machine_info()
    fail_frac = checker.failed / checker.attempted
    print(f"machine: {info['cpu']}, {info['cpus']} cpus, {info['platform']}")
    print(f"versions: python {info['python']}, numpy {info['numpy']}, BLAS {info['blas']}, "
          f"threads {info['blas_threads']}")
    print(f"workload {workload.name} seed {args.seed}: {len(plants)} plants, "
          f"{len(untraced)} untraced + {len(traced)} traced batches")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  analysis_s.p50 samples          {len(analyses)} plant analyses")
    print(f"  fail_frac                        {fail_frac:.6g} "
          f"({checker.failed} of {checker.attempted} verdicts; {len(checker.unresolved)} unresolved)")
    for line in checker.failures[:8]:
        print(f"  failed: {line}")
    for (where, why), count in sorted(Counter((" ".join(c.split()[:2]), why) for c, why in checker.unresolved).items()):
        print(f"  unresolved: {count:4d} {where}: {why}")
    for line in checker.logged:
        print(f"  logged (not counted): {line}")
    for line in missed:
        print(f"  SELF-CHECK: {line}")
    if args.trace:
        total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
        print(f"  layer self times sum to {total:.6g} s of traced run_s "
              f"{metrics['trace.run_s']['value']:.6g} s")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "machine": info, "metrics": metrics, "batch_seconds": [b.seconds for b in untraced],
        "call_seconds": [b.call_seconds for b in untraced],
        "batch_cpu_seconds": [b.cpu_seconds for b in untraced],
        "traced_batch_seconds": [b.seconds for b in traced], "plant_seconds": analyses,
        "plant_seconds_per_batch": [b.plant_seconds for b in untraced],
        "setup_seconds": setup, "fail_frac": fail_frac, "failed": checker.failed,
        "attempted": checker.attempted, "unresolved": checker.unresolved,
        "failures": checker.failures, "logged": checker.logged, "self_check_missed": missed,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if spans is not None:
        write_spans(OUT / f"{stem}-spans.json.gz", spans)

    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
