#!/usr/bin/env python3
"""eigtrack benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload droop_pencil --seed 1 --seconds 20 --trace 0

Run from the repository root; eigtrack is imported from ``src/``.  Pin
BLAS threads from the outside (``env OPENBLAS_NUM_THREADS=1
OMP_NUM_THREADS=1``), as the command in ``BENCHMARK.json`` does.

A run sets up once (import eigtrack, build the workload's model,
provider and configs), then repeats the workload's job until
``--seconds`` have passed and at least ``MIN_REPEATS`` repeats are done.
Every repeat after the first builds a fresh model and provider, so each
starts from the same cold caches.  Times are scaled to a reference core
speed by the probe sampler in ``hostspeed.py``, which runs from the
process's start to the end of the timed loop; raw wall times go to the
result file.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repeats and reports the per-layer metrics.  Each repeat's trajectories
are checked (``checks.py``) right after its timed region and then
dropped, so memory does not grow with the number of repeats.  The
last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; details go to
``perfbench/out/``.
"""

import time

# CPU time the interpreter used before this line; added to set-up time so
# set-up counts from the process's start.
_START_CPU = time.process_time()
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_REPEATS = 3


def main(argv=None) -> int:
    # started before numpy, scipy and eigtrack are imported, so the
    # set-up is sampled too
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    try:
        ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
        ap.add_argument("--workload", required=True)
        ap.add_argument("--seed", type=int, required=True)
        ap.add_argument("--seconds", type=float, required=True)
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = ap.parse_args(argv)
        if not args.seconds > 0:
            ap.error("--seconds must be positive")
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        try:
            import workloads
        except ImportError as exc:
            print(f"perfbench: cannot import eigtrack from {ROOT}/src: {exc}",
                  file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
        return bench(args, sampler, workloads)
    finally:
        sampler.stop()


def bench(args, sampler, workloads) -> int:
    build = workloads.WORKLOADS[args.workload]
    built = build()
    raw_setup_s, setup_s = sampler.measure(_START - _START_CPU, time.perf_counter())

    import checks
    import tracing

    def timed_run(built):
        """Raw and reference-core seconds of one repeat, and its results."""
        t0 = time.perf_counter()
        results = workloads.run(built)
        raw, ref = sampler.measure(t0, time.perf_counter())
        return raw, ref, results

    checker = peak_rss_mb = None
    attempted, errors, problems = 0, [], []

    def tally(results):
        """Count and check one repeat's sweeps; keep only the findings."""
        nonlocal attempted
        attempted += len(results)
        errors.extend(r.error for r in results if r.error)
        problems.extend(checker.check(results))

    tracer = tracing.Tracer() if args.trace else None
    raw_times, times, traced_times, layer_runs = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        raw, dt, results = timed_run(built or build())
        built = None
        raw_times.append(raw)
        times.append(dt)
        if checker is None:
            # set-up plus one job; read before the checker builds its oracles
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checker = checks.make_checker(args.workload, build)
        tally(results)
        del results
        if tracer is not None:
            fresh = build()
            tracer.reset()
            tracer.instrument_model(fresh.model)
            tracer.install()
            try:
                raw, dt, results = timed_run(fresh)
            finally:
                tracer.uninstall()
            traced_times.append(dt)
            layer_runs.append(tracing.layer_metrics(tracer.spans, results,
                                                    time_scale=dt / raw))
            problems += tracing.newton_lu_problems(tracer.spans, results)
            tally(results)
            del results
        if len(times) >= MIN_REPEATS and time.perf_counter() >= deadline:
            break
    sampler.stop()

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "track_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: (statistics.median(run[name] for run in layer_runs), unit)
                   for name, unit in tracing.metric_names() if name in layer_runs[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(traced_times) - statistics.median(times), "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, stem + ".spans.jsonl"))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, raw_setup_s=raw_setup_s,
                       raw_repeat_s=raw_times, repeat_s=times,
                       traced_repeat_s=traced_times,
                       probe_s_quartiles=statistics.quantiles(
                           [d for _, _, d in sampler.samples], n=4),
                       problems=problems, errors=errors), fh, indent=1)

    print(f"{args.workload} seed={args.seed}: {len(times)} repeats, "
          f"{attempted} sweeps, {len(errors)} failed, "
          f"{len(problems)} check problems")
    for msg in (problems + errors)[:20]:
        print(f"  {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
