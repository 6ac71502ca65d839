"""botguard benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload chain-separable --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; botguard is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (tracing off, times scaled by the host's
speed as ``speed.py`` describes); with ``--trace 1`` they are the per-layer
ones of a traced repetition.  Run details (stamp, workload descriptors,
digests, every repetition) go to
``.bench_results/<workload>-seed<seed>-trace<trace>.json``.

``--record`` runs one checked repetition and stores its output digests in
``bench/digests.json`` under the seed; later runs on that seed must match.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
# Later performance claims must also hold on this seed; it is never used
# while tuning the benchmark or a change.
HELD_OUT_SEED = 7919
SETUP_PROBES = 7
MIN_REPS = 3


def import_program():
    """Import botguard from this checkout's ``src``; refuse anything else."""
    src = ROOT / "src"
    if not (src / "botguard" / "__init__.py").is_file():
        sys.exit(f"error: no botguard sources under {src}")
    sys.path.insert(0, str(src))
    import botguard
    if Path(botguard.__file__).resolve().parent != (src / "botguard").resolve():
        sys.exit(f"error: botguard imported from {botguard.__file__}, not {src}")


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def git_commit():
    """The checkout's commit, read from ``.git`` without running git."""
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
    return "unknown"


def run_stamp(seed):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def setup_probe(probe_args):
    """Seconds from starting a fresh interpreter to its first flow, raw and
    in reference seconds (the kernel is timed just before and after)."""
    from speed import REFERENCE_S, kernel_seconds
    kernel = kernel_seconds()
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *probe_args],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    raw = float(done.stdout.split()[-1]) - start
    kernel = (kernel + kernel_seconds()) / 2
    return raw, raw * REFERENCE_S / kernel


def repeat(workload, state, seconds, min_reps, traced=False, between=None,
           metered=False):
    """Repetitions until ``seconds`` have passed and at least ``min_reps`` ran.
    ``between`` runs before each repetition, outside its timing.  With
    ``metered`` each repetition runs under a ``Speedometer`` and gets its
    times in reference seconds.  Returns ``[(rep, tracer)]``; the loop stops
    at the first failed repetition."""
    from speed import Speedometer
    from tracing import Tracer
    done = []
    start = time.perf_counter()
    while len(done) < min_reps or time.perf_counter() - start < seconds:
        if between is not None:
            between()
        # every CLI command of a real run starts in a fresh process
        gc.collect()
        tracer = Tracer() if traced else None
        if metered:
            with Speedometer() as meter:
                rep = workload.run(state, tracer)
            if rep.error is None:
                rep.scaled_s = meter.scaled(*rep.timed)
                rep.scaled_detect_s = meter.scaled(*rep.detect)
                rep.unscaled_s = meter.raw(*rep.timed)
                rep.unscaled_detect_s = meter.raw(*rep.detect)
        else:
            rep = workload.run(state, tracer)
        done.append((rep, tracer))
        if rep.error:
            break
    return done


def best_rate(reps, attr):
    """Flows per second of the fastest repetition."""
    return max(rep.flows / getattr(rep, attr) for rep in reps)


def median_rate(reps, attr):
    """Flows per second of the median repetition."""
    return statistics.median(rep.flows / getattr(rep, attr) for rep in reps)


def load_digests():
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def verify(workload, state, reps, recorded):
    """Check the first rep in full and every later rep by its digests.

    Returns (failed flows, notes).  A rep that raised or exited non-zero fails
    all its flows, and so does a later rep whose outputs differ from the
    first rep's.  Outputs that differ from the digests recorded for this seed
    fail the whole run.
    """
    first = reps[0]
    everything = sum(rep.flows for rep in reps)
    if first.error is not None:
        return everything, [f"rep 0: {first.error}"]
    first_failed, notes = workload.check(state, first)
    failed = first_failed = min(first_failed, first.flows)
    for index, rep in enumerate(reps[1:], start=1):
        if rep.error is not None:
            notes.append(f"rep {index}: {rep.error}")
            failed += rep.flows
        elif rep.digests != first.digests:
            notes.append(f"rep {index}: outputs differ from rep 0")
            failed += rep.flows
        else:
            failed += first_failed  # same outputs, same faults
    if recorded is not None and recorded != first.digests:
        notes.append("outputs differ from the digests recorded for this seed")
        failed = everything
    return failed, notes


def record(workload, state, seed):
    rep, _ = repeat(workload, state, 0, 1)[0]
    failed, notes = verify(workload, state, [rep], None)
    if failed:
        sys.exit(f"error: not recording digests of a failing run: {notes}")
    digests = load_digests()
    digests.setdefault(workload.name, {})[str(seed)] = rep.digests
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload.name} seed {seed}: {rep.digests}")


def end_to_end(workload, state, seconds):
    """Throughputs in flows per reference second (see ``speed.py``) of the
    median repetition.  The first repetition warms up, runs without the
    speedometer and is not timed; the peak RSS is read right after it, as a
    fresh process running the workload once would reach it."""
    start = time.perf_counter()
    warm = [rep for rep, _ in repeat(workload, state, 0, 1)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if warm[0].error is not None:
        return warm, {}, {}
    # set-up probes are spread between repetitions so that they sample the
    # host over the whole run, as the repetitions do
    probe_args = workload.setup_probe_args(state)
    setup = []  # (raw, scaled)

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(probe_args))

    left = seconds - (time.perf_counter() - start)
    reps = warm + [rep for rep, _ in repeat(workload, state, left, MIN_REPS,
                                            between=probe, metered=True)]
    while len(setup) < SETUP_PROBES:
        probe()
    ok = [rep for rep in reps[1:] if rep.error is None]
    metrics = {
        "flows_per_s": median_rate(ok, "scaled_s") if ok else 0.0,
        "detect_flows_per_s": median_rate(ok, "scaled_detect_s") if ok else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(scaled for _, scaled in setup),
    }
    unscaled = {
        "flows_per_s": median_rate(ok, "unscaled_s") if ok else 0.0,
        "detect_flows_per_s": median_rate(ok, "unscaled_detect_s") if ok else 0.0,
        "setup_s": statistics.median(raw for raw, _ in setup),
    }
    return reps, metrics, {"setup_s_samples": setup, "unscaled": unscaled}


def traced(workload, state, seconds):
    """Untraced reps for half the time, then traced reps for the rest; the
    per-layer metrics come from the fastest traced rep."""
    plain = [rep for rep, _ in repeat(workload, state, seconds / 2, 1)]
    if plain[-1].error is not None:
        return plain, {}, {}
    runs = repeat(workload, state, seconds / 2, 1, traced=True)
    reps = plain + [rep for rep, _ in runs]
    if runs[-1][0].error is not None:
        return reps, {}, {}
    rep, tracer = min(runs, key=lambda pair: pair[0].wall_s)
    metrics = tracer.layer_metrics(rep.wall_s)
    metrics.update(workload.layer_counts(state, rep, tracer))
    metrics["trace.overhead"] = (
        best_rate([r for r, _ in runs], "wall_s") / best_rate(plain, "wall_s"))
    extra = {"traced_reps": len(runs), "untraced_reps": len(plain),
             "self_plus_unattributed_s": tracer.root_seconds()
             + metrics["trace.unattributed_s"]}
    return reps, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests and exit")
    args = parser.parse_args(argv)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    import_program()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.prepare(work, args.seed)
        if args.record:
            record(workload, state, args.seed)
            return 0
        measure = traced if args.trace else end_to_end
        reps, metrics, extra = measure(workload, state, args.seconds)
        recorded = load_digests().get(workload.name, {}).get(str(args.seed))
        failed, notes = verify(workload, state, reps, recorded)
        attempted = sum(rep.flows for rep in reps)
        # descriptors and outcome read the outputs, so only checked ones
        checked = reps[0].error is None and not failed
        details = {
            "workload": workload.name,
            "trace": args.trace,
            "stamp": run_stamp(args.seed),
            "descriptors": workload.describe(state) if checked else {},
            "outcome": workload.outcome(state) if checked else {},
            "digests": reps[0].digests,
            "digests_recorded": recorded is not None,
            "reps": [{"wall_s": rep.wall_s, "detect_s": rep.detect_s,
                      "scaled_s": rep.scaled_s,
                      "scaled_detect_s": rep.scaled_detect_s,
                      "unscaled_s": rep.unscaled_s,
                      "unscaled_detect_s": rep.unscaled_detect_s,
                      "error": rep.error} for rep in reps],
            "notes": notes,
            "metrics": metrics,
            **extra,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    if metrics and set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                 "are not both measured and declared in BENCHMARK.json")
    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not notes and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
