"""mcselect benchmark: one workload per run, timed through the library calls
that `mcselect select` and `mcselect mcmc` make, with every output checked.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 50 --trace 0

Runs whole rounds for about --seconds (at least two), then checks every
round's outputs.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (setup_s as the median over rounds, solve_s as the mean
per round, and the process's peak_rss_mb); with --trace 1 they are the
per-layer ones from span tracing, means per round.  Exit status 1 means a
check failed, 2 that mcselect could not be imported from the checkout's
src/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-suite", "cw12-certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, write every span as a JSON line here")
    return parser.parse_args(argv)


def limit_blas_threads() -> None:
    """One BLAS thread, set before numpy loads: the run is one thread on a
    shared host, so a busy neighbouring CPU cannot stall a BLAS call."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import mcselect from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mcselect
    except ImportError as err:
        print(f"perfbench: cannot import mcselect from {src}: {err}", file=sys.stderr)
        sys.exit(2)
    if Path(mcselect.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: mcselect was imported from {mcselect.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    import_program()
    import tracing
    import workloads

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        clocks, results, layers = [], [], []
        start = perf_counter()
        while True:
            clock = workloads.Clock()
            if tracer is not None:
                first = tracer.mark()
                tracer.recording = True
            t0 = perf_counter()
            results.append(workload.round(clock))
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
                layers.append(tracer.round_metrics(first, wall))
            clocks.append(clock)
            # start every round from the same collector state, however many
            # results earlier rounds have kept
            gc.collect()
            gc.freeze()
            print(f"perfbench: {args.workload} round {len(clocks)}: setup {clock.setup:.4f} s, "
                  f"solve {clock.solve:.4f} s", file=sys.stderr)
            # stop where the measured time comes nearest to --seconds: the
            # next round, as long as this one, would end more than half a
            # round after it
            if len(clocks) >= MIN_ROUNDS and perf_counter() - start + wall / 2 > args.seconds:
                break
        rss = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            if args.spans is not None:
                tracer.dump(args.spans)

        report = workloads.Report()
        workload.check(results, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    # setup: median over rounds.  solve: mean per round, which averages the
    # host's slow and fast periods instead of picking one of them
    setup = statistics.median(c.setup for c in clocks)
    solve = statistics.fmean(c.solve for c in clocks)
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "solve_s": {"value": solve, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    else:
        metrics = {name: {"value": statistics.fmean(layer[name] for layer in layers),
                          "unit": tracing.unit_of(name)} for name in layers[0]}
        metrics["trace.setup_s"] = {"value": setup, "unit": "s"}
        metrics["trace.solve_s"] = {"value": solve, "unit": "s"}
    for note in getattr(workload, "notes", lambda _: [])(results):
        print(f"perfbench: {note}", file=sys.stderr)
    for message in report.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"perfbench: {len(clocks)} rounds, {report.attempted} operations, "
          f"{report.failed} failed", file=sys.stderr)
    print(json.dumps({"correct": report.failed == 0, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
