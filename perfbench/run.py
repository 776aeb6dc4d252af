"""Benchmark launcher: one workload, one seed, one process.

    python3 perfbench/run.py --workload unet_a2mdu --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
The numeric libraries are held to one thread before numpy loads.  The
workload's inputs are built from the seed several times (``setup_s`` is
the import time plus the median build), then rounds of identical work
run until ``--seconds`` have passed, each round checked after it ends.

``--trace 0`` prints the end-to-end metrics, medians over rounds.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones, with the tracing overhead.  The
last line of standard output is the JSON result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SETUP_REPEATS = 3
MIN_ROUNDS = 2
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("unet_a2mdu", "hytec_distill", "cli_pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the smoke test")
    return p.parse_args(argv)


def src_lines() -> int:
    n = 0
    for name in os.listdir(os.path.join("src", "canopyheights")):
        if name.endswith(".py"):
            with open(os.path.join("src", "canopyheights", name)) as fh:
                n += sum(1 for _ in fh)
    return n


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "canopyheights", "__init__.py")):
        sys.exit("perfbench: run from the repository root; src/canopyheights "
                 "is missing")
    from hostspeed import HostSpeed

    # traced runs report raw per-layer times, so they take no host samples
    host = HostSpeed()
    if not args.trace:
        host.start()
    work = None
    try:
        t0 = host.clock()
        sys.path.insert(0, src)
        import canopyheights.cli
        import workloads
        from tracer import Tracer
        import_span = (t0, host.clock())
        if not canopyheights.cli.__file__.startswith(src):
            sys.exit(f"perfbench: imported {canopyheights.cli.__file__}, "
                     "not ./src")

        wl = workloads.make(args.workload, args.size, host.clock)
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=os.path.join(HERE, ".work"))
        setup_tracer = Tracer()
        setup_spans, synth_spans, state = [], [], None
        for k in range(SETUP_REPEATS):
            if state is not None:
                shutil.rmtree(sdir)
            sdir = os.path.join(work, f"setup{k}")
            os.makedirs(sdir)
            t0 = host.clock()
            if args.trace:
                with setup_tracer.installed():
                    state = wl.setup(args.seed, sdir)
            else:
                state = wl.setup(args.seed, sdir)
            setup_spans.append((t0, host.clock()))
            synth_spans.append(state.get("synth_span", (0.0, 0.0)))

        tracer = Tracer()
        rounds, traced = [], []
        attempted = failed = 0
        problems: list = []
        rdir = os.path.join(work, "round")
        deadline = time.perf_counter() + args.seconds
        while (len(rounds) + len(traced) < MIN_ROUNDS + args.trace
               or time.perf_counter() < deadline):
            trace_this = args.trace and len(rounds) > len(traced)
            shutil.rmtree(rdir, ignore_errors=True)
            os.makedirs(rdir)
            attempted += wl.attempted()
            try:
                if trace_this:
                    with tracer.installed():
                        rnd = wl.run_round(state, rdir)
                else:
                    rnd = wl.run_round(state, rdir)
                found, n_failed = wl.check(state, rnd)
            except Exception:       # noqa: BLE001 - report, then stop
                traceback.print_exc()
                failed += wl.attempted()
                problems.append("round raised; see the traceback above")
                break
            failed += n_failed
            problems += found
            # keep only the figures reported later, so that memory does not
            # grow with the number of rounds that fit in the run
            rnd.out = {k: rnd.out[k] for k in ("final_loss", "rmse")}
            (traced if trace_this else rounds).append(rnd)
    finally:
        host.stop()
        if work:
            shutil.rmtree(work, ignore_errors=True)

    # every pass is in now, so each interval can use samples after its end
    for rnd in rounds + traced:
        rnd.finish(host.seconds)
    setup_s = [host.seconds(*span) for span in setup_spans]

    print(f"perfbench: {args.workload} seed {args.seed}: setups "
          f"{[round(x, 3) for x in setup_s]} s, rounds "
          f"{[round(r.seconds['pipeline'], 3) for r in rounds]} s (raw "
          f"{[round(b - a, 3) for a, b in (r.spans['pipeline'] for r in rounds)]}"
          f" s), traced rounds "
          f"{[round(r.seconds['pipeline'], 3) for r in traced]} s, "
          f"{len(host.passes)} host samples, median "
          f"{statistics.median([t for _, t in host.passes] or [0]) * 1e3:.2f} ms",
          file=sys.stderr)
    for p in dict.fromkeys(problems):
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    median = statistics.median
    if not args.trace:
        metrics = {
            "setup_s": (host.seconds(*import_span) + median(setup_s), "s"),
            "pipeline_s": (median(r.seconds["pipeline"] for r in rounds), "s"),
            "train_samples_per_s": (median(
                r.sample_steps / r.seconds["train"] for r in rounds), "1/s"),
            "eval_tiles_per_s": (
                1.0 / median(t for r in rounds for t in r.tile_s), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    else:
        n = max(len(traced), 1)
        metrics = tracer.layer_metrics(n)
        last = (traced or rounds)[-1].out
        metrics.update({
            "train.final_loss": (float(last["final_loss"]), "1"),
            "metrics.rmse_m": (float(last["rmse"]), "m"),
            "datapipe.synth_s": (
                setup_tracer.sum["datapipe.synth"] / SETUP_REPEATS, "s"),
            "datapipe.shots": (
                setup_tracer.sum["datapipe.shots"] / SETUP_REPEATS, "count"),
            "cli.synth_s": (median(b - a for a, b in synth_spans), "s"),
            "bench.tracing_overhead_s": (
                median(r.seconds["pipeline"] for r in traced)
                - median(r.seconds["pipeline"] for r in rounds), "s"),
            "src.lines": (float(src_lines()), "count"),
        })
        for stage in workloads.STAGES:
            metrics[f"cli.{stage}_s"] = (
                sum(r.seconds.get(f"cli.{stage}", 0.0) for r in traced) / n, "s")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
