"""The measured process: set up one experiment and run it in whole rounds.

The set-up is ``ExperimentContext.from_config``, the first and only one
in this process. One round is one ``run_experiment``
call over every topic, written to its own directory. The worker runs the
whole number of rounds that comes nearest to ``--seconds``, and at least
one, so ``--seconds 0`` gives exactly one. A round that raises stops the
worker; its error is reported and none of its topics has a ranking, since
``run_experiment`` writes the run file only after the last topic. The
worker prints one JSON line with its peak RSS, any error and the start
and end of its ``main``, of the set-up and of each round on
``time.monotonic``, the system-wide clock that ``run.py`` samples the
host's speed on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> None:
    started = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", help="write spans to this JSON file")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(bench_dir), "src"))
    import clirkit.pipeline as pipeline

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cfg = pipeline.PipelineConfig.from_file(args.config)
    start = time.monotonic()
    ctx = pipeline.ExperimentContext.from_config(cfg)
    setup = [start, time.monotonic()]
    if tracer is not None:
        tracer.register(ctx)

    rounds: list[list[float]] = []
    error = None
    while True:
        start = time.monotonic()
        try:
            pipeline.run_experiment(ctx, cfg, os.path.join(args.out, f"round{len(rounds)}"))
        except Exception as exc:  # reported as failed topics, not a crash
            error = f"{type(exc).__name__}: {exc}"
            break
        rounds.append([start, time.monotonic()])
        spent = rounds[-1][1] - rounds[0][0]
        if spent + spent / len(rounds) / 2 >= args.seconds:
            break
    main_span = [started, time.monotonic()]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({"main": main_span, "setup": setup, "rounds": rounds,
                      "topics": len(ctx.topics), "peak_rss_mb": peak_kib / 1024,
                      "error": error}))


if __name__ == "__main__":
    main()
