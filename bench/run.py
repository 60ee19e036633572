"""Benchmark of clirkit: run one workload once and print its metrics.

    python3 bench/run.py --workload proj-title --seed 101 --seconds 40 --trace 0

The run makes the workload's inputs from ``--seed`` (see workloads.py),
starts ``worker.py`` as the measured process, checks the run files it
wrote against the benchmark's own reference computations (oracles.py),
and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` (counted in topics) and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with tracing off; times are scaled to a reference host speed
that ``hostspeed.py`` samples while the worker runs. With ``--trace 1`` two workers run one round
each, first untraced and then traced (tracer.py), and the metrics are the
per-layer ones plus the tracing overhead; the traced run's spans are also
checked layer by layer. Everything the run writes goes under
``.bench_work/`` in the checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracles
from hostspeed import HostSpeed
from workloads import WORKLOADS, input_digests, make_inputs, pipeline_config

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_TAG = "bench"
# Leaves room under the 180 s a run may take.
DEADLINE_S = 170.0

PRIMARY_MODEL = {"proj": "translation.projected_model", "cooccur": "translation.cooccur_model"}


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def spawn_worker(config: str, out: str, deadline: float, topics: int, speed: HostSpeed,
                 **options) -> dict:
    """Run worker.py from the inputs directory; return its JSON report,
    with the set-up and round wall times added as ``setup_s`` and
    ``round_s``. ``speed`` watches the worker as it runs.

    A worker that ends without a report (it failed in set-up or crashed)
    gives a report with its error and the ``topics`` it was to run.
    """
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--config", config, "--out", out]
    for key, value in options.items():
        cmd += [f"--{key}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left to start the worker")
    with subprocess.Popen(cmd, cwd=os.path.dirname(config), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        speed.watch(proc.pid)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (stderr.strip().splitlines() or ["no output"])[-1]
        report = {"error": f"worker exited with code {proc.returncode}: {last}",
                  "rounds": [], "topics": topics}
    else:
        report = json.loads(lines[-1])
        report["setup_s"] = report["setup"][1] - report["setup"][0]
    report["round_s"] = [end - start for start, end in report["rounds"]]
    report["out"] = out
    return report


def at_reference_speed(speed: HostSpeed, interval: list[float]) -> float:
    """Wall time of a (start, end) interval of the worker, scaled to the
    reference host speed (hostspeed.py)."""
    start, end = interval
    return (end - start) * speed.scale(start, end)


def check_outputs(workload, paths: dict[str, str], reports: list[dict],
                  problems: list[str]) -> float:
    """Check every run file the workers wrote; return the run's MAP."""
    from clirkit.corpus import parse_qrels
    from clirkit.evaluation import evaluate_run, read_run

    with open(paths["config"], encoding="utf-8") as fh:
        depth = json.load(fh)["depth"]
    qrels = oracles.read_qrels(paths["qrels"])
    topic_ids = oracles.read_jsonl_ids(paths["topics"])
    doc_ids = set(oracles.read_jsonl_ids(paths["target_docs"]))
    run_files = [os.path.join(r["out"], f"round{i}", f"{RUN_TAG}.run")
                 for r in reports for i in range(len(r["round_s"]))]
    with open(run_files[0], "rb") as fh:
        first = fh.read()
    for path in run_files[1:]:
        with open(path, "rb") as fh:
            if fh.read() != first:
                problems.append(f"{os.path.relpath(path, ROOT)} differs from the first run file")
    try:
        run = oracles.read_run(run_files[0])
        library_run = read_run(run_files[0])
    except ValueError as exc:
        problems.append(f"run file does not parse: {exc}")
        return 0.0
    problems.extend(oracles.check_run(run, topic_ids, doc_ids, depth))
    map_value = oracles.mean_average_precision(run, qrels)
    library_map = evaluate_run(library_run, parse_qrels(paths["qrels"]), depth=depth).map
    if abs(map_value - library_map) > 1e-12:
        problems.append(f"MAP {map_value!r} differs from evaluate_run's {library_map!r}")

    if workload.beats:
        work = os.path.dirname(reports[0]["out"])
        for method, ref_map in reference_maps(workload, paths, work).items():
            print(f"reference MAP {method}: {ref_map:.4f}")
            if not map_value > ref_map:
                problems.append(f"MAP {map_value:.4f} of {workload.method} does not beat "
                                f"{method} ({ref_map:.4f})")
    else:
        chance = oracles.chance_map(qrels, len(doc_ids), depth)
        print(f"chance MAP: {chance:.4f}")
        if not map_value > chance:
            problems.append(f"MAP {map_value:.4f} does not exceed chance ({chance:.4f})")
    return map_value


def reference_maps(workload, paths: dict[str, str], work: str) -> dict[str, float]:
    """MAP of the baseline methods on the same inputs, run outside the
    measured process and after it."""
    from clirkit.pipeline import ExperimentContext, PipelineConfig, run_experiment

    qrels = oracles.read_qrels(paths["qrels"])
    ctx = None
    maps = {}
    for method in workload.beats:
        cfg = PipelineConfig.from_dict(pipeline_config(workload, paths, method=method, tag=method))
        ctx = ctx or ExperimentContext.from_config(cfg)
        result = run_experiment(ctx, cfg, os.path.join(work, f"ref-{method}"))
        maps[method] = oracles.mean_average_precision(oracles.read_run(result.run_path), qrels)
    return maps


def layer_metrics(workload, paths: dict[str, str], spans: list[dict],
                  problems: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced round, and the layer checks."""
    names = {s["name"] for s in spans}
    for name in workload.exercised:
        if name not in names:
            problems.append(f"layer {name} recorded no call")
    for name in workload.bypassed:
        if name in names:
            problems.append(f"layer {name} should be bypassed but was called")

    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def self_s(name):
        return sum(s["end"] - s["start"] - child_s[i] for i, s in enumerate(spans)
                   if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    collections = {"source": oracles.Collection(paths["source_docs"]),
                   "target": oracles.Collection(paths["target_docs"])}
    retrieves = of("retrieval.retrieve")
    for span in retrieves:
        if "check" in span:
            c = span["check"]
            problem = oracles.check_ranking(collections[span["side"]], c["weights"], c["mu"],
                                            c["k"], c["ranked"])
            if problem:
                problems.append(f"retrieve ({span['side']}, topic {span['topic']}): {problem}")
    dictionary = oracles.read_dictionary(paths["dictionary"])
    for span in spans:
        if "table" in span:
            problems.extend(f"{span['name']} row {bad}" for bad in oracles.row_problems(span["table"]))
    for span in of("translation.cooccur_model"):
        want = oracles.cooccur_rows(collections["target"], dictionary,
                                    span["query_terms"], span["window"])
        got = span["table"]
        if list(want) != list(got) or any(
                [c for c, _ in want[t]] != [c for c, _ in got[t]]
                or any(abs(p - q) > 1e-12 for (_, p), (_, q) in zip(want[t], got[t]))
                for t in want):
            problems.append(f"cooccur_model rows of topic {span['topic']} differ from "
                            "the window count")

    primary = [s["table"] for s in of(PRIMARY_MODEL[workload.method])]
    acc1 = oracles.argmax_accuracy(primary, oracles.read_truth(paths["truth"]))

    retrieve_s = total("retrieval.retrieve")
    postings = sum(collections[s["side"]].df(t) for s in retrieves for t in s["terms"])
    sgns = of("embeddings.train")
    fits = of("projection.fit")
    train_s, fit_s = total("embeddings.train"), total("projection.fit")
    return {
        "corpus.load_s": total("corpus.load"),
        "retrieval.index_s": total("retrieval.index"),
        "retrieval.retrieve_calls": len(retrieves),
        "retrieval.retrieve_s": retrieve_s,
        "retrieval.retrieve_ms_p50": 1000 * statistics.median(
            s["end"] - s["start"] for s in retrieves) if retrieves else 0.0,
        "retrieval.postings": postings,
        "retrieval.postings_per_s": ratio(postings, retrieve_s),
        "prf.feedback_s": total("prf.feedback"),
        "prf.em_iters": ratio(sum(s["iters"] for s in of("prf.em")), len(of("prf.em"))),
        "embeddings.train_calls": len(sgns),
        "embeddings.train_s": train_s,
        "embeddings.vocab_mean": ratio(sum(s["vocab"] for s in sgns), len(sgns)),
        "embeddings.pairs": sum(s["pairs"] for s in sgns),
        "embeddings.pairs_per_s": ratio(sum(s["pairs"] for s in sgns), train_s),
        "projection.fit_s": fit_s,
        "projection.pairs_mean": ratio(sum(s["pairs"] for s in fits), len(fits)),
        "projection.updates_per_s": ratio(sum(s["updates"] for s in fits), fit_s),
        "translation.model_s": self_s(PRIMARY_MODEL[workload.method]),
        "translation.cooccur_s": total("translation.cooccur_model"),
        "translation.acc1": acc1,
        "pipeline.topic_s_p50": statistics.median(
            s["end"] - s["start"] for s in of("pipeline.topic")),
        "pipeline.self_s": self_s("pipeline.experiment"),
    }


def run(workload, args, work: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    paths = make_inputs(workload, args.seed, os.path.join(work, "inputs"))
    for name, digest in input_digests(paths).items():
        print(f"input sha256 {digest}  {name}")

    problems: list[str] = []
    topics = workload.num_topics
    speed = HostSpeed()
    speed.start()
    try:
        if args.trace:
            trace_path = os.path.join(work, "trace.json")
            plain = spawn_worker(paths["config"], os.path.join(work, "plain"), deadline, topics,
                                 speed, seconds=0)
            traced = spawn_worker(paths["config"], os.path.join(work, "traced"), deadline,
                                  topics, speed, seconds=0, trace=trace_path)
            reports = [plain, traced]
        else:
            reports = [spawn_worker(paths["config"], os.path.join(work, "run"), deadline,
                                    topics, speed, seconds=args.seconds)]
    finally:
        speed.stop()
    # A failing round leaves every one of its topics without a ranking.
    attempted = sum(r["topics"] * (len(r["round_s"]) + bool(r["error"])) for r in reports)
    failed = sum(r["topics"] for r in reports if r["error"])
    if failed:
        for report in reports:
            if report["error"]:
                print(f"CHECK FAILED: {report['error']}")
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    for report in reports:
        print("worker: setup {:.3f} s, rounds {} s".format(
            report["setup_s"], ", ".join(f"{s:.3f}" for s in report["round_s"])))
    map_value = check_outputs(workload, paths, reports, problems)

    if args.trace:
        with open(trace_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        values = layer_metrics(workload, paths, spans, problems)
        values["trace.overhead_s"] = at_reference_speed(speed, traced["main"]) - \
            at_reference_speed(speed, plain["main"])
        units = declared_units("per_layer")
    else:
        report = reports[0]
        # The median round, so that one round slowed more than the probes
        # show does not count.
        setup_s = at_reference_speed(speed, report["setup"])
        round_s = [at_reference_speed(speed, r) for r in report["rounds"]]
        print("at reference speed: setup {:.3f} s, rounds {} s".format(
            setup_s, ", ".join(f"{s:.3f}" for s in round_s)))
        values = {
            "setup_s": setup_s,
            "topics_per_s": report["topics"] / statistics.median(round_s),
            "peak_rss_mb": report["peak_rss_mb"],
            "map": map_value,
        }
        units = declared_units("end_to_end")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one clirkit benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "clirkit", "pipeline.py")):
        sys.exit(f"clirkit sources not found under {SRC}")
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        result = run(WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
