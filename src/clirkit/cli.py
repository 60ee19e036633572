"""Command-line interface.

Subcommands: synth, run, sweep, eval, compare. Exit code 0 on
success, 1 with a stage-tagged message on failure, and 2 with argparse's
usage message for a malformed command line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from clirkit.corpus import parse_qrels
from clirkit.evaluation import evaluate_run, paired_ttest, read_run
from clirkit.pipeline import (METHODS, ExperimentContext, PipelineConfig, PipelineStageError,
                              run_experiment, sweep, sweep_grid)
from clirkit.synth import SynthConfig, generate


def _cmd_synth(args) -> int:
    # only the flags given are set, so every default is SynthConfig's
    data = generate(SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)
                                   if hasattr(args, f.name)}))
    paths = data.write(args.out)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def _cmd_run(args) -> int:
    cfg = PipelineConfig.from_file(args.config)
    overrides = {key: value for key, value in (("method", args.method), ("alpha", args.alpha),
                                               ("tag", args.tag)) if value is not None}
    cfg = PipelineConfig.from_dict({**cfg.to_dict(), **overrides})
    ctx = ExperimentContext.from_config(cfg)
    result = run_experiment(ctx, cfg, args.out)
    print(f"run file: {result.run_path}")
    print(f"manifest: {result.manifest_path}")
    if ctx.qrels:
        report = evaluate_run(result.run, ctx.qrels, depth=cfg.depth)
        print(report.format_table())
    return 0


def _cmd_sweep(args) -> int:
    cfg = PipelineConfig.from_file(args.config)
    grid = sweep_grid(cfg, args.alphas, args.ns)  # a bad grid fails before any input is loaded
    csv_path = sweep(ExperimentContext.from_config(cfg), grid, args.out)
    print(f"sweep results: {csv_path}")
    with open(csv_path, encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return 0


def _cmd_eval(args) -> int:
    run = read_run(args.run)
    qrels = parse_qrels(args.qrels)
    report = evaluate_run(run, qrels, depth=args.depth)
    print(report.format_table())
    if args.out:
        report.to_tsv(args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    run_a = read_run(args.run_a)
    run_b = read_run(args.run_b)
    qrels = parse_qrels(args.qrels)
    report_a = evaluate_run(run_a, qrels, depth=args.depth)
    report_b = evaluate_run(run_b, qrels, depth=args.depth)
    topics = sorted(qrels)
    ap_a = [report_a.per_topic[t]["ap"] for t in topics]
    ap_b = [report_b.per_topic[t]["ap"] for t in topics]
    result = paired_ttest(ap_a, ap_b)
    print(f"{run_a.tag}: MAP {report_a.map:.4f}")
    print(f"{run_b.tag}: MAP {report_b.map:.4f}")
    flag = " (zero-variance differences)" if result.zero_variance else ""
    print(f"paired t-test: t = {result.t:.4f}, two-tailed p = {result.p:.6f}{flag}")
    return 0


def _number_list(convert):
    """An argparse ``type`` for comma-separated ``convert`` values, so a bad
    value is reported with the flag's name."""
    def parse(text: str) -> list:
        try:
            return [convert(item) for item in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__}s, got {text!r}") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clirkit",
                                     description="cross-language retrieval toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a paired synthetic corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--num-topics", type=int)
    p.add_argument("--docs-per-lang", type=int)
    p.add_argument("--doc-len", type=int)
    p.add_argument("--confusers", type=int, dest="confusers_per_entry")
    p.add_argument("--topicality", type=float)
    p.add_argument("--query-len", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run the translation pipeline over all topics")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tag", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid over alpha and feedback-document count")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alphas", type=_number_list(float), default="0,0.2,0.4,0.6,0.8,1")
    p.add_argument("--ns", type=_number_list(int), default="5,10,20")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--depth", type=int, default=1000)
    p.add_argument("--out", default=None, help="optional TSV report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="paired t-test between two run files")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--depth", type=int, default=1000)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineStageError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
