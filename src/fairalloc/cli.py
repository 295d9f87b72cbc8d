"""Command-line front end.

Subcommands:
  metrics   evaluate dispersion metrics on a literal value list
  evaluate  score, rank and aggregate the candidates of a problem config
  heatmap   sample one principle's score over the allocation square as CSV

Exit codes: 0 success, 2 input/config error, 3 domain error while scoring.
Commands raise typed errors; ``main`` is the one place that reports a
failure and picks its exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

from .allocation import Heatmap, RankingTable, continuous_ranking, discrete_ranking, heatmap
from .config import ProblemConfig, load_config
from .core import ValueVector
from .dispersion import DispersionMetric, dispersion
from .errors import ConfigError, DomainError, NonFiniteScoreError
from .presets import load_preset, preset_names

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_vector(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def _source_parser(sub, name: str, help_text: str, func) -> argparse.ArgumentParser:
    # The problem source and --out, shared by evaluate and heatmap.
    p = sub.add_parser(name, help=help_text)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON problem config")
    source.add_argument(
        "--preset", choices=preset_names(), help="built-in example problem"
    )
    p.add_argument("--out", help="write CSV output to this path")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairalloc",
        description="Score, rank and optimize resource allocations under "
        "six distributive-fairness principles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser(
        "metrics", help="evaluate dispersion metrics on a value list"
    )
    p_metrics.add_argument(
        "--values", required=True, help="comma-separated nonnegative values"
    )
    p_metrics.add_argument(
        "--metric",
        action="append",
        required=True,
        help="metric name, e.g. gini, hoover, atkinson(0.5); repeatable or "
        "comma-separated",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    _source_parser(sub, "evaluate", "rank a problem's candidate allocations", cmd_evaluate)

    p_heatmap = _source_parser(
        sub,
        "heatmap",
        "sample a principle score over the allocation square",
        cmd_heatmap,
    )
    p_heatmap.add_argument(
        "--principle", required=True, help="principle label from the config"
    )
    p_heatmap.add_argument(
        "--grid", type=int, default=100, help="cells per axis (default 100)"
    )

    return parser


def _load(args) -> ProblemConfig:
    if args.preset:
        return load_preset(args.preset)
    return load_config(args.config)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from None


def cmd_metrics(args) -> None:
    try:
        values = [float(x) for x in args.values.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse --values {args.values!r}") from None
    names = [name for chunk in args.metric for name in chunk.split(",") if name]
    if not names:
        raise ConfigError("no metric given")
    try:
        vector = ValueVector(values)
        metrics = [DispersionMetric.parse(name) for name in names]
        rows = [(str(metric), dispersion(metric, vector)) for metric in metrics]
        for _, value in rows:
            if not math.isfinite(value):
                raise NonFiniteScoreError(f"non-finite value {value!r}")
    except ValueError as err:
        raise ConfigError(str(err)) from None
    except DomainError as err:  # a literal value list is input, not a candidate
        raise ConfigError(f"{err.name}: {err}") from None
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value)}")


def _evaluate_csv(table: RankingTable) -> str:
    # Each label is quoted once, by the writer a row-by-row csv.writer would use.
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def field(label: str) -> str:
        if not ("," in label or '"' in label or "\r" in label or "\n" in label):
            return label  # the writer would write it as it is
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([label, ""])  # two fields, as a lone empty field is quoted
        return buffer.getvalue()[:-2]

    def literal(label: str) -> str:  # a quoted field inside the %-template
        return field(label).replace("%", "%%")

    # A candidate's rows are one %-format of its label, then a score and a rank per principle.
    template = "".join(
        f"%s,{literal(principle)},%.12g,{literal(table.directions[p])},%d\n"
        for p, principle in enumerate(table.principles)
    )
    candidates = list(map(field, table.candidates))
    columns = [
        column
        for scores, ranks in zip(table.scores, table.ranks)
        for column in (candidates, scores, ranks)
    ]
    lines = ["candidate,principle,score,direction,rank\n"]
    lines += map(template.__mod__, zip(*columns))
    return "".join(lines)


def _print_table(table: RankingTable) -> None:
    width = max(len(c) for c in table.candidates)
    print("Candidates:")
    for c, candidate in enumerate(table.candidates):
        ctx = table.contexts[c]
        print(
            f"  {candidate:<{width}}  y={_fmt_vector(ctx.outputs)} "
            f"u={_fmt_vector(ctx.utilities)}"
        )
    print()
    for p, principle in enumerate(table.principles):
        print(f"Principle {principle} ({table.directions[p]}):")
        for c, candidate in enumerate(table.candidates):
            print(
                f"  {candidate:<{width}}  score={_fmt(table.scores[p][c])} "
                f"rank={table.ranks[p][c]}"
            )
        print()
    print("Combined ranking (weighted Borda):")
    for c in table.combined_order():
        print(
            f"  {table.combined[c]}. {table.candidates[c]:<{width}} "
            f"points={_fmt(table.borda[c])}"
        )


def cmd_evaluate(args) -> None:
    cfg = _load(args)
    ranking_args = (cfg.problem, cfg.principle_labels, cfg.specs, cfg.weights)
    if cfg.kind == "discrete":
        table = discrete_ranking(*ranking_args, labels=cfg.candidate_labels)
    else:
        table = continuous_ranking(*ranking_args)
    _print_table(table)
    if args.out:
        _write(args.out, _evaluate_csv(table))
        print(f"\nwrote {args.out}")


def _heatmap_csv(cells: Heatmap) -> str:
    # Each row is one %-template, read from the map's axis and score column
    # with no cell object built. Each column's text is built once per flag,
    # with a %.12g slot, or an empty field for an undefined score: '%.12g' % s
    # gives the bytes of f"{s:.12g}", and a .12g axis value holds no '%'.
    axis = [f"{y:.12g}" for y in cells.axis]
    n, scores = len(axis), cells.scores
    off, on = ([f",{y_b},%.12g,{flag}\n" for y_b in axis] for flag in "01")
    blank_off, blank_on = ([f",{y_b},,{flag}\n" for y_b in axis] for flag in "01")
    rows = ["y_a,y_b,score,on_frontier\n"]
    for row, y_a in enumerate(axis):
        row_scores = scores[row * n:(row + 1) * n]
        run = cells.frontier_columns(row)
        columns = off[:run.start] + on[run.start:run.stop] + off[run.stop:]
        if None in row_scores:
            for col, s in enumerate(row_scores):
                if s is None:
                    columns[col] = (blank_on if col in run else blank_off)[col]
            row_scores = tuple(s for s in row_scores if s is not None)
        rows.append((y_a + y_a.join(columns)) % row_scores)
    return "".join(rows)


def cmd_heatmap(args) -> None:
    cfg = _load(args)
    if cfg.kind != "continuous":
        raise ConfigError("heatmaps require a continuous problem")
    if args.principle not in cfg.principle_labels:
        raise ConfigError(
            f"principle {args.principle!r} not in config "
            f"(have: {', '.join(cfg.principle_labels)})"
        )
    spec = cfg.specs[cfg.principle_labels.index(args.principle)]
    try:
        cells = heatmap(cfg.problem, spec, args.grid)
    except ValueError as err:  # with a parsed problem and spec, only the grid is refused
        raise ConfigError(f"--{err}") from None
    text = _heatmap_csv(cells)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        args.func(args)
        sys.stdout.flush()
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as err:  # only a ScoringError arrives here; its message names the error
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:  # commands turn every other I/O failure into a ConfigError
        print(f"error: cannot write stdout: {err}", file=sys.stderr)
        # What stays buffered goes nowhere, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CONFIG
    return EXIT_OK


def entry() -> None:  # console-script entry point
    raise SystemExit(main())
