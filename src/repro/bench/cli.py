"""Command-line entry point: ``repro-bench`` / ``python -m repro.bench``.

Each experiment prints its rows, then one verdict per shape
predicate (measured value, bound, ✓/✗).  A ✗ is a finding recorded in
EXPERIMENTS.md, not a failure: the exit code stays 0.  The smoke-scale
gates that must hold are ``benchmarks/bench_paper_figures.py``.

Examples::

    repro-bench --list
    repro-bench --experiment fig3
    repro-bench --experiment fig14 --scale 0.002
    repro-bench --all
    repro-bench metrics --out bench-results/metrics.prom
    repro-bench report --out bench-results/REPORT_demo.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS, run_experiment


def main(argv: list[str] | None = None) -> int:
    """CLI driver; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "metrics":
        return _metrics_main(argv[1:])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the figures/tables of the PASE-vs-Faiss ICDE'24 study.",
    )
    parser.add_argument(
        "--experiment",
        "-e",
        action="append",
        default=None,
        help="experiment id (repeatable), e.g. fig3, tab5, ablation",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset scale relative to the paper's sizes (default: profile scale)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0

    if args.all:
        targets = list(EXPERIMENTS)
    elif args.experiment:
        targets = args.experiment
    else:
        parser.print_help()
        return 2

    for exp_id in targets:
        start = time.perf_counter()
        try:
            result = run_experiment(exp_id, scale=args.scale)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        print(result)
        print(f"\n[{exp_id} completed in {elapsed:.1f}s]\n")
    return 0


def _demo_vector(rng, dim: int) -> str:
    return "[" + ",".join(f"{rng.random():.5f}" for _ in range(dim)) + "]"


def _demo(argv: list[str], command: str, description: str, out_help: str):
    """Parse a demo subcommand's options and load its ``<command>_demo``
    table (``--rows`` seeded random vectors under a ``pase_ivfflat``
    index); returns ``(args, rng, db)``."""
    import random

    from repro.pgsim.database import PgSimDatabase

    parser = argparse.ArgumentParser(prog=f"repro-bench {command}", description=description)
    parser.add_argument("--out", default=None, help=out_help)
    parser.add_argument("--rows", type=int, default=200, help="demo table size")
    parser.add_argument("--dim", type=int, default=16, help="vector dimensionality")
    parser.add_argument("--queries", type=int, default=20, help="top-k queries to run")
    args = parser.parse_args(argv)

    rng = random.Random(42)
    db = PgSimDatabase()
    table = f"{command}_demo"
    db.execute(f"CREATE TABLE {table} (id int, v float[])")
    for i in range(args.rows):
        db.execute(f"INSERT INTO {table} VALUES ({i}, '{_demo_vector(rng, args.dim)}')")
    db.execute(
        f"CREATE INDEX {table}_idx ON {table} "
        "USING pase_ivfflat (v) WITH (clustering_sample_ratio = 1)"
    )
    return args, rng, db


def _emit(text: str, out: str | None, summary: str) -> None:
    """Write ``text`` to ``out`` and print ``summary``, or print ``text``."""
    if not out:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(summary.format(path=path))


def _metrics_main(argv: list[str]) -> int:
    """``repro-bench metrics``: exercise a tiny workload and scrape it.

    Runs a small vector workload with every live-observability surface
    enabled (statement logging, auto_explain, recall probes), scrapes
    the database's Prometheus exposition, validates it with the strict
    parser, and prints it (or writes it with ``--out``).  CI runs this
    once per build to prove the scrape endpoint stays parseable.
    """
    from repro.common.metrics_export import parse_exposition

    args, rng, db = _demo(
        argv, "metrics", "Scrape a demo workload's metrics in Prometheus text format.",
        "write the exposition to this file",
    )
    db.execute("SET vector_quality_probe_rate = 0.5")
    db.execute("SET log_min_duration_statement = 0")
    for __ in range(args.queries):
        q = _demo_vector(rng, args.dim)
        db.query(f"SELECT id FROM metrics_demo ORDER BY v <-> '{q}' LIMIT 10")
    db.execute("DELETE FROM metrics_demo WHERE id < 20")
    db.execute("VACUUM metrics_demo")

    text = db.metrics_text()
    exposition = parse_exposition(text)  # raises on malformed output
    _emit(text, args.out, f"wrote {len(exposition.samples)} samples to {{path}}")
    return 0


def _report_main(argv: list[str]) -> int:
    """``repro-bench report``: run a demo workload and print its report.

    Exercises the full time-series surface — ASH sampling, stat-history
    ticks, estimation probes, slow-query logging, recall probes — over
    a small vector workload, then renders the one-page workload report
    (see :mod:`repro.bench.report`).  Sampling is driven manually
    (``sample_once``/``tick``) instead of by the background thread so
    the demo is deterministic and fast.
    """
    from repro.bench.report import build_report

    args, rng, db = _demo(
        argv, "report", "Render a demo workload's observability report.",
        "write the report to this file",
    )
    db.execute("SET vector_quality_probe_rate = 0.5")
    db.execute("SET estimation_probe_rate = 1.0")
    db.execute("SET log_min_duration_statement = 0")
    db.stat_history.tick()
    with db.session("report-demo") as sess:
        for i in range(args.queries):
            q = _demo_vector(rng, args.dim)
            sess.query(f"SELECT id FROM report_demo ORDER BY v <-> '{q}' LIMIT 10")
            sess.query(f"SELECT id FROM report_demo WHERE id < {10 + i}")
            # Deterministic sampling: snapshot between statements so
            # pg_ash/pg_wait_profile have rows without a live sampler.
            db.activity.get(sess.backend_id).begin_statement(
                "select id from report_demo ...", time.time()
            )
            db.ash.sample_once()
            db.activity.get(sess.backend_id).end_statement(False, None)
    db.stat_history.tick()

    text = build_report(db, "demo")
    db.close()
    _emit(text, args.out, "wrote report to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    raise SystemExit(main())
