"""Command-line entry points: `dynacut run` and `dynacut gen`."""

from __future__ import annotations

import logging
import os
import sys

import click

from .harness import gen_workload, render_trace, run_trace


def _setup_logging() -> None:
    level = os.environ.get("DYNACUT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


@click.group()
def main() -> None:
    """Fully dynamic c-edge-connectivity engine: trace replay tools."""
    _setup_logging()


@main.command("run")
@click.option("--trace", "trace_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Trace file to replay.")
@click.option("--c", "c", required=True, type=click.IntRange(min=1),
              help="Connectivity threshold for queries.")
@click.option("--profile", type=click.Choice(["desk", "paper-validate"]),
              default="desk", show_default=True)
@click.option("--oracle-check", is_flag=True,
              help="Diff every query against the max-flow oracle.")
@click.option("--metrics", "metrics_path", type=click.Path(dir_okay=False),
              default=None, help="Write a metrics JSON report here.")
def run_cmd(trace_path: str, c: int, profile: str, oracle_check: bool,
            metrics_path: str) -> None:
    """Replay a trace through the engine."""
    status = run_trace(trace_path, c, profile, oracle_check=oracle_check,
                       metrics_path=metrics_path)
    sys.exit(status)


@main.command("gen")
@click.option("--n", required=True, type=click.IntRange(min=2),
              help="Number of vertex ids (0..n-1).")
@click.option("--ops", required=True, type=click.IntRange(min=0),
              help="Number of trace operations.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--query-rate", type=click.FloatRange(0.0, 1.0), default=0.25,
              show_default=True)
def gen_cmd(n: int, ops: int, seed: int, query_rate: float) -> None:
    """Print a deterministic random trace to stdout."""
    click.echo(render_trace(gen_workload(n, ops, seed, query_rate)), nl=False)


if __name__ == "__main__":
    main()
