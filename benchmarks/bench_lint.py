"""Lint driver — wall time over ``src/`` uncached vs cold vs warm cache.

Not a paper table: this bench tracks ``repro lint`` itself, so the
pre-commit loop (``repro lint --changed``) and the CI job stay fast as
the rule set and the tree grow.  Three configurations over the same
files, all in one process:

* **no cache** — the reference: every rule runs, project-wide rules
  included;
* **cold cache** — the same work, populating the on-disk result cache
  as it goes;
* **warm cache** — the pre-commit steady state: per-module results
  come from the cache keyed on (file bytes, rule-set version), so only
  the project-wide rules actually run.

The acceptance bar is the steady state: a warm-cache run must beat the
uncached run, and all three must agree finding-for-finding.
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import emit
from repro.core.report import render_table
from repro.devtools.cache import LintCache
from repro.devtools.lint import collect_files, lint_project, load_project

LINT_PATHS = ["src"]

# Budget for the cold-cache run: twice the 5.9s measured when the rule
# set stopped at the parallel-safety tier.  Later tiers, such as the
# per-file atomicity rules (A501–A503), must not double the cold lint;
# a regression here means a rule is re-deriving project state instead
# of using the memoised analyses.
COLD_LINT_BUDGET_SECONDS = 11.8


@pytest.fixture(scope="module")
def lint_files():
    files = collect_files(LINT_PATHS)
    assert len(files) > 50, "bench must see the real tree"
    return files


def _timed_run(files, *, cache):
    project = load_project(files)  # re-parse each round: a real run
    start = time.perf_counter()
    active, suppressed = lint_project(project, cache=cache)
    elapsed = time.perf_counter() - start
    return active, suppressed, elapsed


def build_table(files, cache_dir) -> str:
    sequential = _timed_run(files, cache=None)
    cache = LintCache(str(cache_dir))
    cold = _timed_run(files, cache=cache)
    assert cache.hits == 0, "first cached run must be all misses"
    warm = _timed_run(files, cache=cache)
    assert cache.hits >= len(files), "second run must hit the cache"

    # All three configurations must agree finding-for-finding.
    assert sequential[0] == cold[0] == warm[0]
    assert sequential[1] == cold[1] == warm[1]
    # The steady state must beat the uncached run.
    assert warm[2] < sequential[2], (
        f"warm cache ({warm[2]:.2f}s) must beat uncached "
        f"({sequential[2]:.2f}s)"
    )
    # The cold run carries every tier and must stay inside the budget.
    assert cold[2] < COLD_LINT_BUDGET_SECONDS, (
        f"cold lint ({cold[2]:.2f}s) blew the "
        f"{COLD_LINT_BUDGET_SECONDS}s budget"
    )

    def row(label, run, note):
        active, _suppressed, elapsed = run
        return [
            label,
            f"{elapsed:.2f}s",
            f"{len(files) / elapsed:,.0f} files/s",
            note,
        ]

    rows = [
        row("no cache", sequential, "reference"),
        row("cold cache", cold, "all misses"),
        row("warm cache", warm, "steady state: only project-wide rules run"),
        [
            "findings",
            f"{len(sequential[0])} active",
            f"{len(sequential[1])} suppressed",
            "identical across all three",
        ],
    ]
    return render_table(
        ["Configuration", "Wall time", "Rate", "Note"],
        rows,
        title=f"repro lint over src/ ({len(files)} files)",
    )


def test_lint_wall_time(benchmark, lint_files, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("lint-cache")
    table = benchmark.pedantic(
        build_table, args=(lint_files, cache_dir), rounds=1, iterations=1
    )
    emit("lint", table)
