"""Unit tests for the reprolint rule set (inline fixtures).

Each rule gets a positive case (the violation fires), a negative case
(the idiomatic fix is quiet), and a suppression round-trip (a justified
`# reprolint: disable=...` comment moves the finding from *active* to
*suppressed* without losing it).
"""

import pytest

from repro.devtools.base import Project, REGISTRY, SourceModule
from repro.devtools.lint import lint_project


def run_rule(rule_id, source, path="fixture.py", extra_modules=()):
    module = SourceModule(path, source)
    project = Project([module, *extra_modules])
    return [
        finding
        for finding in REGISTRY[rule_id].check(module, project)
        if finding.rule == rule_id
    ]


def lint_source(source, path="fixture.py"):
    project = Project([SourceModule(path, source)])
    return lint_project(project)


# --------------------------------------------------------------- D001
def test_d001_flags_wall_clock_reads():
    source = "import time\nstamp = time.time()\n"
    assert len(run_rule("D001", source)) == 1


def test_d001_flags_datetime_now():
    source = "from datetime import datetime\nx = datetime.now()\n"
    assert len(run_rule("D001", source)) == 1


def test_d001_quiet_on_event_time():
    source = "def shift(start: float) -> float:\n    return start + 30.0\n"
    assert run_rule("D001", source) == []


# --------------------------------------------------------------- D002
def test_d002_flags_module_level_random():
    source = "import random\nx = random.random()\n"
    assert len(run_rule("D002", source)) == 1


def test_d002_flags_unseeded_random_instance():
    source = "import random\nrng = random.Random()\n"
    assert len(run_rule("D002", source)) == 1


def test_d002_quiet_on_seeded_random():
    source = "import random\nrng = random.Random(42)\n"
    assert run_rule("D002", source) == []


# --------------------------------------------------------------- D003
def test_d003_flags_os_entropy():
    source = "import os\ntoken = os.urandom(16)\n"
    assert len(run_rule("D003", source)) == 1


def test_d003_flags_uuid4():
    source = "import uuid\nrun_id = uuid.uuid4()\n"
    assert len(run_rule("D003", source)) == 1


# --------------------------------------------------------------- D004
def test_d004_flags_set_iteration():
    source = (
        "def f(a, b):\n"
        "    out = []\n"
        "    for site in set(a) | set(b):\n"
        "        out.append(site)\n"
        "    return out\n"
    )
    assert len(run_rule("D004", source)) == 1


def test_d004_quiet_when_sorted():
    source = (
        "def f(a, b):\n"
        "    return [site for site in sorted(set(a) | set(b))]\n"
    )
    assert run_rule("D004", source) == []


# --------------------------------------------------------------- D005
def test_d005_flags_order_sensitive_dict_loop():
    source = (
        "def f(by_link):\n"
        "    out = []\n"
        "    for values in by_link.values():\n"
        "        out.append(sum(values))\n"
        "    return out\n"
    )
    assert len(run_rule("D005", source)) == 1


def test_d005_quiet_when_sorted_items():
    source = (
        "def f(by_link):\n"
        "    out = []\n"
        "    for _link, values in sorted(by_link.items()):\n"
        "        out.append(sum(values))\n"
        "    return out\n"
    )
    assert run_rule("D005", source) == []


def test_d005_quiet_on_order_insensitive_body():
    source = (
        "def f(by_link):\n"
        "    total = 0\n"
        "    for values in by_link.values():\n"
        "        total += sum(values)\n"
        "    return total\n"
    )
    assert run_rule("D005", source) == []


def test_d005_flags_keys_loop_that_yields():
    source = (
        "def f(by_link):\n"
        "    for link in by_link.keys():\n"
        "        yield link\n"
    )
    assert len(run_rule("D005", source)) == 1


# ------------------------------------------------ D004/D005 value tracking
def test_d004_flags_set_iteration_in_class_body():
    source = (
        "class Catalogue:\n"
        "    NAMES = [name for name in {'lax', 'sac'}]\n"
    )
    assert len(run_rule("D004", source)) == 1


def test_d005_flags_view_loop_in_class_body():
    source = (
        "TABLE = {'a': 1}\n"
        "class Rows:\n"
        "    OUT = []\n"
        "    for key in TABLE.keys():\n"
        "        OUT.append(key)\n"
    )
    assert len(run_rule("D005", source)) == 1


@pytest.mark.parametrize(
    "body",
    [
        "    return ','.join(set(names))\n",
        "    return list(set(names))\n",
        "    return tuple(set(names).union(extra))\n",
        "    pool = set(names)\n    return [n for n in pool]\n",
    ],
    ids=["join", "list", "set-method", "comprehension"],
)
def test_d004_flags_ordered_consumption_of_a_set(body):
    source = "def f(names, extra):\n" + body
    assert len(run_rule("D004", source)) == 1


def test_d004_tracks_annotated_parameters_and_module_constants():
    source = (
        "from typing import Set\n"
        "SITES = {'lax', 'sac'}\n"
        "def f(links: Set[str]):\n"
        "    return [link for link in links] + list(SITES)\n"
    )
    assert len(run_rule("D004", source)) == 2


def test_d004_quiet_on_set_comprehension_over_a_set():
    source = "def f(names):\n    return {n.upper() for n in set(names)}\n"
    assert run_rule("D004", source) == []


def test_d004_reports_each_site_once():
    source = (
        "def f(a, b):\n"
        "    pool = set(a)\n"
        "    for site in pool | set(b):\n"
        "        print(site)\n"
        "    return [x for x in [y for y in pool]]\n"
    )
    findings = run_rule("D004", source)
    anchors = [(f.line, f.column) for f in findings]
    assert len(anchors) == 2
    assert len(set(anchors)) == len(anchors)


# --------------------------------------------------------------- M001
def test_m001_flags_literal_mutable_default():
    source = "def f(rows=[]):\n    return rows\n"
    assert len(run_rule("M001", source)) == 1


def test_m001_flags_unfrozen_dataclass_default():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Options:\n"
        "    depth: int = 0\n"
        "def run(options: Options = Options()):\n"
        "    return options\n"
    )
    findings = run_rule("M001", source)
    assert len(findings) == 1
    assert "Options" in findings[0].message


def test_m001_exempts_frozen_dataclass_default():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Options:\n"
        "    depth: int = 0\n"
        "def run(options: Options = Options()):\n"
        "    return options\n"
    )
    assert run_rule("M001", source) == []


def test_m001_exempts_none_default():
    source = "def f(rows=None):\n    return rows or []\n"
    assert run_rule("M001", source) == []


# --------------------------------------------------------------- M002
def test_m002_flags_module_level_singleton_default():
    source = (
        "DEFAULTS = [1.0, 10.0]\n"
        "def f(buckets=DEFAULTS):\n"
        "    return buckets\n"
    )
    findings = run_rule("M002", source)
    assert len(findings) == 1
    assert "DEFAULTS" in findings[0].message


def test_m002_quiet_on_immutable_singleton():
    source = (
        "DEFAULTS = (1.0, 10.0)\n"
        "def f(buckets=DEFAULTS):\n"
        "    return buckets\n"
    )
    assert run_rule("M002", source) == []


# ----------------------------------------------------- rule scoping
def test_determinism_rules_scoped_to_output_packages():
    # Scope is enforced by Rule.applies_to, which the driver consults;
    # files outside the repro package (fixtures, scripts) are always in.
    source = "import time\nstamp = time.time()\n"
    core = SourceModule("src/repro/core/clock.py", source)
    util = SourceModule("src/repro/util/clock.py", source)
    outside = SourceModule("scripts/clock.py", source)
    rule = REGISTRY["D001"]
    assert rule.applies_to(core)
    assert not rule.applies_to(util)
    assert rule.applies_to(outside)


# ------------------------------------------------ suppression round-trips
SUPPRESSED_SOURCES = {
    "D001": (
        "import time\n"
        "stamp = time.time()  # reprolint: disable=D001 -- benchmark wall time, not analysis output\n"
    ),
    "D002": (
        "import random\n"
        "x = random.random()  # reprolint: disable=D002 -- demo snippet, not pipeline code\n"
    ),
    "D003": (
        "import os\n"
        "token = os.urandom(4)  # reprolint: disable=D003 -- opaque temp-file name only\n"
    ),
    "D004": (
        "def f(a, b):\n"
        "    out = []\n"
        "    for site in set(a) | set(b):  # reprolint: disable=D004 -- result re-sorted by caller\n"
        "        out.append(site)\n"
        "    return out\n"
    ),
    "D005": (
        "def f(by_link):\n"
        "    out = []\n"
        "    for values in by_link.values():  # reprolint: disable=D005 -- dict built in fixed order\n"
        "        out.append(sum(values))\n"
        "    return out\n"
    ),
    "M001": (
        "def f(rows=[]):  # reprolint: disable=M001 -- never mutated, read-only sentinel\n"
        "    return rows\n"
    ),
    "M002": (
        "DEFAULTS = [1.0]\n"
        "def f(buckets=DEFAULTS):  # reprolint: disable=M002 -- treated as read-only\n"
        "    return buckets\n"
    ),
}


@pytest.mark.parametrize("rule_id", sorted(SUPPRESSED_SOURCES))
def test_suppression_round_trip(rule_id):
    source = SUPPRESSED_SOURCES[rule_id]
    active, suppressed = lint_source(source)
    assert [f for f in active if f.rule == rule_id] == []
    assert [f for f in suppressed if f.rule == rule_id], (
        f"{rule_id} should appear in the suppressed list, not vanish"
    )
    # Removing the comment re-activates the finding.
    stripped = "\n".join(
        line.split("  # reprolint:")[0] for line in source.splitlines()
    ) + "\n"
    active_again, _ = lint_source(stripped)
    assert [f for f in active_again if f.rule == rule_id]


def test_suppression_without_reason_is_s001():
    source = (
        "import time\n"
        "stamp = time.time()  # reprolint: disable=D001\n"
    )
    active, suppressed = lint_source(source)
    assert [f.rule for f in active] == ["S001"]
    assert [f.rule for f in suppressed] == ["D001"]


def test_s001_cannot_be_suppressed():
    source = (
        "import time\n"
        "stamp = time.time()  # reprolint: disable=D001,S001\n"
    )
    active, _ = lint_source(source)
    assert "S001" in [f.rule for f in active]


@pytest.mark.parametrize("stale", ["F001", "T002", "D0O5"])
def test_suppression_naming_unknown_rule_is_s001(stale):
    # A rule since deleted, or a typo, silences nothing: the finding on
    # the line stays active and the comment itself is reported.
    source = (
        "import time\n"
        f"stamp = time.time()  # reprolint: disable={stale} -- stale id\n"
    )
    active, suppressed = lint_source(source)
    assert sorted(f.rule for f in active) == ["D001", "S001"]
    assert suppressed == []
    (s001,) = [f for f in active if f.rule == "S001"]
    assert s001.line == 2
    assert stale in s001.message


def test_file_wide_suppression_naming_unknown_rule_is_s001():
    deleted = "U001"
    source = (
        f"# reprolint: disable-file=D001,{deleted} -- one live id, one deleted\n"
        "import time\n"
        "stamp = time.time()\n"
    )
    active, suppressed = lint_source(source)
    assert [(f.rule, f.line) for f in active] == [("S001", 1)]
    assert "U001" in active[0].message and "D001" not in active[0].message
    assert [f.rule for f in suppressed] == ["D001"]


def test_known_ids_and_all_are_not_stale():
    source = (
        "import time\n"
        "a = time.time()  # reprolint: disable=all -- wall time on purpose\n"
        "b = time.time()  # reprolint: disable=D001,D004 -- wall time on purpose\n"
    )
    active, suppressed = lint_source(source)
    assert active == []
    assert [f.rule for f in suppressed] == ["D001", "D001"]


def test_unknown_rule_without_reason_reports_both_problems():
    source = "x = 1  # reprolint: disable=T003\n"
    active, _ = lint_source(source)
    assert [f.rule for f in active] == ["S001", "S001"]
    messages = " ".join(f.message for f in active)
    assert "without a reason" in messages and "T003" in messages


def test_file_wide_suppression():
    source = (
        "# reprolint: disable-file=D001 -- this module benchmarks wall-clock overhead\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    active, suppressed = lint_source(source)
    assert [f for f in active if f.rule == "D001"] == []
    assert len([f for f in suppressed if f.rule == "D001"]) == 2


def test_syntax_error_is_x001():
    active, _ = lint_source("def broken(:\n")
    assert [f.rule for f in active] == ["X001"]


# --------------------------------------------------------------- E001/E002
BARE_SWALLOW = (
    "try:\n"
    "    x = int(raw)\n"
    "except:\n"
    "    pass\n"
)


def test_e001_flags_bare_except():
    assert len(run_rule("E001", BARE_SWALLOW)) == 1


def test_e001_quiet_on_named_exception():
    source = "try:\n    x = int(raw)\nexcept ValueError:\n    x = None\n"
    assert run_rule("E001", source) == []


def test_e002_flags_bare_silent_swallow():
    assert len(run_rule("E002", BARE_SWALLOW)) == 1


def test_e002_flags_broad_silent_swallow():
    source = "try:\n    x = int(raw)\nexcept Exception:\n    pass\n"
    findings = run_rule("E002", source)
    assert len(findings) == 1
    assert "swallows every failure silently" in findings[0].message


def test_e002_flags_silent_continue_in_loop():
    source = (
        "for raw in records:\n"
        "    try:\n"
        "        out.append(int(raw))\n"
        "    except ValueError:\n"
        "        continue\n"
    )
    findings = run_rule("E002", source)
    assert len(findings) == 1
    assert "without attributing" in findings[0].message


def test_e002_flags_ellipsis_body():
    source = "try:\n    x = int(raw)\nexcept (TypeError, ValueError):\n    ...\n"
    assert len(run_rule("E002", source)) == 1


def test_e002_quiet_when_drop_is_attributed():
    source = (
        "try:\n"
        "    x = int(raw)\n"
        "except ValueError as error:\n"
        "    report.record('syslog', 'bad-int', sample=str(error))\n"
    )
    assert run_rule("E002", source) == []


def test_e002_quiet_on_reraise():
    source = (
        "try:\n"
        "    x = int(raw)\n"
        "except ValueError:\n"
        "    raise TypeError('bad count')\n"
    )
    assert run_rule("E002", source) == []


def test_e_rules_scoped_to_ingestion_packages():
    # Scope filtering happens in the driver (Rule.applies_to), so this
    # goes through lint_source rather than calling check() directly.
    def e_findings(path):
        active, _ = lint_source(BARE_SWALLOW, path=path)
        return [f.rule for f in active if f.rule.startswith("E")]

    assert e_findings("src/repro/syslog/collector.py") == ["E001", "E002"]
    assert e_findings("src/repro/devtools/lint.py") == []


def test_e002_suppression_round_trip():
    source = (
        "try:\n"
        "    x = int(raw)\n"
        "except ValueError:  # reprolint: disable=E002 -- probe loop, count is elsewhere\n"
        "    pass\n"
    )
    active, suppressed = lint_source(source)
    assert [f for f in active if f.rule == "E002"] == []
    assert len([f for f in suppressed if f.rule == "E002"]) == 1


def test_e_rules_fire_on_fixture_file():
    import pathlib

    fixture = (
        pathlib.Path(__file__).parent / "fixtures" / "reprolint" / "bad_swallow.py"
    )
    source = fixture.read_text(encoding="utf-8")
    active, _ = lint_source(source, path=str(fixture))
    rules = [f.rule for f in active]
    assert rules.count("E001") == 1
    assert rules.count("E002") == 4
