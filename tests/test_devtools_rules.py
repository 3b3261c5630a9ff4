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


# --------------------------------------------------------------- T001/T002
def test_t001_flags_datetime_plus_number():
    source = (
        "from datetime import datetime\n"
        "def deadline(start: datetime):\n"
        "    return start + 30.0\n"
    )
    assert len(run_rule("T001", source)) == 1


def test_t001_quiet_on_timedelta():
    source = (
        "from datetime import datetime, timedelta\n"
        "def deadline(start: datetime):\n"
        "    return start + timedelta(seconds=30)\n"
    )
    assert run_rule("T001", source) == []


def test_t002_flags_datetime_number_comparison():
    source = (
        "from datetime import datetime\n"
        "def expired(start: datetime, now_seconds: float):\n"
        "    return start < now_seconds\n"
    )
    assert len(run_rule("T002", source)) == 1


def test_t002_quiet_on_float_axis():
    source = (
        "def expired(start: float, now_seconds: float):\n"
        "    return start < now_seconds\n"
    )
    assert run_rule("T002", source) == []


# --------------------------------------------------------------- T003
def test_t003_flags_naive_aware_mix():
    source = (
        "from datetime import datetime, timezone\n"
        "def skew():\n"
        "    return datetime.now(timezone.utc) - datetime.utcnow()\n"
    )
    assert len(run_rule("T003", source)) == 1


def test_t003_quiet_on_consistent_awareness():
    source = (
        "from datetime import datetime, timezone\n"
        "def skew():\n"
        "    return datetime.now(timezone.utc) - datetime.now(timezone.utc)\n"
    )
    assert run_rule("T003", source) == []


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
    "T001": (
        "from datetime import datetime\n"
        "def deadline(start: datetime):\n"
        "    return start + 30.0  # reprolint: disable=T001 -- third-party API takes raw seconds\n"
    ),
    "T002": (
        "from datetime import datetime\n"
        "def expired(start: datetime, now_seconds: float):\n"
        "    return start < now_seconds  # reprolint: disable=T002 -- ordinal comparison on purpose\n"
    ),
    "T003": (
        "from datetime import datetime, timezone\n"
        "def skew():\n"
        "    return datetime.now(timezone.utc) - datetime.utcnow()  # reprolint: disable=T003,D001 -- measuring the skew is the point\n"
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
