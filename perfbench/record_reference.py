"""Record the findings and digests ``reference.json`` pins for seeds 7 and 2013.

Run from the root of a checkout, only when a change is meant to alter
the analysis results::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run  # noqa: F401  (puts the checkout's src/ on sys.path)
from workloads import SETUPS

SEEDS = (7, 2013)


def main() -> None:
    reference = {}
    for workload, setup in SETUPS.items():
        for seed in SEEDS:
            workdir = Path(tempfile.mkdtemp(dir=run.CHECKOUT))
            try:
                prepared = setup(seed, workdir)
                output = prepared.run()
                problems = prepared.check(output)
                if problems:
                    raise SystemExit(f"{workload} seed {seed}: {problems}")
                reference.setdefault(workload, {})[str(seed)] = {
                    "digest": prepared.digest(output),
                    "findings": prepared.findings(output),
                }
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
