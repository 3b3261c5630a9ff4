"""Flow-sensitive analysis engine under reprolint.

Two layers, each usable on its own:

* :mod:`repro.devtools.flow.cfg` — per-scope control-flow graphs;
* :mod:`repro.devtools.flow.dataflow` — a forward worklist solver over
  small tag lattices (D004/D005 and the H and B rules plug in
  evaluators).

Both are intraprocedural; no rule follows a call into another function.

See ``docs/static-analysis.md`` for the architecture notes.
"""

from repro.devtools.flow.cfg import (
    CFG,
    ENTRY,
    EXIT,
    build_cfg,
    iter_scopes,
    owned_expressions,
    scope_parameters,
)
from repro.devtools.flow.dataflow import (
    EMPTY,
    Env,
    ForwardDataflow,
    TagEvaluator,
    Tags,
    analyze_scope,
    join_envs,
)

__all__ = [
    "CFG",
    "EMPTY",
    "ENTRY",
    "EXIT",
    "Env",
    "ForwardDataflow",
    "TagEvaluator",
    "Tags",
    "analyze_scope",
    "build_cfg",
    "iter_scopes",
    "join_envs",
    "owned_expressions",
    "scope_parameters",
]
