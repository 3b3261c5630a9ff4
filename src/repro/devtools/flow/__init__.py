"""Flow-sensitive analysis engine under reprolint.

Three layers, each usable on its own:

* :mod:`repro.devtools.flow.cfg` — per-scope control-flow graphs;
* :mod:`repro.devtools.flow.dataflow` — a forward worklist solver over
  small tag lattices (D004/D005 and the H and B rules plug in
  evaluators);
* :mod:`repro.devtools.flow.callgraph` — a project-wide call graph for
  the interprocedural R rules.

See ``docs/static-analysis.md`` for the architecture notes.
"""

from repro.devtools.flow.callgraph import (
    CallEdge,
    CallGraph,
    FunctionInfo,
    get_callgraph,
    module_dotted_name,
)
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
    "CallEdge",
    "CallGraph",
    "EMPTY",
    "ENTRY",
    "EXIT",
    "Env",
    "ForwardDataflow",
    "FunctionInfo",
    "TagEvaluator",
    "Tags",
    "analyze_scope",
    "build_cfg",
    "get_callgraph",
    "iter_scopes",
    "join_envs",
    "module_dotted_name",
    "owned_expressions",
    "scope_parameters",
]
