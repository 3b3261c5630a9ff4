"""How an engine machine declares the state a checkpoint carries.

Every class-level annotation of a machine in :mod:`repro.engine` names
one attribute of its live state, with its type; every other attribute is
configuration that the machine's constructor takes.
:mod:`repro.stream.checkpoint` derives its codec from these annotations
alone, so a machine cannot gain state that a checkpoint does not carry.

An attribute annotated ``Annotated[X, PRODUCTS]`` only ever grows by
appending finalised results: ``X`` is a list, or a dataclass whose fields
are lists.  A checkpoint appends each entry once to its results segment
instead of rewriting it in every frontier.
"""

#: The ``Annotated`` metadata that marks an append-only product list.
PRODUCTS = "products"
