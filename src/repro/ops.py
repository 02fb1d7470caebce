"""Comparison-operator vocabulary shared by the engine and the query model.

Lives in its own leaf module so that the query model
(``repro.db.query``) and the engine's types (``repro.db.types``) share
it without importing each other.
"""

#: Comparison operators the engine evaluates.  The paper's featurization
#: enumerates {=, <, >}; the engine additionally supports <=, >= and <>
#: so that year-grouping range templates (Figure 2) can be expressed,
#: plus set membership ``in`` (literal is a tuple of scalars) so that
#: DSB/TPC-H-style ``IN (...)`` templates can be expressed.
OPERATORS = ("=", "<", ">", "<=", ">=", "<>", "in")

#: Operators valid on string columns (dictionary encoding gives no
#: meaningful order, so only equality-shaped operators qualify — ``in``
#: is a disjunction of equalities).
STRING_OPERATORS = ("=", "<>", "in")
