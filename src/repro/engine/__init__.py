"""In-memory relational engine.

The paper evaluates SQL generation with *execution accuracy* (EX): the result
of a generated query is compared against the result of the gold query on the
target database.  The original work executes against SQLite; this substrate
provides the equivalent capability offline -- typed rows stored per table, a
small set of relational operators, and result comparison semantics matching
the EX metric (order-insensitive multiset comparison unless the query orders
its output).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Value": "repro.engine.values",
    "coerce_value": "repro.engine.values",
    "compare_values": "repro.engine.values",
    "Relation": "repro.engine.relation",
    "Row": "repro.engine.relation",
    "DatabaseInstance": "repro.engine.instance",
    "CatalogInstance": "repro.engine.instance",
    "results_equivalent": "repro.engine.comparison",
})
