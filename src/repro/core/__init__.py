"""DBCopilot core: the paper's primary contribution.

The copilot model routes a natural-language question to its SQL query schema
``S = <database, tables>`` over a massive catalog:

* :mod:`repro.core.graph` -- schema graph construction (Algorithm 1).
* :mod:`repro.core.serialization` -- DFS serialization of SQL query schemata
  (Algorithm 2) and the basic (unordered) serialization used in ablations.
* :mod:`repro.core.sampling` -- random-walk sampling of valid schemata.
* :mod:`repro.core.questioner` -- reverse schema-to-question generation.
* :mod:`repro.core.synthesis` -- training-data synthesis combining the two.
* :mod:`repro.core.trie` / :mod:`repro.core.constrained` -- prefix-trie,
  graph-based constrained decoding (§3.5).
* :mod:`repro.core.router` -- the Seq2Seq DSI schema router.
* :mod:`repro.core.dbcopilot` -- the end-to-end facade that builds the graph,
  synthesizes data, trains the router, and routes questions.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "NodeKind": "repro.core.graph",
    "SchemaGraph": "repro.core.graph",
    "SerializedSchema": "repro.core.serialization",
    "basic_serialize": "repro.core.serialization",
    "dfs_serialize": "repro.core.serialization",
    "schema_to_tokens": "repro.core.serialization",
    "tokens_to_schema": "repro.core.serialization",
    "SchemaSampler": "repro.core.sampling",
    "SamplerConfig": "repro.core.sampling",
    "SchemaQuestioner": "repro.core.questioner",
    "TemplateQuestioner": "repro.core.questioner",
    "NeuralQuestioner": "repro.core.questioner",
    "SynthesisConfig": "repro.core.synthesis",
    "SyntheticExample": "repro.core.synthesis",
    "synthesize_training_data": "repro.core.synthesis",
    "PrefixTrie": "repro.core.trie",
    "GraphConstrainedDecoding": "repro.core.constrained",
    "RouterConfig": "repro.core.router",
    "SchemaRoute": "repro.core.router",
    "SchemaRouter": "repro.core.router",
    "merge_route_lists": "repro.core.router",
    "normalize_route_scores": "repro.core.router",
    "DBCopilot": "repro.core.dbcopilot",
    "DBCopilotConfig": "repro.core.dbcopilot",
})
