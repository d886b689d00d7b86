"""SQL generation with a (simulated) large language model.

The paper's second stage prompts ``gpt-3.5-turbo`` with the routed schema and
the question to produce SQL (§3.6), exploring three prompt strategies plus a
human-in-the-loop variant, and reports execution accuracy (EX) and invocation
cost.  No commercial LLM is reachable offline, so :class:`SimulatedLLM`
substitutes a deterministic heuristic NL2SQL generator whose behaviour
preserves the two sensitivities the paper's Table 6 measures:

* accuracy falls when the prompted schema misses tables the query needs;
* accuracy falls (and cost rises) as extraneous schema elements are added.

Everything else -- prompt construction, candidate-schema selection, the cost
model, execution-accuracy evaluation -- is implemented as in the paper.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CostModel": "repro.llm.cost",
    "count_tokens": "repro.llm.cost",
    "PromptStrategy": "repro.llm.prompts",
    "SchemaPrompt": "repro.llm.prompts",
    "render_schema_block": "repro.llm.prompts",
    "build_best_schema_prompt": "repro.llm.prompts",
    "build_multiple_schema_prompt": "repro.llm.prompts",
    "build_cot_selection_prompt": "repro.llm.prompts",
    "HeuristicSqlGenerator": "repro.llm.sqlgen",
    "LlmResponse": "repro.llm.client",
    "SimulatedLLM": "repro.llm.client",
    "GenerationResult": "repro.llm.pipeline",
    "Nl2SqlEvaluation": "repro.llm.pipeline",
    "SchemaAgnosticNL2SQL": "repro.llm.pipeline",
    "evaluate_nl2sql": "repro.llm.pipeline",
    "OracleSchemaProvider": "repro.llm.oracle",
})
