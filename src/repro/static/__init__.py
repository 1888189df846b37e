"""Static analysis over the graph IR: op semantics, shape inference,
dataflow.

The pipeline layers:

1. :mod:`repro.static.symbolic` -- symbolic dims + constraint solving;
2. :mod:`repro.static.rules`    -- per-op shape/cost semantics, the one
   source :class:`~repro.graphs.builder.GraphBuilder` annotates from;
3. :mod:`repro.static.infer`    -- whole-graph forward/backward
   inference with structured diagnostics;
4. :mod:`repro.static.dataflow` -- schedules, liveness, memory;
5. :mod:`repro.static.analyze`  -- everything as a verifier report;
6. :mod:`repro.static.codelint` -- the AST determinism linter
   (``repro lint --code``).
"""

from .analyze import STATIC_RULE_IDS, analyze_graph
from .codelint import (CODE_RULES, DEFAULT_ALLOWLIST, CodeFinding,
                       lint_source, lint_tree, load_allowlist)
from .dataflow import (Liveness, MemoryProfile, activation_bytes_by_node,
                       dead_nodes, liveness, peak_activation_memory,
                       schedule, training_memory_bytes)
from .infer import InferenceResult, ShapeInferenceEngine, infer_shapes
from .rules import (SHAPE_RULES, DuplicateRuleError, NodeContext, OpRule,
                    get_op_rule, infer_output_shape, recount_cost,
                    register_op_rule)
from .symbolic import Contradiction, Dim, ShapeEnv, SymShape, concrete, shape_of

__all__ = [
    # symbolic
    "Dim", "SymShape", "ShapeEnv", "Contradiction", "shape_of",
    "concrete",
    # rules
    "OpRule", "NodeContext", "SHAPE_RULES", "DuplicateRuleError",
    "register_op_rule", "get_op_rule", "infer_output_shape",
    "recount_cost",
    # inference
    "ShapeInferenceEngine", "InferenceResult", "infer_shapes",
    # dataflow
    "schedule", "liveness", "Liveness", "MemoryProfile",
    "activation_bytes_by_node", "peak_activation_memory", "dead_nodes",
    "training_memory_bytes",
    # analyze / codelint
    "analyze_graph", "STATIC_RULE_IDS",
    "CodeFinding", "CODE_RULES", "lint_tree", "lint_source",
    "load_allowlist", "DEFAULT_ALLOWLIST",
]
