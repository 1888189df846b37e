"""Computational-graph IR for DNN architectures.

This package provides the graph representation PredictDDL feeds to its GHN
(Sec. II-B / III-E of the paper): DAGs whose nodes are primitive operations
with exact shape, parameter, and FLOP accounting, plus a model zoo of 31+
image-classification architectures mirroring the paper's torchvision
workloads.
"""

from .analysis import (GraphProfile, activation_memory_bytes,
                       parameter_bytes, profile_graph,
                       training_flops_per_sample)
from .builder import GraphBuilder
from .fingerprint import graph_fingerprint
from .graph import ComputationalGraph, GraphValidationError, Node
from .ops import (OP_VOCABULARY, OpType, is_activation, is_merge,
                  is_pooling, is_weighted_op, one_hot, one_hot_matrix)
from .serialization import (graph_from_dict, graph_to_dict, load_graph,
                            save_graph)
from .verify import (Diagnostic, GraphVerificationError, Rule, Severity,
                     VerificationReport, assert_verified, register_rule,
                     registered_rules, rule, unregister_rule, verify_graph)
from .virtual_edges import shortest_path_lengths, virtual_edge_weights

__all__ = [
    "OpType", "OP_VOCABULARY", "one_hot", "one_hot_matrix",
    "is_weighted_op", "is_activation", "is_pooling", "is_merge",
    "Node", "ComputationalGraph", "GraphValidationError",
    "GraphBuilder", "graph_fingerprint",
    "GraphProfile", "profile_graph", "training_flops_per_sample",
    "activation_memory_bytes", "parameter_bytes",
    "shortest_path_lengths", "virtual_edge_weights",
    "graph_to_dict", "graph_from_dict", "save_graph", "load_graph",
    "Severity", "Diagnostic", "Rule", "VerificationReport",
    "GraphVerificationError", "verify_graph", "assert_verified",
    "rule", "register_rule", "unregister_rule", "registered_rules",
]
