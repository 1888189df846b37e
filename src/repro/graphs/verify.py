"""Static-analysis verifier and lint rules for the computational-graph IR.

PredictDDL's entire pipeline hangs off the graph IR: the GHN embedding,
FLOP/param accounting, and the DDP simulator all consume the DAG built by
:mod:`repro.graphs.builder`.  A silently malformed graph (wrong shape
inference, dangling node, miscounted FLOPs) corrupts predictions without
raising -- this module makes such graphs fail fast with actionable
diagnostics instead.

Design:

* A :class:`Diagnostic` records one finding (rule id, severity, node,
  message, fix hint).
* Rules are plain generator functions over a :class:`GraphView` -- an
  *unvalidated* adjacency view that can be built from either a
  :class:`~repro.graphs.graph.ComputationalGraph` or a raw serialized
  payload dict, so rules can examine graphs too malformed for the
  ``ComputationalGraph`` constructor to accept.
* Rules live in a pluggable registry; register custom rules with the
  :func:`rule` decorator.
* :func:`verify_graph` runs a rule set and returns a
  :class:`VerificationReport`; :func:`assert_verified` raises
  :class:`GraphVerificationError` when ERROR-severity diagnostics exist.

The ``fast`` rule subset covers structural invariants (cheap, run on every
GHN ``embed()``); the full set adds shape/FLOP recomputation from the
per-op rules in :mod:`repro.static.rules` and virtual-edge cross-checks
(run by ``repro lint`` and on serialization load).
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from ..static.rules import (broadcast_mul_shape, infer_output_shape,
                            recount_cost)
from .graph import ComputationalGraph, GraphValidationError
from .ops import OP_VOCABULARY, OpType, is_merge, is_weighted_op
from .virtual_edges import virtual_edge_weights

__all__ = [
    "Severity", "Diagnostic", "Rule", "GraphView", "VerificationReport",
    "GraphVerificationError", "rule", "register_rule", "unregister_rule",
    "registered_rules", "rule_ids", "verify_graph", "assert_verified",
    "FAST_LEVEL", "FULL_LEVEL", "VIRTUAL_EDGE_S_MAX",
]

#: ``s_max`` used by the virtual-edge consistency rule; matches the
#: default of :class:`repro.ghn.GHNConfig`.
VIRTUAL_EDGE_S_MAX = 5

FAST_LEVEL = "fast"
FULL_LEVEL = "full"

#: Cap on diagnostics emitted by a single rule for one graph, so a
#: systematically broken graph produces a readable report.
MAX_DIAGNOSTICS_PER_RULE = 10


class Severity(enum.Enum):
    """How bad a finding is.

    ERROR findings make a graph unusable for prediction (``repro lint``
    exits non-zero); WARN findings are suspicious but survivable; INFO
    findings are observations.
    """

    ERROR = "error"
    WARN = "warn"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warn": 1, "info": 0}[self.value]


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One verifier finding.

    ``rule_id`` is stamped by the framework; rule functions may leave it
    empty (the :func:`error` / :func:`warn` / :func:`info` helpers do).
    """

    severity: Severity
    message: str
    rule_id: str = ""
    node_id: int | None = None
    node_name: str | None = None
    hint: str | None = None

    def format(self) -> str:
        where = ""
        if self.node_id is not None:
            name = f" ({self.node_name})" if self.node_name else ""
            where = f" [node {self.node_id}{name}]"
        hint = f" | hint: {self.hint}" if self.hint else ""
        return (f"{self.severity.value.upper():<5} {self.rule_id}: "
                f"{self.message}{where}{hint}")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "node_id": self.node_id,
            "node_name": self.node_name,
            "hint": self.hint,
        }


def error(message: str, *, node: "NodeView | None" = None,
          hint: str | None = None) -> Diagnostic:
    """Build an ERROR diagnostic (rule id stamped by the framework)."""
    return Diagnostic(Severity.ERROR, message,
                      node_id=None if node is None else node.node_id,
                      node_name=None if node is None else node.name,
                      hint=hint)


def warn(message: str, *, node: "NodeView | None" = None,
         hint: str | None = None) -> Diagnostic:
    """Build a WARN diagnostic."""
    return Diagnostic(Severity.WARN, message,
                      node_id=None if node is None else node.node_id,
                      node_name=None if node is None else node.name,
                      hint=hint)


def info(message: str, *, node: "NodeView | None" = None,
         hint: str | None = None) -> Diagnostic:
    """Build an INFO diagnostic."""
    return Diagnostic(Severity.INFO, message,
                      node_id=None if node is None else node.node_id,
                      node_name=None if node is None else node.name,
                      hint=hint)


# ----------------------------------------------------------------------
# unvalidated graph view
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class NodeView:
    """One node as seen by the verifier (op may be outside the vocab)."""

    node_id: int
    op: OpType | None
    raw_op: str
    name: str
    out_shape: tuple[int, ...]
    params: int
    flops: int
    attrs: dict


class GraphView:
    """Adjacency view over possibly-malformed graph data.

    Unlike :class:`ComputationalGraph`, construction never raises on
    structural violations -- cycles, dangling edges, duplicate ids and
    unknown ops are all representable so rules can report them.
    """

    def __init__(self, name: str, nodes: list[NodeView],
                 edges: list[tuple[int, int]],
                 graph: ComputationalGraph | None = None):
        self.name = name
        self.nodes = nodes
        self.edges = edges
        self.graph = graph
        self.by_id: dict[int, NodeView] = {}
        self.duplicate_ids: list[int] = []
        for nd in nodes:
            if nd.node_id in self.by_id:
                self.duplicate_ids.append(nd.node_id)
            else:
                self.by_id[nd.node_id] = nd
        self.succ: dict[int, list[int]] = {i: [] for i in self.by_id}
        self.pred: dict[int, list[int]] = {i: [] for i in self.by_id}
        self.dangling_edges: list[tuple[int, int]] = []
        self.self_loops: list[int] = []
        for u, v in edges:
            if u not in self.by_id or v not in self.by_id:
                self.dangling_edges.append((u, v))
                continue
            if u == v:
                self.self_loops.append(u)
                continue
            self.succ[u].append(v)
            self.pred[v].append(u)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_graph(cls, graph: ComputationalGraph) -> "GraphView":
        nodes = [NodeView(node_id=nd.node_id, op=nd.op, raw_op=nd.op.value,
                          name=nd.name, out_shape=tuple(nd.out_shape),
                          params=nd.params, flops=nd.flops, attrs=nd.attrs)
                 for nd in graph.nodes]
        return cls(graph.name, nodes, list(graph.edges), graph=graph)

    @classmethod
    def from_payload(cls, payload: dict) -> "GraphView":
        """Build a view from a :func:`graph_to_dict`-style payload.

        Tolerant of node-level damage (unknown ops, missing fields) so
        the verifier can diagnose it; raises :class:`ValueError` only
        for payloads with no usable node/edge structure.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"graph payload must be a dict, "
                             f"got {type(payload).__name__}")
        raw_nodes = payload.get("nodes")
        if not isinstance(raw_nodes, list):
            raise ValueError("graph payload has no 'nodes' list")
        nodes: list[NodeView] = []
        for index, nd in enumerate(raw_nodes):
            raw_op = str(nd.get("op", ""))
            try:
                op: OpType | None = OpType(raw_op)
            except ValueError:
                op = None
            nodes.append(NodeView(
                node_id=int(nd.get("id", index)),
                op=op,
                raw_op=raw_op,
                name=str(nd.get("name", f"node{index}")),
                out_shape=tuple(int(s) for s in nd.get("out_shape", ())),
                params=int(nd.get("params", 0)),
                flops=int(nd.get("flops", 0)),
                attrs=dict(nd.get("attrs", {}))))
        edges = [(int(e[0]), int(e[1])) for e in payload.get("edges", [])]
        return cls(str(payload.get("name", "<unnamed>")), nodes, edges)

    # -- traversal helpers ----------------------------------------------
    def reachable_from(self, start: int, *,
                       reverse: bool = False) -> set[int]:
        """Ids reachable from ``start`` along (reversed) edges."""
        neighbors = self.pred if reverse else self.succ
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def input_shapes(self, nd: NodeView) -> list[tuple[int, ...]]:
        """Stored output shapes of a node's predecessors, in id order."""
        return [self.by_id[p].out_shape for p in sorted(self.pred[nd.node_id])]


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
RuleCheck = Callable[[GraphView], Iterable[Diagnostic]]


@dataclasses.dataclass(frozen=True)
class Rule:
    """A registered verifier rule.

    ``max_diagnostics`` caps how many findings the rule may emit per
    graph (``None`` = unlimited).  Annotation-drift rules report *all*
    mismatches (collect-then-report) so one `repro lint` run shows the
    full damage; structural rules keep the default cap for readability.
    """

    rule_id: str
    description: str
    check: RuleCheck
    fast: bool = True
    max_diagnostics: int | None = MAX_DIAGNOSTICS_PER_RULE


_RULE_REGISTRY: dict[str, Rule] = {}


def register_rule(rule_obj: Rule, *, replace: bool = False) -> Rule:
    """Add a rule to the registry (``replace=True`` to override)."""
    if not replace and rule_obj.rule_id in _RULE_REGISTRY:
        raise ValueError(f"rule {rule_obj.rule_id!r} is already registered")
    _RULE_REGISTRY[rule_obj.rule_id] = rule_obj
    return rule_obj


def unregister_rule(rule_id: str) -> None:
    """Remove a rule (mainly for tests and plugins)."""
    _RULE_REGISTRY.pop(rule_id, None)


def registered_rules() -> tuple[Rule, ...]:
    """All rules in registration order."""
    return tuple(_RULE_REGISTRY.values())


def rule_ids() -> tuple[str, ...]:
    return tuple(_RULE_REGISTRY)


def rule(rule_id: str, description: str, *, fast: bool = True,
         replace: bool = False,
         max_diagnostics: int | None = MAX_DIAGNOSTICS_PER_RULE,
         ) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator registering a check function as a verifier rule.

    The check receives a :class:`GraphView` and yields
    :class:`Diagnostic` records (use the :func:`error` / :func:`warn` /
    :func:`info` helpers; the rule id is stamped automatically)::

        @rule("no-mega-nodes", "flag nodes with huge outputs")
        def check_mega(view):
            for nd in view.nodes:
                if nd.out_elements > 10**9:
                    yield warn("output tensor is enormous", node=nd)
    """
    def decorator(check: RuleCheck) -> RuleCheck:
        register_rule(Rule(rule_id=rule_id, description=description,
                           check=check, fast=fast,
                           max_diagnostics=max_diagnostics),
                      replace=replace)
        return check
    return decorator


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying one graph."""

    graph_name: str
    diagnostics: tuple[Diagnostic, ...]
    rules_run: tuple[str, ...]

    def by_severity(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.WARN)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity diagnostics were produced."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when no diagnostics at all were produced."""
        return not self.diagnostics

    def format_text(self) -> str:
        """Human-readable multi-line report."""
        if self.clean:
            return f"{self.graph_name}: ok ({len(self.rules_run)} rules)"
        lines = [f"{self.graph_name}: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s), "
                 f"{len(self.infos)} info(s)"]
        ordered = sorted(self.diagnostics,
                         key=lambda d: -d.severity.rank)
        lines.extend(f"  {d.format()}" for d in ordered)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "ok": self.ok,
            "clean": self.clean,
            "rules_run": list(self.rules_run),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class GraphVerificationError(GraphValidationError):
    """Raised by :func:`assert_verified` when a graph has ERROR findings.

    Carries the full :class:`VerificationReport` as ``.report``.
    """

    def __init__(self, report: VerificationReport,
                 context: str | None = None):
        self.report = report
        prefix = f"{context}: " if context else ""
        shown = [d.format() for d in report.errors[:5]]
        extra = len(report.errors) - len(shown)
        if extra > 0:
            shown.append(f"... and {extra} more error(s)")
        super().__init__(
            f"{prefix}graph {report.graph_name!r} failed verification "
            f"({len(report.errors)} error(s)):\n  " + "\n  ".join(shown)
            + f"\n  run `repro lint` for the full report")


_CONV_OPS = (OpType.CONV, OpType.DWCONV, OpType.GROUP_CONV)


# ----------------------------------------------------------------------
# built-in rules
# ----------------------------------------------------------------------
@rule("node-index", "node ids are dense, ordered, and names are unique")
def _check_node_index(view: GraphView) -> Iterator[Diagnostic]:
    for node_id in view.duplicate_ids:
        yield error(f"duplicate node id {node_id}",
                    hint="re-number nodes densely from 0")
    for index, nd in enumerate(view.nodes):
        if nd.node_id != index:
            yield error(f"node ids must be dense and ordered: position "
                        f"{index} holds id {nd.node_id}", node=nd,
                        hint="node_id must equal the node's list position")
    seen: dict[str, int] = {}
    for nd in view.nodes:
        if nd.name in seen:
            yield error(f"duplicate node name {nd.name!r} "
                        f"(also node {seen[nd.name]})", node=nd,
                        hint="GraphBuilder de-duplicates names; raw "
                        "construction must too")
        else:
            seen[nd.name] = nd.node_id


@rule("acyclic", "the graph contains no directed cycles")
def _check_acyclic(view: GraphView) -> Iterator[Diagnostic]:
    for node_id in view.self_loops:
        nd = view.by_id.get(node_id)
        yield error("self-loop edge", node=nd,
                    hint="a node cannot consume its own output")
    indeg = {i: len(view.pred[i]) for i in view.by_id}
    stack = [i for i, d in indeg.items() if d == 0]
    visited = 0
    while stack:
        u = stack.pop()
        visited += 1
        for v in view.succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if visited != len(view.by_id):
        cyclic = sorted(i for i, d in indeg.items() if d > 0)
        yield error(f"graph contains a cycle through nodes {cyclic[:8]}",
                    hint="edges must point strictly forward (data-flow "
                    "order); check edge direction")


@rule("io-structure", "exactly one INPUT source and one OUTPUT sink")
def _check_io_structure(view: GraphView) -> Iterator[Diagnostic]:
    for u, v in view.dangling_edges:
        yield error(f"edge ({u}, {v}) references an unknown node",
                    hint="every edge endpoint must be a declared node id")
    inputs = [nd for nd in view.nodes if nd.op is OpType.INPUT]
    outputs = [nd for nd in view.nodes if nd.op is OpType.OUTPUT]
    if len(inputs) != 1:
        yield error(f"expected exactly 1 INPUT node, found {len(inputs)}",
                    hint="merge entry points into a single INPUT")
    if len(outputs) != 1:
        yield error(f"expected exactly 1 OUTPUT node, found {len(outputs)}",
                    hint="append a single OUTPUT sink via "
                    "GraphBuilder.output()")
    input_ids = {nd.node_id for nd in inputs}
    output_ids = {nd.node_id for nd in outputs}
    for nd in view.nodes:
        if not view.pred[nd.node_id] and nd.node_id not in input_ids:
            yield error("source node is not the INPUT", node=nd,
                        hint="every non-INPUT node needs at least one "
                        "incoming edge")
        if not view.succ[nd.node_id] and nd.node_id not in output_ids:
            yield error("sink node is not the OUTPUT", node=nd,
                        hint="every non-OUTPUT node's result must be "
                        "consumed")
    if len(view.nodes) < 3:
        yield info(f"trivial graph with only {len(view.nodes)} node(s)")


@rule("op-vocabulary", "every node op belongs to the primitive vocabulary")
def _check_op_vocabulary(view: GraphView) -> Iterator[Diagnostic]:
    vocab = frozenset(OP_VOCABULARY)
    for nd in view.nodes:
        if nd.op is None:
            yield error(f"unknown op {nd.raw_op!r}", node=nd,
                        hint="use one of repro.graphs.OpType; unknown ops "
                        "cannot be one-hot encoded for the GHN")
        elif nd.op not in vocab:  # defensive: vocab == OpType today
            yield error(f"op {nd.op.value!r} missing from OP_VOCABULARY",
                        node=nd)


@rule("orphan-nodes", "every node lies on an INPUT -> OUTPUT path")
def _check_orphan_nodes(view: GraphView) -> Iterator[Diagnostic]:
    inputs = [nd.node_id for nd in view.nodes if nd.op is OpType.INPUT]
    outputs = [nd.node_id for nd in view.nodes if nd.op is OpType.OUTPUT]
    if len(inputs) != 1 or len(outputs) != 1:
        return  # io-structure reports the root cause
    forward = view.reachable_from(inputs[0])
    backward = view.reachable_from(outputs[0], reverse=True)
    for nd in view.nodes:
        on_path = nd.node_id in forward and nd.node_id in backward
        if on_path:
            continue
        if nd.node_id not in forward:
            yield error("dead node: unreachable from INPUT", node=nd,
                        hint="remove the node or wire it to the data flow")
        else:
            yield error("dead node: cannot reach OUTPUT", node=nd,
                        hint="dangling branch; its result is never "
                        "consumed")


@rule("count-sanity", "shapes, params and flops are well-formed numbers")
def _check_count_sanity(view: GraphView) -> Iterator[Diagnostic]:
    for nd in view.nodes:
        if any(s <= 0 for s in nd.out_shape):
            yield error(f"non-positive dimension in out_shape "
                        f"{nd.out_shape}", node=nd,
                        hint="shape inference produced an empty tensor; "
                        "check kernel/stride/padding against input size")
        if not nd.out_shape and nd.op is not None:
            yield error("empty out_shape", node=nd)
        if nd.params < 0:
            yield error(f"negative parameter count {nd.params}", node=nd)
        if nd.flops < 0:
            yield error(f"negative FLOP count {nd.flops}", node=nd)
        if (nd.op is not None and is_weighted_op(nd.op)
                and nd.params == 0):
            yield warn(f"weighted op {nd.op.value!r} carries zero "
                       f"parameters", node=nd,
                       hint="params for weighted layers should be > 0")


@rule("shape-consistency",
      "stored shapes match recomputation from inputs + attrs", fast=False,
      max_diagnostics=None)
def _check_shape_consistency(view: GraphView) -> Iterator[Diagnostic]:
    for nd in view.nodes:
        in_shapes = view.input_shapes(nd)
        if nd.op is OpType.LINEAR and in_shapes and len(in_shapes[0]) != 1:
            yield error(f"linear over non-flattened input shape "
                        f"{in_shapes[0]}", node=nd,
                        hint="insert a flatten() before the linear layer")
            continue
        if nd.op in _CONV_OPS and in_shapes and len(in_shapes[0]) != 3:
            yield error(f"convolution over non-feature-map input shape "
                        f"{in_shapes[0]}", node=nd)
            continue
        if (nd.op is not None and not is_merge(nd.op)
                and nd.op is not OpType.OUTPUT and len(in_shapes) > 1):
            yield warn(f"single-input op {nd.op.value!r} has "
                       f"{len(in_shapes)} predecessors", node=nd,
                       hint="only SUM/MUL/CONCAT merge branches")
        recomputed = infer_output_shape(nd.op, nd.attrs, in_shapes,
                                        stored_shape=nd.out_shape)
        if recomputed is not None and recomputed != nd.out_shape:
            yield error(f"stored out_shape {nd.out_shape} != recomputed "
                        f"{recomputed}", node=nd,
                        hint="shape inference drifted; rebuild the graph "
                        "through GraphBuilder")


@rule("merge-compatibility",
      "branch shapes are compatible at SUM/MUL/CONCAT joins", fast=False)
def _check_merge_compatibility(view: GraphView) -> Iterator[Diagnostic]:
    for nd in view.nodes:
        if nd.op is None or not is_merge(nd.op):
            continue
        in_shapes = view.input_shapes(nd)
        if len(in_shapes) < 2:
            yield warn(f"merge op {nd.op.value!r} has "
                       f"{len(in_shapes)} input(s)", node=nd,
                       hint="a merge with fewer than 2 branches is "
                       "degenerate")
            continue
        if nd.op is OpType.SUM and len(set(in_shapes)) != 1:
            yield error(f"add join over mismatched branch shapes "
                        f"{sorted(set(in_shapes))}", node=nd,
                        hint="residual branches must agree exactly in "
                        "shape")
        elif nd.op is OpType.MUL:
            if broadcast_mul_shape(in_shapes) is None:
                yield error(f"mul join over non-broadcastable shapes "
                            f"{sorted(set(in_shapes))}", node=nd,
                            hint="only (C,1,1) scales broadcast onto "
                            "(C,H,W)")
        elif nd.op is OpType.CONCAT:
            ranks = {len(s) for s in in_shapes}
            if ranks == {3}:
                spatial = {s[1:] for s in in_shapes}
                if len(spatial) != 1:
                    yield error(f"concat join over mismatched spatial "
                                f"dims {sorted(spatial)}", node=nd,
                                hint="concatenation is channel-wise; "
                                "H and W must match")
            elif ranks != {1}:
                yield error(f"concat join over mixed-rank shapes "
                            f"{sorted(set(in_shapes))}", node=nd)


@rule("cost-recount",
      "stored params/FLOPs match an independent recount", fast=False,
      max_diagnostics=None)
def _check_cost_recount(view: GraphView) -> Iterator[Diagnostic]:
    for nd in view.nodes:
        recomputed = recount_cost(nd.op, nd.attrs, view.input_shapes(nd))
        if recomputed is None:
            continue
        params, flops = recomputed
        if nd.params != params:
            yield error(f"stored params {nd.params} != recomputed "
                        f"{params}", node=nd,
                        hint="parameter miscounts corrupt the all-reduce "
                        "payload model")
        if nd.flops != flops:
            yield error(f"stored flops {nd.flops} != recomputed {flops}",
                        node=nd,
                        hint="FLOP miscounts corrupt the compute-time "
                        "model")
    if view.graph is not None:
        total_params = sum(nd.params for nd in view.nodes)
        total_flops = sum(nd.flops for nd in view.nodes)
        if view.graph.total_params != total_params:
            yield error(f"graph total_params {view.graph.total_params} != "
                        f"node sum {total_params}")
        if view.graph.total_flops != total_flops:
            yield error(f"graph total_flops {view.graph.total_flops} != "
                        f"node sum {total_flops}")


@rule("virtual-edges",
      "virtual-edge weights match an independent BFS recomputation",
      fast=False)
def _check_virtual_edges(view: GraphView) -> Iterator[Diagnostic]:
    graph = view.graph
    if graph is None:
        return  # only meaningful against library machinery
    n = graph.num_nodes
    s_max = VIRTUAL_EDGE_S_MAX
    for reverse in (False, True):
        weights = virtual_edge_weights(graph, s_max, reverse=reverse)
        neighbors = (graph.predecessors if reverse else graph.successors)
        expected = np.zeros((n, n), dtype=np.float64)
        for src in range(n):
            dist = {src: 0}
            frontier = [src]
            for depth in range(1, s_max + 1):
                nxt: list[int] = []
                for u in frontier:
                    for v in neighbors(u):
                        if v not in dist:
                            dist[v] = depth
                            nxt.append(v)
                frontier = nxt
            for target, d in dist.items():
                if 1 < d <= s_max:
                    # W[v, u] weights what v receives from u.
                    expected[target, src] = 1.0 / d
        bad = np.argwhere(~np.isclose(weights, expected, atol=1e-12))
        if len(bad):
            direction = "backward" if reverse else "forward"
            v0, u0 = (int(i) for i in bad[0])
            yield error(
                f"{direction} virtual-edge weights diverge from BFS "
                f"recomputation at {len(bad)} entries; first at "
                f"W[{v0}, {u0}]: {weights[v0, u0]:.6f} != "
                f"{expected[v0, u0]:.6f}",
                hint="virtual_edge_weights(Eq. 4) must equal 1/s_vu for "
                "1 < s_vu <= s_max and 0 elsewhere")


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _as_view(target: ComputationalGraph | GraphView | dict) -> GraphView:
    if isinstance(target, GraphView):
        return target
    if isinstance(target, ComputationalGraph):
        return GraphView.from_graph(target)
    if isinstance(target, dict):
        return GraphView.from_payload(target)
    raise TypeError(f"cannot verify object of type {type(target).__name__}")


def _select_rules(rules: Iterable[str] | None, level: str,
                  ignore: Iterable[str]) -> list[Rule]:
    ignored = set(ignore)
    if rules is not None:
        selected = []
        seen: set[str] = set()
        for rule_id in rules:
            if rule_id not in _RULE_REGISTRY:
                raise KeyError(f"unknown verifier rule {rule_id!r}; "
                               f"registered: {sorted(_RULE_REGISTRY)}")
            if rule_id in seen:
                raise ValueError(f"rule {rule_id!r} requested more than "
                                 f"once")
            seen.add(rule_id)
            selected.append(_RULE_REGISTRY[rule_id])
    elif level == FAST_LEVEL:
        selected = [r for r in _RULE_REGISTRY.values() if r.fast]
    elif level == FULL_LEVEL:
        selected = list(_RULE_REGISTRY.values())
    else:
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    return [r for r in selected if r.rule_id not in ignored]


def verify_graph(target: ComputationalGraph | GraphView | dict, *,
                 rules: Iterable[str] | None = None,
                 level: str = FULL_LEVEL,
                 ignore: Iterable[str] = ()) -> VerificationReport:
    """Run verifier rules over a graph (or serialized payload).

    Parameters
    ----------
    target:
        A :class:`ComputationalGraph`, a raw payload dict in the
        :func:`~repro.graphs.serialization.graph_to_dict` wire format,
        or a prebuilt :class:`GraphView`.
    rules:
        Explicit rule ids to run (overrides ``level``).
    level:
        ``"fast"`` for structural rules only, ``"full"`` (default) to
        also recompute shapes, costs and virtual edges.
    ignore:
        Rule ids to skip.
    """
    view = _as_view(target)
    selected = _select_rules(rules, level, ignore)
    diagnostics: list[Diagnostic] = []
    for rule_obj in selected:
        emitted = 0
        cap = rule_obj.max_diagnostics
        for diag in rule_obj.check(view):
            diagnostics.append(
                dataclasses.replace(diag, rule_id=rule_obj.rule_id))
            emitted += 1
            if cap is not None and emitted >= cap:
                diagnostics.append(Diagnostic(
                    Severity.INFO,
                    f"further findings suppressed after {cap}",
                    rule_id=rule_obj.rule_id))
                break
    return VerificationReport(
        graph_name=view.name,
        diagnostics=tuple(diagnostics),
        rules_run=tuple(r.rule_id for r in selected))


def assert_verified(target: ComputationalGraph | GraphView | dict, *,
                    level: str = FAST_LEVEL,
                    rules: Iterable[str] | None = None,
                    context: str | None = None) -> VerificationReport:
    """Verify and raise :class:`GraphVerificationError` on any ERROR.

    The fail-fast guard used at the GHN ``embed()`` and
    ``core.predictor`` entry points; returns the report when the graph
    is usable (warnings allowed).
    """
    report = verify_graph(target, rules=rules, level=level)
    if not report.ok:
        raise GraphVerificationError(report, context=context)
    return report
