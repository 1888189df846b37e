"""Whole-graph symbolic shape inference.

:class:`ShapeInferenceEngine` derives every node's output shape from the
graph's INPUT shape and the per-op rules in :mod:`repro.static.rules`,
*without* consulting stored ``out_shape`` annotations.  It allocates one
symbolic dimension variable per (node, axis), asserts each op's
constraints into a :class:`~repro.static.symbolic.ShapeEnv`, and solves
to a fixpoint -- so information flows forward (conv arithmetic) and
backward (e.g. a stride-1 conv's input size from its output size) in the
same pass.  Contradictions and rank errors surface as structured
:class:`~repro.graphs.verify.Diagnostic` records, never exceptions.

The result also recomputes exact per-node ``params``/``flops`` from the
*inferred* shapes, and can be cross-checked against a graph's stored
annotations (collecting **all** mismatches, not just the first).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..graphs.ops import OpType
from ..graphs.verify import (Diagnostic, GraphView, NodeView, Severity,
                             error)
from . import rules as op_rules
from .symbolic import Dim, ShapeEnv, SymShape, concrete, shape_of

__all__ = ["InferenceResult", "ShapeInferenceEngine", "infer_shapes"]

Shape = tuple[int, ...]

_CONV_LIKE = frozenset({
    OpType.CONV, OpType.DWCONV, OpType.GROUP_CONV, OpType.MAX_POOL,
    OpType.AVG_POOL, OpType.GLOBAL_AVG_POOL, OpType.ADAPTIVE_AVG_POOL,
    OpType.ZERO_PAD, OpType.UPSAMPLE,
})


class _ForwardConstraint:
    """Fires an op's concrete shape-transfer once all inputs resolve.

    This complements the symbolic ``constrain`` hooks: ops whose
    symbolic rules are deliberately partial (e.g. MUL broadcast spatial
    dims) still infer fully once their inputs are concrete, and
    attrs/input inconsistencies become contradictions.
    """

    done = False

    def __init__(self, rule: op_rules.OpRule, nd: NodeView,
                 in_syms: list[SymShape], out_sym: SymShape, site: str):
        self.rule = rule
        self.nd = nd
        self.in_syms = in_syms
        self.out_sym = out_sym
        self.site = site

    def propagate(self, env: ShapeEnv) -> bool:
        in_shapes = [concrete(s, env) for s in self.in_syms]
        if any(s is None for s in in_shapes):
            return False
        self.done = True
        out = self.rule.output_shape(self.nd.attrs, in_shapes)
        if out is None:
            env.record_contradiction(
                self.site,
                f"cannot derive output shape of op {self.nd.raw_op!r} "
                f"from input shapes {in_shapes} and attrs")
            return False
        if any(s <= 0 for s in out):
            env.record_contradiction(
                self.site,
                f"inferred empty tensor {out} (window/stride does not "
                f"fit the input)")
            return False
        return env.unify_shapes(self.out_sym, shape_of(out),
                                site=self.site)


@dataclasses.dataclass(frozen=True)
class InferenceResult:
    """Per-node inferred shapes/costs plus structured diagnostics."""

    graph_name: str
    shapes: dict[int, Shape | None]
    params: dict[int, int | None]
    flops: dict[int, int | None]
    diagnostics: tuple[Diagnostic, ...]
    underdetermined: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not any(d.severity is Severity.ERROR
                       for d in self.diagnostics)

    @property
    def total_params(self) -> int:
        return sum(p for p in self.params.values() if p is not None)

    @property
    def total_flops(self) -> int:
        return sum(f for f in self.flops.values() if f is not None)

    def check_against_stored(self, view: GraphView
                             ) -> tuple[Diagnostic, ...]:
        """Compare inferred annotations against the stored ones.

        Collect-then-report: returns one ERROR per mismatching node and
        field across the whole graph, never stopping at the first.
        """
        found: list[Diagnostic] = []
        for nd in view.nodes:
            shape = self.shapes.get(nd.node_id)
            if shape is not None and shape != nd.out_shape:
                found.append(error(
                    f"inferred out_shape {shape} != stored "
                    f"{nd.out_shape}", node=nd,
                    hint="stored annotations drifted from op semantics; "
                    "reload with graph_from_dict(infer_shapes=True)"))
            params = self.params.get(nd.node_id)
            if params is not None and params != nd.params:
                found.append(error(
                    f"inferred params {params} != stored {nd.params}",
                    node=nd))
            flops = self.flops.get(nd.node_id)
            if flops is not None and flops != nd.flops:
                found.append(error(
                    f"inferred flops {flops} != stored {nd.flops}",
                    node=nd))
        return tuple(found)


class ShapeInferenceEngine:
    """Forward/backward constraint-based shape inference over a DAG."""

    def infer(self, target, *, input_shape: Shape | None = None,
              ) -> InferenceResult:
        """Infer every node's shape from the INPUT shape alone.

        ``input_shape`` overrides the INPUT node's stored shape (the one
        piece of ground truth inference cannot derive).
        """
        view = _as_view(target)
        diagnostics: list[Diagnostic] = []
        order = _topo_order(view)
        if order is None or view.duplicate_ids:
            diagnostics.append(error(
                "cannot infer shapes: graph structure is not a DAG "
                "with unique node ids",
                hint="fix structural errors (repro lint) first"))
            return InferenceResult(
                graph_name=view.name,
                shapes={nd.node_id: None for nd in view.nodes},
                params={nd.node_id: None for nd in view.nodes},
                flops={nd.node_id: None for nd in view.nodes},
                diagnostics=tuple(diagnostics), underdetermined=())

        env = ShapeEnv()
        ranks = self._rank_pass(view, order, input_shape, diagnostics)
        syms: dict[int, SymShape | None] = {}
        for node_id in order:
            nd = view.by_id[node_id]
            rank = ranks.get(node_id)
            if rank is None:
                syms[node_id] = None
                continue
            if nd.op is OpType.INPUT:
                seed = input_shape if input_shape is not None \
                    else nd.out_shape
                syms[node_id] = shape_of(seed)
                continue
            syms[node_id] = tuple(
                env.fresh(f"{nd.name}.d{axis}") for axis in range(rank))

        # Assert per-op constraints (+ the generic forward transfer).
        for node_id in order:
            nd = view.by_id[node_id]
            out_sym = syms[node_id]
            if out_sym is None or nd.op is None or nd.op is OpType.INPUT:
                continue
            rule = op_rules.get_op_rule(nd.op)
            if rule is None:
                continue
            in_syms = [syms[p] for p in sorted(view.pred[node_id])]
            if any(s is None for s in in_syms):
                continue
            site = _site(nd)
            rule.constrain(op_rules.NodeContext(
                env=env, attrs=nd.attrs,
                in_shapes=list(in_syms), out=out_sym, site=site))
            if in_syms:
                env.add_constraint(_ForwardConstraint(
                    rule, nd, list(in_syms), out_sym, site))
        env.solve()

        for contradiction in env.contradictions:
            node = _node_for_site(view, contradiction.site)
            diagnostics.append(error(
                f"shape contradiction: {contradiction.message}",
                node=node,
                hint="op attrs and data flow disagree; the graph cannot "
                "be scheduled"))

        shapes: dict[int, Shape | None] = {}
        underdetermined: list[int] = []
        for nd in view.nodes:
            shape = concrete(syms.get(nd.node_id), env)
            shapes[nd.node_id] = shape
            if shape is None:
                underdetermined.append(nd.node_id)

        params: dict[int, int | None] = {}
        flops: dict[int, int | None] = {}
        for nd in view.nodes:
            in_shapes = [shapes.get(p)
                         for p in sorted(view.pred[nd.node_id])]
            if any(s is None for s in in_shapes):
                params[nd.node_id] = flops[nd.node_id] = None
                continue
            cost = op_rules.recount_cost(nd.op, nd.attrs, in_shapes)
            if cost is None:
                params[nd.node_id] = flops[nd.node_id] = None
            else:
                params[nd.node_id], flops[nd.node_id] = cost

        return InferenceResult(
            graph_name=view.name, shapes=shapes, params=params,
            flops=flops, diagnostics=tuple(diagnostics),
            underdetermined=tuple(underdetermined))

    # ------------------------------------------------------------------
    def _rank_pass(self, view: GraphView, order: Sequence[int],
                   input_shape: Shape | None,
                   diagnostics: list[Diagnostic]) -> dict[int, int | None]:
        """Forward rank inference, with stored-rank fallback so a local
        rank error does not blind the rest of the graph."""
        ranks: dict[int, int | None] = {}
        for node_id in order:
            nd = view.by_id[node_id]
            stored = len(nd.out_shape) if nd.out_shape else None
            if nd.op is OpType.INPUT:
                seed = input_shape if input_shape is not None \
                    else nd.out_shape
                ranks[node_id] = len(seed) if seed else None
                continue
            rule = op_rules.get_op_rule(nd.op) if nd.op else None
            if rule is None:
                ranks[node_id] = stored
                continue
            in_ranks = [ranks.get(p)
                        for p in sorted(view.pred[node_id])]
            if not in_ranks or any(r is None for r in in_ranks):
                ranks[node_id] = stored
                continue
            rank = rule.output_rank(nd.attrs, in_ranks)
            if rank is None:
                diagnostics.append(self._rank_error(nd, in_ranks))
                ranks[node_id] = stored
            else:
                ranks[node_id] = rank
        return ranks

    @staticmethod
    def _rank_error(nd: NodeView, in_ranks: list[int]) -> Diagnostic:
        if nd.op is OpType.LINEAR:
            return error(
                f"linear over non-flattened input (rank {in_ranks[0]})",
                node=nd, hint="insert a flatten() before the linear "
                "layer")
        if nd.op in _CONV_LIKE:
            return error(
                f"{nd.raw_op} over non-feature-map input "
                f"(rank {in_ranks[0]} != 3)", node=nd)
        return error(
            f"op {nd.raw_op!r} cannot accept input ranks {in_ranks}",
            node=nd)


def _site(nd: NodeView) -> str:
    return f"{nd.name}#{nd.node_id}"


def _node_for_site(view: GraphView, site: str) -> NodeView | None:
    _, _, raw_id = site.rpartition("#")
    try:
        return view.by_id.get(int(raw_id))
    except ValueError:
        return None


def _as_view(target) -> GraphView:
    if isinstance(target, GraphView):
        return target
    if isinstance(target, dict):
        return GraphView.from_payload(target)
    return GraphView.from_graph(target)


def _topo_order(view: GraphView) -> list[int] | None:
    """Deterministic (min-id first) Kahn order; None if cyclic."""
    import heapq

    indeg = {i: len(view.pred[i]) for i in view.by_id}
    heap = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in view.succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    return order if len(order) == len(view.by_id) else None


def infer_shapes(target, *, input_shape: Shape | None = None,
                 ) -> InferenceResult:
    """Convenience wrapper: run :class:`ShapeInferenceEngine` once."""
    return ShapeInferenceEngine().infer(target, input_shape=input_shape)
