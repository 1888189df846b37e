"""Per-op shape and cost rules: the single source of op semantics.

Each primitive :class:`~repro.graphs.ops.OpType` gets one
:class:`OpRule` describing its semantics four ways:

* ``output_rank``   -- rank transfer (used by the engine's forward rank
  pass; ``None`` means the op cannot accept inputs of those ranks);
* ``output_shape``  -- concrete shape transfer from fully-known input
  shapes + attrs (``None`` when underdetermined, e.g. missing attrs);
* ``cost``          -- exact ``(params, flops)`` of the node (``None``
  when not derivable from attrs + input shapes);
* ``constrain``     -- symbolic constraints tying input dims to output
  dims in a :class:`~repro.static.symbolic.ShapeEnv`, enabling
  *backward* propagation (e.g. solving an unknown input height through
  a stride-1 convolution) on top of plain forward inference.

FLOPs convention: one multiply-accumulate = 2 FLOPs; purely elementwise
ops cost 1 FLOP per output element, a few cost more
(:data:`POINTWISE_FLOPS`).

Rules live in a registry keyed by op type; registering the same op
twice is an error (``replace=True`` to override deliberately, mainly in
tests).  Every consumer of op semantics reads this registry:
:meth:`~repro.graphs.builder.GraphBuilder.add_op` (behind every builder
method) annotates each new node with the shape and cost derived here,
:mod:`repro.graphs.verify` re-derives them for its full-level shape/FLOP
checks, and :mod:`repro.static.infer` runs them over whole graphs.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..graphs.ops import OpType
from .symbolic import Dim, ShapeEnv, SymShape

__all__ = [
    "NodeContext", "OpRule", "SHAPE_RULES", "register_op_rule",
    "get_op_rule", "infer_output_shape", "recount_cost",
    "conv_output_size", "broadcast_mul_shape", "POINTWISE_FLOPS",
    "DuplicateRuleError",
]

Shape = tuple[int, ...]

#: FLOP cost per output element of each pointwise op (activations and
#: dropout).
POINTWISE_FLOPS: dict[OpType, int] = {
    OpType.RELU: 1, OpType.RELU6: 1, OpType.SIGMOID: 4,
    OpType.HARD_SIGMOID: 2, OpType.TANH: 4, OpType.SILU: 5,
    OpType.HARD_SWISH: 3, OpType.GELU: 8, OpType.SOFTMAX: 5,
    OpType.DROPOUT: 1,
}


class DuplicateRuleError(ValueError):
    """A shape rule for this op type is already registered."""


def _elements(shape: Shape) -> int:
    total = 1
    for s in shape:
        total *= s
    return total


def conv_output_size(size: int, kernel: int, stride: int,
                     padding: int) -> int:
    """Spatial output size of a convolution/pooling window (may be
    non-positive for invalid configurations; callers diagnose)."""
    return (size + 2 * padding - kernel) // stride + 1


def broadcast_mul_shape(shapes: Sequence[Shape]) -> Shape | None:
    """Output shape of an elementwise MUL join, or ``None`` when the
    inputs do not broadcast: identical shapes pass through and
    ``(C, 1, 1)`` scale vectors broadcast onto a full ``(C, H, W)``."""
    if not shapes:
        return None
    full = max(shapes, key=lambda s: len(s) * 10**9 + sum(s))
    for shp in shapes:
        if shp != full and not (len(shp) == len(full) == 3
                                and shp[0] == full[0]
                                and shp[1] == shp[2] == 1):
            return None
    return full


@dataclasses.dataclass
class NodeContext:
    """Everything a rule needs to constrain one node symbolically."""

    env: ShapeEnv
    attrs: dict
    in_shapes: list[SymShape]
    out: SymShape
    site: str

    def unify_out_with_first_input(self) -> None:
        if self.in_shapes:
            self.env.unify_shapes(self.out, self.in_shapes[0],
                                  site=self.site)


class OpRule:
    """Base rule: single-input, shape-preserving, zero-cost op."""

    op: OpType

    def __init__(self, op: OpType):
        self.op = op

    # -- rank pass ------------------------------------------------------
    def output_rank(self, attrs: dict,
                    in_ranks: Sequence[int]) -> int | None:
        return in_ranks[0] if in_ranks else None

    # -- concrete transfer ----------------------------------------------
    def output_shape(self, attrs: dict,
                     in_shapes: Sequence[Shape]) -> Shape | None:
        return in_shapes[0] if in_shapes else None

    # -- cost transfer --------------------------------------------------
    def cost(self, attrs: dict, in_shapes: Sequence[Shape],
             out_shape: Shape | None) -> tuple[int, int] | None:
        return 0, 0

    # -- symbolic constraints -------------------------------------------
    def constrain(self, ctx: NodeContext) -> None:
        """Default: output unified with the (single) input."""
        ctx.unify_out_with_first_input()


class _PointwiseRule(OpRule):
    """Activations / dropout: shape preserving, k FLOPs per element."""

    def cost(self, attrs, in_shapes, out_shape):
        if not in_shapes:
            return None
        return 0, POINTWISE_FLOPS[self.op] * _elements(in_shapes[0])


class _InputRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return None  # the engine seeds INPUT from the graph itself

    def output_shape(self, attrs, in_shapes):
        return None

    def constrain(self, ctx):
        pass  # bound directly by the engine


class _ConvRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return 3 if in_ranks and in_ranks[0] == 3 else None

    def output_shape(self, attrs, in_shapes):
        if not in_shapes or len(in_shapes[0]) != 3:
            return None
        try:
            k, s, p = (attrs["kernel_size"], attrs["stride"],
                       attrs["padding"])
            c_out = attrs["out_channels"]
        except KeyError:
            return None
        first = in_shapes[0]
        return (int(c_out), conv_output_size(first[1], k, s, p),
                conv_output_size(first[2], k, s, p))

    def cost(self, attrs, in_shapes, out_shape):
        if (not in_shapes or len(in_shapes[0]) != 3
                or out_shape is None or len(out_shape) != 3):
            return None
        try:
            k = attrs["kernel_size"]
        except KeyError:
            return None
        groups = attrs.get("groups", 1)
        c_in, (c_out, h, w) = in_shapes[0][0], out_shape
        if groups <= 0 or c_in % groups:
            return None
        weight = k * k * (c_in // groups) * c_out
        bias = bool(attrs.get("bias", True))
        params = weight + (c_out if bias else 0)
        flops = 2 * weight * h * w + (c_out * h * w if bias else 0)
        return params, flops

    def constrain(self, ctx):
        if len(ctx.in_shapes) != 1 or len(ctx.in_shapes[0]) != 3:
            return
        inp = ctx.in_shapes[0]
        attrs = ctx.attrs
        if "out_channels" in attrs:
            ctx.env.unify(ctx.out[0], Dim.of(attrs["out_channels"]),
                          site=ctx.site)
        if "in_channels" in attrs:
            ctx.env.unify(inp[0], Dim.of(attrs["in_channels"]),
                          site=ctx.site)
        try:
            k, s, p = (attrs["kernel_size"], attrs["stride"],
                       attrs["padding"])
        except KeyError:
            return
        for axis in (1, 2):
            ctx.env.require_conv(ctx.out[axis], inp[axis], kernel=k,
                                 stride=s, padding=p, site=ctx.site)


class _PoolRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return 3 if in_ranks and in_ranks[0] == 3 else None

    def output_shape(self, attrs, in_shapes):
        if not in_shapes or len(in_shapes[0]) != 3:
            return None
        try:
            k, s, p = (attrs["kernel_size"], attrs["stride"],
                       attrs["padding"])
        except KeyError:
            return None
        first = in_shapes[0]
        return (first[0], conv_output_size(first[1], k, s, p),
                conv_output_size(first[2], k, s, p))

    def cost(self, attrs, in_shapes, out_shape):
        if out_shape is None or len(out_shape) != 3:
            return None
        try:
            k = attrs["kernel_size"]
        except KeyError:
            return None
        return 0, k * k * out_shape[0] * out_shape[1] * out_shape[2]

    def constrain(self, ctx):
        if len(ctx.in_shapes) != 1 or len(ctx.in_shapes[0]) != 3:
            return
        inp = ctx.in_shapes[0]
        ctx.env.unify(ctx.out[0], inp[0], site=ctx.site)
        try:
            k, s, p = (ctx.attrs["kernel_size"], ctx.attrs["stride"],
                       ctx.attrs["padding"])
        except KeyError:
            return
        for axis in (1, 2):
            ctx.env.require_conv(ctx.out[axis], inp[axis], kernel=k,
                                 stride=s, padding=p, site=ctx.site)


class _GlobalPoolRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return 3 if in_ranks and in_ranks[0] == 3 else None

    def _spatial(self, attrs) -> int:
        return 1

    def output_shape(self, attrs, in_shapes):
        if not in_shapes or len(in_shapes[0]) != 3:
            return None
        size = self._spatial(attrs)
        return (in_shapes[0][0], size, size) if size else None

    def cost(self, attrs, in_shapes, out_shape):
        if not in_shapes or len(in_shapes[0]) != 3:
            return None
        return 0, _elements(in_shapes[0])

    def constrain(self, ctx):
        if len(ctx.in_shapes) != 1 or len(ctx.in_shapes[0]) != 3:
            return
        size = self._spatial(ctx.attrs)
        ctx.env.unify(ctx.out[0], ctx.in_shapes[0][0], site=ctx.site)
        if size:
            ctx.env.unify(ctx.out[1], Dim.of(size), site=ctx.site)
            ctx.env.unify(ctx.out[2], Dim.of(size), site=ctx.site)


class _AdaptivePoolRule(_GlobalPoolRule):
    def _spatial(self, attrs) -> int:
        size = attrs.get("output_size")
        return int(size) if size is not None else 0


class _LinearRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return 1 if in_ranks and in_ranks[0] == 1 else None

    def output_shape(self, attrs, in_shapes):
        out_features = attrs.get("out_features")
        return None if out_features is None else (int(out_features),)

    def cost(self, attrs, in_shapes, out_shape):
        if (not in_shapes or len(in_shapes[0]) != 1
                or "out_features" not in attrs):
            return None
        in_f, out_f = in_shapes[0][0], attrs["out_features"]
        bias = bool(attrs.get("bias", True))
        params = in_f * out_f + (out_f if bias else 0)
        flops = 2 * in_f * out_f + (out_f if bias else 0)
        return params, flops

    def constrain(self, ctx):
        if "out_features" in ctx.attrs:
            ctx.env.unify(ctx.out[0], Dim.of(ctx.attrs["out_features"]),
                          site=ctx.site)
        if ("in_features" in ctx.attrs and ctx.in_shapes
                and len(ctx.in_shapes[0]) == 1):
            ctx.env.unify(ctx.in_shapes[0][0],
                          Dim.of(ctx.attrs["in_features"]),
                          site=ctx.site)


class _FlattenRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return 1 if in_ranks else None

    def output_shape(self, attrs, in_shapes):
        return (_elements(in_shapes[0]),) if in_shapes else None

    def constrain(self, ctx):
        if ctx.in_shapes:
            ctx.env.require_product(ctx.out[0], list(ctx.in_shapes[0]),
                                    site=ctx.site)


class _BatchNormRule(OpRule):
    def cost(self, attrs, in_shapes, out_shape):
        if not in_shapes:
            return None
        return 2 * in_shapes[0][0], 4 * _elements(in_shapes[0])


class _LayerNormRule(OpRule):
    def cost(self, attrs, in_shapes, out_shape):
        if not in_shapes:
            return None
        n = _elements(in_shapes[0])
        return 2 * n, 5 * n


class _LRNRule(OpRule):
    def cost(self, attrs, in_shapes, out_shape):
        size = attrs.get("size")
        if size is None or not in_shapes:
            return None
        return 0, (2 * size + 3) * _elements(in_shapes[0])


class _ZeroPadRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return 3 if in_ranks and in_ranks[0] == 3 else None

    def output_shape(self, attrs, in_shapes):
        pad = attrs.get("padding")
        if pad is None or not in_shapes or len(in_shapes[0]) != 3:
            return None
        first = in_shapes[0]
        return (first[0], first[1] + 2 * pad, first[2] + 2 * pad)

    def constrain(self, ctx):
        pad = ctx.attrs.get("padding")
        if pad is None or not ctx.in_shapes or len(ctx.in_shapes[0]) != 3:
            return
        inp = ctx.in_shapes[0]
        ctx.env.unify(ctx.out[0], inp[0], site=ctx.site)
        for axis in (1, 2):
            # out = in + 2*pad is conv arithmetic with kernel=1, stride=1.
            ctx.env.require_conv(ctx.out[axis], inp[axis], kernel=1,
                                 stride=1, padding=pad, site=ctx.site)


class _UpsampleRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return 3 if in_ranks and in_ranks[0] == 3 else None

    def output_shape(self, attrs, in_shapes):
        scale = attrs.get("scale")
        if scale is None or not in_shapes or len(in_shapes[0]) != 3:
            return None
        first = in_shapes[0]
        return (first[0], first[1] * scale, first[2] * scale)

    def cost(self, attrs, in_shapes, out_shape):
        scale = attrs.get("scale")
        if scale is None or not in_shapes or len(in_shapes[0]) != 3:
            return None
        return 0, _elements(in_shapes[0]) * scale * scale

    def constrain(self, ctx):
        scale = ctx.attrs.get("scale")
        if scale is None or not ctx.in_shapes or len(ctx.in_shapes[0]) != 3:
            return
        inp = ctx.in_shapes[0]
        ctx.env.unify(ctx.out[0], inp[0], site=ctx.site)
        for axis in (1, 2):
            ctx.env.require_scale(ctx.out[axis], inp[axis], scale,
                                  site=ctx.site)


class _IdentityRule(OpRule):
    """IDENTITY, including the channel-split halves from
    :meth:`GraphBuilder.channel_split` (``attrs["split"]`` set)."""

    def output_shape(self, attrs, in_shapes):
        if not in_shapes:
            return None
        first = in_shapes[0]
        if "split" in attrs and len(first) == 3:
            return (first[0] // 2, first[1], first[2])
        return first

    def constrain(self, ctx):
        if not ctx.in_shapes:
            return
        inp = ctx.in_shapes[0]
        if "split" in ctx.attrs and len(inp) == 3:
            # in_channels == 2 * out_channels, exactly invertible.
            ctx.env.require_scale(inp[0], ctx.out[0], 2, site=ctx.site)
            ctx.env.unify(ctx.out[1], inp[1], site=ctx.site)
            ctx.env.unify(ctx.out[2], inp[2], site=ctx.site)
        else:
            ctx.unify_out_with_first_input()


class _SumRule(OpRule):
    def cost(self, attrs, in_shapes, out_shape):
        if out_shape is None:
            return None
        return 0, (len(in_shapes) - 1) * _elements(out_shape)

    def constrain(self, ctx):
        for shape in ctx.in_shapes:
            ctx.env.unify_shapes(ctx.out, shape, site=ctx.site)


class _MulRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        return max(in_ranks) if in_ranks else None

    def output_shape(self, attrs, in_shapes):
        return broadcast_mul_shape(list(in_shapes))

    def cost(self, attrs, in_shapes, out_shape):
        if out_shape is None:
            return None
        return 0, (len(in_shapes) - 1) * _elements(out_shape)

    def constrain(self, ctx):
        # Channels always agree under the (C,1,1) -> (C,H,W) broadcast;
        # spatial dims of scale branches are pinned at 1 only once
        # concrete, so just tie the channel dims symbolically.
        for shape in ctx.in_shapes:
            if len(shape) == len(ctx.out):
                ctx.env.unify(ctx.out[0], shape[0], site=ctx.site)


class _ConcatRule(OpRule):
    def output_rank(self, attrs, in_ranks):
        if not in_ranks or len(set(in_ranks)) != 1:
            return None
        return in_ranks[0] if in_ranks[0] in (1, 3) else None

    def output_shape(self, attrs, in_shapes):
        if not in_shapes:
            return None
        if all(len(s) == 1 for s in in_shapes):
            return (sum(s[0] for s in in_shapes),)
        if all(len(s) == 3 for s in in_shapes):
            return (sum(s[0] for s in in_shapes), in_shapes[0][1],
                    in_shapes[0][2])
        return None

    def constrain(self, ctx):
        ranks = {len(s) for s in ctx.in_shapes}
        if ranks == {1} and len(ctx.out) == 1:
            ctx.env.require_sum(ctx.out[0],
                                [s[0] for s in ctx.in_shapes],
                                site=ctx.site)
        elif ranks == {3} and len(ctx.out) == 3:
            ctx.env.require_sum(ctx.out[0],
                                [s[0] for s in ctx.in_shapes],
                                site=ctx.site)
            for shape in ctx.in_shapes:
                ctx.env.unify(ctx.out[1], shape[1], site=ctx.site)
                ctx.env.unify(ctx.out[2], shape[2], site=ctx.site)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
SHAPE_RULES: dict[OpType, OpRule] = {}


def register_op_rule(rule: OpRule, *, replace: bool = False) -> OpRule:
    """Register the inference rule for one op type.

    Duplicate registration is a programming error and raises
    :class:`DuplicateRuleError` unless ``replace=True``.
    """
    if not replace and rule.op in SHAPE_RULES:
        raise DuplicateRuleError(
            f"shape rule for op {rule.op.value!r} is already registered")
    SHAPE_RULES[rule.op] = rule
    return rule


def get_op_rule(op: OpType) -> OpRule | None:
    """The registered rule for ``op`` (``None`` for unknown ops)."""
    return SHAPE_RULES.get(op)


def _register_builtins() -> None:
    register_op_rule(_InputRule(OpType.INPUT))
    register_op_rule(OpRule(OpType.OUTPUT))
    for op in (OpType.CONV, OpType.DWCONV, OpType.GROUP_CONV):
        register_op_rule(_ConvRule(op))
    register_op_rule(_LinearRule(OpType.LINEAR))
    register_op_rule(OpRule(OpType.BIAS_ADD))
    register_op_rule(_BatchNormRule(OpType.BATCH_NORM))
    register_op_rule(_LayerNormRule(OpType.LAYER_NORM))
    register_op_rule(_LRNRule(OpType.LRN))
    for op in POINTWISE_FLOPS:
        register_op_rule(_PointwiseRule(op))
    for op in (OpType.MAX_POOL, OpType.AVG_POOL):
        register_op_rule(_PoolRule(op))
    register_op_rule(_GlobalPoolRule(OpType.GLOBAL_AVG_POOL))
    register_op_rule(_AdaptivePoolRule(OpType.ADAPTIVE_AVG_POOL))
    register_op_rule(_SumRule(OpType.SUM))
    register_op_rule(_MulRule(OpType.MUL))
    register_op_rule(_ConcatRule(OpType.CONCAT))
    register_op_rule(_FlattenRule(OpType.FLATTEN))
    register_op_rule(OpRule(OpType.CHANNEL_SHUFFLE))
    register_op_rule(_ZeroPadRule(OpType.ZERO_PAD))
    register_op_rule(_IdentityRule(OpType.IDENTITY))
    register_op_rule(_UpsampleRule(OpType.UPSAMPLE))


_register_builtins()

#: Data-movement ops: free, so their cost is zero even with no usable
#: inputs.
_ZERO_COST_OPS = frozenset({
    OpType.INPUT, OpType.OUTPUT, OpType.FLATTEN, OpType.CONCAT,
    OpType.ZERO_PAD, OpType.CHANNEL_SHUFFLE, OpType.IDENTITY,
})


# ----------------------------------------------------------------------
# concrete entry points (used by the verifier and the builder)
# ----------------------------------------------------------------------
def infer_output_shape(op: OpType | None, attrs: dict,
                       in_shapes: Sequence[Shape], *,
                       stored_shape: Shape | None = None
                       ) -> Shape | None:
    """Recompute an op's output shape from input shapes + attrs.

    ``stored_shape`` is returned verbatim for INPUT nodes (the graph's
    input shape is ground truth, not derivable).  Returns ``None`` when
    the shape cannot be recomputed (unknown op, missing attrs, wrong
    input rank) -- callers skip their cross-check then.
    """
    if op is OpType.INPUT:
        return stored_shape
    rule = SHAPE_RULES.get(op) if op is not None else None
    if rule is None or not in_shapes:
        return None
    return rule.output_shape(attrs, list(in_shapes))


def recount_cost(op: OpType | None, attrs: dict,
                 in_shapes: Sequence[Shape]) -> tuple[int, int] | None:
    """Derive ``(params, flops)`` of one node from its op, attrs and
    input shapes.

    Returns ``None`` when the cost is not derivable from attrs + input
    shapes (unknown op, missing attrs, wrong input rank, channels the
    conv groups do not divide).
    """
    if op in _ZERO_COST_OPS:
        return 0, 0
    rule = SHAPE_RULES.get(op) if op is not None else None
    if rule is None or not in_shapes:
        return None
    out_shape = rule.output_shape(attrs, list(in_shapes))
    return rule.cost(attrs, list(in_shapes), out_shape)
