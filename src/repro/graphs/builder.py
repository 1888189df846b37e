"""Fluent builder for computational graphs.

Every method appends one primitive node, wires its edges and returns
the new node id.  The dedicated methods (``conv``, ``linear``,
``batch_norm``, ...) only pick the op type and name its attrs;
:meth:`GraphBuilder.add_op` derives the node's output shape, learnable
parameters and FLOPs from the per-op rules in :mod:`repro.static.rules`,
the single source of op semantics (the verifier and the symbolic
inference engine read the same rules).  The zoo modules
(:mod:`repro.graphs.zoo`) are written entirely against this API,
mirroring how PyTorch/TensorFlow would trace a model into a DAG (paper
Sec. III-B, step 1).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..static.rules import (broadcast_mul_shape, infer_output_shape,
                            recount_cost)
from .graph import ComputationalGraph, GraphValidationError, Node
from .ops import OpType

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Incrementally constructs a :class:`ComputationalGraph`.

    Parameters
    ----------
    name:
        Graph name (typically the model name).
    input_shape:
        Shape of one input sample, ``(C, H, W)`` for images.
    """

    def __init__(self, name: str, input_shape: tuple[int, ...]):
        self.name = name
        self._nodes: list[Node] = []
        self._edges: list[tuple[int, int]] = []
        self._name_counts: dict[str, int] = {}
        self.input_id = self._add_node(OpType.INPUT, "input",
                                       tuple(input_shape), [], 0, 0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _unique(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}_{count}"

    def _add_node(self, op: OpType, name: str, out_shape: tuple[int, ...],
                  inputs: Sequence[int], params: int, flops: int,
                  **attrs) -> int:
        node_id = len(self._nodes)
        self._nodes.append(Node(node_id=node_id, op=op,
                                name=self._unique(name),
                                out_shape=out_shape, params=int(params),
                                flops=int(flops), attrs=dict(attrs)))
        for src in inputs:
            self._edges.append((src, node_id))
        return node_id

    def shape(self, node_id: int) -> tuple[int, ...]:
        """Output shape of an already-added node."""
        return self._nodes[node_id].out_shape

    def _chw(self, node_id: int) -> tuple[int, int, int]:
        shp = self.shape(node_id)
        if len(shp) != 3:
            raise GraphValidationError(
                f"node {node_id} ({self._nodes[node_id].name}) is not a "
                f"feature map: shape={shp}")
        return shp  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # generic op append (rule-driven)
    # ------------------------------------------------------------------
    def add_op(self, op: OpType, inputs: Sequence[int], *,
               name: str | None = None, **attrs) -> int:
        """Append a node of any op type, deriving its shape and cost
        from the per-op rules in :mod:`repro.static.rules`.

        Raises :class:`GraphValidationError` when the rule cannot derive
        a positive output shape or the ``(params, flops)`` cost from
        ``inputs`` + ``attrs``.
        """
        in_shapes = [self.shape(src) for src in inputs]
        out_shape = infer_output_shape(op, attrs, in_shapes)
        if out_shape is None or any(s <= 0 for s in out_shape):
            raise GraphValidationError(
                f"cannot derive {op.value!r} output shape from inputs "
                f"{in_shapes} and attrs {sorted(attrs)}")
        cost = recount_cost(op, attrs, in_shapes)
        if cost is None:
            raise GraphValidationError(
                f"cannot derive {op.value!r} params/FLOPs from inputs "
                f"{in_shapes} and attrs {sorted(attrs)}")
        params, flops = cost
        return self._add_node(op, name or op.value, out_shape,
                              list(inputs), params, flops, **attrs)

    # ------------------------------------------------------------------
    # convolutions and linear layers
    # ------------------------------------------------------------------
    def conv(self, src: int, out_channels: int, kernel_size: int,
             stride: int = 1, padding: int = 0, groups: int = 1,
             bias: bool = True, name: str = "conv") -> int:
        """2-D convolution. ``groups == in_channels`` => depthwise node."""
        c_in = self._chw(src)[0]
        if c_in % groups or out_channels % groups:
            raise GraphValidationError(
                f"groups={groups} does not divide channels "
                f"({c_in} -> {out_channels})")
        if groups == 1:
            op = OpType.CONV
        elif groups == c_in and c_in == out_channels:
            op = OpType.DWCONV
        else:
            op = OpType.GROUP_CONV
        return self.add_op(op, [src], name=name, kernel_size=kernel_size,
                           stride=stride, padding=padding, groups=groups,
                           in_channels=c_in, out_channels=out_channels,
                           bias=bias)

    def linear(self, src: int, out_features: int, bias: bool = True,
               name: str = "fc") -> int:
        """Fully connected layer; expects a flattened ``(F,)`` input."""
        shp = self.shape(src)
        if len(shp) != 1:
            raise GraphValidationError(
                f"linear expects flattened input, got shape {shp}; "
                f"call flatten() first")
        return self.add_op(OpType.LINEAR, [src], name=name,
                           in_features=shp[0], out_features=out_features,
                           bias=bias)

    # ------------------------------------------------------------------
    # normalization
    # ------------------------------------------------------------------
    def batch_norm(self, src: int, name: str = "bn") -> int:
        return self.add_op(OpType.BATCH_NORM, [src], name=name,
                           channels=self.shape(src)[0])

    def layer_norm(self, src: int, name: str = "ln") -> int:
        return self.add_op(OpType.LAYER_NORM, [src], name=name)

    def lrn(self, src: int, size: int = 5, name: str = "lrn") -> int:
        """Local response normalization (AlexNet)."""
        return self.add_op(OpType.LRN, [src], name=name, size=size)

    # ------------------------------------------------------------------
    # activations (all pointwise, shape preserving)
    # ------------------------------------------------------------------
    def relu(self, src: int, name: str = "relu") -> int:
        return self.add_op(OpType.RELU, [src], name=name)

    def relu6(self, src: int, name: str = "relu6") -> int:
        return self.add_op(OpType.RELU6, [src], name=name)

    def sigmoid(self, src: int, name: str = "sigmoid") -> int:
        return self.add_op(OpType.SIGMOID, [src], name=name)

    def hard_sigmoid(self, src: int, name: str = "hsigmoid") -> int:
        return self.add_op(OpType.HARD_SIGMOID, [src], name=name)

    def tanh(self, src: int, name: str = "tanh") -> int:
        return self.add_op(OpType.TANH, [src], name=name)

    def silu(self, src: int, name: str = "silu") -> int:
        return self.add_op(OpType.SILU, [src], name=name)

    def hard_swish(self, src: int, name: str = "hswish") -> int:
        return self.add_op(OpType.HARD_SWISH, [src], name=name)

    def gelu(self, src: int, name: str = "gelu") -> int:
        return self.add_op(OpType.GELU, [src], name=name)

    def softmax(self, src: int, name: str = "softmax") -> int:
        return self.add_op(OpType.SOFTMAX, [src], name=name)

    def dropout(self, src: int, p: float = 0.5, name: str = "dropout") -> int:
        return self.add_op(OpType.DROPOUT, [src], name=name, p=p)

    def identity(self, src: int, name: str = "identity") -> int:
        return self.add_op(OpType.IDENTITY, [src], name=name)

    # ------------------------------------------------------------------
    # pooling and spatial reshaping
    # ------------------------------------------------------------------
    def max_pool(self, src: int, kernel_size: int, stride: int | None = None,
                 padding: int = 0, name: str = "maxpool") -> int:
        return self.add_op(OpType.MAX_POOL, [src], name=name,
                           kernel_size=kernel_size,
                           stride=kernel_size if stride is None else stride,
                           padding=padding)

    def avg_pool(self, src: int, kernel_size: int, stride: int | None = None,
                 padding: int = 0, name: str = "avgpool") -> int:
        return self.add_op(OpType.AVG_POOL, [src], name=name,
                           kernel_size=kernel_size,
                           stride=kernel_size if stride is None else stride,
                           padding=padding)

    def global_avg_pool(self, src: int, name: str = "gap") -> int:
        """Global average pooling to ``(C, 1, 1)``."""
        return self.add_op(OpType.GLOBAL_AVG_POOL, [src], name=name)

    def adaptive_avg_pool(self, src: int, output_size: int,
                          name: str = "adaptive_avgpool") -> int:
        return self.add_op(OpType.ADAPTIVE_AVG_POOL, [src], name=name,
                           output_size=output_size)

    def flatten(self, src: int, name: str = "flatten") -> int:
        return self.add_op(OpType.FLATTEN, [src], name=name)

    def channel_shuffle(self, src: int, groups: int,
                        name: str = "shuffle") -> int:
        return self.add_op(OpType.CHANNEL_SHUFFLE, [src], name=name,
                           groups=groups)

    def channel_split(self, src: int, name: str = "split") -> tuple[int, int]:
        """Split a feature map into two channel halves (ShuffleNet-V2).

        Modeled as two IDENTITY nodes each carrying half the channels; the
        split itself moves no data and costs no FLOPs.
        """
        c = self._chw(src)[0]
        if c % 2:
            raise GraphValidationError(f"channel_split needs even channels, "
                                       f"got {c}")
        return (self.add_op(OpType.IDENTITY, [src], name=f"{name}.left",
                            split="left"),
                self.add_op(OpType.IDENTITY, [src], name=f"{name}.right",
                            split="right"))

    def zero_pad(self, src: int, padding: int, name: str = "pad") -> int:
        return self.add_op(OpType.ZERO_PAD, [src], name=name,
                           padding=padding)

    def upsample(self, src: int, scale: int, name: str = "upsample") -> int:
        return self.add_op(OpType.UPSAMPLE, [src], name=name, scale=scale)

    # ------------------------------------------------------------------
    # branch merging
    # ------------------------------------------------------------------
    def add(self, srcs: Sequence[int], name: str = "add") -> int:
        """Elementwise sum of branches (residual connection)."""
        shapes = {self.shape(s) for s in srcs}
        if len(shapes) != 1:
            raise GraphValidationError(
                f"add: mismatched branch shapes {sorted(shapes)}")
        return self.add_op(OpType.SUM, srcs, name=name)

    def mul(self, srcs: Sequence[int], name: str = "mul") -> int:
        """Elementwise product; broadcast ``(C,1,1)`` scales onto ``(C,H,W)``.

        Used for squeeze-and-excite channel scaling.
        """
        shapes = [self.shape(s) for s in srcs]
        if broadcast_mul_shape(shapes) is None:
            raise GraphValidationError(
                f"mul: shapes {shapes} cannot broadcast to one shape")
        return self.add_op(OpType.MUL, srcs, name=name)

    def concat(self, srcs: Sequence[int], name: str = "concat") -> int:
        """Channel-wise concatenation of feature maps (or 1-D features)."""
        if not all(len(self.shape(s)) == 1 for s in srcs):
            spatial = {self._chw(s)[1:] for s in srcs}
            if len(spatial) != 1:
                raise GraphValidationError(
                    f"concat: mismatched spatial dims {sorted(spatial)}")
        return self.add_op(OpType.CONCAT, srcs, name=name)

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def output(self, src: int) -> int:
        """Mark ``src`` as the graph output (appends the OUTPUT sink)."""
        return self.add_op(OpType.OUTPUT, [src], name="output")

    def build(self, *, verify: bool = False,
              level: str = "full") -> ComputationalGraph:
        """Validate and return the immutable graph.

        With ``verify=True`` the full static-analysis rule set
        (:mod:`repro.graphs.verify`) additionally runs and a
        :class:`~repro.graphs.verify.GraphVerificationError` is raised
        on any ERROR-severity diagnostic.
        """
        graph = ComputationalGraph(self.name, self._nodes, self._edges)
        if verify:
            from .verify import assert_verified
            assert_verified(graph, level=level,
                            context=f"building {self.name!r}")
        return graph

    # ------------------------------------------------------------------
    # common composite blocks
    # ------------------------------------------------------------------
    def conv_bn_act(self, src: int, out_channels: int, kernel_size: int,
                    stride: int = 1, padding: int = 0, groups: int = 1,
                    act: str = "relu", name: str = "convbn") -> int:
        """conv -> batch norm -> activation, the ubiquitous CNN block."""
        x = self.conv(src, out_channels, kernel_size, stride=stride,
                      padding=padding, groups=groups, bias=False,
                      name=f"{name}.conv")
        x = self.batch_norm(x, name=f"{name}.bn")
        if act is None or act == "none":
            return x
        activation = getattr(self, act)
        return activation(x, name=f"{name}.{act}")

    def squeeze_excite(self, src: int, reduction: int = 4,
                       gate: str = "sigmoid", name: str = "se") -> int:
        """Squeeze-and-excitation block returning the rescaled feature map."""
        c, _, _ = self._chw(src)
        squeezed = max(1, c // reduction)
        s = self.global_avg_pool(src, name=f"{name}.squeeze")
        s = self.conv(s, squeezed, 1, name=f"{name}.fc1")
        s = self.relu(s, name=f"{name}.relu")
        s = self.conv(s, c, 1, name=f"{name}.fc2")
        gate_fn = getattr(self, gate)
        s = gate_fn(s, name=f"{name}.gate")
        return self.mul([src, s], name=f"{name}.scale")
