"""The static analyzer's builder/serialization/simulator wire-ins."""

import pytest

from repro.graphs import (GraphBuilder, GraphValidationError, OpType,
                          graph_from_dict, graph_to_dict)
from repro.graphs.zoo import get_model


class TestAddOp:
    def test_derives_shape_and_cost_from_rules(self):
        g = GraphBuilder("generic", (3, 16, 16))
        x = g.add_op(OpType.CONV, [g.input_id], kernel_size=3, stride=2,
                     padding=1, groups=1, in_channels=3, out_channels=8,
                     bias=True)
        assert g.shape(x) == (8, 8, 8)
        x = g.add_op(OpType.RELU, [x])
        x = g.add_op(OpType.GLOBAL_AVG_POOL, [x])
        x = g.add_op(OpType.FLATTEN, [x])
        x = g.add_op(OpType.LINEAR, [x], in_features=8, out_features=4,
                     bias=True)
        g.output(x)
        graph = g.build(verify=True)

        # Identical graph via the dedicated methods: same annotations.
        h = GraphBuilder("byhand", (3, 16, 16))
        y = h.conv(h.input_id, 8, 3, stride=2, padding=1)
        y = h.relu(y)
        y = h.global_avg_pool(y)
        y = h.flatten(y)
        y = h.linear(y, 4)
        h.output(y)
        by_hand = h.build()
        assert [(nd.out_shape, nd.params, nd.flops)
                for nd in graph.nodes] == \
            [(nd.out_shape, nd.params, nd.flops)
             for nd in by_hand.nodes]

    def test_underivable_shape_raises(self):
        g = GraphBuilder("broken", (3, 16, 16))
        with pytest.raises(GraphValidationError,
                           match="cannot derive"):
            g.add_op(OpType.CONV, [g.input_id])  # no attrs

    def test_window_too_large_raises(self):
        g = GraphBuilder("broken", (3, 4, 4))
        with pytest.raises(GraphValidationError,
                           match="cannot derive"):
            g.add_op(OpType.CONV, [g.input_id], kernel_size=9, stride=1,
                     padding=0, groups=1, in_channels=3, out_channels=8,
                     bias=True)


    def test_uncostable_node_raises(self):
        # The shape is derivable but 4 groups do not divide 6 channels,
        # so no params/FLOPs exist to record.
        g = GraphBuilder("broken", (6, 8, 8))
        with pytest.raises(GraphValidationError,
                           match="cannot derive 'conv' params/FLOPs"):
            g.add_op(OpType.CONV, [g.input_id], kernel_size=3, stride=1,
                     padding=1, groups=4, in_channels=6, out_channels=16,
                     bias=True)


class TestSerializationInferShapes:
    def test_wire_payload_without_annotations(self):
        """params/flops/out_shape can be dropped from every non-INPUT
        node and re-derived on load."""
        original = get_model("resnet18")
        payload = graph_to_dict(original)
        for nd in payload["nodes"]:
            if nd["op"] != "input":
                del nd["out_shape"]
            del nd["params"]
            del nd["flops"]
        rebuilt = graph_from_dict(payload, infer_shapes=True)
        assert [(nd.out_shape, nd.params, nd.flops)
                for nd in rebuilt.nodes] == \
            [(nd.out_shape, nd.params, nd.flops)
             for nd in original.nodes]
        assert rebuilt.total_flops == original.total_flops

    def test_malformed_payload_raises(self):
        original = get_model("alexnet")
        payload = graph_to_dict(original)
        conv = next(nd for nd in payload["nodes"]
                    if nd["op"] == "conv")
        conv["attrs"]["kernel_size"] = 999  # window cannot fit
        with pytest.raises(ValueError, match="cannot infer shapes"):
            graph_from_dict(payload, infer_shapes=True)
