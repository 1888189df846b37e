"""Tests for GraphBuilder shape inference and FLOP/param accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import GraphBuilder, GraphValidationError, OpType


class TestConvOutSize:
    @given(size=st.integers(8, 64), kernel=st.integers(1, 7),
           stride=st.integers(1, 4), padding=st.integers(0, 3))
    def test_matches_floor_formula(self, size, kernel, stride, padding):
        """``GraphBuilder.conv`` output size is the floor formula, and
        a non-positive window is refused at append time."""
        expected = (size + 2 * padding - kernel) // stride + 1
        g = GraphBuilder("t", (3, size, size))
        if expected <= 0:
            with pytest.raises(GraphValidationError):
                g.conv(g.input_id, 4, kernel, stride=stride,
                       padding=padding)
        else:
            nid = g.conv(g.input_id, 4, kernel, stride=stride,
                         padding=padding)
            assert g.shape(nid) == (4, expected, expected)


class TestConv:
    def test_params_with_bias(self):
        g = GraphBuilder("t", (3, 8, 8))
        nid = g.conv(g.input_id, 16, 3, padding=1)
        node = g.build if False else None  # noqa: F841
        # 3*3*3*16 weights + 16 bias
        assert g.shape(nid) == (16, 8, 8)

    def test_conv_flops_exact(self):
        g = GraphBuilder("t", (3, 8, 8))
        nid = g.conv(g.input_id, 16, 3, padding=1, bias=False)
        g.output(nid)
        graph = g.build()
        conv = graph.node(nid)
        # 2 * k*k*Cin*Cout*H*W MACs-as-FLOPs
        assert conv.flops == 2 * 3 * 3 * 3 * 16 * 8 * 8
        assert conv.params == 3 * 3 * 3 * 16

    def test_depthwise_op_type(self):
        g = GraphBuilder("t", (8, 8, 8))
        nid = g.conv(g.input_id, 8, 3, padding=1, groups=8)
        g.output(nid)
        graph = g.build()
        assert graph.node(nid).op is OpType.DWCONV

    def test_group_conv_op_type(self):
        g = GraphBuilder("t", (8, 8, 8))
        nid = g.conv(g.input_id, 16, 3, padding=1, groups=4)
        g.output(nid)
        graph = g.build()
        assert graph.node(nid).op is OpType.GROUP_CONV

    def test_grouped_params_divide(self):
        g = GraphBuilder("t", (8, 8, 8))
        nid = g.conv(g.input_id, 16, 3, padding=1, groups=4, bias=False)
        g.output(nid)
        graph = g.build()
        assert graph.node(nid).params == 3 * 3 * (8 // 4) * 16

    def test_window_too_large_raises(self):
        g = GraphBuilder("t", (3, 1, 1))
        with pytest.raises(GraphValidationError, match="cannot derive"):
            g.conv(g.input_id, 8, 3, stride=2)

    def test_invalid_groups_raises(self):
        g = GraphBuilder("t", (6, 8, 8))
        with pytest.raises(GraphValidationError, match="groups"):
            g.conv(g.input_id, 16, 3, groups=4)


class TestLinear:
    def test_requires_flattened_input(self):
        g = GraphBuilder("t", (3, 8, 8))
        with pytest.raises(GraphValidationError, match="flatten"):
            g.linear(g.input_id, 10)

    def test_params_and_flops(self):
        g = GraphBuilder("t", (4,))
        nid = g.linear(g.input_id, 10)
        g.output(nid)
        graph = g.build()
        assert graph.node(nid).params == 4 * 10 + 10
        assert graph.node(nid).flops == 2 * 4 * 10 + 10


class TestMerges:
    def test_add_shape_mismatch_raises(self):
        g = GraphBuilder("t", (3, 8, 8))
        a = g.conv(g.input_id, 4, 3, padding=1)
        b = g.conv(g.input_id, 8, 3, padding=1)
        with pytest.raises(GraphValidationError, match="mismatch"):
            g.add([a, b])

    def test_concat_sums_channels(self):
        g = GraphBuilder("t", (3, 8, 8))
        a = g.conv(g.input_id, 4, 3, padding=1)
        b = g.conv(g.input_id, 8, 3, padding=1)
        c = g.concat([a, b])
        assert g.shape(c) == (12, 8, 8)

    def test_concat_spatial_mismatch_raises(self):
        g = GraphBuilder("t", (3, 8, 8))
        a = g.conv(g.input_id, 4, 3, padding=1)
        b = g.conv(g.input_id, 4, 3, padding=1, stride=2)
        with pytest.raises(GraphValidationError, match="spatial"):
            g.concat([a, b])

    def test_mul_broadcasts_se_scale(self):
        g = GraphBuilder("t", (8, 4, 4))
        s = g.global_avg_pool(g.input_id)
        m = g.mul([g.input_id, s])
        assert g.shape(m) == (8, 4, 4)

    def test_mul_invalid_broadcast_raises(self):
        g = GraphBuilder("t", (8, 4, 4))
        c = g.conv(g.input_id, 4, 1)  # 4 channels cannot scale 8
        s = g.global_avg_pool(c)
        with pytest.raises(GraphValidationError, match="broadcast"):
            g.mul([g.input_id, s])


class TestPooling:
    def test_global_avg_pool_shape(self):
        g = GraphBuilder("t", (16, 7, 7))
        nid = g.global_avg_pool(g.input_id)
        assert g.shape(nid) == (16, 1, 1)

    def test_adaptive_avg_pool_shape(self):
        g = GraphBuilder("t", (16, 13, 13))
        nid = g.adaptive_avg_pool(g.input_id, 6)
        assert g.shape(nid) == (16, 6, 6)

    def test_max_pool_default_stride(self):
        g = GraphBuilder("t", (16, 8, 8))
        nid = g.max_pool(g.input_id, 2)
        assert g.shape(nid) == (16, 4, 4)


class TestMisc:
    def test_flatten_product(self):
        g = GraphBuilder("t", (16, 4, 4))
        nid = g.flatten(g.input_id)
        assert g.shape(nid) == (256,)

    def test_channel_split_halves(self):
        g = GraphBuilder("t", (16, 4, 4))
        left, right = g.channel_split(g.input_id)
        assert g.shape(left) == (8, 4, 4)
        assert g.shape(right) == (8, 4, 4)

    def test_channel_split_odd_raises(self):
        g = GraphBuilder("t", (15, 4, 4))
        with pytest.raises(GraphValidationError, match="even"):
            g.channel_split(g.input_id)

    def test_unique_names(self):
        g = GraphBuilder("t", (3, 8, 8))
        a = g.relu(g.input_id)
        b = g.relu(a)
        g.output(b)
        graph = g.build()
        names = [nd.name for nd in graph.nodes]
        assert len(names) == len(set(names))

    def test_conv_bn_act_block(self):
        g = GraphBuilder("t", (3, 8, 8))
        nid = g.conv_bn_act(g.input_id, 8, 3, padding=1)
        g.output(nid)
        graph = g.build()
        ops = [nd.op for nd in graph.nodes]
        assert OpType.CONV in ops
        assert OpType.BATCH_NORM in ops
        assert OpType.RELU in ops

    def test_squeeze_excite_block(self):
        g = GraphBuilder("t", (16, 4, 4))
        nid = g.squeeze_excite(g.input_id, reduction=4)
        assert g.shape(nid) == (16, 4, 4)
        g.output(nid)
        graph = g.build()
        assert OpType.MUL in [nd.op for nd in graph.nodes]
        assert OpType.GLOBAL_AVG_POOL in [nd.op for nd in graph.nodes]
