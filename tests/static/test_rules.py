"""Property tests for the per-op shape/cost rules (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import GraphBuilder, OpType
from repro.static import (DuplicateRuleError, ShapeEnv, get_op_rule,
                          infer_output_shape, recount_cost,
                          register_op_rule)
from repro.static.rules import (OpRule, broadcast_mul_shape,
                                conv_output_size)


class TestConvArithmetic:
    @pytest.mark.parametrize(
        "size, kernel, stride, padding, expected",
        [(32, 3, 1, 1, 32), (32, 3, 2, 1, 16), (32, 3, 1, 0, 30),
         (1, 3, 2, 0, 0)],
        ids=["same-padding", "stride-two", "no-padding", "nonpositive"])
    def test_known_sizes(self, size, kernel, stride, padding, expected):
        assert conv_output_size(size, kernel, stride, padding) == expected

    @given(size=st.integers(1, 256), kernel=st.integers(1, 11),
           stride=st.integers(1, 4), padding=st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_window_count(self, size, kernel, stride, padding):
        """conv_output_size == the number of valid window positions."""
        padded = size + 2 * padding
        expected = len([i for i in range(0, padded - kernel + 1, stride)])
        got = conv_output_size(size, kernel, stride, padding)
        if padded >= kernel:
            assert got == expected
        else:
            assert got <= 0  # invalid config; callers diagnose

    @given(size=st.integers(8, 128), kernel=st.integers(1, 7),
           padding=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_stride_one_is_invertible(self, size, kernel, padding):
        """The symbolic backward solve recovers the exact input size."""
        out = conv_output_size(size, kernel, 1, padding)
        if out <= 0:
            return
        env = ShapeEnv()
        from repro.static import Dim

        inp = env.fresh("in")
        env.require_conv(Dim.of(out), inp, kernel=kernel, stride=1,
                         padding=padding)
        env.solve()
        assert env.value(inp) == size


class TestBroadcastMul:
    @given(shape=st.tuples(st.integers(1, 64), st.integers(1, 32),
                           st.integers(1, 32)))
    @settings(max_examples=100, deadline=None)
    def test_identical_shapes_pass_through(self, shape):
        assert broadcast_mul_shape([shape, shape]) == shape

    @given(shape=st.tuples(st.integers(1, 64), st.integers(2, 32),
                           st.integers(2, 32)))
    @settings(max_examples=100, deadline=None)
    def test_channel_scale_broadcasts_to_full(self, shape):
        scale = (shape[0], 1, 1)
        assert broadcast_mul_shape([shape, scale]) == shape
        assert broadcast_mul_shape([scale, shape]) == shape

    def test_incompatible_shapes_rejected(self):
        assert broadcast_mul_shape([(16, 8, 8), (17, 1, 1)]) is None
        assert broadcast_mul_shape([(16, 8, 8), (16, 4, 4)]) is None
        assert broadcast_mul_shape([]) is None


class TestRuleTransfer:
    """Spot-check infer_output_shape/recount_cost against the builder."""

    def _built(self):
        g = GraphBuilder("probe", (3, 16, 16))
        x = g.conv(g.input_id, 8, 3, stride=2, padding=1, name="c1")
        x = g.batch_norm(x)
        x = g.relu(x)
        x = g.global_avg_pool(x)
        x = g.flatten(x)
        x = g.linear(x, 10)
        g.output(x)
        return g.build()

    def test_every_node_matches_stored(self):
        graph = self._built()
        preds = {i: [] for i in range(len(graph.nodes))}
        for u, v in graph.edges:
            preds[v].append(u)
        by_id = {nd.node_id: nd for nd in graph.nodes}
        for nd in graph.nodes:
            in_shapes = [by_id[p].out_shape
                         for p in sorted(preds[nd.node_id])]
            shape = infer_output_shape(nd.op, nd.attrs, in_shapes,
                                       stored_shape=nd.out_shape)
            assert shape == nd.out_shape, nd.name
            cost = recount_cost(nd.op, nd.attrs, in_shapes)
            if cost is not None:
                assert cost == (nd.params, nd.flops), nd.name

    def test_unknown_inputs_return_none(self):
        assert infer_output_shape(OpType.CONV, {}, []) is None
        assert recount_cost(OpType.LINEAR, {}, []) is None


class TestRegistry:
    def test_every_op_has_a_rule(self):
        for op in OpType:
            assert get_op_rule(op) is not None, op

    def test_duplicate_registration_raises(self):
        with pytest.raises(DuplicateRuleError,
                           match="already registered"):
            register_op_rule(OpRule(OpType.RELU))

    def test_replace_is_explicit_and_reversible(self):
        original = get_op_rule(OpType.RELU)
        replacement = OpRule(OpType.RELU)
        try:
            assert register_op_rule(replacement,
                                    replace=True) is replacement
            assert get_op_rule(OpType.RELU) is replacement
        finally:
            register_op_rule(original, replace=True)
        assert get_op_rule(OpType.RELU) is original
