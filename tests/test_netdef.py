import ast
import math
import re
from pathlib import Path

import pytest

import kernelpipe
from kernelpipe.netdef import (
    AVG_POOL,
    MAX_POOL,
    STAGE_NAMES,
    NetworkSpec,
    ShapeInferenceError,
    conv,
    fully_connected,
    infer_shapes,
    layer_weights,
    lenet5_spec,
    pool,
    relu,
    stage_io_shapes,
)
from kernelpipe.ocl import NdRange
from kernelpipe.ocl.kernel import group_schedule
from kernelpipe.perf import kernel_footprint
from kernelpipe.pipeline import stage_ndranges
from kernelpipe.tensors import QFormat
from kernelpipe.weights import WEIGHT_SHAPES


class TestLenet5Spec:
    def test_five_stages_in_order(self):
        spec = lenet5_spec()
        assert tuple(name for name, _, _ in spec.stage_grouping) == STAGE_NAMES

    def test_first_conv_has_20_maps(self):
        spec = lenet5_spec()
        assert spec.layers[0].kind == "conv"
        assert spec.layers[0].out_maps == 20
        assert spec.layers[0].kernel == 5

    def test_second_conv_has_50_maps(self):
        spec = lenet5_spec()
        (start,) = [start for name, start, _ in spec.stage_grouping if name == "conv2"]
        assert spec.layers[start].kind == "conv"
        assert spec.layers[start].out_maps == 50

    def test_last_stage_outputs_10(self):
        spec = lenet5_spec()
        assert infer_shapes(spec)[-1] == (10,)

    def test_classifier_fan_in(self):
        # the flattened classifier input is 800 wide; the 500-neuron layer
        # feeds the final 10-way layer
        spec = lenet5_spec()
        io = stage_io_shapes(spec)
        assert math.prod(io["ip1_relu"][0]) == 800
        assert io["ip1_relu"][1] == (500,)
        assert io["ip2"][0] == (500,)

    def test_weight_shapes_from_spec(self):
        # key order is the order weight files are written in
        expected = {"conv1_w": (20, 1, 5, 5), "conv1_b": (20,),
                    "conv2_w": (50, 20, 5, 5), "conv2_b": (50,),
                    "ip1_w": (500, 800), "ip1_b": (500,),
                    "ip2_w": (10, 500), "ip2_b": (10,)}
        assert list(WEIGHT_SHAPES.items()) == list(expected.items())

    def test_stage_ndranges_from_spec(self):
        # one work-item per output map; a fully-connected vector is one map;
        # conv stages share a staged input per work-group of 10, and every
        # other stage is one work-group
        expected = {"conv_pool1": NdRange((20,), (10,)),
                    "conv2": NdRange((50,), (10,)),
                    "pool2": NdRange((50,), (50,)),
                    "ip1_relu": NdRange((1,), (1,)),
                    "ip2": NdRange((1,), (1,))}
        for pool_op in (MAX_POOL, AVG_POOL):
            ndranges = stage_ndranges(lenet5_spec(pool_op))
            assert ndranges == expected
            assert sum(math.prod(nd.global_size) for nd in ndranges.values()) == 122

    def test_conv_groups_scheduled_across_compute_units(self):
        # three CUs take contiguous shares of a conv stage's groups and run
        # them round-robin: conv2's five groups come out permuted, while
        # conv_pool1's two (one per CU) keep their id order
        ndranges = stage_ndranges(lenet5_spec())
        for name in ("conv_pool1", "conv2"):
            nd = ndranges[name]
            assert math.prod(nd.group_counts) >= 2
            assert sorted(group_schedule(nd, 3)) == list(nd.group_ids()), name
        conv2 = ndranges["conv2"]
        assert group_schedule(conv2, 3) != group_schedule(conv2, 1)

    def test_layer_weights_match_weight_shapes(self):
        blocks = layer_weights(lenet5_spec())
        assert [block and block[0] for block in blocks] == [
            "conv1", None, "conv2", None, "ip1", None, "ip2"]
        for name, w in filter(None, blocks):
            assert WEIGHT_SHAPES[f"{name}_w"] == w
            assert WEIGHT_SHAPES[f"{name}_b"] == (w[0],)
        assert len(WEIGHT_SHAPES) == 2 * sum(map(bool, blocks))

    def test_layer_weights_give_footprint_macs(self):
        # one MAC per output element and weight-row entry, summed per stage
        spec = lenet5_spec()
        outs, blocks = infer_shapes(spec), layer_weights(spec)
        expected = {"conv_pool1": 288_000, "conv2": 1_600_000, "pool2": 0,
                    "ip1_relu": 400_000, "ip2": 5_000}
        for name, start, end in spec.stage_grouping:
            macs = sum(math.prod(outs[i]) * math.prod(blocks[i][1][1:])
                       for i in range(start, end) if blocks[i])
            assert macs == expected[name]
            assert kernel_footprint(spec, name, QFormat(16, 8)).macs == expected[name]

    def test_pool_op_flag(self):
        assert lenet5_spec().layers[1].pool_op == MAX_POOL
        assert lenet5_spec(AVG_POOL).layers[1].pool_op == AVG_POOL


class TestInferShapes:
    def test_canonical_shapes(self):
        shapes = infer_shapes(lenet5_spec())
        assert shapes == [(20, 24, 24), (20, 12, 12), (50, 8, 8), (50, 4, 4),
                          (500,), (500,), (10,)]

    def test_kernel_equals_input(self):
        spec = NetworkSpec(
            input_shape=(1, 5, 5),
            layers=(conv(20, 5), pool(1), conv(20, 1), pool(1),
                    fully_connected(5), relu(), fully_connected(2)),
            stage_grouping=(("conv_pool1", 0, 2), ("conv2", 2, 3), ("pool2", 3, 4),
                            ("ip1_relu", 4, 6), ("ip2", 6, 7)),
        )
        assert infer_shapes(spec)[0] == (20, 1, 1)

    def test_window_exceeding_input_names_layer(self):
        spec = NetworkSpec(
            input_shape=(1, 4, 4),
            layers=(conv(20, 5), pool(1), conv(20, 1), pool(1),
                    fully_connected(5), relu(), fully_connected(2)),
            stage_grouping=(("conv_pool1", 0, 2), ("conv2", 2, 3), ("pool2", 3, 4),
                            ("ip1_relu", 4, 6), ("ip2", 6, 7)),
        )
        with pytest.raises(ShapeInferenceError, match="layer 0"):
            infer_shapes(spec)

    def test_pool_not_tiling_input_names_layer(self):
        # a 2x2 pool over conv1's 5x5 maps: rejected by shape inference, so
        # nothing that sizes buffers or launches kernels gets a spec past it
        spec = NetworkSpec(
            input_shape=(1, 9, 9),
            layers=(conv(20, 5), pool(2), conv(20, 1), pool(1),
                    fully_connected(5), relu(), fully_connected(2)),
            stage_grouping=(("conv_pool1", 0, 2), ("conv2", 2, 3), ("pool2", 3, 4),
                            ("ip1_relu", 4, 6), ("ip2", 6, 7)),
        )
        for derive in (infer_shapes, stage_io_shapes, stage_ndranges, layer_weights):
            with pytest.raises(ShapeInferenceError,
                               match=r"layer 1 \(pool 2x2\) does not tile input 5x5"):
                derive(spec)

    def test_deterministic(self):
        assert infer_shapes(lenet5_spec()) == infer_shapes(lenet5_spec())


class TestValidation:
    def test_grouping_must_cover_all_layers(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                input_shape=(1, 28, 28),
                layers=lenet5_spec().layers,
                stage_grouping=(("conv_pool1", 0, 2), ("conv2", 2, 3), ("pool2", 3, 4),
                                ("ip1_relu", 4, 6), ("ip2", 6, 6)),
            )

    def test_grouping_names_fixed(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                input_shape=(1, 28, 28),
                layers=lenet5_spec().layers,
                stage_grouping=(("first", 0, 2), ("conv2", 2, 3), ("pool2", 3, 4),
                                ("ip1_relu", 4, 6), ("ip2", 6, 7)),
            )

    def test_bad_layer_params(self):
        with pytest.raises(ValueError):
            conv(0, 5)
        with pytest.raises(ValueError):
            pool(2, "median")
        with pytest.raises(ValueError):
            fully_connected(0)

    @pytest.mark.parametrize("dims", [(0, 28, 28), (1, -28, 28), (1, 28.0, 28), (1, "28", 28),
                                      (28, 28), (1, 1, 28, 28), ()])
    def test_input_shape_must_be_three_positive_int_extents(self, dims):
        with pytest.raises(ValueError, match="input shape must be 3 positive integer extents"):
            NetworkSpec(input_shape=dims, layers=lenet5_spec().layers,
                        stage_grouping=lenet5_spec().stage_grouping)


#: Weight-block field names (``conv1_w``, ``ip2_b``, ...), which only the
#: modules that define the network and its store may spell out.
BLOCK_NAME = re.compile(r"^(conv|ip)\d+_[wb]$")
BLOCK_NAME_OWNERS = {"netdef.py", "weights.py", "fixtures.py"}


def block_names(source: str) -> list[str]:
    """Attributes and string constants in ``source`` that name a weight block."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append(node.value)
    return [name for name in found if BLOCK_NAME.match(name)]


class TestNetdefDecides:
    """Weight blocks are bound by walking the spec, never by name."""

    def test_no_module_names_a_weight_block(self):
        root = Path(kernelpipe.__file__).parent
        offenders = {str(path.relative_to(root)): block_names(path.read_text(encoding="utf-8"))
                     for path in sorted(root.rglob("*.py")) if path.name not in BLOCK_NAME_OWNERS}
        assert {path: names for path, names in offenders.items() if names} == {}

    @pytest.mark.parametrize("line", ["store.conv1_w @ x", "getattr(store, 'ip2_b')"])
    def test_every_form_is_caught(self, line):
        assert block_names(line)
