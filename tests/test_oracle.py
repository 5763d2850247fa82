import random

import pytest

from busweaver import oracle
from busweaver.frontend import parse_design
from busweaver.oracle import (
    _exhaustive_lanes,
    _sampled_lanes,
    check_design_equivalence,
    check_equivalence,
)
from busweaver.ir import HwDesign, simulate
from busweaver.pipeline import run_pipeline
from probes import mutation_audit


PERM = (
    "module p(input [3:0] in, output [3:0] out);\n"
    "  assign out[3] = in[0];\n"
    "  assign out[2] = in[3];\n"
    "  assign out[1] = in[2];\n"
    "  assign out[0] = in[1];\n"
    "endmodule"
)


def test_exhaustive_equivalence_on_identical_logic():
    a = parse_design(PERM).top_module
    b = parse_design(PERM.replace("p(", "p( ")).top_module
    v = check_equivalence(a, b)
    assert v.status == "equivalent-exhaustive"
    assert v.equivalent
    assert v.vectors_tested == 16
    assert v.seed is None
    assert v.counterexample is None


def test_equivalent_but_different_structure():
    a = parse_design(
        "module m(input [1:0] x, output y);\n"
        "  assign y = ~(x[0] & x[1]);\n"
        "endmodule"
    ).top_module
    b = parse_design(
        "module m(input [1:0] x, output y);\n"
        "  assign y = ~x[0] | ~x[1];\n"
        "endmodule"
    ).top_module
    assert check_equivalence(a, b).status == "equivalent-exhaustive"


def test_counterexample_is_concrete_and_replays():
    a = parse_design(
        "module m(input [2:0] x, output y);\n"
        "  assign y = x[0] & x[1];\n"
        "endmodule"
    ).top_module
    b = parse_design(
        "module m(input [2:0] x, output y);\n"
        "  assign y = x[0] | x[1];\n"
        "endmodule"
    ).top_module
    v = check_equivalence(a, b)
    assert v.status == "counterexample"
    assert not v.equivalent
    assert v.mismatch_output == "y"
    inputs = v.counterexample
    assert simulate(a, inputs) != simulate(b, inputs)


def test_wide_inputs_fall_back_to_sampling():
    src = (
        "module m(input [16:0] x, output [16:0] y);\n"
        "  assign y = ~x;\n"
        "endmodule"
    )
    a = parse_design(src).top_module
    b = parse_design(src).top_module
    v = check_equivalence(a, b, samples=500, seed=11)
    assert v.status == "equivalent-sampled"
    assert v.seed == 11
    # corner vectors plus the requested random ones
    assert v.vectors_tested >= 500


def test_sampling_still_finds_easy_bugs():
    a = parse_design(
        "module m(input [16:0] x, output y);\n"
        "  assign y = x[16];\n"
        "endmodule"
    ).top_module
    b = parse_design(
        "module m(input [16:0] x, output y);\n"
        "  assign y = x[15];\n"
        "endmodule"
    ).top_module
    v = check_equivalence(a, b, samples=200, seed=0)
    assert v.status == "counterexample"
    assert simulate(a, v.counterexample) != simulate(b, v.counterexample)


def test_port_signature_mismatch_is_an_error():
    a = parse_design(
        "module m(input [1:0] x, output y); assign y = x[0]; endmodule"
    ).top_module
    b = parse_design(
        "module m(input [2:0] x, output y); assign y = x[0]; endmodule"
    ).top_module
    with pytest.raises(ValueError, match="signature"):
        check_equivalence(a, b)


def test_design_level_check_covers_common_modules():
    src = (
        "module inv(input x, output z);\n"
        "  assign z = ~x;\n"
        "endmodule\n"
        "module top(input [1:0] a, output [1:0] y);\n"
        "  inv u0(.x(a[0]), .z(y[0]));\n"
        "  inv u1(.x(a[1]), .z(y[1]));\n"
        "endmodule"
    )
    d1 = parse_design(src)
    d2 = parse_design(src)
    verdicts = check_design_equivalence(d1, d2)
    assert set(verdicts) == {"inv", "top"}
    assert all(v.status == "equivalent-exhaustive" for v in verdicts.values())
    # a module the second design lacks is not checked: here the
    # inlined top alone
    vec, _ = run_pipeline(d1)
    alone = HwDesign({"top": vec.modules["top"]}, "top")
    verdicts = check_design_equivalence(d1, alone)
    assert list(verdicts) == ["top"]
    assert verdicts["top"].status == "equivalent-exhaustive"


def test_mutation_audit_catches_everything_on_permutation():
    d = parse_design(PERM)
    res = mutation_audit(d, mutations=12, seed=5)
    assert res.total == 12
    assert res.caught == 12
    assert res.rate == 1.0
    assert len(res.details) == 12


def test_mutation_audit_needs_candidates():
    d = parse_design(
        "module m(input [1:0] a, output [1:0] y);\n"
        "  assign y = a;\n"
        "endmodule"
    )
    with pytest.raises(ValueError, match="mutation"):
        mutation_audit(d)


def _top(text):
    return parse_design(text).top_module


WIDE = "module m(input [16:0] x, input [4:0] z, output y);\n"


@pytest.mark.parametrize("samples", [0, 1, 64, 500])
def test_sampled_vector_count_is_corners_plus_samples(samples):
    src = WIDE + "  assign y = ^{x, z};\nendmodule"
    v = check_equivalence(_top(src), _top(src), samples=samples, seed=3)
    assert v.status == "equivalent-sampled"
    # all-zeros, all-ones, one one-hot per input bit, then the sample
    assert v.vectors_tested == 2 + 22 + samples


def test_corner_vectors_catch_all_ones_difference_without_samples():
    a = _top(
        "module m(input [16:0] x, output y);\n"
        "  assign y = &x;\nendmodule"
    )
    b = _top(
        "module m(input [16:0] x, output y);\n"
        "  assign y = 1'b0;\nendmodule"
    )
    v = check_equivalence(a, b, samples=0)
    assert v.status == "counterexample"
    assert v.vectors_tested == 2 + 17
    assert v.counterexample == {"x": (1 << 17) - 1}
    assert simulate(a, v.counterexample) != simulate(b, v.counterexample)


def test_corner_vectors_catch_one_hot_difference_without_samples():
    # 1 only when x is exactly one-hot on bit 5
    a = _top(
        "module m(input [16:0] x, output y);\n"
        "  assign y = x[5] & ~(|{x[16:6], x[4:0]});\nendmodule"
    )
    b = _top(
        "module m(input [16:0] x, output y);\n"
        "  assign y = 1'b0;\nendmodule"
    )
    v = check_equivalence(a, b, samples=0)
    assert v.status == "counterexample"
    assert v.counterexample == {"x": 1 << 5}
    assert simulate(a, v.counterexample) != simulate(b, v.counterexample)


THREE_PORTS = (
    "module m(input [5:0] a, input [6:0] b, input [8:0] c, output y);\n"
)


def test_sampled_counterexample_replays_port_by_port():
    # no corner vector sets two bits and clears a third, so only a
    # random vector can tell these apart
    a = _top(THREE_PORTS + "  assign y = a[5] & b[0] & ~c[8];\nendmodule")
    b = _top(THREE_PORTS + "  assign y = 1'b0;\nendmodule")
    v = check_equivalence(a, b, samples=200, seed=9)
    assert v.status == "counterexample"
    cex = v.counterexample
    assert set(cex) == {"a", "b", "c"}
    assert 0 <= cex["a"] < 1 << 6
    assert 0 <= cex["b"] < 1 << 7
    assert 0 <= cex["c"] < 1 << 9
    assert (cex["a"] >> 5) & 1 and cex["b"] & 1 and not (cex["c"] >> 8) & 1
    assert simulate(a, cex) == {"y": 1}
    assert simulate(b, cex) == {"y": 0}


def test_sampled_check_is_deterministic_per_seed():
    a = _top(THREE_PORTS + "  assign y = a[5] & b[0] & ~c[8];\nendmodule")
    b = _top(THREE_PORTS + "  assign y = 1'b0;\nendmodule")
    first = check_equivalence(a, b, samples=200, seed=4)
    again = check_equivalence(a, b, samples=200, seed=4)
    assert first == again
    assert first.seed == 4
    widths = [6, 7, 9]
    assert _sampled_lanes(widths, 200, 4) == _sampled_lanes(widths, 200, 4)
    assert _sampled_lanes(widths, 200, 4) != _sampled_lanes(widths, 200, 5)


@pytest.mark.parametrize("samples", [0, 1, 10000])
def test_sampled_lanes_take_one_getrandbits_per_input_bit(
    monkeypatch, samples
):
    calls = []
    getrandbits = random.Random.getrandbits

    def counting(self, k):
        calls.append(k)
        return getrandbits(self, k)

    monkeypatch.setattr(random.Random, "getrandbits", counting)
    src = WIDE + "  assign y = ^{x, z};\nendmodule"
    v = check_equivalence(_top(src), _top(src), samples=samples, seed=1)
    assert v.status == "equivalent-sampled"
    assert calls == [samples] * 22


def test_sampled_lanes_put_corner_vectors_first():
    lanes, n_vectors = _sampled_lanes([3, 2], 40, seed=6)
    assert n_vectors == 2 + 5 + 40
    flat = lanes[0] + lanes[1]
    assert [len(port) for port in lanes] == [3, 2]
    for g, lane in enumerate(flat):
        assert lane < 1 << n_vectors
        # vector 0 all-zeros, vector 1 all-ones, vector 2+g one-hot on g
        assert lane & 0b11 == 0b10
        assert (lane >> 2) & 0b11111 == 1 << g


def _truth_table_from_scratch(widths):
    """Lane g holds bit ``(k >> g) & 1`` at bit k, for every vector k."""
    total = sum(widths)
    n_vectors = 1 << total
    lanes = [
        int("0" + "".join("1" if (k >> g) & 1 else "0"
                          for k in reversed(range(n_vectors))), 2)
        for g in range(total)
    ]
    return oracle._per_port(lanes, widths), n_vectors


# Total widths 0 to 17: the last split is wider than the default limit.
SPLITS = [[], [1], [3, 2], [2, 3], [4, 4, 4], [1, 15], [16], [8, 1, 7],
          [10, 7]]


def test_exhaustive_lanes_repeat_a_table_built_from_scratch():
    expected = [_truth_table_from_scratch(w) for w in SPLITS]
    for _ in range(2):
        for widths, want in zip(SPLITS, expected):
            assert _exhaustive_lanes(widths) == want
    assert 17 not in oracle._TRUTH_TABLES
    assert set(oracle._TRUTH_TABLES) <= set(
        range(oracle.DEFAULT_MAX_EXHAUSTIVE_BITS + 1))


def test_mutating_exhaustive_lanes_leaves_later_calls_alone():
    want = _truth_table_from_scratch([3, 2])
    lanes, _ = _exhaustive_lanes([3, 2])
    lanes[0][0] ^= 1
    lanes[1].append(7)
    lanes.append([0])
    assert _exhaustive_lanes([3, 2]) == want
    assert _exhaustive_lanes([2, 3]) == _truth_table_from_scratch([2, 3])
