"""Fano points, the four-line catalogue, and characteristic flows."""

import itertools

import pytest

import snarkdefect as sd
from snarkdefect.fano_flow import CharacteristicFlow
import oracles

ALL_POINTS = [sd.FanoPoint.parse(format(i, "03b")) for i in range(1, 8)]


def as_int(p):
    return int(str(p), 2)


def line_ints(line):
    return frozenset(as_int(p) for p in line)


# --------------------------------------------------------------------------
# the group and the plane
# --------------------------------------------------------------------------

def test_point_parse_str_roundtrip():
    for i in range(1, 8):
        bits = format(i, "03b")
        p = sd.FanoPoint.parse(bits)
        assert str(p) == bits
        assert not p.is_zero
    assert sd.FanoPoint.parse("000").is_zero


def test_point_parse_rejects_junk():
    for bad in ("", "01", "0101", "abc", "012"):
        with pytest.raises((sd.GraphError, ValueError)):
            sd.FanoPoint.parse(bad)
    with pytest.raises(ValueError, match="^coordinates must be bits, got 2$"):
        sd.FanoPoint(2, 0, 0)


def test_addition_is_xor():
    for a, b in itertools.product(ALL_POINTS, repeat=2):
        assert as_int(a + b) == as_int(a) ^ as_int(b)
    zero = sd.FanoPoint.parse("000")
    for a in ALL_POINTS:
        assert (a + a).is_zero
        assert as_int(a + zero) == as_int(a)


def test_weight():
    assert sd.FanoPoint.parse("100").weight == 1
    assert sd.FanoPoint.parse("110").weight == 2
    assert sd.FanoPoint.parse("111").weight == 3


def test_fano_lines_match_oracle():
    got = {line_ints(line) for line in sd.fano_lines()}
    assert got == oracles.fano_line_triples()
    assert len(got) == 7
    # two distinct points lie on exactly one common line
    for a, b in itertools.combinations(range(1, 8), 2):
        assert sum(1 for line in got if a in line and b in line) == 1


def test_four_line_catalogue_golden():
    got = {line_ints(line) for line in sd.four_line_catalogue()}
    want = {
        frozenset({0b011, 0b101, 0b110}),   # the all-weight-2 line
        frozenset({0b111, 0b001, 0b110}),   # and the three lines through 111
        frozenset({0b111, 0b010, 0b101}),
        frozenset({0b111, 0b100, 0b011}),
    }
    assert got == want
    assert got < oracles.fano_line_triples()


def test_catalogue_lines_all_contain_a_weight2_point():
    # every admissible vertex line misses the three weight-1-only patterns
    for line in sd.four_line_catalogue():
        weights = sorted(p.weight for p in line)
        assert weights in ([2, 2, 2], [1, 2, 3])


# --------------------------------------------------------------------------
# characteristic flows
# --------------------------------------------------------------------------

def test_petersen_characteristic_flow_golden(petersen):
    arr = sd.regular_defect(petersen).witness
    flow = sd.characteristic_flow(petersen, arr)
    assert flow.serialize() == {
        "0": "001", "1": "110", "2": "111", "3": "110", "4": "111",
        "5": "011", "6": "101", "7": "101", "8": "110", "9": "011",
        "10": "010", "11": "101", "12": "011", "13": "100", "14": "111",
    }
    assert sd.verify_flow(petersen, flow).ok


def test_member_edges_invert_the_construction(petersen):
    arr = sd.regular_defect(petersen).witness
    flow = sd.characteristic_flow(petersen, arr)
    # coordinate i is 0 exactly on the i-th matching (1-based index)
    for i in (1, 2, 3):
        assert flow.member_edges(i) == arr.matchings[i - 1]
    with pytest.raises(ValueError, match="^matching index must be 1, 2, or 3$"):
        flow.member_edges(4)
    # uncovered edges are those in no matching: all coordinates 1
    for e in range(15):
        expected = "".join("0" if e in arr.matchings[i] else "1" for i in range(3))
        assert str(flow.values[e]) == expected


def test_characteristic_flow_on_all_suite_optima(k4, petersen):
    for g in (k4, petersen):
        for arr in sd.enumerate_optimal_arrays(g, regular=True):
            assert sd.verify_flow(g, sd.characteristic_flow(g, arr)).ok


def test_irregular_array_is_rejected(petersen, k4):
    ms = sd.enumerate_perfect_matchings(k4)
    arr = sd.ThreeArray.of(ms[0], ms[0], ms[0])
    with pytest.raises(sd.IrregularArrayError, match="triply"):
        sd.characteristic_flow(k4, arr)
    gg, theorem_arr = sd.inflate_pair_theorem_check(petersen, 0, 1)
    with pytest.raises(sd.IrregularArrayError):
        sd.characteristic_flow(gg, theorem_arr)


def test_serialize_deserialize_roundtrip(petersen):
    arr = sd.regular_defect(petersen).witness
    flow = sd.characteristic_flow(petersen, arr)
    back = CharacteristicFlow.deserialize(flow.serialize(), petersen.edge_count)
    assert back.values == flow.values
    with pytest.raises(sd.GraphError, match="missing edge"):
        CharacteristicFlow.deserialize({"0": "011"}, 3)


# --------------------------------------------------------------------------
# violation reporting
# --------------------------------------------------------------------------

def test_verify_flow_flags_non_catalogue_line(theta):
    f = CharacteristicFlow.deserialize({"0": "001", "1": "010", "2": "011"}, 3)
    chk = sd.verify_flow(theta, f)
    assert not chk.ok
    assert chk.violation == "vertex 0: line {001, 010, 011} is outside the four-line catalogue"


def test_verify_flow_flags_zero_value(theta):
    f = CharacteristicFlow.deserialize({"0": "000", "1": "010", "2": "011"}, 3)
    chk = sd.verify_flow(theta, f)
    assert not chk.ok
    assert chk.violation == "edge 0 carries 000 (nowhere-zero violation)"


def test_verify_flow_flags_repeated_point(theta):
    f = CharacteristicFlow.deserialize({"0": "011", "1": "010", "2": "011"}, 3)
    chk = sd.verify_flow(theta, f)
    assert not chk.ok
    assert "repeated value" in chk.violation


def test_verify_flow_flags_a_short_flow_and_a_nonzero_sum(theta):
    f = CharacteristicFlow.deserialize({"0": "011", "1": "101"}, 2)
    assert sd.verify_flow(theta, f).violation == "flow covers 2 edges, graph has 3"
    f = CharacteristicFlow.deserialize({"0": "001", "1": "010", "2": "100"}, 3)
    assert sd.verify_flow(theta, f).violation == "vertex 0: values do not sum to zero"


def test_verify_flow_accepts_valid_catalogue_assignment(theta):
    # two vertices sharing the all-weight-2 line
    f = CharacteristicFlow.deserialize({"0": "011", "1": "101", "2": "110"}, 3)
    assert sd.verify_flow(theta, f).ok
