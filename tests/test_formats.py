"""Algebra and congruence file round trips and rejection of bad input."""

import tracemalloc

import pytest

from crtkit.algebra import FiniteAlgebra, Operation, all_congruences
from crtkit.catalog import chain_lattice, two_majority, zmod_ring
from crtkit.errors import InputError
from crtkit.formats import (
    parse_algebra,
    parse_congruences,
    serialize_algebra,
    serialize_congruences,
)
from crtkit.partitions import Partition

from helpers import set_partitions

CHAIN3_TEXT = (
    "algebra chain3\n"
    "size 3\n"
    "op meet 2\n"
    "0 0 0 0 1 1 0 1 2\n"
    "op join 2\n"
    "0 1 2 1 1 2 2 2 2\n"
)


def test_algebra_serialize_is_canonical():
    assert serialize_algebra(chain_lattice(3)) == CHAIN3_TEXT


def test_trailing_comments_are_rejected():
    # only a line whose first token starts with # is a comment
    with pytest.raises(InputError, match="expected 'op', got '#'"):
        parse_algebra("algebra a\nsize 2  # two\n")
    with pytest.raises(InputError, match="labels must be integers"):
        parse_congruences("cong t 0 0 # all\n")


def test_algebra_round_trip_from_memory():
    for alg in [chain_lattice(3), zmod_ring(6), two_majority()]:
        back = parse_algebra(serialize_algebra(alg))
        assert back.name == alg.name
        assert back.size == alg.size
        assert back.ops == alg.ops


def test_algebra_round_trip_from_text():
    # parse then serialize reproduces a canonical file byte for byte
    assert serialize_algebra(parse_algebra(CHAIN3_TEXT)) == CHAIN3_TEXT


def test_algebra_parse_ignores_layout():
    messy = """
    # a comment
    algebra chain3
    size 3
    op meet 2
    0 0 0
    0 1 1
    0 1 2
       # another comment
    op join 2
    0 1 2 1 1
    2 2 2 2
    """
    assert serialize_algebra(parse_algebra(messy)) == CHAIN3_TEXT


def test_nullary_operation_round_trip():
    pointed = FiniteAlgebra(2, [Operation("one", 0, (1,))], name="pointed")
    back = parse_algebra(serialize_algebra(pointed))
    assert back.ops == pointed.ops


@pytest.mark.parametrize(
    "doc",
    [
        "",
        "size 3",
        "algebra a",
        "algebra a\nsize 0",
        "algebra a\nsize two",
        "algebra a\nsize 2\nop f 2\n0 1 0",
        "algebra a\nsize 2\nop f 2\n0 1 0 5",
        "algebra a\nsize 2\nop f 1\n0 1\nop f 1\n1 0",
        "algebra a\nsize 2\nop f -1\n0",
        "algebra a\nsize 2\nnonsense 1",
        "algebra a\nsize 2\nop f x\n0 1",
        "algebra a\nsize 2\nop f",
    ],
)
def test_bad_algebra_files(doc):
    with pytest.raises(InputError):
        parse_algebra(doc)


def test_bad_table_token_is_named():
    doc = "algebra a\nsize 2\nop f 2\n0 1 zz 1\nop g 1\n1 0\n"
    with pytest.raises(InputError, match="expected a value of 'f', got 'zz'"):
        parse_algebra(doc)


@pytest.mark.parametrize("value", ["2", "-1"])
def test_table_value_out_of_range(value):
    doc = f"algebra a\nsize 2\nop g 1\n1 0\nop f 2\n0 1 {value} 1\n"
    with pytest.raises(InputError, match="'f' table value out of range"):
        parse_algebra(doc)


@pytest.mark.parametrize(
    "doc,message",
    [
        # past the typecode of the table, and equal to the size in a wider one
        ("algebra a\nsize 2\nop f 1\n0 70000\n", "operation 'f' table value out of range"),
        (
            "algebra a\nsize 300\nop f 1\n" + "0 " * 299 + "300\n",
            "operation 'f' table value out of range",
        ),
        ("algebra a\nsize 2\nop f 1\n0 1.0\n", "expected a value of 'f', got '1.0'"),
        # a malformed token anywhere is named before a value out of range
        ("algebra a\nsize 2\nop f 1\n0 5\nop g 1\n0 x\n", "expected a value of 'g', got 'x'"),
        # then the operations are checked in signature order
        ("algebra a\nsize 2\nop f 1\n0 5\nop f 1\n0 1\n", "operation 'f' table value out of range"),
        (
            "algebra a\nsize 2\nop f 1\n0 1\nop f 1\n0 1\nop g 1\n0 5\n",
            "duplicate operation name 'f'",
        ),
    ],
    ids=["past-typecode", "size-in-wide-table", "non-integer", "token-first", "range", "duplicate"],
)
def test_table_errors_keep_their_messages_and_order(doc, message):
    with pytest.raises(InputError) as err:
        parse_algebra(doc)
    assert str(err.value) == message


def test_non_canonical_numerals_parse_as_their_values():
    doc = "algebra a\nsize 3\nop f 1\n01 +2 0_0\nop g 2\n01 01 1 2 2 2 002 -0 0\n"
    alg = parse_algebra(doc)
    assert [tuple(op.table) for op in alg.ops] == [(1, 2, 0), (1, 1, 1, 2, 2, 2, 2, 0, 0)]
    assert [op.table.typecode for op in alg.ops] == ["B", "B"]
    assert parse_algebra(serialize_algebra(alg)).ops == alg.ops


def test_a_huge_size_with_a_short_table_fails_before_any_numeral_map():
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as err:
            parse_algebra("algebra a\nsize 1000000000\nop c 0\n5\nop f 1\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "operation 'f' needs 1000000000^1 values, file has 2"
    assert peak < 1 << 20


def test_serialize_rejects_unprintable_names():
    with pytest.raises(InputError):
        serialize_algebra(FiniteAlgebra(2, [], name="two words"))
    with pytest.raises(InputError):
        serialize_algebra(FiniteAlgebra(2, [], name="#lead"))
    bad_op = FiniteAlgebra(2, [Operation("f f", 1, (0, 1))], name="a")
    with pytest.raises(InputError):
        serialize_algebra(bad_op)


def test_congruence_round_trip():
    text = "cong theta1 0 1 1\ncong theta2 0 0 1\n"
    named = parse_congruences(text, size=3)
    assert [n for n, _ in named] == ["theta1", "theta2"]
    assert named[0][1] == Partition((0, 1, 1))
    assert named[1][1] == Partition((0, 0, 1))
    assert serialize_congruences(named) == text


def test_congruence_round_trip_all_partitions():
    items = [(f"t{i}", p) for i, p in enumerate(set_partitions(4))]
    back = parse_congruences(serialize_congruences(items), size=4)
    assert back == items


def test_congruence_round_trip_from_algebra():
    congs = all_congruences(zmod_ring(12))
    items = [(f"theta{i}", c.partition) for i, c in enumerate(congs)]
    back = parse_congruences(serialize_congruences(items), size=12)
    assert [p for _, p in back] == [c.partition for c in congs]


@pytest.mark.parametrize(
    "items, position",
    [
        ([Partition((0, 1))], 1),
        ([("a", Partition((0, 0))), ("b",)], 2),
        ([("c", Partition((0, 1))), 5], 2),
    ],
    ids=["bare-partition", "one-tuple", "int"],
)
def test_serialize_congruences_refuses_an_item_that_is_not_a_pair(items, position):
    # a bare partition leaked "cannot unpack non-iterable Partition object"
    with pytest.raises(InputError, match=f"^item {position} is not a \\(name, partition\\) pair: "):
        serialize_congruences(items)


def test_empty_congruence_files():
    assert parse_congruences("# nothing\n") == []
    assert parse_congruences("") == []
    assert serialize_congruences([]) == ""


@pytest.mark.parametrize(
    "doc,size",
    [
        ("cong t 0 2 1", None),
        ("cong t 1 0", None),
        ("cong t 0 1", 3),
        ("cong t 0 x", None),
        ("cong t", None),
        ("blah t 0 1", None),
    ],
)
def test_bad_congruence_lines(doc, size):
    with pytest.raises(InputError):
        parse_congruences(doc, size=size)


def test_congruence_errors_name_the_line():
    text = "cong a 0 1\ncong b 0 2\n"
    with pytest.raises(InputError, match="line 2.*expected 0 1"):
        parse_congruences(text)
