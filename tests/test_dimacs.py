import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowenum.core import Arc, Network
from flowenum.dimacs import parse_dimacs, serialize_dimacs
from flowenum.errors import (
    ArcCountMismatchError,
    DimacsError,
    DimacsSyntaxError,
    DuplicateProblemLineError,
    NodeIdOutOfRangeError,
)

from helpers import random_feasible_network

ZEROCYCLE_TEXT = """\
c five nodes, seven arcs
p min 5 7
n 1 3
n 2 5
n 3 2
n 4 -6
n 5 -4
a 1 2 0 1 8
a 1 3 0 1 3
a 1 4 0 4 4
a 2 4 0 5 5
a 3 4 0 1 1
a 3 5 0 4 2
a 4 5 0 3 1
"""


class TestParse:
    def test_zerocycle_text_round_trips_to_the_fixture(self, zerocycle_network):
        assert parse_dimacs(ZEROCYCLE_TEXT) == zerocycle_network

    def test_comments_and_blank_lines_are_skipped(self):
        text = "c hello\n\np min 2 1\nc again\na 1 2 0 3 4\n"
        net = parse_dimacs(text)
        assert net.arcs == (Arc(0, 1, 0, 3, 4),)

    def test_missing_node_line_means_zero_balance(self):
        net = parse_dimacs("p min 2 1\na 1 2 0 1 0\n")
        assert net.balances == (0, 0)

    def test_empty_file(self):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs("")

    def test_node_count_must_be_positive(self):
        with pytest.raises(DimacsSyntaxError, match="out of range"):
            parse_dimacs("p min 0 0")

    def test_duplicate_problem_line(self):
        with pytest.raises(DuplicateProblemLineError):
            parse_dimacs("p min 2 0\np min 2 0\n")

    def test_too_many_arc_lines(self):
        with pytest.raises(ArcCountMismatchError):
            parse_dimacs("p min 2 1\na 1 2 0 1 0\na 2 1 0 1 0\n")

    def test_too_few_arc_lines(self):
        with pytest.raises(ArcCountMismatchError):
            parse_dimacs("p min 2 2\na 1 2 0 1 0\n")

    def test_node_id_out_of_range(self):
        with pytest.raises(NodeIdOutOfRangeError):
            parse_dimacs("p min 2 1\na 1 3 0 1 0\n")
        with pytest.raises(NodeIdOutOfRangeError):
            parse_dimacs("p min 2 1\nn 0 4\na 1 2 0 1 0\n")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs("p min 2 1\na 1 1 0 1 0\n")

    def test_inverted_bounds_rejected(self):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs("p min 2 1\na 1 2 5 1 0\n")

    def test_non_integer_field_reports_position(self):
        with pytest.raises(DimacsSyntaxError) as caught:
            parse_dimacs("p min 2 1\na 1 2 0 x 0\n")
        assert caught.value.line == 2
        assert caught.value.column == 9

    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0660"])
    def test_only_ascii_decimal_integers(self, token):
        with pytest.raises(DimacsSyntaxError) as caught:
            parse_dimacs(f"p min 2 1\na 1 2 0 {token} 0\n")
        assert caught.value.line == 2
        assert caught.value.column == 9

    @pytest.mark.parametrize("record, column, message", [
        ("a 1 2 -1 - 0", 10, "expected an integer, got '-'"),      # not the "-" of -1
        ("a 2 2 0 1 0", 5, "self-loop on node 2"),
        ("a 1 2 5 3 0", 9, "arc (1,2) requires 0 <= lower <= upper, got [5,3]"),
        ("a 1 2 -1 3 0", 7, "arc (1,2) requires 0 <= lower <= upper, got [-1,3]"),
        ("a 1  3 0 1 0", 6, "node id 3 outside 1..2"),
        ("a 1 1 1_0 1 0", 7, "expected an integer of ASCII digits, got '1_0'"),
        ("n 1 x", 5, "expected an integer, got 'x'"),
        ("\tq 1", 2, "unknown record type 'q'"),
    ])
    def test_errors_point_at_the_failing_field(self, record, column, message):
        with pytest.raises(DimacsError) as caught:
            parse_dimacs(f"p min 2 1\n{record}\n")
        assert (caught.value.line, caught.value.column) == (2, column)
        assert str(caught.value) == f"line 2, column {column}: {message}"

    def test_signed_integers_still_parse(self):
        net = parse_dimacs("p min 2 1\nn 1 +1\nn 2 -1\na 1 2 0 +1 -3\n")
        assert net.balances == (1, -1)
        assert net.arcs[0].cost == -3

    def test_unknown_record(self):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs("p min 1 0\nq whatever\n")

    def test_record_before_problem_line(self):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs("a 1 2 0 1 0\np min 2 1\n")

    def test_duplicate_node_descriptor(self):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs("p min 2 0\nn 1 1\nn 1 -1\n")


class TestRoundTrip:
    def test_zerocycle_instance(self, zerocycle_network):
        assert parse_dimacs(serialize_dimacs(zerocycle_network)) == zerocycle_network

    def test_random_networks(self):
        rng = random.Random(40)
        for _ in range(80):
            net, _ = random_feasible_network(rng)
            assert parse_dimacs(serialize_dimacs(net)) == net

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_arbitrary_networks(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        arc_specs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.integers(0, 3),
                    st.integers(0, 4),
                    st.integers(-5, 5),
                ).filter(lambda t: t[0] != t[1]),
                max_size=8,
            )
        )
        arcs = tuple(Arc(src, dst, low, low + extra, cost) for src, dst, low, extra, cost in arc_specs)
        balances = tuple(data.draw(st.integers(-5, 5)) for _ in range(n))
        net = Network(n, arcs, balances)
        assert parse_dimacs(serialize_dimacs(net)) == net
