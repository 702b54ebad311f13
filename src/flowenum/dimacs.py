"""DIMACS minimum-cost-flow files.

    c <comment>
    p min <node count> <arc count>
    n <node id> <balance>
    a <src> <dst> <lower> <capacity> <cost>

Node ids are 1-based on disk and 0-based in memory; arc ids follow file order.  Nodes
without an `n` line have balance 0.  A record ends at a line feed, a carriage return or both.
"""

from __future__ import annotations

import re

from .core import Arc, Network
from .errors import (
    ArcCountMismatchError,
    DimacsSyntaxError,
    DuplicateProblemLineError,
    FlowError,
    NodeIdOutOfRangeError,
)


def _column(raw: str, field: int) -> int:
    """The 1-based column where field `field` of `raw` starts, the record kind being field 0."""
    return [match.start() + 1 for match in re.finditer(r"\S+", raw)][field]


def _int_field(fields: list[str], field: int, line_no: int, raw: str) -> int:
    try:
        return int(fields[field], 10)
    except ValueError:
        raise DimacsSyntaxError(
            f"expected an integer, got {fields[field]!r}", line=line_no, column=_column(raw, field)
        ) from None


def _node_id(fields: list[str], field: int, node_count: int, line_no: int, raw: str) -> int:
    value = _int_field(fields, field, line_no, raw)
    if not 1 <= value <= node_count:
        raise NodeIdOutOfRangeError(
            f"node id {value} outside 1..{node_count}", line=line_no, column=_column(raw, field)
        )
    return value - 1


def parse_dimacs(text: str) -> Network:
    node_count: int | None = None
    arc_count = 0
    balances: list[int] = []
    balance_seen: set[int] = set()
    arcs: list[Arc] = []

    # int() also takes "1_0" and non-ASCII digits; fields must be [+-]?[0-9]+.
    loose = not text.isascii() or "_" in text
    # splitlines() would also end records at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029.
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "c":
            continue
        if loose:
            for field, token in enumerate(fields[1:], 1):
                if not token.isascii() or "_" in token:
                    raise DimacsSyntaxError(
                        f"expected an integer of ASCII digits, got {token!r}",
                        line=line_no, column=_column(raw, field),
                    )
        if kind == "p":
            if node_count is not None:
                raise DuplicateProblemLineError("second problem line", line=line_no)
            if len(fields) != 4 or fields[1] != "min":
                raise DimacsSyntaxError("expected 'p min <nodes> <arcs>'", line=line_no)
            node_count = _int_field(fields, 2, line_no, raw)
            arc_count = _int_field(fields, 3, line_no, raw)
            if node_count < 1 or arc_count < 0:
                raise DimacsSyntaxError("node and arc counts out of range", line=line_no)
            try:
                balances = [0] * node_count
            except (MemoryError, OverflowError):  # the latter past `sys.maxsize`
                raise DimacsSyntaxError(
                    f"{node_count} nodes do not fit in memory", line=line_no
                ) from None
            continue
        if node_count is None:
            raise DimacsSyntaxError(
                f"record {kind!r} before the problem line", line=line_no
            )
        if kind == "n":
            if len(fields) != 3:
                raise DimacsSyntaxError("expected 'n <node id> <balance>'", line=line_no)
            node = _node_id(fields, 1, node_count, line_no, raw)
            if node in balance_seen:
                raise DimacsSyntaxError(f"duplicate node descriptor for {node + 1}", line=line_no)
            balance_seen.add(node)
            balances[node] = _int_field(fields, 2, line_no, raw)
            continue
        if kind == "a":
            if len(fields) != 6:
                raise DimacsSyntaxError(
                    "expected 'a <src> <dst> <lower> <capacity> <cost>'", line=line_no
                )
            if len(arcs) >= arc_count:
                raise ArcCountMismatchError(
                    f"more than the declared {arc_count} arcs", line=line_no
                )
            src = _node_id(fields, 1, node_count, line_no, raw)
            dst = _node_id(fields, 2, node_count, line_no, raw)
            lower = _int_field(fields, 3, line_no, raw)
            upper = _int_field(fields, 4, line_no, raw)
            cost = _int_field(fields, 5, line_no, raw)
            try:
                arcs.append(Arc(src, dst, lower, upper, cost))
            except FlowError as exc:  # a self-loop or inverted bounds; nodes named as in the file
                message = (f"self-loop on node {src + 1}" if src == dst else
                           f"arc ({src + 1},{dst + 1}) requires 0 <= lower <= upper, got [{lower},{upper}]")
                field = 2 if src == dst else 3 if lower < 0 else 4  # the field that fails
                raise DimacsSyntaxError(message, line=line_no, column=_column(raw, field)) from exc
            continue
        raise DimacsSyntaxError(
            f"unknown record type {kind!r}", line=line_no, column=_column(raw, 0)
        )

    if node_count is None:
        raise DimacsSyntaxError("missing problem line")
    if len(arcs) != arc_count:
        raise ArcCountMismatchError(f"declared {arc_count} arcs, found {len(arcs)}")
    return Network(node_count, tuple(arcs), tuple(balances))


def serialize_dimacs(net: Network) -> str:
    lines = [f"p min {net.node_count} {net.arc_count}"]
    for node, balance in enumerate(net.balances):
        if balance != 0:
            lines.append(f"n {node + 1} {balance}")
    for arc in net.arcs:
        lines.append(f"a {arc.src + 1} {arc.dst + 1} {arc.lower} {arc.upper} {arc.cost}")
    return "\n".join(lines) + "\n"
