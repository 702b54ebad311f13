"""Seeded grid instances for the benchmark workloads.

The generator does not import flowenum: the program under test only ever
sees the DIMACS text.  Every instance is built around a random witness flow
and its balances are derived from that flow, so each one is feasible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One generated network, as DIMACS text and as plain arc tuples."""

    node_count: int
    arcs: tuple[tuple[int, int, int, int, int], ...]  # (src, dst, lower, upper, cost), 0-based
    balances: tuple[int, ...]

    def dimacs(self) -> str:
        lines = [f"p min {self.node_count} {len(self.arcs)}"]
        lines.extend(f"n {node + 1} {b}" for node, b in enumerate(self.balances) if b)
        lines.extend(f"a {s + 1} {d + 1} {lo} {up} {c}" for s, d, lo, up, c in self.arcs)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GridFamily:
    """rows x cols grid networks with random bounds and costs."""

    rows: int
    cols: int
    both_ways: bool          # an arc each way per grid edge, else one of random direction
    cost: tuple[int, int]    # inclusive ranges
    lower: tuple[int, int]
    span: tuple[int, int]    # upper - lower

    def build(self, rng: random.Random) -> Instance:
        pairs = []
        for r in range(self.rows):
            for c in range(self.cols):
                node = r * self.cols + c
                if c + 1 < self.cols:
                    pairs.append((node, node + 1))
                if r + 1 < self.rows:
                    pairs.append((node, node + self.cols))
        ends = []
        for u, v in pairs:
            if self.both_ways:
                ends.extend(((u, v), (v, u)))
            else:
                ends.append((u, v) if rng.random() < 0.5 else (v, u))
        balances = [0] * (self.rows * self.cols)
        arcs = []
        for src, dst in ends:
            lower = rng.randint(*self.lower)
            upper = lower + rng.randint(*self.span)
            witness = rng.randint(lower, upper)
            balances[src] += witness
            balances[dst] -= witness
            arcs.append((src, dst, lower, upper, rng.randint(*self.cost)))
        return Instance(len(balances), tuple(arcs), tuple(balances))
