"""Exception hierarchy shared across the package."""


class FlowError(Exception):
    """Base class for every error this package raises."""


class NetworkValidationError(FlowError):
    """A network breaks one of its structural invariants."""


class UnbalancedSupplyError(NetworkValidationError):
    """Node balances do not sum to zero."""


class BadBoundsError(NetworkValidationError):
    """An arc's capacity bounds are inverted or negative."""


class InfiniteCapacityError(NetworkValidationError):
    """Capacity bounds must be finite integers."""


class DisconnectedError(NetworkValidationError):
    """The underlying undirected graph is not connected."""


class DimensionMismatchError(FlowError):
    """A flow vector does not index the network's arcs."""


class InfeasibleFlowError(FlowError):
    """An operation needs a feasible flow and did not get one."""


class InfeasibleError(FlowError):
    """The instance admits no feasible flow at all."""


class NegativeCycleError(FlowError):
    """A negative residual cycle turned up where optimality was assumed."""


class ArcInTreeError(FlowError):
    """Induced cycles are defined for non-tree arcs only."""


class CycleEntirelyInTreeError(FlowError):
    """A cycle to decompose must leave the spanning tree somewhere."""


class InvariantError(FlowError):
    """An internal invariant failed: a bug in this package, not in the input."""


class BudgetExceededError(FlowError):
    """A search outgrew its budget: the brute force's states or flows, or the tree pivots."""


class PivotLimitError(BudgetExceededError):
    """Tree pivoting passed its cap, which Bland's rule reaches on large grids."""


class DimacsError(FlowError):
    """Problem found in a DIMACS file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class DimacsSyntaxError(DimacsError):
    """Malformed record in a DIMACS file."""


class DuplicateProblemLineError(DimacsError):
    """More than one problem line."""


class ArcCountMismatchError(DimacsError):
    """Arc lines disagree with the declared arc count."""


class NodeIdOutOfRangeError(DimacsError):
    """A node id falls outside 1..n."""
