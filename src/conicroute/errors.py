"""Exception hierarchy shared across the package.

Graph construction errors are raised eagerly, by the call that would break
a rule, so a graph is valid by construction; the matrix ingester records
each rejected node or edge as a Violation and aggregates them into
ValidationFailed.
"""

from __future__ import annotations


class ConicRouteError(Exception):
    """Base class for every error raised by this package."""


# --- graph construction / mutation ---------------------------------------

class GraphFrozen(ConicRouteError):
    """Mutation attempted on a frozen graph."""


class GraphNotFrozen(ConicRouteError):
    """Query requires a frozen graph."""


class UnknownNode(ConicRouteError):
    """Node id or label does not exist in the graph."""


class DuplicateLabel(ConicRouteError):
    """Node label already in use."""


class DuplicateOffset(ConicRouteError):
    """Offset already in use within the node kind, or out of order."""


class NonPositiveWeight(ConicRouteError):
    """Edge weight must be a strictly positive integer."""


class EqualAdjacentWeight(ConicRouteError):
    """Two outgoing edges of one source share a weight (paths must be distinct)."""


class CycleCreated(ConicRouteError):
    """Edge would close a directed cycle."""


# --- search ----------------------------------------------------------------

class Unreachable(ConicRouteError):
    """Target kept an infinite distance label."""


# --- contraction -----------------------------------------------------------

class AlreadyContracted(ConicRouteError):
    """Node was contracted earlier in this run."""


class BadOrder(ConicRouteError, ValueError):
    """Contraction order is not a permutation of all node ids."""


# --- invention -------------------------------------------------------------

class NotASource(ConicRouteError):
    """Operation applies to source nodes only."""


class EndpointMismatch(ConicRouteError):
    """Hidden path endpoints do not match the invented edge."""


# --- matrix / CLI ingestion -------------------------------------------------

class ParseError(ConicRouteError):
    """Malformed build-matrix or hidden-path file; carries a 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedHeader(ParseError):
    """First two records do not form a destinations/offsets header."""


class RaggedRow(ParseError):
    """Row cell count disagrees with the destination header."""


class NonIntegerCell(ParseError):
    """A cell or offset is neither empty nor an integer."""


class DuplicateOffsetInFile(ParseError, DuplicateOffset):
    """Offset repeated (or not strictly increasing) in the file."""


class ValidationFailed(ConicRouteError):
    """Matrix produced a graph with violations; carries the report."""

    def __init__(self, violations):
        codes = ", ".join(v.code for v in violations)
        super().__init__(f"{len(violations)} violation(s): {codes}")
        self.violations = list(violations)


class UnknownSourceLabel(ConicRouteError):
    """Query named a source label absent from the graph."""
