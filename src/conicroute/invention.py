"""Invention of destination-to-destination edges by absolute edge difference.

For one source, the edges of its original view, (dst, weight) pairs with
no provenance (every one is original), are walked in ascending target
offset order as consecutive pairs; on a matrix source the targets are its
destinations, on a general DAG any nodes. The view keeps one edge
per target, the lightest of a parallel run, so a pair's edges reach two
different nodes. Within a pair the smaller edge is the found short path,
and a new edge is invented from its target to the other's, weighing their
absolute difference. The pair walk alone applies the optional policy cap.

An InventedEdge is a plain record, like a contraction Shortcut. add_edge
keeps a source's weights distinct, so its weight, on the lower triangle
bound of the pair, is positive and min + invented = max always holds. A
known hidden path between the same two destinations can grade an
invention via fitness(), which scores relative error against a tolerance.
invent_all runs with the cyclic collector paused (graph._collector_paused).
"""

from __future__ import annotations

import re
from contextlib import suppress
from fractions import Fraction
from itertools import pairwise
from math import inf
from typing import NamedTuple

from .errors import EndpointMismatch, NonPositiveWeight, NotASource
from .graph import ConicGraph, Edge, NodeId, NodeKind, Provenance, _collector_paused

DEFAULT_TOLERANCE = Fraction(1, 10)
# a tolerance's text; a four-digit exponent keeps Fraction("1eN") small
_TOLERANCE = re.compile(r"[0-9]+/[0-9]*[1-9][0-9]*"
                        r"|([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]{1,4})?")


class InventedEdge(NamedTuple):
    """Hypothesised edge between two adjacent destinations of one source;
    an immutable tuple of its fields, equal to and hashed as that tuple."""

    origin: NodeId                 # the source whose edge pair produced it
    src: NodeId                    # destination with the smaller source edge
    dst: NodeId                    # its offset neighbour
    weight: int                    # absolute difference of the pair
    pair_weights: tuple[int, int]  # (smaller, larger) source-edge weights

    def as_edge(self) -> Edge:
        return Edge(self.src, self.dst, self.weight, Provenance.INVENTED)


class _Positive(tuple):
    """Base of a record whose last field is a positive int, however it is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        if type(record[-1]) is not int or record[-1] <= 0:
            raise ValueError(f"{record._fields[-1]} must be positive, got {record[-1]!r}")
        return record

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: both check too
        return cls(*iterable)


# each base takes its record's name, which a wrong call's TypeError shows
class HiddenPath(_Positive, NamedTuple("HiddenPath", [
        ("src", NodeId), ("dst", NodeId), ("true_weight", int)])):
    """A real but unmapped path between two destinations."""

    __slots__ = ()


class FitnessReport(NamedTuple):
    invented_weight: int
    hidden_weight: int
    absolute_error: int
    relative_error: Fraction
    fit: bool


class PolicyThreshold(_Positive, NamedTuple("PolicyThreshold", [("allowable", int)])):
    """Cap on how heavy an invention may be before it is suppressed."""

    __slots__ = ()


def absolute_edge_difference(w1: int, w2: int) -> int:
    """|w1 - w2| for two positive edge weights; symmetric."""
    if w1 <= 0 or w2 <= 0:
        raise NonPositiveWeight(f"weights must be > 0, got ({w1}, {w2})")
    return abs(w1 - w2)


def triangle_bounds(z1: int, z2: int) -> tuple[int, int]:
    """(upper, lower) triangle-inequality bounds for an edge pair.

    upper = z1 + z2, lower = |z1 - z2|. Every invention weighs exactly the
    lower bound.
    """
    return z1 + z2, absolute_edge_difference(z1, z2)


def invent_for_source(graph: ConicGraph, source: NodeId,
                      policy: PolicyThreshold | None = None) -> list[InventedEdge]:
    """Invent edges between consecutive destination pairs of one source.

    One pass, one evaluation per consecutive pair of the source's original
    view (one edge per target); a pair over the cap is skipped.
    """
    graph._require_frozen()
    node = graph.node(source)
    if node.kind is not NodeKind.SOURCE:
        raise NotASource(f"node {node.label!r} is a {node.kind.value}")
    cap = inf if policy is None else policy.allowable
    invented: list[InventedEdge] = []
    new = tuple.__new__  # builds a record without the NamedTuple's Python-level __new__
    # frozen and node are checked above: read the original adjacency unchecked
    for (first, w1), (second, w2) in pairwise(graph._original[source]):
        weight = absolute_edge_difference(w1, w2)
        if weight > cap:
            continue
        if w1 < w2:
            invented.append(new(InventedEdge, (source, first, second, weight, (w1, w2))))
        else:
            invented.append(new(InventedEdge, (source, second, first, weight, (w2, w1))))
    return invented


@_collector_paused
def invent_all(graph: ConicGraph,
               policy: PolicyThreshold | None = None) -> dict[NodeId, list[InventedEdge]]:
    """invent_for_source over every source, ascending node id."""
    graph._require_frozen()
    return {
        node.id: invent_for_source(graph, node.id, policy)
        for node in graph.sources()
    }


def fitness(invented: InventedEdge, hidden: HiddenPath,
            tolerance: "Fraction | float | int | str" = DEFAULT_TOLERANCE) -> FitnessReport:
    """Grade an invention against the true weight of its hidden path.

    The hidden path must join the same two destinations (either
    orientation). Relative error is exact rational arithmetic; fit holds
    when it does not exceed the tolerance. A str tolerance, here and in the
    CLI, is unsigned ASCII: a ratio such as 1/10 (non-zero denominator) or
    a decimal such as 0.1, .5 or 5. with an exponent of at most four digits
    (1e-1); other text raises ValueError, as do a bool, a negative number and
    a NaN or an infinity, float or Decimal. A float is read through its repr.
    """
    if {invented.src, invented.dst} != {hidden.src, hidden.dst}:
        raise EndpointMismatch(
            f"hidden path {hidden.src}->{hidden.dst} does not join "
            f"invented pair {invented.src}->{invented.dst}"
        )
    absolute_error = abs(invented.weight - hidden.true_weight)
    relative_error = Fraction(absolute_error, hidden.true_weight)
    tolerance = _as_fraction(tolerance)
    # by position, without the NamedTuple's Python-level __new__
    return tuple.__new__(FitnessReport, (
        invented.weight, hidden.true_weight, absolute_error, relative_error,
        # relative_error <= tolerance in ints, exact: both denominators are positive
        absolute_error * tolerance.denominator <= tolerance.numerator * hidden.true_weight))


def _as_fraction(tolerance: "Fraction | float | int | str") -> Fraction:
    if type(tolerance) is Fraction and tolerance.numerator >= 0:
        return tolerance  # already exact, as the CLI's --tolerance and the default are
    if not isinstance(tolerance, bool) and (not isinstance(tolerance, str)
                                            or _TOLERANCE.fullmatch(tolerance)):
        # Floats go through their decimal repr so that 0.1 means exactly 1/10.
        with suppress(ValueError, OverflowError):  # a NaN or an infinity has no Fraction
            value = Fraction(str(tolerance) if isinstance(tolerance, float) else tolerance)
            if value >= 0:  # no relative error is below 0
                return value
    raise ValueError(f"not an unsigned decimal or ratio: {tolerance!r}")
