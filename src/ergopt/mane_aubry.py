"""The non-wandering set, the pairwise potential of cheapest excursions,
boundary data on critical classes, and the representation machinery that
classifies calibrated sub-actions.

Everything here works at window resolution over a transitive system: the
non-wandering set is the critical subgraph, the pairwise potential is the
all-pairs minimum path cost, and calibrated sub-actions correspond to
per-class boundary values through reconstruct/represent. The Mane family
and reconstruction are one min-plus expression, min over seed windows t of
f_t + phi(V -> t); each is one search from its seeds along the reversed
arcs (``_least_into``) and reads no row of the excursion-cost matrix.
``omega_set`` reads none either: it tests that every cost is finite by
testing that the graph is one strongly connected component
(``BetaResult.strongly_connected``, once per graph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .errors import NotCalibrated, NotInOmega, NotTransitive
from .graph_engine import (
    BetaResult,
    Edge,
    PrependGraph,
    critical_structure,
    max_mean_cycle,
    min_cost_all_pairs,
)
from .subaction_lab import NodeFunction, calibration_residual
from .symbolic_core import EventuallyPeriodicPoint, classify_transitivity, window


@dataclass(frozen=True)
class OmegaSet:
    """The non-wandering points; critical and mane are both the graph's ``BetaResult``."""

    graph: PrependGraph
    beta: Fraction
    critical: BetaResult
    mane: BetaResult


def omega_set(graph: PrependGraph) -> OmegaSet:
    """The non-wandering set of a transitive system, read off its graph's ``BetaResult``."""
    if classify_transitivity(graph.system).kind == "reducible":
        raise NotTransitive("the non-wandering analysis needs a transitive system")
    beta = max_mean_cycle(graph).beta
    critical = critical_structure(graph)
    mane = min_cost_all_pairs(graph)
    # every excursion cost is finite exactly when the graph is one strongly
    # connected component, tested once per graph; no row is read
    if not mane.strongly_connected:
        raise AssertionError("excursion costs on a transitive system are all finite")
    return OmegaSet(graph, beta, critical, mane)


def _window_edges(omega: OmegaSet, x: EventuallyPeriodicPoint) -> list[Edge]:
    """The window edge at each step j over the preperiod plus one period.

    The edge at step j runs from W_(j+1)(x) to W_j(x), x's length-q window
    at j.
    """
    q = omega.graph.q
    steps = len(x.preperiod) + len(x.period)
    return [omega.graph.edge_by_key(window(x, j, q + 1)) for j in range(steps)]


def omega_membership(omega: OmegaSet, x: EventuallyPeriodicPoint) -> bool:
    """A point is non-wandering iff all of its window edges are critical."""
    if not x.is_valid(omega.graph.system):
        raise ValueError("point violates the transition matrix")
    return all(e.index in omega.critical.critical_edges for e in _window_edges(omega, x))


def _least_into(omega: OmegaSet, seeds: Iterable[tuple[int, Fraction]]) -> tuple[Fraction, ...]:
    """min over the seeds (t, f) of f + phi(V -> t), for every node V.

    The seed values and the int excursion costs over D go on one common
    denominator L, so one search over ints (``BetaResult.least_into``)
    gives every node's minimum. The path to t may be empty, which gives f
    at t itself; for a critical t, phi(t -> t) = 0, so the nonempty
    minimum is the same. A node that reaches no seed raises AssertionError.
    """
    mane = omega.mane
    seeds = list(seeds)
    L = math.lcm(mane.D, *(f.denominator for _, f in seeds))
    least = mane.least_into(
        [(t, f.numerator * (L // f.denominator)) for t, f in seeds], L // mane.D
    )
    if None in least:
        raise AssertionError("excursion costs on a transitive system are all finite")
    return tuple(Fraction(c, L) for c in least)  # type: ignore[arg-type]


def _period_seeds(omega: OmegaSet, x: EventuallyPeriodicPoint) -> list[tuple[int, Fraction]]:
    """(W_j(x), the cost of x's first j steps) for each step j of x's period.

    The costs are beta - weight summed over the window edges, the
    preperiod's included.
    """
    edges = _window_edges(omega, x)
    costs = accumulate((omega.beta - e.weight for e in edges), initial=Fraction(0))
    return list(zip((e.tgt for e in edges), costs))[len(x.preperiod):]


def mane_family_subaction(omega: OmegaSet, x: EventuallyPeriodicPoint) -> NodeFunction:
    """The calibrated sub-action V -> cheapest excursion cost from x to V.

    V -> min over x's period windows W_j of [phi(V -> W_j) + the cost of
    x's first j steps], one reverse search seeded at the W_j; it reads no
    row of the excursion-cost matrix.
    """
    if not omega_membership(omega, x):
        raise NotInOmega("the family is defined over non-wandering base points")
    return NodeFunction(omega.graph, _least_into(omega, _period_seeds(omega, x)))


# ---------------------------------------------------------------------------
# boundary data and the representation formula


@dataclass(frozen=True)
class BoundaryData:
    """One rational per critical class, stored at the class anchor node."""

    omega: OmegaSet
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.omega.critical.classes):
            raise ValueError("one value per critical class required")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))


def is_compatible(data: BoundaryData) -> bool:
    """f(a) - f(b) must not exceed the excursion cost from a's anchor to b's."""
    anchors = data.omega.critical.anchors()
    phi = data.omega.mane
    return all(
        data.values[i] - data.values[j] <= phi.value(anchors[i], anchors[j])
        for i in range(len(anchors))
        for j in range(len(anchors))
        if i != j
    )


def represent(u: NodeFunction, omega: OmegaSet) -> BoundaryData:
    """Boundary data of a calibrated sub-action: its anchor values."""
    if calibration_residual(u, omega.graph, omega.beta) != 0:
        raise NotCalibrated("representation requires an exactly calibrated input")
    data = BoundaryData(omega, tuple(u[a] for a in omega.critical.anchors()))
    if not is_compatible(data):
        raise AssertionError("the anchor values of a calibrated sub-action must be compatible")
    return data


def reconstruct(data: BoundaryData) -> NodeFunction:
    """Calibrated sub-action with the given boundary data.

    u(V) = min over classes of [f(class) + phi(V -> anchor)]. Always
    calibrated; equals f on the anchors exactly when f is compatible,
    otherwise the minimum clips f down to the compatible envelope. Computed
    by one multi-source search on the reversed arcs seeded at the anchors;
    a node that reaches no anchor raises AssertionError.
    """
    omega = data.omega
    vals = _least_into(omega, zip(omega.critical.anchors(), data.values))
    u = NodeFunction(omega.graph, vals)
    if calibration_residual(u, omega.graph, omega.beta) != 0:
        raise AssertionError("the reconstructed sub-action is not calibrated")
    return u


def maximal_calibrated(graph: PrependGraph, omega: OmegaSet | None = None) -> NodeFunction:
    """The largest calibrated sub-action vanishing on the non-wandering set."""
    omega = omega or omega_set(graph)
    zero = BoundaryData(omega, tuple(Fraction(0) for _ in omega.critical.classes))
    return reconstruct(zero)
