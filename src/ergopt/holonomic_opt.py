"""Measures at window resolution: the circulation polytope, its optimizing
LP, decorated periodic measures and the maximizing face, moment-constrained
optima, the concave multiplier function, and optimal-trajectory averages.

A circulation assigns nonnegative mass to prepend-graph edges with inflow
equal to outflow at every node and total mass one. Decorated orbit measures
add an explicit past window per step, which is exactly the information the
reduced graph forgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleTarget, NotHolonomic
from .graph_engine import PrependGraph, build_prepend_graph, critical_structure, max_mean_cycle
from .mane_aubry import maximal_calibrated
from .potential_model import (
    ConstraintSpec,
    LocallyConstantPotential,
    combine,
    pad_potential,
)
from .rational_simplex import INFEASIBLE, OPTIMAL, solve_lp
from .symbolic_core import SubshiftSystem, Word


@dataclass(frozen=True)
class CirculationMeasure:
    """Nonnegative edge masses, total one, conserved at every node."""

    graph: PrependGraph
    edge_masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        masses = tuple(m if type(m) is Fraction else Fraction(m) for m in self.edge_masses)
        object.__setattr__(self, "edge_masses", masses)
        edges = self.graph.edges
        if len(masses) != len(edges):
            raise ValueError("one mass per edge required")
        nonzero = [(i, m) for i, m in enumerate(masses) if m]
        if any(m < 0 for _, m in nonzero):
            raise ValueError("masses must be nonnegative")
        if sum(m for _, m in nonzero) != 1:
            raise ValueError("total mass must be one")
        net = [0] * len(self.graph.nodes)
        for i, m in nonzero:
            e = edges[i]
            net[e.src] -= m
            net[e.tgt] += m
        if any(net):
            raise ValueError("flow is not conserved")

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.edge_masses) if m > 0)

    def weight_average(self) -> Fraction:
        edges = self.graph.edges
        return sum(
            (m * edges[i].weight for i, m in enumerate(self.edge_masses) if m),
            Fraction(0),
        )


@dataclass(frozen=True)
class DecoratedOrbitMeasure:
    """Periodic orbit plus an explicit past window per step.

    tails[j] is the full past window (y_{p-1}, .., y_1, y_0) attached to the
    step-j window of the orbit; its anchor y_0 must equal the orbit symbol
    one step back. weight is the coefficient of this component in a mixture.
    """

    system: SubshiftSystem
    orbit: Word
    tails: tuple[Word, ...]
    weight: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "orbit", tuple(self.orbit))
        object.__setattr__(self, "tails", tuple(tuple(t) for t in self.tails))
        object.__setattr__(self, "weight", Fraction(self.weight))
        if not self.orbit:
            raise ValueError("orbit must be nonempty")
        if len(self.tails) != len(self.orbit):
            raise ValueError("one tail per orbit step required")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    def step_key(self, j: int, future_depth: int) -> Word:
        """Full window at step j: tail, then the cyclic orbit word."""
        M = len(self.orbit)
        future = tuple(self.orbit[(j + i) % M] for i in range(future_depth))
        return self.tails[j] + future


def is_holonomic(m: DecoratedOrbitMeasure) -> bool:
    """Anchor and adjacency checks for the decorated periodic construction."""
    M = len(m.orbit)
    for j in range(M):
        if not m.system.allows(m.orbit[j], m.orbit[(j + 1) % M]):
            return False
        tail = m.tails[j]
        if not tail or tail[-1] != m.orbit[(j - 1) % M]:
            return False
        if any(not m.system.allows(a, b) for a, b in zip(tail, tail[1:])):
            return False
    return True


def integral(A: LocallyConstantPotential, measures) -> Fraction:
    """Weight-averaged value of A over decorated orbits; weights must sum to 1."""
    if isinstance(measures, DecoratedOrbitMeasure):
        measures = [measures]
    measures = list(measures)
    if sum((m.weight for m in measures), Fraction(0)) != 1:
        raise ValueError("mixture weights must sum to one")
    total = Fraction(0)
    for m in measures:
        if len(m.tails[0]) != A.past_depth:
            raise ValueError("tail depth does not match the potential")
        M = len(m.orbit)
        orbit_sum = sum(
            (A.value(m.step_key(j, A.future_depth)) for j in range(M)), Fraction(0)
        )
        total += m.weight * orbit_sum / M
    return total


def is_maximizing(m: DecoratedOrbitMeasure, A: LocallyConstantPotential, beta) -> bool:
    if not is_holonomic(m):
        raise NotHolonomic("decorated orbit fails the anchor or adjacency checks")
    single = DecoratedOrbitMeasure(m.system, m.orbit, m.tails, Fraction(1))
    return integral(A, single) == Fraction(beta)


# ---------------------------------------------------------------------------
# the optimizing LP


def beta_lp(graph: PrependGraph) -> tuple[Fraction, CirculationMeasure]:
    """Maximize the weight average over the circulation polytope.

    The optimum is a vertex, i.e. a uniform measure on one cycle, and its
    value matches the cycle-mean optimum exactly.
    """
    rows, rhs = _circulation_rows(graph)
    objective = [e.weight for e in graph.edges]
    res = solve_lp(objective, rows, rhs)
    if res.status != OPTIMAL:
        raise AssertionError(f"the circulation LP ended {res.status}, not optimal")
    measure = CirculationMeasure(graph, tuple(res.solution))
    if res.value != max_mean_cycle(graph).beta:
        raise AssertionError("the LP optimum differs from the maximum cycle mean")
    if res.value != measure.weight_average():
        raise AssertionError("the LP optimum differs from its vertex's weight average")
    return res.value, measure


def _circulation_rows(graph: PrependGraph):
    """Total mass one, then outflow minus inflow zero at every node."""
    n_edges = len(graph.edges)
    rows = [[1] * n_edges] + [[0] * n_edges for _ in graph.nodes]
    for e in graph.edges:
        rows[1 + e.src][e.index] += 1
        rows[1 + e.tgt][e.index] -= 1
    return rows, [1] + [0] * len(graph.nodes)


@dataclass(frozen=True)
class MaximizingFace:
    """The face of the circulation polytope where the weight average peaks."""

    beta: Fraction
    allowed_edges: frozenset[int]


def maximizing_face(graph: PrependGraph) -> MaximizingFace:
    beta = max_mean_cycle(graph).beta
    return MaximizingFace(beta, critical_structure(graph).critical_edges)


def face_contains(face: MaximizingFace, m: CirculationMeasure) -> bool:
    return all(i in face.allowed_edges for i in m.support())


def orbit_circulation(graph: PrependGraph, m: DecoratedOrbitMeasure) -> CirculationMeasure:
    """The x-marginal of a decorated orbit as a circulation on the graph."""
    masses = [Fraction(0)] * len(graph.edges)
    M = len(m.orbit)
    q = graph.q
    for j in range(M):
        key = tuple(m.orbit[(j - 1 + i) % M] for i in range(q + 1))
        masses[graph.edge_by_key(key).index] += Fraction(1, M)
    return CirculationMeasure(graph, tuple(masses))


# ---------------------------------------------------------------------------
# moment constraints


def _edge_component_value(phi: LocallyConstantPotential, key: Word) -> Fraction:
    if phi.past_depth != 1:
        raise ValueError("constraint components must not look at past tails")
    if phi.future_depth > len(key) - 1:
        raise ValueError("constraint component looks beyond the window")
    return phi.value(key[: 1 + phi.future_depth])


def constrained_beta(graph: PrependGraph, constraints: ConstraintSpec) -> Fraction:
    """Best weight average among circulations hitting the moment targets.

    A component that reads more future symbols than the graph's windows is
    met on the graph of the potential padded to that depth: circulations
    there are the consistent marginals of longer words, so the optimum is
    the same.
    """
    if constraints.target is None:
        raise ValueError("constrained optimization needs a target vector")
    depth = max(phi.future_depth for phi in constraints.components)
    if depth > graph.q:
        A = graph.potential
        graph = build_prepend_graph(graph.system, pad_potential(A, A.past_depth, depth))
    rows, rhs = _circulation_rows(graph)
    for phi, h in zip(constraints.components, constraints.target):
        rows.append([_edge_component_value(phi, e.key) for e in graph.edges])
        rhs.append(Fraction(h))
    objective = [e.weight for e in graph.edges]
    res = solve_lp(objective, rows, rhs)
    if res.status == INFEASIBLE:
        raise InfeasibleTarget("no circulation attains the moment target")
    if res.status != OPTIMAL:
        raise AssertionError(f"moment LP ended with status {res.status!r}")
    return res.value


def _tilted_graph(graph: PrependGraph, constraints: ConstraintSpec) -> PrependGraph:
    if constraints.multiplier is None:
        raise ValueError("need a multiplier vector")
    for phi in constraints.components:
        if phi.past_depth != 1:
            raise ValueError("constraint components must not look at past tails")
    # the edge weights as a potential of past depth 1
    weights = {e.key: e.weight for e in graph.edges}
    terms = [(Fraction(1), LocallyConstantPotential(graph.system, 1, graph.q, weights))]
    terms += [
        (-c, phi) for c, phi in zip(constraints.multiplier, constraints.components)
    ]
    return build_prepend_graph(graph.system, combine(terms))


def alpha(graph: PrependGraph, constraints: ConstraintSpec) -> Fraction:
    """Concave multiplier function: minus the optimum of the tilted weights.

    Tilting commutes with past reduction because components are tail-free.
    """
    return -max_mean_cycle(_tilted_graph(graph, constraints)).beta


def optimal_trajectory_average(
    graph: PrependGraph, constraints: ConstraintSpec, length: int
) -> tuple[Fraction, ...]:
    """Component averages along a tight trajectory of the tilted system.

    Follows calibration-tight edges of the maximal calibrated sub-action,
    starting from the smallest window and breaking ties toward the smallest
    symbol; the average is exact for any length via cycle detection.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    tilted = _tilted_graph(graph, constraints)
    u = maximal_calibrated(tilted)
    beta = max_mean_cycle(tilted).beta
    comps = constraints.components

    def tight_edge(v: int):
        for e in tilted.out_edges(v):
            if u[e.tgt] - e.weight + beta == u[v]:
                return e
        raise AssertionError("calibrated function lost its tight edge")

    totals = [Fraction(0)] * len(comps)
    seen: dict[int, tuple[int, tuple[Fraction, ...]]] = {}
    v = 0
    step = 0
    while step < length:
        if v in seen:
            start, at_entry = seen[v]
            cycle_len = step - start
            cycle_sums = [a - b for a, b in zip(totals, at_entry)]
            laps = (length - step) // cycle_len
            totals = [t + laps * c for t, c in zip(totals, cycle_sums)]
            step += laps * cycle_len
            seen.clear()  # finish the remainder step by step
        seen[v] = (step, tuple(totals))
        if step == length:
            break
        e = tight_edge(v)
        for i, phi in enumerate(comps):
            totals[i] += _edge_component_value(phi, e.key)
        v = e.tgt
        step += 1
    return tuple(t / length for t in totals)
