"""Shared fixtures: a reference example strength matrix, self-consistent
scenarios, and random-instance builders used across tests."""

import numpy as np
import pytest

from crossimpact import (
    InfluenceMatrix,
    PerformanceVector,
    Scenario,
    SimulationTrace,
    SubsystemSet,
    UtilityMatrix,
    compute_weights,
)
from crossimpact.model import stack_steps

# Example 5x5 strength grid used throughout the documentation and tests
# (unit diagonal, entries on the normalized 0..1 scale).
EXAMPLE_STRENGTHS = [
    [1.0, 0.9, 0.1, 0.3, 0.2],
    [0.3, 1.0, 0.0, 0.2, 0.4],
    [0.4, 0.6, 1.0, 0.0, 0.1],
    [0.0, 0.5, 0.2, 1.0, 0.0],
    [0.7, 0.6, 0.2, 0.0, 1.0],
]


@pytest.fixture
def example_matrix() -> InfluenceMatrix:
    return InfluenceMatrix(EXAMPLE_STRENGTHS, 1)


@pytest.fixture
def uniform_utility() -> UtilityMatrix:
    return UtilityMatrix(np.full((5, 5), 0.2))


def random_influence(rng: np.random.Generator, n: int = 5, timestamp: int = 1) -> InfluenceMatrix:
    entries = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(entries, 1.0)
    return InfluenceMatrix(entries, timestamp)


def self_consistent_scenario(
    r1: InfluenceMatrix, utility: UtilityMatrix, horizon: int = 10
) -> Scenario:
    """Seed performance computed through the forward aggregation itself,
    so a zero-delta start is an exact fixed point of the simulator."""
    w = compute_weights(r1, utility).values
    return Scenario(
        subsystems=SubsystemSet(),
        w0=PerformanceVector(w, 0),
        w1=PerformanceVector(w, 1),
        r1=InfluenceMatrix(r1.entries, 1),
        utility=utility,
        horizon=horizon,
    )


def trace_of(steps) -> SimulationTrace:
    """The trace of ``step`` results (``StepResult``) with consecutive timestamps."""
    w, r, start = stack_steps(
        [s.performance.timestamp for s in steps], [s.performance.values for s in steps], [s.influence.entries for s in steps]
    )
    return SimulationTrace(w, r, [s.branches for s in steps], start)


def random_trace(rng: np.random.Generator, steps: int = 8, n: int = 5) -> SimulationTrace:
    """Hand-built valid trace (not simulator output): timestamps starting
    at 2, random strengths and performance, and branch counts that a step
    of n subsystems can produce."""
    w, r, counts = [], [], []
    cells = n * (n - 1)
    for _ in range(steps):
        one_zero = min(int(rng.integers(0, 5)), cells)
        equal = min(int(rng.integers(0, 5)), cells - one_zero)
        ratio = cells - one_zero - equal
        rng.integers(0, 5)  # a spare draw, which keeps the strengths each seed gives
        counts.append((one_zero, equal, ratio, min(int(rng.integers(0, 2)), ratio)))
        w.append(rng.uniform(0.0, 1.0, size=n))
        r.append(random_influence(rng, n).entries)
    return SimulationTrace(np.array(w), np.array(r), counts, 2)
