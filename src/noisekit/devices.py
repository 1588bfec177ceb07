"""Built-in device descriptions and mock ground-truth builders."""
from __future__ import annotations

import numpy as np

from .circuit import DeviceTopology
from .noise import PER_ELEMENT, CompositeNoiseModel, ReadoutModel
from .rng import TRUTH_JITTER, generator

# Register-average error rates of the 20-qubit reference device used
# throughout the tests and the demo pipeline.
AVERAGE_P0 = 0.0212
AVERAGE_P1 = 0.0681
AVERAGE_PX = 0.0033
DEFAULT_PCNOT = 0.02
JITTER = 0.3  # jittered_truth's relative spread


def ladder20() -> DeviceTopology:
    """A 20-qubit, 23-coupling ladder layout: four rows of five qubits with
    staggered vertical links, directed edges as published."""
    rows = [
        (0, 1), (1, 2), (2, 3), (3, 4),
        (5, 6), (6, 7), (7, 8), (8, 9),
        (10, 11), (11, 12), (12, 13), (13, 14),
        (15, 16), (16, 17), (17, 18), (18, 19),
    ]
    verticals = [(0, 5), (4, 9), (5, 10), (7, 12), (9, 14), (10, 15), (14, 19)]
    return DeviceTopology(20, tuple(rows + verticals))


def line(num_qubits: int) -> DeviceTopology:
    """A simple 1-D chain, handy for small mock experiments."""
    return DeviceTopology(
        num_qubits, tuple((q, q + 1) for q in range(num_qubits - 1))
    )


def uniform_truth(
    topo: DeviceTopology,
    p0: float = AVERAGE_P0,
    p1: float = AVERAGE_P1,
    p_x: float = AVERAGE_PX,
    p_cnot: float = DEFAULT_PCNOT,
) -> CompositeNoiseModel:
    """Fully-spatial ground truth with identical parameters everywhere."""
    return CompositeNoiseModel(
        granularity=PER_ELEMENT,
        readout={q: ReadoutModel(p0, p1) for q in range(topo.num_qubits)},
        x_gate={q: p_x for q in range(topo.num_qubits)},
        cnot={e: p_cnot for e in sorted(topo.undirected_edges())},
    )


def jittered_truth(topo: DeviceTopology, seed: int) -> CompositeNoiseModel:
    """Ground truth with seeded per-element spread of +/- JITTER around the
    averages, so fully-spatial fits have genuine spatial structure to recover."""
    rng = generator(seed, TRUTH_JITTER)

    def wobble(center: float) -> float:
        return float(np.clip(center * (1.0 + JITTER * rng.uniform(-1, 1)), 0.0, 1.0))

    return CompositeNoiseModel(
        granularity=PER_ELEMENT,
        readout={
            q: ReadoutModel(wobble(AVERAGE_P0), wobble(AVERAGE_P1)) for q in range(topo.num_qubits)
        },
        x_gate={q: wobble(AVERAGE_PX) for q in range(topo.num_qubits)},
        cnot={e: wobble(DEFAULT_PCNOT) for e in sorted(topo.undirected_edges())},
    )
