"""The statevector kernels must match dense gate matrices."""
import numpy as np
import pytest

from dm_oracle import CNOT_MAT, H_MAT, PAULIS, apply_axes
from noisekit._kernels import ACTIVE

_MATRICES = {"h": H_MAT, "x": PAULIS[0], "y": PAULIS[1], "z": PAULIS[2]}
# Y and Z have no kernels. The Pauli-frame core relies on Z = H X H and
# Y = i X Z (so a Y flips what X and Z flip together), which the kernels
# must reproduce.
_KERNEL_SEQUENCES = {"h": ("h",), "x": ("x",), "z": ("h", "x", "h"), "y": ("h", "x", "h", "x")}
_PHASES = {"y": 1j}


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def _dense(psi, mat, qubits, n):
    return apply_axes(psi.reshape([2] * n), mat, qubits).reshape(-1)


@pytest.mark.parametrize("gate", ["h", "x", "y", "z"])
@pytest.mark.parametrize("n,qubit", [(1, 0), (3, 0), (3, 2), (6, 3)])
def test_single_qubit_paths_identical(gate, n, qubit):
    psi = _random_state(n, seed=7)
    expected = _dense(psi, _MATRICES[gate], (qubit,), n)
    for name in _KERNEL_SEQUENCES[gate]:
        getattr(ACTIVE, name)(psi, 1 << (n - 1 - qubit))
    psi *= _PHASES.get(gate, 1.0)
    assert np.allclose(psi, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n,control,target", [(2, 0, 1), (2, 1, 0), (5, 1, 4), (5, 4, 1)])
def test_cnot_paths_identical(n, control, target):
    psi = _random_state(n, seed=11)
    expected = _dense(psi, CNOT_MAT, (control, target), n)
    ACTIVE.cnot(psi, 1 << (n - 1 - control), 1 << (n - 1 - target))
    assert np.allclose(psi, expected, rtol=0.0, atol=1e-12)


def test_kernels_preserve_norm():
    psi = _random_state(5, seed=3)
    for gate in ("h", "x"):
        getattr(ACTIVE, gate)(psi, 4)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
    ACTIVE.cnot(psi, 8, 2)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_h_twice_is_identity():
    psi = _random_state(4, seed=5)
    original = psi.copy()
    ACTIVE.h(psi, 2)
    ACTIVE.h(psi, 2)
    assert np.allclose(psi, original, atol=1e-12)
