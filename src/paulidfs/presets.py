"""The worked example subgroups and the three-qubit non-generic code data.

Five named presets are exposed:

    qz   two-qubit phase damping        {II, ZI, IZ, ZZ}
    qx   paired bit flips on 4 qubits   {IIII, XXII, IIXX, XXXX}
    q4   uniform 4-qubit errors         {IIII, XXXX, YYYY, ZZZZ}
    q2z  anisotropic dipolar dephasing  the 8 even products of ZZ pairs
    q8   non-Abelian 8-element group    {+-III, +-XXI, +-IZZ, +-iXYZ}

The q8 preset also carries the four two-dimensional invariant planes of
its natural representation and the four-state code built from the first
vector of each plane, which is preserved only by suitably constrained
channels.
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliElement, algebra_action, matrix_action, parse_pauli
from .subgroup import PauliSubgroup, closure

PRESET_GENERATORS: dict[str, tuple[str, ...]] = {
    "qz": ("ZI", "IZ"),
    "qx": ("XXII", "IIXX"),
    "q4": ("XXXX", "ZZZZ"),
    "q2z": ("ZZII", "ZIIZ", "IIZZ", "ZIZI", "IZZI", "IZIZ"),
    "q8": ("XXI", "IZZ", "-III", "+iXYZ"),
}

PRESET_NAMES = tuple(PRESET_GENERATORS)


def preset_generators(name: str) -> list[PauliElement]:
    try:
        strings = PRESET_GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    return [parse_pauli(s) for s in strings]


def preset_group(name: str) -> PauliSubgroup:
    """Closure of the named preset's generators."""
    return closure(preset_generators(name))


def basis_state(index: int, n_qubits: int) -> np.ndarray:
    """Computational basis ket |index> on n_qubits (qubit 1 = MSB)."""
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[index] = 1.0
    return state


def _kets(bit_strings: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    n = len(bit_strings[0])
    return tuple(basis_state(int(bits, 2), n) for bits in bit_strings)


def q8_code_states() -> tuple[np.ndarray, ...]:
    """The code {|000>, |111>, |100>, |011>}: first vector of each plane."""
    return _kets(("000", "111", "100", "011"))


def q8_invariant_planes() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The four two-dimensional invariant planes of the q8 representation."""
    pairs = (("000", "110"), ("111", "001"), ("100", "010"), ("011", "101"))
    return tuple((_kets(p)[0], _kets(p)[1]) for p in pairs)


def plane_invariance_residual(
    group: PauliSubgroup, planes=None
) -> float:
    """Worst leakage of any plane under any group element.

    For each plane basis vector v and element G, measures the norm of the
    component of G v outside the plane; exact invariance gives 0.
    """
    if planes is None:
        planes = q8_invariant_planes()
    worst = 0.0
    for plane in planes:
        basis = np.column_stack(plane)
        for element in group.elements:
            image = algebra_action([matrix_action(element)], [1], basis)
            leak = image - basis @ (basis.conj().T @ image)
            worst = max(worst, float(np.linalg.norm(leak, axis=0).max()))
    return worst
