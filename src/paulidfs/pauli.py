"""Exact arithmetic on Pauli-group elements in symplectic form.

An element is stored as a global phase ``i**phase_exp`` together with two
bit masks over the qubits:

    element = i**phase_exp  *  W_1 (x) W_2 (x) ... (x) W_K

where the single-qubit factor on qubit j is selected by the pair of mask
bits (x_j, z_j):

    (0, 0) -> I      (1, 0) -> X      (0, 1) -> Z      (1, 1) -> Y

The Y convention absorbs the phase of X*Z into the bookkeeping (Y = i X Z),
so the canonical string "Y" carries phase_exp = 0.  Qubit 1 is the leftmost
letter of a string and maps to the most significant mask bit, matching the
convention that |1100> on four qubits means qubits 1 and 2 are flipped.

All values are immutable and every function is pure, so elements are safe
to share across threads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Largest qubit count for which dense 2^K x 2^K matrices are materialized
#: by default (a complex128 matrix at K = 12 is ~256 MB).
DENSE_QUBIT_LIMIT = 12

_SIGN_BY_PHASE = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PHASE_BY_SIGN = {"+": 0, "": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}

_LETTER_BY_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_BY_LETTER = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


class PauliParseError(ValueError):
    """Raised for malformed Pauli strings; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DenseLimitError(ValueError):
    """Raised when a dense realization would exceed the qubit limit."""


class QubitCountError(ValueError):
    """Raised when two elements act on different numbers of qubits."""


@dataclass(frozen=True, slots=True)
class PauliElement:
    """One member of the Pauli group on ``n_qubits`` qubits.

    Attributes:
        phase_exp: exponent of the global factor i, reduced mod 4.
        x_mask: bit j set means an X-type factor on the qubit whose letter
            sits at position ``n_qubits - 1 - j`` counting from the left.
        z_mask: same layout for Z-type factors; both bits set means Y.
        n_qubits: number of qubits K >= 1.
    """

    phase_exp: int
    x_mask: int
    z_mask: int
    n_qubits: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if not 0 <= self.phase_exp < 4:
            object.__setattr__(self, "phase_exp", self.phase_exp % 4)
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits beyond the qubit count")

    def __mul__(self, other: "PauliElement") -> "PauliElement":
        return mul(self, other)

    def __str__(self) -> str:
        return format_pauli(self)

    @property
    def is_identity_multiple(self) -> bool:
        """True if the element is i^k times the identity string."""
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    def adjoint(self) -> "PauliElement":
        return adjoint(self)

    def to_matrix(self, dense_limit: int = DENSE_QUBIT_LIMIT) -> np.ndarray:
        return to_matrix(self, dense_limit=dense_limit)


def identity(n_qubits: int) -> PauliElement:
    """The identity string on ``n_qubits`` qubits with phase +1."""
    return PauliElement(0, 0, 0, n_qubits)


def pauli_group_order(n_qubits: int) -> int:
    """Total number of group elements, phases included: 4^(K+1)."""
    return 4 ** (n_qubits + 1)


def pauli_string_count(n_qubits: int) -> int:
    """Number of distinct Pauli strings ignoring the four phases: 4^K."""
    return 4**n_qubits


def parse_pauli(text: str, n_qubits: int | None = None) -> PauliElement:
    """Parse a string like ``"ZI"``, ``"-XX"`` or ``"+iXYZ"``.

    Grammar: an optional sign in {+, -, i, +i, -i} followed by one letter
    from {I, X, Y, Z} per qubit.  If ``n_qubits`` is given the body length
    must match it.

    Raises:
        PauliParseError: empty body, unknown character (with its position)
            or body length mismatch.
    """
    stripped = text.strip()
    body_start = 0
    sign = ""
    for candidate in ("+i", "-i", "+", "-", "i"):
        if stripped.startswith(candidate):
            sign = candidate
            body_start = len(candidate)
            break
    body = stripped[body_start:]
    if not body:
        raise PauliParseError(f"empty Pauli body in {text!r}")
    if n_qubits is not None and len(body) != n_qubits:
        raise PauliParseError(
            f"expected {n_qubits} letters in {text!r}, found {len(body)}"
        )
    x_mask = 0
    z_mask = 0
    for offset, letter in enumerate(body):
        bits = _BITS_BY_LETTER.get(letter)
        if bits is None:
            raise PauliParseError(
                f"unexpected character {letter!r} at position "
                f"{body_start + offset} in {text!r}",
                position=body_start + offset,
            )
        x_mask = (x_mask << 1) | bits[0]
        z_mask = (z_mask << 1) | bits[1]
    return PauliElement(_PHASE_BY_SIGN[sign], x_mask, z_mask, len(body))


def format_pauli(p: PauliElement) -> str:
    """Canonical string with an explicit sign, e.g. ``"+ZI"`` or ``"-iXYZ"``."""
    letters = []
    for j in range(p.n_qubits - 1, -1, -1):
        bits = ((p.x_mask >> j) & 1, (p.z_mask >> j) & 1)
        letters.append(_LETTER_BY_BITS[bits])
    return _SIGN_BY_PHASE[p.phase_exp] + "".join(letters)


#: Letter codes indexed by x + 2 z of one qubit, as uint32 so that a row of
#: K codes views as one K-letter str.
_LETTER_CODES = np.array([ord(c) for c in "IXZY"], dtype=np.uint32)


def format_paulis(elements: Sequence[PauliElement], n_qubits: int) -> list[str]:
    """``format_pauli`` of every element on ``n_qubits`` qubits, in order.

    The masks go through ``int.to_bytes`` and ``np.unpackbits``, so any
    qubit count works, and all letters are looked up in one array pass.
    """
    width = (n_qubits + 7) // 8

    def bits(masks) -> np.ndarray:
        raw = b"".join(mask.to_bytes(width, "big") for mask in masks)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
        return np.unpackbits(rows, axis=1)[:, 8 * width - n_qubits :]

    codes = _LETTER_CODES[
        bits(p.x_mask for p in elements) + 2 * bits(p.z_mask for p in elements)
    ]
    bodies = codes.view(np.dtype((np.str_, n_qubits)))
    return [
        _SIGN_BY_PHASE[p.phase_exp] + body
        for p, body in zip(elements, bodies[:, 0].tolist(), strict=True)
    ]


def _require_same_qubits(p: PauliElement, q: PauliElement):
    if p.n_qubits != q.n_qubits:
        raise QubitCountError(
            f"qubit counts differ: {p.n_qubits} vs {q.n_qubits}"
        )


def mul(p: PauliElement, q: PauliElement) -> PauliElement:
    """Exact group product p * q with full phase accumulation.

    Using the per-qubit convention W(x, z) = i^(x z) X^x Z^z, the product
    phase picks up one factor of -1 for every position where the left
    factor's Z part meets the right factor's X part, plus the defect of
    the Y bookkeeping between the inputs and the result.
    """
    _require_same_qubits(p, q)
    x3 = p.x_mask ^ q.x_mask
    z3 = p.z_mask ^ q.z_mask
    phase = (
        p.phase_exp
        + q.phase_exp
        + (p.x_mask & p.z_mask).bit_count()
        + (q.x_mask & q.z_mask).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (p.z_mask & q.x_mask).bit_count()
    ) % 4
    return PauliElement(phase, x3, z3, p.n_qubits)


def commutes(p: PauliElement, q: PauliElement) -> bool:
    """True if p and q commute, False if they anticommute.

    Two Pauli elements commute exactly when the symplectic inner product
    of their masks -- the number of positions where one element's X part
    meets the other's Z part -- is even.  Global phases are irrelevant.
    """
    _require_same_qubits(p, q)
    overlap = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return overlap % 2 == 0


def adjoint(p: PauliElement) -> PauliElement:
    """Hermitian adjoint; for Pauli elements this is also the inverse."""
    return PauliElement((-p.phase_exp) % 4, p.x_mask, p.z_mask, p.n_qubits)


def _parity(values: np.ndarray) -> np.ndarray:
    """Bitwise parity of each entry of an integer array."""
    values = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        values ^= values >> shift
    return values & 1


def matrix_action(p: PauliElement) -> tuple[np.ndarray, np.ndarray]:
    """Sparse description of the dense matrix of ``p``.

    Returns ``(rows, values)`` such that the matrix has entry
    ``values[b]`` at ``(rows[b], b)`` and zeros elsewhere: every Pauli
    element is a generalized permutation over computational basis states.
    """
    dim = 1 << p.n_qubits
    cols = np.arange(dim, dtype=np.int64)
    rows = cols ^ p.x_mask
    global_phase = 1j ** ((p.phase_exp + (p.x_mask & p.z_mask).bit_count()) % 4)
    signs = 1.0 - 2.0 * _parity(cols & p.z_mask)
    return rows, global_phase * signs


class ActionArrays(NamedTuple):
    """``matrix_action`` of a sequence of elements, as int64 arrays.

    Element n maps |b> to i^phase[n] (-1)^parity(b & z[n]) |b XOR x[n]>.
    """

    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray


def action_arrays(elements) -> ActionArrays:
    """One ``ActionArrays`` for all of ``elements``, in their order."""
    rows = [
        (p.x_mask, p.z_mask, (p.phase_exp + (p.x_mask & p.z_mask).bit_count()) % 4)
        for p in elements
    ]
    x, z, phase = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return ActionArrays(x, z, phase)


def _require_dense(n_qubits: int, dense_limit: int):
    if n_qubits > dense_limit:
        raise DenseLimitError(
            f"{n_qubits} qubits exceeds the dense limit of {dense_limit}"
        )


def to_matrix(p: PauliElement, dense_limit: int = DENSE_QUBIT_LIMIT) -> np.ndarray:
    """Dense 2^K x 2^K complex matrix realizing ``p``.

    Raises:
        DenseLimitError: if ``p.n_qubits`` exceeds ``dense_limit``.
    """
    _require_dense(p.n_qubits, dense_limit)
    dim = 1 << p.n_qubits
    rows, values = matrix_action(p)
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[rows, np.arange(dim)] = values
    return matrix


def algebra_action(actions, coefficients, block) -> np.ndarray:
    """(sum_n a_n G_n) @ block, for the ``matrix_action`` of each G_n.

    ``block`` is a vector or a 2^K x m block.  ``rows`` is an involution
    (b -> b XOR x), so (G v)[b] = values[rows[b]] v[rows[b]]: one gather.
    """
    block = np.asarray(block, dtype=complex)
    column = (-1,) + (1,) * (block.ndim - 1)
    out = np.zeros_like(block)
    for a, (rows, values) in zip(coefficients, actions, strict=True):
        out += (a * values[rows]).reshape(column) * block[rows]
    return out


def canonical_key(p: PauliElement) -> tuple[int, int, int]:
    """Sort key fixing the deterministic element order used everywhere."""
    return (p.phase_exp, p.x_mask, p.z_mask)
