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
from typing import NamedTuple

import numpy as np

#: Largest qubit count for which dense 2^K x 2^K matrices, 2^K-entry state
#: vectors and report bases are built (a complex128 matrix at K = 12 is
#: ~256 MB).
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


# the channel errors live here, re-exported by ``channels``, so that the CLI
# catches them without importing that module
class DegenerateKrausError(ValueError):
    """Raised when a random draw yields a numerically singular S; the
    caller should retry with a fresh seed."""


class ChannelConstraintError(ValueError):
    """Raised when explicit channel parameters violate a normalization or
    orthogonality constraint; the message names the violated one."""


_set = object.__setattr__


class _Frozen:
    """Base of the value types: ``__init__`` sets every attribute once, in
    ``vars(self)`` or, in a class with ``__slots__``, through ``_set``;
    assigning or deleting one afterwards raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PauliElement(_Frozen):
    """One member of the Pauli group on ``n_qubits`` qubits.

    Attributes:
        phase_exp: exponent of the global factor i, reduced mod 4.
        x_mask: bit j set means an X-type factor on the qubit whose letter
            sits at position ``n_qubits - 1 - j`` counting from the left.
        z_mask: same layout for Z-type factors; both bits set means Y.
        n_qubits: number of qubits K >= 1.

    Two elements are equal, and hash alike, when all four attributes are.
    """

    __slots__ = ("phase_exp", "x_mask", "z_mask", "n_qubits")

    def __init__(self, phase_exp: int, x_mask: int, z_mask: int, n_qubits: int):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        full = (1 << n_qubits) - 1
        if x_mask & ~full or z_mask & ~full:
            raise ValueError("mask has bits beyond the qubit count")
        _set(self, "phase_exp", phase_exp % 4)
        _set(self, "x_mask", x_mask)
        _set(self, "z_mask", z_mask)
        _set(self, "n_qubits", n_qubits)

    def __eq__(self, other) -> bool:
        if other.__class__ is not PauliElement:
            return NotImplemented
        return (self.phase_exp, self.x_mask, self.z_mask, self.n_qubits) == (
            other.phase_exp, other.x_mask, other.z_mask, other.n_qubits
        )

    def __hash__(self) -> int:
        return hash((self.phase_exp, self.x_mask, self.z_mask, self.n_qubits))

    def __reduce__(self):
        return PauliElement, (self.phase_exp, self.x_mask, self.z_mask, self.n_qubits)

    def __repr__(self) -> str:
        return (
            f"PauliElement(phase_exp={self.phase_exp}, x_mask={self.x_mask}, "
            f"z_mask={self.z_mask}, n_qubits={self.n_qubits})"
        )

    def __mul__(self, other: "PauliElement") -> "PauliElement":
        return mul(self, other)

    def __str__(self) -> str:
        return format_pauli(self)

    @property
    def is_identity_multiple(self) -> bool:
        """True if the element is i^k times the identity string."""
        return self.x_mask == 0 and self.z_mask == 0

    def adjoint(self) -> "PauliElement":
        return adjoint(self)

    def to_matrix(self) -> np.ndarray:
        return to_matrix(self)


def identity(n_qubits: int) -> PauliElement:
    """The identity string on ``n_qubits`` qubits with phase +1."""
    return PauliElement(0, 0, 0, n_qubits)


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


def format_paulis(columns: ActionArrays, n_qubits: int) -> list[str]:
    """``format_pauli`` of every row of ``columns`` on ``n_qubits`` qubits,
    all letters looked up in one array pass over the unpacked mask words."""
    masks = np.stack([columns.x, columns.z], axis=1).view(np.uint8)
    bits = np.unpackbits(masks, axis=2, bitorder="little")[..., n_qubits - 1 :: -1]
    codes = _LETTER_CODES[bits[:, 0] + 2 * bits[:, 1]]
    bodies = codes.view(np.dtype((np.str_, n_qubits)))[:, 0].tolist()
    signs = [_SIGN_BY_PHASE[p] for p in columns.phase_exps().tolist()]
    return [sign + body for sign, body in zip(signs, bodies, strict=True)]


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


def _bit_counts(values: np.ndarray) -> np.ndarray:
    """Set bits of each entry of a non-negative integer array, summed by
    bit pairs, nibbles and bytes."""
    values = values - (values >> 1 & 0x5555555555555555)
    values = (values & 0x3333333333333333) + (values >> 2 & 0x3333333333333333)
    values = (values + (values >> 4)) & 0x0F0F0F0F0F0F0F0F
    return values * 0x0101010101010101 >> 56


def _parity(values: np.ndarray) -> np.ndarray:
    """Bitwise parity of each entry of a non-negative integer array."""
    return _bit_counts(values) & 1


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


#: Mask words: little-endian uint64, least significant word first.
_WORD = np.dtype("<u8")


class ActionArrays(NamedTuple):
    """Pauli elements as columns: element n is i^phase[n] X^x[n] Z^z[n], so
    it maps |b> to i^phase[n] (-1)^parity(b & z[n]) |b XOR x[n]>.

    ``x`` and ``z`` are (N, W) arrays of ``_WORD``, W = ceil(K / 64) words
    per mask for K qubits; ``phase`` is uint8, reduced mod 4.
    """

    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray

    def phase_exps(self) -> np.ndarray:
        """Each element's ``phase_exp``: ``phase`` less its count of Y's."""
        y_count = _bit_counts(self.x & self.z).sum(axis=1)
        return ((self.phase - y_count) % 4).astype(np.uint8)

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(x, z, phase)``, masks as int64 views: for K <= 63 qubits."""
        return self.x[:, 0].view(np.int64), self.z[:, 0].view(np.int64), self.phase

    def elements(self, n_qubits: int) -> list[PauliElement]:
        """One ``PauliElement`` per row, in order."""
        raw, size = np.stack([self.x, self.z], axis=1).tobytes(), 8 * self.x.shape[1]
        starts = range(0, len(raw), size)
        masks = [int.from_bytes(raw[at : at + size], "little") for at in starts]
        rows = zip(self.phase_exps().tolist(), masks[0::2], masks[1::2])
        return [PauliElement(p, x, z, n_qubits) for p, x, z in rows]


def action_arrays(elements: Sequence[PauliElement], n_qubits: int) -> ActionArrays:
    """One ``ActionArrays`` for all of ``elements``, in their order."""
    size = 8 * ((n_qubits + 63) // 64)
    masks = (m.to_bytes(size, "little") for p in elements for m in (p.x_mask, p.z_mask))
    words = np.frombuffer(b"".join(masks), dtype=_WORD).reshape(-1, 2, size // 8)
    phase = [(p.phase_exp + (p.x_mask & p.z_mask).bit_count()) % 4 for p in elements]
    return ActionArrays(words[:, 0], words[:, 1], np.array(phase, dtype=np.uint8))


def subset_products(rows: ActionArrays, factors: ActionArrays) -> ActionArrays:
    """``rows`` times every product of a subset of ``factors``, as columns.

    Row t * len(rows) + i of the result is rows[i] f_0^t_0 f_1^t_1 ...,
    with f_j row j of ``factors`` and t_j bit j of t: each factor in turn
    multiplies every row built so far on the right, in one array pass.
    """
    size = len(rows.phase)
    x = np.empty((size << len(factors.phase), rows.x.shape[1]), dtype=_WORD)
    z, phase = np.empty_like(x), np.empty(len(x), dtype=np.uint8)
    x[:size], z[:size], phase[:size] = rows
    for fx, fz, fphase in zip(*factors):
        np.bitwise_xor(x[:size], fx, out=x[size : 2 * size])
        np.bitwise_xor(z[:size], fz, out=z[size : 2 * size])
        # i^a X^x Z^z i^b X^u Z^v = i^(a + b) (-1)^|z & u| X^(x ^ u) Z^(z ^ v)
        flips = 2 * (_bit_counts(z[:size] & fx).sum(axis=1) & 1)
        phase[size : 2 * size] = (phase[:size] + fphase + flips) % 4
        size *= 2
    return ActionArrays(x, z, phase)


def _require_dense(n_qubits: int):
    if n_qubits > DENSE_QUBIT_LIMIT:
        raise DenseLimitError(
            f"{n_qubits} qubits exceeds the dense limit of {DENSE_QUBIT_LIMIT}"
        )


def to_matrix(p: PauliElement) -> np.ndarray:
    """Dense 2^K x 2^K complex matrix realizing ``p``.

    Raises:
        DenseLimitError: if ``p.n_qubits`` exceeds ``DENSE_QUBIT_LIMIT``.
    """
    _require_dense(p.n_qubits)
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


def norm(values, axis=None):
    """The 2-norm of ``values``, or along ``axis``: the sum of squares that
    ``np.linalg.norm`` takes along an axis, where of a whole array it calls BLAS."""
    return np.sqrt(np.add.reduce((values.conj() * values).real, axis))


def matrix_product(a, b) -> np.ndarray:
    """``a @ b`` over the last two axes, by ``np.einsum``, which calls no BLAS,
    for matrices of at most 8 x 8 (three qubits), else by ``@``."""
    if max(a.shape[-2:] + b.shape[-1:]) > 8:
        return a @ b
    return np.einsum("...ij,...jk->...ik", a, b)
