"""Subgroup closure, structural flags and one-dimensional characters.

A subgroup is held as the full, canonically ordered element list together
with the generators it was built from.  Character enumeration is algebraic:
generators are sifted to an independent set over the symplectic bit space
(with exact phase tracking), and a character is stored as its label over
that set, a Z4 exponent for the phase generator and for each of the r
pivots.  Values on group elements are computed on demand from the
element's coordinates over the sifted set, which the subgroup works out
once, so enumerating all N characters costs O(N*r) time and memory and
never builds an N x N table.  No floating point is involved, so the same
code works far beyond the dense-matrix limit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul as int_mul

import numpy as np

from .pauli import (
    PauliElement,
    QubitCountError,
    canonical_key,
    format_pauli,
    identity,
    mul,
)

#: Hard ceiling on closure size; a subgroup of P_K never needs more than
#: 4^(K+1) elements but runaway generator lists are cut off early.
DEFAULT_ORDER_CAP = 1 << 20


class ClosureCapError(ValueError):
    """Raised when a closure grows past the configured order cap."""


class NotAbelianError(ValueError):
    """Raised when an operation defined only for Abelian subgroups is
    applied to a non-Abelian one.  Non-Abelian Pauli subgroups have no
    one-dimensional irreps; use the joint-eigenspace search in the dfs
    module to confirm that the invariant-vector set is empty."""


@dataclass(frozen=True)
class PauliSubgroup:
    """A multiplicatively closed set of Pauli elements.

    ``elements`` is sorted by ``canonical_key`` so iteration order, JSON
    output and downstream reports are reproducible.
    """

    n_qubits: int
    elements: tuple[PauliElement, ...]
    generators: tuple[PauliElement, ...]
    is_abelian: bool
    contains_minus_identity: bool
    contains_imaginary_identity: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[PauliElement]:
        return frozenset(self.elements)

    def __contains__(self, p: PauliElement) -> bool:
        return p in self.element_set

    @cached_property
    def phase_subgroup(self) -> tuple[PauliElement, ...]:
        """The elements that are phase multiples of the identity string."""
        return tuple(e for e in self.elements if e.is_identity_multiple)

    @cached_property
    def sifted(self) -> SiftedGenerators:
        """The generators sifted to an independent set (``sift_generators``)."""
        return sift_generators(self.generators, self.n_qubits)

    @cached_property
    def element_coordinates(self) -> dict[PauliElement, tuple[int, ...]]:
        """Each element's ``coordinates`` over ``sifted``, in element order.

        Built on first use, in O(N*r) time and memory.
        """
        return {e: coordinates(e, self.sifted) for e in self.elements}

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "generators": [format_pauli(g) for g in self.generators],
            "elements": [format_pauli(e) for e in self.elements],
            "order": self.order,
            "is_abelian": self.is_abelian,
            "contains_minus_identity": self.contains_minus_identity,
        }


def closure(
    generators: list[PauliElement] | tuple[PauliElement, ...],
    n_qubits: int | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> PauliSubgroup:
    """Smallest subgroup containing ``generators``.

    Breadth-first multiplication from the identity; since every Pauli
    element has finite order, closure under products alone already yields
    a group.  An empty generator list needs an explicit ``n_qubits``.

    Raises:
        QubitCountError: generators act on different qubit counts, or no
            count is available for an empty list.
        ClosureCapError: the subgroup grows past ``order_cap``.
    """
    generators = tuple(generators)
    if generators:
        n = generators[0].n_qubits
        for g in generators[1:]:
            if g.n_qubits != n:
                raise QubitCountError(
                    f"mixed qubit counts in generators: {n} vs {g.n_qubits}"
                )
        if n_qubits is not None and n_qubits != n:
            raise QubitCountError(
                f"generators act on {n} qubits, n_qubits says {n_qubits}"
            )
    elif n_qubits is None:
        raise QubitCountError("empty generator list requires n_qubits")
    else:
        n = n_qubits

    start = identity(n)
    seen = {start}
    frontier = [start]
    while frontier:
        element = frontier.pop()
        for g in generators:
            product = mul(element, g)
            if product not in seen:
                if len(seen) >= order_cap:
                    raise ClosureCapError(
                        f"closure exceeded the order cap of {order_cap}"
                    )
                seen.add(product)
                frontier.append(product)

    elements = tuple(sorted(seen, key=canonical_key))
    abelian = all(
        _symplectic_even(a, b)
        for i, a in enumerate(generators)
        for b in generators[i + 1 :]
    )
    minus_i = PauliElement(2, 0, 0, n) in seen
    imag_i = PauliElement(1, 0, 0, n) in seen or PauliElement(3, 0, 0, n) in seen
    return PauliSubgroup(
        n_qubits=n,
        elements=elements,
        generators=generators,
        is_abelian=abelian,
        contains_minus_identity=minus_i,
        contains_imaginary_identity=imag_i,
    )


def subgroup_from_error_generators(
    terms: list[PauliElement] | tuple[PauliElement, ...],
    n_qubits: int | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> PauliSubgroup:
    """Subgroup spanned by the Kraus operators of a Pauli-string coupling.

    When the system side of a system-bath Hamiltonian consists of the
    given Pauli strings, the time-evolution Kraus operators expand over
    the multiplicative closure of those strings, so the error group is
    exactly ``closure(terms)``.  Provided as a semantically named entry
    point for Hamiltonian-driven workflows.
    """
    return closure(terms, n_qubits=n_qubits, order_cap=order_cap)


def _symplectic_even(p: PauliElement, q: PauliElement) -> bool:
    overlap = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return overlap % 2 == 0


# ---------------------------------------------------------------------------
# generator sifting and element decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiftedGenerators:
    """Independent generating data for a subgroup.

    ``pivots`` are elements with independent symplectic vectors, keyed by
    the highest set bit of their combined (x << K) | z vector.  The phase
    generator u = i^e I, e = ``phase_exp_generator``, generates the
    identity multiples that sifting reaches (e = 0 meaning only +I): all
    of them for an Abelian subgroup, but sifting never forms the -I
    commutator of an anticommuting pair: <X, Z> has order 8 and contains
    -I, yet sifts to |Z| * 2^r = 4.
    """

    n_qubits: int
    pivots: tuple[PauliElement, ...]
    pivot_bits: tuple[int, ...]
    phase_exp_generator: int

    @property
    def phase_subgroup_size(self) -> int:
        return {0: 1, 2: 2, 1: 4}[self.phase_exp_generator]


def _vector_key(p: PauliElement) -> int:
    return (p.x_mask << p.n_qubits) | p.z_mask


def _sift_into(
    p: PauliElement, pivots: dict[int, PauliElement], phase_step: int
) -> int:
    """Sift ``p`` into ``pivots`` in place and return the new phase step.

    The identity multiples generated so far are the powers of
    i^phase_step I (4 meaning +I alone).  ``p`` is reduced by the pivots
    via exact group multiplication, so phases are tracked; a nonzero
    remainder becomes a new pivot, a phase remainder i^c I joins the phase
    subgroup.  An anti-Hermitian pivot squares to -I, which joins as well.
    """
    w = p
    while True:
        vec = _vector_key(w)
        if vec == 0:
            return math.gcd(phase_step, w.phase_exp)
        bit = vec.bit_length() - 1
        if bit not in pivots:
            pivots[bit] = w
            return math.gcd(phase_step, 2) if w.phase_exp % 2 else phase_step
        w = mul(w, pivots[bit])


def sift_generators(
    generators: tuple[PauliElement, ...], n_qubits: int
) -> SiftedGenerators:
    """Greedy Gaussian sift of generators over the symplectic bit space."""
    pivots: dict[int, PauliElement] = {}
    phase_step = 4
    for g in generators:
        phase_step = _sift_into(g, pivots, phase_step)
    ordered_bits = tuple(sorted(pivots, reverse=True))
    return SiftedGenerators(
        n_qubits=n_qubits,
        pivots=tuple(pivots[b] for b in ordered_bits),
        pivot_bits=ordered_bits,
        phase_exp_generator=phase_step % 4,
    )


def decompose(
    p: PauliElement, sifted: SiftedGenerators
) -> tuple[tuple[int, ...], int]:
    """Express ``p`` as i^c I times a product of pivot inverses.

    Returns ``(selection, c)`` where ``selection[i]`` flags whether pivot
    i participates, such that p = (i^c I) * prod(selected pivots)^(-1) in
    an Abelian subgroup.  Raises ValueError if ``p`` is not in the span.
    """
    w = p
    chosen = [0] * len(sifted.pivots)
    while True:
        vec = _vector_key(w)
        if vec == 0:
            return tuple(chosen), w.phase_exp
        bit = vec.bit_length() - 1
        try:
            index = sifted.pivot_bits.index(bit)
        except ValueError:
            raise ValueError(f"{format_pauli(p)} is outside the sifted span")
        chosen[index] = 1
        w = mul(w, sifted.pivots[index])


def coordinates(p: PauliElement, sifted: SiftedGenerators) -> tuple[int, ...]:
    """Exponents (m, k_1, ..., k_r) with p = u^m * b_1^k_1 * ... * b_r^k_r.

    Here u = i^e I is the phase generator and b_j are the pivots of an
    Abelian subgroup containing ``p``.  Each k_j is 0 or 3, since the
    inverse of a Pauli element is its cube.  A character with Z4 label
    (x_0, ..., x_r) then takes the value i^(m x_0 + sum_j k_j x_j) on p.
    """
    selection, c = decompose(p, sifted)
    e = sifted.phase_exp_generator
    return (c // e if e else 0, *(3 * s for s in selection))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

#: i^k for k = 0..3, with +0.0 wherever a part is zero (the literal -1j
#: would carry a -0.0 real part into projectors and JSON).
_ROOTS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


@dataclass(frozen=True)
class Character:
    """A one-dimensional irrep of an Abelian Pauli subgroup, as a Z4 label.

    With u the phase generator and b_1..b_r the pivots of
    ``group.sifted``, the character sends u to i^exponents[0] and b_j to
    i^exponents[j]; every element is a product of those, so these r + 1
    exponents fix the character.  ``values`` is a read-only mapping over
    ``group.elements`` whose entries, exact fourth roots of unity, are
    computed on demand; multiplicativity values[g h] == values[g] values[h]
    holds exactly.
    """

    label: int
    exponents: tuple[int, ...]
    group: PauliSubgroup = field(repr=False, hash=False)

    def exponent(self, p: PauliElement) -> int:
        """k with chi(p) = i^k; KeyError if ``p`` is outside the group."""
        coords = self.group.element_coordinates[p]
        return sum(map(int_mul, self.exponents, coords)) % 4

    def __call__(self, p: PauliElement) -> complex:
        return self.values[p]

    @property
    def values(self) -> Mapping[PauliElement, complex]:
        return _CharacterValues(self)

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)


class _CharacterValues(Mapping):
    """Read-only view of one character's values over its group."""

    __slots__ = ("_character",)

    def __init__(self, character: Character):
        self._character = character

    def __getitem__(self, p: PauliElement) -> complex:
        return _ROOTS[self._character.exponent(p)]

    def __iter__(self) -> Iterator[PauliElement]:
        return iter(self._character.group.elements)

    def __len__(self) -> int:
        return self._character.group.order


def _canonical_basis(group: PauliSubgroup) -> list[PauliElement]:
    """Elements, in canonical order, that no earlier element generates.

    The scan keeps each element outside the subgroup generated by the
    ones kept so far and stops once they generate the whole group, so at
    most log2(N) elements are kept.  Two characters that agree on a set of
    elements agree on everything it generates, so the first element where
    two characters differ is always kept: comparing characters on this
    basis orders them exactly as comparing their full value rows in
    canonical element order.
    """
    basis: list[PauliElement] = []
    pivots: dict[int, PauliElement] = {}
    phase_step = 4
    for element in group.elements:
        if (4 // phase_step) << len(pivots) == group.order:
            break
        before = (len(pivots), phase_step)
        phase_step = _sift_into(element, pivots, phase_step)
        if (len(pivots), phase_step) != before:
            basis.append(element)
    return basis


def _exponents(labels: np.ndarray, coords: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Z4 exponents of every labelled character on every coordinate row.

    uint8 products wrap mod 256, which 4 divides, so the result is exact.
    """
    columns = np.array(coords, dtype=np.uint8).reshape(len(coords), labels.shape[1])
    return (labels @ columns.T) % 4


def characters(group: PauliSubgroup) -> list[Character]:
    """All ``group.order`` one-dimensional characters of an Abelian subgroup.

    The sifted pivots b_i and the phase generator u = i^e I decompose every
    element uniquely as u^m * prod b_i^(eps_i).  A character is fixed by a
    root of unity for u (its order many choices) and a square root of
    chi(b_i^2) for each pivot (two choices each), which yields exactly
    ``order`` distinct, automatically consistent labels in O(N*r).
    Characters are sorted by their value rows over the canonically ordered
    elements, compared on ``_canonical_basis``, so the trivial one comes
    first; they are labeled 1..N.

    Raises:
        NotAbelianError: the group has an anticommuting pair, hence no
            one-dimensional irreps at all.
    """
    if not group.is_abelian:
        raise NotAbelianError(
            "characters are defined only for Abelian subgroups; a "
            "non-Abelian Pauli subgroup has no one-dimensional irreps "
            "(see dfs.nonabelian_one_dim_search)"
        )
    sifted = group.sifted
    z_size = sifted.phase_subgroup_size
    r = len(sifted.pivots)
    if z_size * 2**r != group.order:
        raise AssertionError(
            f"sift inconsistency: {z_size} * 2^{r} != order {group.order}"
        )

    # chi(u) = i^w with u^|Z| = I, so w is a multiple of 4/|Z|
    omegas = range(0, 4, 4 // z_size)
    # chi(b)^2 == chi(b^2): an anti-Hermitian pivot squares to -I, so its
    # value is i^(h/2) or -i^(h/2) with chi(-I) = i^h and -I = u^(2/e);
    # a Hermitian pivot squares to +I and takes +-1.
    anti_hermitian = np.array([b.phase_exp % 2 for b in sifted.pivots], dtype=np.uint8)
    signs = (np.arange(2**r)[:, None] >> np.arange(r)) & 1
    blocks = []
    for w in omegas:
        h = (2 // sifted.phase_exp_generator) * w % 4 if w else 0
        pivot_exps = (h // 2) * anti_hermitian + 2 * signs
        blocks.append(np.column_stack([np.full(2**r, w), pivot_exps]))
    labels = np.concatenate(blocks).astype(np.uint8)

    basis = _canonical_basis(group)
    keys = _exponents(labels, [coordinates(b, sifted) for b in basis])
    _, order = np.unique(keys, axis=0, return_index=True)
    if len(order) != group.order:
        raise AssertionError("character enumeration produced duplicates")
    return [
        Character(label=k + 1, exponents=tuple(row), group=group)
        for k, row in enumerate(labels[order].tolist())
    ]


def exponent_table(group: PauliSubgroup, chars: Sequence[Character]) -> np.ndarray:
    """uint8 table with chi_k(G_n) = i^table[k, n] over ``group.elements``.

    One integer product of the characters' labels with the elements'
    coordinates.  ``chars`` must come from ``characters(group)``.
    """
    if any(c.group is not group for c in chars):
        raise ValueError("characters belong to another subgroup object")
    labels = np.array([c.exponents for c in chars], dtype=np.uint8)
    return _exponents(labels, list(group.element_coordinates.values()))


def reducibility_sum(group: PauliSubgroup) -> tuple[float, str]:
    """Sum of |trace|^2 over the natural representation, with the verdict.

    The natural representation of the subgroup on 2^K dimensions is
    irreducible exactly when the sum equals the group order; any excess
    means it is reducible.  Every Pauli string other than the identity is
    traceless and i^c I has trace i^c 2^K, so the sum is exactly |Z| 4^K
    for the phase subgroup Z, at any qubit count.
    """
    total = len(group.phase_subgroup) << (2 * group.n_qubits)
    return float(total), "irreducible" if total == group.order else "reducible"
