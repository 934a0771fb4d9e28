"""Subgroup closure, structural flags and one-dimensional characters.

A subgroup is its sifted form: the generators are sifted to r pivots with
independent symplectic vectors, plus a phase generator u = i^e I whose
powers are the phase subgroup Z of identity multiples.  The sift also adds
the commutator -I of any anticommuting pair of pivots, so every element is
uniquely u^m * b_r^(-eps_r) * ... * b_1^(-eps_1) and the order is
N = |Z| * 2^r for every subgroup, Abelian or not.  The order, the flags
(Abelian, contains -I, contains iI), the phase subgroup and each element's
coordinates are all read off that form; the closure enumerates the
elements only after the order has been checked against its cap.

A character is stored as its label over the sifted form, a Z4 exponent
for u and for each pivot, and its values on group elements follow from the
elements' coordinates, so enumerating all N characters costs O(N*r) time
and memory and never builds an N x N table.  No floating point is
involved, so the same code works far beyond the dense-matrix limit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul as int_mul

import numpy as np

from .pauli import (
    ActionArrays,
    PauliElement,
    QubitCountError,
    action_arrays,
    adjoint,
    canonical_key,
    commutes,
    format_paulis,
    mul,
)

#: Hard ceiling on closure size; a subgroup of P_K never needs more than
#: 4^(K+1) elements, but a larger order is refused before enumeration.
DEFAULT_ORDER_CAP = 1 << 20


class ClosureCapError(ValueError):
    """Raised when a closure's order exceeds the configured order cap."""


class NotAbelianError(ValueError):
    """Raised when an operation defined only for Abelian subgroups is
    applied to a non-Abelian one.  Non-Abelian Pauli subgroups have no
    one-dimensional irreps; use the joint-eigenspace search in the dfs
    module to confirm that the invariant-vector set is empty."""


@dataclass(frozen=True)
class PauliSubgroup:
    """A multiplicatively closed set of Pauli elements.

    ``elements`` is sorted by ``canonical_key`` so iteration order, JSON
    output and downstream reports are reproducible.  ``sifted`` is the
    canonical form the elements were enumerated from, and row n of the
    read-only uint8 (N, r + 1) ``coordinate_matrix`` holds the exponents
    (m, k_1, ..., k_r) of element n, with p = u^m * b_r^k_r * ... * b_1^k_1
    over ``sifted``; each k_j is 0 or 3, since a Pauli element's inverse is
    its cube.
    """

    n_qubits: int
    elements: tuple[PauliElement, ...]
    generators: tuple[PauliElement, ...]
    sifted: SiftedGenerators
    coordinate_matrix: np.ndarray = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_abelian(self) -> bool:
        return self.sifted.is_abelian

    @property
    def contains_minus_identity(self) -> bool:
        return self.sifted.phase_exp_generator != 0

    @property
    def contains_imaginary_identity(self) -> bool:
        return self.sifted.phase_exp_generator == 1

    def __contains__(self, p: PauliElement) -> bool:
        return p in self.element_coordinates

    @cached_property
    def action_arrays(self) -> ActionArrays:
        """The elements' ``action_arrays``, built once per subgroup."""
        return action_arrays(self.elements)

    @cached_property
    def x_span(self) -> tuple[np.ndarray, np.ndarray]:
        """The X-span V_X: the distinct x masks of ``action_arrays`` in
        increasing order, and for each the index of its first element."""
        span, first = np.unique(self.action_arrays.x, return_index=True)
        span.flags.writeable = first.flags.writeable = False
        return span, first

    @cached_property
    def element_coordinates(self) -> dict[PauliElement, tuple[int, ...]]:
        """Each element, in element order, mapped to its coordinate row."""
        rows = map(tuple, self.coordinate_matrix.tolist())
        return dict(zip(self.elements, rows))

    @property
    def phase_subgroup(self) -> tuple[PauliElement, ...]:
        """The elements that are phase multiples of the identity string."""
        return self.sifted.phase_subgroup

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "generators": format_paulis(self.generators, self.n_qubits),
            "elements": format_paulis(self.elements, self.n_qubits),
            "order": self.order,
            "is_abelian": self.is_abelian,
            "contains_minus_identity": self.contains_minus_identity,
        }


def closure(
    generators: list[PauliElement] | tuple[PauliElement, ...],
    n_qubits: int | None = None,
    order_cap: int | Callable[[SiftedGenerators], int] = DEFAULT_ORDER_CAP,
) -> PauliSubgroup:
    """Smallest subgroup containing ``generators``.

    The generators are sifted first, which fixes the order N = |Z| * 2^r;
    only then are the N elements u^m * b_r^(-eps_r) * ... * b_1^(-eps_1)
    enumerated, by right multiplication with the pivots' adjoints.  An
    empty generator list needs an explicit ``n_qubits``.

    Raises:
        QubitCountError: generators act on different qubit counts, or no
            count is available for an empty list.
        ClosureCapError: the order exceeds ``order_cap``, or
            ``order_cap(sifted)`` if callable; raised before enumeration.
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

    sifted = sift_generators(generators, n)
    r = len(sifted.pivots)
    order = sifted.phase_subgroup_size << r
    order_cap = order_cap(sifted) if callable(order_cap) else order_cap
    if order > order_cap:
        raise ClosureCapError(
            f"closure order {order} exceeds the order cap of {order_cap}"
        )
    # pivot inverses are appended from b_r down to b_1, the reverse of the
    # order in which decompose strips them, so the coordinates stay exact
    # when pivots anticommute.  Enumeration position t thus holds
    # u^(t mod |Z|) times the inverse of b_j exactly where bit r - j of
    # t // |Z| is set; an inverse is a cube, hence the 3.
    enumerated = list(sifted.phase_subgroup)
    for j in reversed(range(r)):
        inverse = adjoint(sifted.pivots[j])
        enumerated += [mul(p, inverse) for p in enumerated]
    positions = sorted(range(order), key=lambda t: canonical_key(enumerated[t]))
    stripes = np.array(positions, dtype=np.int64)
    coordinates = np.empty((order, r + 1), dtype=np.uint8)
    coordinates[:, 0] = stripes % sifted.phase_subgroup_size
    stripes //= sifted.phase_subgroup_size
    for j in range(1, r + 1):
        coordinates[:, j] = 3 * ((stripes >> (r - j)) & 1)
    coordinates.flags.writeable = False
    return PauliSubgroup(
        n_qubits=n,
        elements=tuple(enumerated[t] for t in positions),
        generators=generators,
        sifted=sifted,
        coordinate_matrix=coordinates,
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


# ---------------------------------------------------------------------------
# generator sifting and element decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiftedGenerators:
    """The canonical form of a subgroup.

    ``pivots`` are elements with independent symplectic vectors, keyed by
    the highest set bit of their combined (x << K) | z vector.  The phase
    generator u = i^e I, e = ``phase_exp_generator``, generates the phase
    subgroup Z of all identity multiples in the subgroup (e = 0 meaning
    only +I), so the subgroup has order |Z| * 2^r.  ``is_abelian`` says
    whether the pivots, and hence all elements, commute.
    """

    n_qubits: int
    pivots: tuple[PauliElement, ...]
    pivot_bits: tuple[int, ...]
    phase_exp_generator: int
    is_abelian: bool

    @property
    def phase_subgroup_size(self) -> int:
        return {0: 1, 2: 2, 1: 4}[self.phase_exp_generator]

    @property
    def phase_subgroup(self) -> tuple[PauliElement, ...]:
        """The powers u^m, m = 0 .. |Z| - 1, in canonical order."""
        return tuple(
            PauliElement(m * self.phase_exp_generator, 0, 0, self.n_qubits)
            for m in range(self.phase_subgroup_size)
        )


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
    """Greedy Gaussian sift of generators over the symplectic bit space.

    The commutator of an anticommuting pair of pivots is -I, which then
    joins the phase subgroup.
    """
    pivots: dict[int, PauliElement] = {}
    phase_step = 4
    for g in generators:
        phase_step = _sift_into(g, pivots, phase_step)
    ordered_bits = tuple(sorted(pivots, reverse=True))
    ordered = tuple(pivots[b] for b in ordered_bits)
    abelian = all(
        commutes(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1 :]
    )
    if not abelian:
        phase_step = math.gcd(phase_step, 2)
    return SiftedGenerators(
        n_qubits=n_qubits,
        pivots=ordered,
        pivot_bits=ordered_bits,
        phase_exp_generator=phase_step % 4,
        is_abelian=abelian,
    )


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


def _canonical_basis(group: PauliSubgroup) -> list[int]:
    """Indices of the elements, in canonical order, that no earlier element
    generates.

    The scan keeps each element outside the subgroup generated by the
    ones kept so far and stops once they generate the whole group, so at
    most log2(N) elements are kept.  Two characters that agree on a set of
    elements agree on everything it generates, so the first element where
    two characters differ is always kept: comparing characters on this
    basis orders them exactly as comparing their full value rows in
    canonical element order.

    The scan sifts coordinate rows (m, s), s the pivot selection as a bit
    mask, which multiply as (m + m' + |Z|/2 * |s & s' & a|, s ^ s') for a
    the anti-Hermitian pivots, whose squares are -I = u^(|Z|/2).
    """
    sifted = group.sifted
    z_size = sifted.phase_subgroup_size
    anti_hermitian = sum(
        1 << j for j, b in enumerate(sifted.pivots) if b.phase_exp % 2
    )

    def times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        twists = (a[1] & b[1] & anti_hermitian).bit_count()
        return (a[0] + b[0] + z_size // 2 * twists) % z_size, a[1] ^ b[1]

    coords = group.coordinate_matrix
    weights = 1 << np.arange(len(sifted.pivots), dtype=np.int64)
    masks = (coords[:, 1:] // 3).astype(np.int64) @ weights
    basis: list[int] = []
    pivots: dict[int, tuple[int, int]] = {}
    step = z_size
    for index, w in enumerate(zip(coords[:, 0].tolist(), masks.tolist())):
        if (z_size // step) << len(pivots) == group.order:
            break
        before = (len(pivots), step)
        while w[1]:
            top = w[1].bit_length() - 1
            if top not in pivots:
                pivots[top] = w
                w = times(w, w)  # its square joins the phase part
                break
            w = times(w, pivots[top])
        step = math.gcd(step, w[0])
        if (len(pivots), step) != before:
            basis.append(index)
    return basis


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
    # uint8 products wrap mod 256, which 4 divides, so the keys are exact
    keys = labels @ group.coordinate_matrix[basis].T % 4
    _, order = np.unique(keys, axis=0, return_index=True)
    if len(order) != group.order:
        raise AssertionError("character enumeration produced duplicates")
    return [
        Character(label=k + 1, exponents=tuple(row), group=group)
        for k, row in enumerate(labels[order].tolist())
    ]


def exponent_table(group: PauliSubgroup, chars: Sequence[Character]) -> np.ndarray:
    """uint8 table with chi_k(G_n) = i^table[k, n] over ``group.elements``.

    One uint8 product of the characters' labels with the elements'
    coordinates, exact since 4 divides 256.  ``chars`` must come from
    ``characters(group)``.
    """
    if any(c.group is not group for c in chars):
        raise ValueError("characters belong to another subgroup object")
    labels = np.array([c.exponents for c in chars], dtype=np.uint8)
    return labels @ group.coordinate_matrix.T % 4


def reducibility_sum(group: PauliSubgroup) -> tuple[float, str]:
    """Sum of |trace|^2 over the natural representation, with the verdict.

    The natural representation of the subgroup on 2^K dimensions is
    irreducible exactly when the sum equals the group order; any excess
    means it is reducible.  Every Pauli string other than the identity is
    traceless and i^c I has trace i^c 2^K, so the sum is exactly |Z| 4^K
    for the phase subgroup Z, at any qubit count.
    """
    total = group.sifted.phase_subgroup_size << (2 * group.n_qubits)
    return float(total), "irreducible" if total == group.order else "reducible"
