"""Subgroup closure, structural flags and one-dimensional characters.

A subgroup is its sifted form: the generators are sifted to r pivots with
independent symplectic vectors, plus a phase generator u = i^e I whose
powers are the phase subgroup Z of identity multiples.  The sift also adds
the commutator -I of any anticommuting pair of pivots, so every element is
uniquely u^m * b_r^(-eps_r) * ... * b_1^(-eps_1) and the order is
N = |Z| * 2^r for every subgroup, Abelian or not.  The order, the flags
(Abelian, contains -I, contains iI), the phase subgroup and each element's
coordinates are all read off that form.  Once the order has passed its
cap, the closure enumerates the elements as columns (``pauli.ActionArrays``),
and element objects are built only when a caller asks for them.

A character is stored as its label over the sifted form, a Z4 exponent
for u and for each pivot, and its values on group elements follow from the
elements' coordinates.  ``characters`` returns all N labels as one uint8
array, sorted once on packed integer keys, and builds a ``Character`` view
only for an item that is read, so enumerating them costs O(N*r) time and
memory and never builds an N x N table.  No floating point is involved,
so the same code works far beyond the dense-matrix limit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .pauli import (
    ActionArrays,
    PauliElement,
    QubitCountError,
    _Frozen,
    _parity,
    action_arrays,
    adjoint,
    commutes,
    format_paulis,
    mul,
    subset_products,
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


class PauliSubgroup(_Frozen):
    """A multiplicatively closed set of Pauli elements.

    The elements are sorted by (phase_exp, x_mask, z_mask) so iteration
    order, JSON output and downstream reports are reproducible.  Row n of the
    read-only ``action_arrays`` is element n as columns, and row n of the
    read-only uint8 (N, r + 1) ``coordinate_matrix`` holds its exponents
    (m, k_1, ..., k_r), with p = u^m * b_r^k_r * ... * b_1^k_1 over
    ``sifted``, the canonical form the elements were enumerated from; each
    k_j is 0 or 3, since a Pauli element's inverse is its cube.
    """

    def __init__(
        self,
        n_qubits: int,
        generators: tuple[PauliElement, ...],
        sifted: SiftedGenerators,
        action_arrays: ActionArrays,
        coordinate_matrix: np.ndarray,
    ):
        vars(self).update(
            n_qubits=n_qubits,
            generators=generators,
            sifted=sifted,
            action_arrays=action_arrays,
            coordinate_matrix=coordinate_matrix,
        )

    @property
    def order(self) -> int:
        return len(self.coordinate_matrix)

    @cached_property
    def elements(self) -> tuple[PauliElement, ...]:
        """The elements in canonical order, built on first use."""
        return tuple(self.action_arrays.elements(self.n_qubits))

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
    def x_span(self) -> tuple[np.ndarray, np.ndarray]:
        """The X-span V_X of a dense subgroup: the distinct x masks in
        increasing order, and for each the index of its first element."""
        span, first = np.unique(self.action_arrays.dense()[0], return_index=True)
        span.flags.writeable = first.flags.writeable = False
        return span, first

    @cached_property
    def orbit_seeds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, kets)`` of the kets with no pivot's leading x bit, one per
        X-orbit, sorted by key, then by ket.  Bits 2j and 2j + 1 of a key
        hold the Z4 value on the ket of the j-th X-free one of u, b_1, ...,
        b_r, each of which maps such a ket to a multiple of itself."""
        sifted = self.sifted
        leads = {p.x_mask.bit_length() - 1 for p in sifted.pivots}
        kets = np.zeros(1, dtype=np.int64)
        for bit in sorted(set(range(self.n_qubits)) - leads):
            kets = np.concatenate([kets, kets | 1 << bit])
        keys = np.full(len(kets), sifted.phase_exp_generator, dtype=np.int64)
        free = [p for p in sifted.pivots if not p.x_mask]
        for j, p in enumerate(free, start=1):
            keys |= (p.phase_exp + 2 * _parity(kets & p.z_mask)) % 4 << 2 * j
        order = np.argsort(keys, kind="stable")
        keys, kets = keys[order], kets[order]
        keys.flags.writeable = kets.flags.writeable = False
        return keys, kets

    @cached_property
    def element_coordinates(self) -> dict[PauliElement, tuple[int, ...]]:
        """Each element, in element order, mapped to its coordinate row."""
        rows = map(tuple, self.coordinate_matrix.tolist())
        return dict(zip(self.elements, rows))

    @property
    def phase_subgroup(self) -> tuple[PauliElement, ...]:
        """The elements that are phase multiples of the identity string."""
        return self.sifted.phase_subgroup

    def to_json_dict(self, elements=True) -> dict:
        """The subgroup's strings and flags, the element strings only if
        ``elements`` is True, and any other value but False in their place."""
        n = self.n_qubits
        out = {
            "n_qubits": n,
            "generators": format_paulis(action_arrays(self.generators, n), n),
        }
        if elements is True:
            elements = format_paulis(self.action_arrays, n)
        if elements is not False:
            out["elements"] = elements
        return out | {
            "order": self.order,
            "is_abelian": self.is_abelian,
            "contains_minus_identity": self.contains_minus_identity,
        }


def closure(
    generators: Sequence[PauliElement],
    n_qubits: int | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> PauliSubgroup:
    """Smallest subgroup containing ``generators``.

    The generators are sifted first, which fixes the order N = |Z| * 2^r;
    only then are the N elements u^m * b_r^(-eps_r) * ... * b_1^(-eps_1)
    enumerated, as columns, by ``subset_products`` of the pivots' adjoints,
    and put in canonical order by one ``np.lexsort``.  An empty generator
    list needs an explicit ``n_qubits``.

    Raises:
        QubitCountError: no single qubit count (see ``sift_generators``).
        ClosureCapError: the order exceeds ``order_cap``, before enumeration.
    """
    generators = tuple(generators)
    sifted = sift_generators(generators, n_qubits)
    n, r = sifted.n_qubits, len(sifted.pivots)
    order = sifted.phase_subgroup_size << r
    if order > order_cap:
        raise ClosureCapError(
            f"closure order {order} exceeds the order cap of {order_cap}"
        )
    # pivot inverses are multiplied in from b_r down to b_1, the reverse of
    # the order in which decompose strips them, so the coordinates stay
    # exact when pivots anticommute.  Enumeration position t thus holds
    # u^(t mod |Z|) times the inverse of b_j exactly where bit r - j of
    # t // |Z| is set; an inverse is a cube, hence the 3.
    inverses = action_arrays([adjoint(b) for b in reversed(sifted.pivots)], n)
    columns = subset_products(action_arrays(sifted.phase_subgroup, n), inverses)
    # the last key sorts first: phase, then x and z, high words first
    stripes = np.lexsort((*columns.z.T, *columns.x.T, columns.phase_exps()))
    columns = ActionArrays(*(column[stripes] for column in columns))
    coordinates = np.empty((order, r + 1), dtype=np.uint8)
    coordinates[:, 0] = stripes % sifted.phase_subgroup_size
    stripes //= sifted.phase_subgroup_size
    for j in range(1, r + 1):
        coordinates[:, j] = 3 * ((stripes >> (r - j)) & 1)
    for array in (*columns, coordinates):
        array.flags.writeable = False
    return PauliSubgroup(
        n_qubits=n,
        generators=generators,
        sifted=sifted,
        action_arrays=columns,
        coordinate_matrix=coordinates,
    )


# ---------------------------------------------------------------------------
# generator sifting and element decomposition
# ---------------------------------------------------------------------------


class SiftedGenerators(_Frozen):
    """The canonical form of a subgroup.

    ``pivots`` are elements with independent symplectic vectors, keyed by
    the highest set bit of their combined (x << K) | z vector.  The phase
    generator u = i^e I, e = ``phase_exp_generator``, generates the phase
    subgroup Z of all identity multiples in the subgroup (e = 0 meaning
    only +I), so the subgroup has order |Z| * 2^r.  ``is_abelian`` says
    whether the pivots, and hence all elements, commute.
    """

    def __init__(
        self,
        n_qubits: int,
        pivots: tuple[PauliElement, ...],
        pivot_bits: tuple[int, ...],
        phase_exp_generator: int,
        is_abelian: bool,
    ):
        vars(self).update(
            n_qubits=n_qubits,
            pivots=pivots,
            pivot_bits=pivot_bits,
            phase_exp_generator=phase_exp_generator,
            is_abelian=is_abelian,
        )

    @property
    def phase_subgroup_size(self) -> int:
        return {0: 1, 2: 2, 1: 4}[self.phase_exp_generator]

    @property
    def generators(self) -> tuple[PauliElement, ...]:
        """u, b_1, ..., b_r: the r + 1 generators characters are labelled on."""
        u = PauliElement(self.phase_exp_generator, 0, 0, self.n_qubits)
        return (u, *self.pivots)

    @property
    def phase_subgroup(self) -> tuple[PauliElement, ...]:
        """The powers u^m, m = 0 .. |Z| - 1, in canonical order."""
        return tuple(
            PauliElement(m * self.phase_exp_generator, 0, 0, self.n_qubits)
            for m in range(self.phase_subgroup_size)
        )

    @cached_property
    def normal_form(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The pivots' symplectic normal form: c central vectors and h
        anticommuting pairs, r = c + 2h, each a mask over the pivots (bit j
        selects ``pivots[j]``); two of their strings anticommute only within
        a pair.  Symplectic Gram-Schmidt in pivot order, so an Abelian form
        is the pivots themselves, all central."""

        def odd(u, v) -> int:  # 1 if the strings of (mask, x, z) anticommute
            return ((u[1] & v[2]).bit_count() + (u[2] & v[1]).bit_count()) & 1

        rest = [(1 << j, p.x_mask, p.z_mask) for j, p in enumerate(self.pivots)]
        central, pairs = [], []
        while rest:
            u = rest.pop(0)
            v = next((w for w in rest if odd(u, w)), None)
            if v is None:
                central.append(u[0])
                continue
            rest.remove(v)
            pairs.append((u[0], v[0]))
            # what is left is made to commute with u and v
            rest = [
                tuple(a ^ b * odd(w, v) ^ c * odd(w, u) for a, b, c in zip(w, u, v))
                for w in rest
            ]
        return tuple(central), tuple(pairs)


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
        vec = (w.x_mask << w.n_qubits) | w.z_mask
        if vec == 0:
            return math.gcd(phase_step, w.phase_exp)
        bit = vec.bit_length() - 1
        if bit not in pivots:
            pivots[bit] = w
            return math.gcd(phase_step, 2) if w.phase_exp % 2 else phase_step
        w = mul(w, pivots[bit])


def sift_generators(
    generators: Sequence[PauliElement], n_qubits: int | None = None
) -> SiftedGenerators:
    """Greedy Gaussian sift of generators over the symplectic bit space.

    The commutator of an anticommuting pair of pivots is -I, which then
    joins the phase subgroup.  QubitCountError if the generators and
    ``n_qubits`` give no single qubit count.
    """
    counts = {g.n_qubits for g in generators} | ({n_qubits} - {None})
    if len(counts) != 1:
        raise QubitCountError(
            f"generators and n_qubits give qubit counts {sorted(counts)}"
            if counts
            else "empty generator list requires n_qubits"
        )
    (n_qubits,) = counts
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


class Character(_Frozen):
    """A one-dimensional irrep of an Abelian Pauli subgroup, as a Z4 label.

    With u the phase generator and b_1..b_r the pivots of ``group.sifted``,
    the character sends u to i^exponents[0] and b_j to i^exponents[j]; every
    element is a product of those, so these r + 1 exponents fix it.
    ``values``, built on first use, maps ``group.elements`` read-only to
    exact fourth roots of unity, and values[g h] == values[g] values[h].
    """

    def __init__(self, label: int, exponents: tuple[int, ...], group: PauliSubgroup):
        vars(self).update(label=label, exponents=exponents, group=group)

    def exponent(self, p: PauliElement) -> int:
        """k with chi(p) = i^k; KeyError if ``p`` is outside the group."""
        return _ROOTS.index(self.values[p])

    def __call__(self, p: PauliElement) -> complex:
        return self.values[p]

    @cached_property
    def values(self) -> Mapping[PauliElement, complex]:
        # uint8 products wrap mod 256, which 4 divides, so the row is exact
        row = self.group.coordinate_matrix @ np.array(self.exponents, np.uint8) % 4
        roots = [_ROOTS[k] for k in row.tolist()]
        return MappingProxyType(dict(zip(self.group.elements, roots)))

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)


class CharacterTable(_Frozen, Sequence):
    """All characters of an Abelian subgroup as one label array: row k of
    the read-only (N, r + 1) uint8 ``labels`` holds the exponents of the
    character labelled k + 1.  Item k is that ``Character``, a view built
    on first access and then kept, so the table holds no object per
    character."""

    def __init__(self, group: PauliSubgroup, labels: np.ndarray):
        vars(self).update(group=group, labels=labels, _views={})

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        at = range(len(self.labels))[index]
        if isinstance(at, range):
            return [self[k] for k in at]
        if at not in self._views:
            exponents = tuple(self.labels[at].tolist())
            self._views[at] = Character(at + 1, exponents, self.group)
        return self._views[at]


def _canonical_basis(group: PauliSubgroup) -> list[int]:
    """Indices of the elements, in canonical order, that no earlier element
    generates.

    The scan keeps each element outside the subgroup generated by the
    ones kept so far and stops once they generate the whole group, so at
    most log2(N) + 1 elements are kept.  Two characters that agree on a set
    of elements agree on everything it generates, so the first element
    where two characters differ is always kept: comparing characters on
    this basis orders them exactly as comparing their full value rows in
    canonical element order.

    The scan reduces coordinate rows (m, s), s the pivot selection as a bit
    mask, which multiply as (m + m' + |Z|/2 * |s & s' & a|, s ^ s') for a
    the anti-Hermitian pivots, whose squares are -I = u^(|Z|/2).  Each kept
    row with a nonzero mask multiplies, in one array step, every later row
    that has its top bit, so a later row is generated exactly when its mask
    is 0 and its phase is a multiple of ``step``.
    """
    sifted = group.sifted
    z_size, half = sifted.phase_subgroup_size, sifted.phase_subgroup_size // 2
    anti_hermitian = sum(1 << j for j, b in enumerate(sifted.pivots) if b.phase_exp % 2)
    coords = group.coordinate_matrix
    phases, masks = coords[:, 0].astype(np.int64), np.zeros(len(coords), np.int64)
    for j, column in enumerate(coords[:, 1:].T):
        masks |= (column.astype(np.int64) & 1) << j
    basis: list[int] = []
    kept, step = 0, z_size  # kept masks, and the kept phases' step mod |Z|
    while (z_size // step) << kept != group.order:
        at = basis[-1] + 1 if basis else 0
        at += int(np.flatnonzero(masks[at:] | phases[at:] % step)[0])
        basis.append(at)
        m, s = int(phases[at]), int(masks[at])
        if s:
            rest = slice(at + 1, None)
            hit = masks[rest] >> (s.bit_length() - 1) & 1
            phases[rest] += hit * m
            if half and s & anti_hermitian:
                phases[rest] += hit * half * _parity(masks[rest] & s & anti_hermitian)
            masks[rest] ^= hit * s
            kept += 1
            m = 2 * m + half * (s & anti_hermitian).bit_count()  # its square
        step = math.gcd(step, m % z_size)
    return basis


def characters(group: PauliSubgroup) -> CharacterTable:
    """All ``group.order`` one-dimensional characters of an Abelian subgroup.

    The sifted pivots b_i and the phase generator u = i^e I decompose every
    element uniquely as u^m * prod b_i^(eps_i).  A character is fixed by a
    root of unity for u (its order many choices) and a square root of
    chi(b_i^2) for each pivot (two choices each), which yields exactly
    ``order`` distinct, automatically consistent labels in O(N*r).
    Characters are sorted by their value rows over the canonically ordered
    elements, compared on ``_canonical_basis``: a label's values there fill
    one int64 key, 2 bits each (42 bits at most under ``DEFAULT_ORDER_CAP``),
    and one sort of the keys puts the trivial character first.  They are
    labeled 1..N, as the rows of one ``CharacterTable``.

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
    z_size, e = sifted.phase_subgroup_size, sifted.phase_exp_generator
    r = len(sifted.pivots)
    # row t sends u to i^w, w = (t >> r) * 4/|Z| since u^|Z| = I, and bit
    # j - 1 of t picks the sign of chi(b_j)
    rows = np.arange(z_size << r)
    labels = np.empty((len(rows), r + 1), dtype=np.uint8)
    labels[:, 0] = (rows >> r) * (4 // z_size)
    # chi(b)^2 == chi(b^2): an anti-Hermitian pivot squares to -I, so its
    # value is i^(h/2) or -i^(h/2) with chi(-I) = i^h and -I = u^(2/e);
    # a Hermitian pivot squares to +I and takes +-1.
    half_h = (2 // e) * labels[:, 0] % 4 // 2 if e else 0
    for j, b in enumerate(sifted.pivots, start=1):
        labels[:, j] = 2 * (rows >> (j - 1) & 1) + (half_h if b.phase_exp % 2 else 0)
    # uint8 products wrap mod 256, which 4 divides, so the values are exact
    keys = np.zeros(len(labels), dtype=np.int64)
    for coordinates in group.coordinate_matrix[_canonical_basis(group)]:
        keys = keys << 2 | labels @ coordinates % 4
    order = np.argsort(keys, kind="stable")
    if np.count_nonzero(np.diff(keys[order])) != len(keys) - 1:
        raise AssertionError("character enumeration produced duplicates")
    labels = labels[order]
    labels.flags.writeable = False
    return CharacterTable(group, labels)


def exponent_table(group: PauliSubgroup, chars: CharacterTable) -> np.ndarray:
    """uint8 table with chi_k(G_n) = i^table[k, n] over ``group.elements``
    for the table ``chars = characters(group)``: one uint8 product of its
    labels with the elements' coordinates, exact since 4 divides 256."""
    if chars.group is not group:
        raise ValueError("characters belong to another subgroup object")
    return chars.labels @ group.coordinate_matrix.T % 4


def z4_digits(exponents: np.ndarray) -> str:
    """Z4 exponents, in C order, as one string of the digits 0-3."""
    return (np.asarray(exponents, dtype=np.uint8) + 48).tobytes().decode("ascii")


def reducibility_sum(group: PauliSubgroup) -> tuple[int, str]:
    """Sum of |trace|^2 over the natural representation, with the verdict.

    The natural representation of the subgroup on 2^K dimensions is
    irreducible exactly when the sum equals the group order; any excess
    means it is reducible.  Every Pauli string other than the identity is
    traceless and i^c I has trace i^c 2^K, so the sum is exactly |Z| 4^K
    for the phase subgroup Z, an exact int at any qubit count.
    """
    total = group.sifted.phase_subgroup_size << (2 * group.n_qubits)
    return total, "irreducible" if total == group.order else "reducible"
