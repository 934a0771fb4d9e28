"""Irrep projectors, DFS bases built for all supported characters in one
pass, their exact and random-trial checks, and the joint-eigenspace search.

For an Abelian subgroup {G_n} of order N with one-dimensional characters
gamma^k, the projector onto the k-th invariant subspace is

    P_k = (1/N) sum_n conj(gamma_n^k) G_n

and its rank m_k (the DFS dimension) equals the multiplicity
(1/N) sum_n conj(chi_k(G_n)) tr(G_n).  Only the phase subgroup Z, the
powers of u = i^e I, has nonzero traces, so one exact integer rule gives
every multiplicity at any qubit count:

    m_k = 2^K |Z| / N  if chi_k(u) = i^e,  and 0 otherwise.

A non-Abelian group contains -I as a commutator, on which every
one-dimensional character is trivial while the natural representation
gives -1, so no character is supported.  The joint-eigenspace
search is a fully independent decomposition path: it intersects
eigenspaces of a generating set numerically and never touches the
character machinery, which is what makes it usable as a cross-check
oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .pauli import (
    _WORD,
    PauliElement,
    _Frozen,
    _parity,
    _require_dense,
    action_arrays,
    matrix_action,
    to_matrix,
)
from .subgroup import (
    _ROOTS,
    Character,
    NotAbelianError,
    PauliSubgroup,
    z4_digits,
)

#: A verification trial passes when the worst eigenvalue residual, and the
#: gap between the shared eigenvalue and its closed form, are below this;
#: sits far above double-precision noise at dim <= 4096 and far below any
#: genuine gap between fourth-root-of-unity eigenvalues.
RESIDUAL_PASS_TOL = 1e-9

#: Entries of each (operators x closure kets) block ``_apply_on_closures``
#: builds.  At about 100 bytes an entry, its working memory stays near
#: 26 MB for any N (measured at N = 16384, K = 12).
_VERIFY_BLOCK_ENTRIES = 1 << 18

_ROOT_VALUES = np.array(_ROOTS)

#: SplitMix64's gamma and multipliers (Steele, Lea and Flood, OOPSLA 2014).
_GAMMA, _MIX = np.uint64(0x9E3779B97F4A7C15), (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_DRAW_CHUNK = 1 << 16


def _check_character(group: PauliSubgroup, character: Character, dimension=None):
    if not group.is_abelian:
        raise NotAbelianError(
            "projectors onto one-dimensional irreps need an Abelian "
            "subgroup (see nonabelian_one_dim_search)"
        )
    own = character.group
    # equal orders plus containment of the character's generators make the
    # two subgroups equal, without touching their elements
    if own is not group and not (
        own.n_qubits == group.n_qubits
        and own.order == group.order
        and all(g in group for g in own.generators)
    ):
        raise ValueError("character does not belong to this subgroup")
    if dimension not in (None, 1 << group.n_qubits):
        raise ValueError(f"basis vectors have length {dimension}, not 2^K")


class IrrepProjector(NamedTuple):
    """Dense projector onto the invariant subspace of one character."""

    character: Character
    matrix: np.ndarray
    multiplicity: int


class DfsBasis(_Frozen):
    """Orthonormal vectors spanning one character's invariant subspace.

    Vector j is P_k |seeds[j]> normalized, on the X-orbit seeds[j] XOR V_X,
    V_X being the span of the elements' x masks in increasing order: it has
    amplitude i^exponents[j, v] * a on ket seeds[j] XOR V_X[v], with
    a = 1/sqrt(|V_X|).  Only the read-only int64 ``seeds`` (m,) and uint8
    ``exponents`` (m, |V_X|) are stored; the kets, amplitudes and dense
    vectors are built on each access.  ``dimension`` is 2^K.
    """

    def __init__(self, character: Character, seeds: np.ndarray, exponents: np.ndarray):
        vars(self).update(character=character, seeds=seeds, exponents=exponents)

    @property
    def multiplicity(self) -> int:
        return len(self.seeds)

    @property
    def dimension(self) -> int:
        return 1 << self.character.group.n_qubits

    @property
    def amplitude(self) -> float:
        """a = 1/sqrt(|V_X|), the modulus of every amplitude."""
        return float(1 / np.sqrt(self.exponents.shape[1]))

    @property
    def kets(self) -> np.ndarray:
        """(m, |V_X|) kets: row j is seeds[j] XOR V_X, increasing."""
        # the top bit where two entries of V_X differ is some pivot's lead
        # x bit, and no seed has one set
        return self.seeds[:, None] ^ self.character.group.x_span[0]

    @property
    def amplitudes(self) -> np.ndarray:
        """(m, |V_X|) complex amplitudes i^exponents * a on ``kets``."""
        return _ROOT_VALUES[self.exponents] * self.amplitude

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        """The vectors as dense 2^K arrays, the columns of ``stack()``."""
        return tuple(self.stack().T)

    def stack(self) -> np.ndarray:
        """Basis as a dim x multiplicity column matrix, built on each call."""
        dense = np.zeros((self.multiplicity, self.dimension), dtype=complex)
        dense[np.arange(self.multiplicity)[:, None], self.kets] = self.amplitudes
        return dense.T

    def to_json_dict(self) -> dict:
        """The basis as one ``amplitude`` a, its ``seeds`` and one digit
        string of Z4 ``exponents``, |V_X| per vector in V_X order: ket
        seeds[j] XOR V_X[v] has amplitude i^e * a, e the digit j |V_X| + v."""
        return {
            "character_label": self.character.label,
            "multiplicity": self.multiplicity,
            "amplitude": self.amplitude,
            "seeds": self.seeds.tolist(),
            "exponents": z4_digits(self.exponents),
        }


def projector(group: PauliSubgroup, character: Character) -> IrrepProjector:
    """Normalized irrep projector (1/N) sum_n conj(gamma_n) G_n.

    The 1/N factor is included, so the matrix is idempotent and Hermitian
    and its trace equals the multiplicity.
    """
    _check_character(group, character)
    _require_dense(group.n_qubits)
    dim = 1 << group.n_qubits
    cols = np.arange(dim)
    matrix = np.zeros((dim, dim), dtype=complex)
    for element in group.elements:
        rows, values = matrix_action(element)
        matrix[rows, cols] += character.values[element].conjugate() * values
    matrix /= group.order
    matrix.flags.writeable = False
    return IrrepProjector(
        character=character,
        matrix=matrix,
        multiplicity=multiplicity(group, character),
    )


def multiplicity(group: PauliSubgroup, character: Character) -> int:
    """Number of copies of the character's irrep in the natural representation.

    The sum (1/N) sum_n conj(chi_k(G_n)) tr(G_n) runs over the phase
    subgroup Z = <u> only, since every other Pauli string is traceless.
    It is |Z| 2^K / N when chi_k agrees with the natural representation on
    Z, that is chi_k(u) = i^e for u = i^e I, and 0 otherwise.
    """
    _check_character(group, character)
    return _multiplicities(group, character.exponents[:1])[0]


def _multiplicities(group: PauliSubgroup, exponents_on_u) -> list[int]:
    """The multiplicity rule for characters of ``group`` with these exponents
    on u: |Z| 2^K / N where the exponent is e (chi(u) = i^e), else 0."""
    sifted = group.sifted
    full = (sifted.phase_subgroup_size << group.n_qubits) // group.order
    return [full if w == sifted.phase_exp_generator else 0 for w in exponents_on_u]


def dfs_basis(group: PauliSubgroup, character: Character) -> DfsBasis:
    """Orthonormal basis of the range of P_k, empty at multiplicity 0: row 0
    of ``dfs_bases`` over the group whose sifted form the label is over."""
    _check_character(group, character)
    seeds, exponents = dfs_bases(character.group, [character.exponents])
    return DfsBasis(character, seeds[0], exponents[0])


def dfs_bases(group: PauliSubgroup, labels) -> tuple[np.ndarray, np.ndarray]:
    """The DFS bases of the characters whose (S, r + 1) ``labels`` over
    ``group.sifted`` share one multiplicity m (else ValueError, as for rows
    of another width): read-only int64 ``seeds`` (S, m), increasing along
    each row, and uint8 ``exponents`` (S, m, |V_X|) in V_X order.

    P_k |b> lives on the X-orbit b XOR V_X.  Seeds are the orbits' smallest
    kets (no pivot's leading x bit) on which the X-free generators act as
    chi_k: the run of ``orbit_seeds`` keyed by the label's exponents on
    them.  There P_k |b> is conj(chi_k(h)) <b XOR x|h|b> / |V_X| on b XOR x,
    for any one h with that x mask: i^e / |V_X| with an exact Z4 exponent e.
    """
    if not group.is_abelian:
        raise NotAbelianError("DFS bases need an Abelian subgroup")
    _require_dense(group.n_qubits)
    labels = np.asarray(labels, dtype=np.uint8)
    x_masks = [g.x_mask for g in group.sifted.generators]
    if labels.ndim != 2 or labels.shape[1] != len(x_masks):
        raise ValueError(f"labels need rows of {len(x_masks)} exponents")
    m, *others = set(_multiplicities(group, labels[:, 0].tolist())) or {0}
    if others:
        raise ValueError("labels of unequal multiplicity")
    free = [j for j, x in enumerate(x_masks) if not x]  # u is always free
    key = sum(labels[:, j].astype(np.int64) << 2 * i for i, j in enumerate(free))
    keys, kets = group.orbit_seeds
    lo = keys.searchsorted(key)
    counts = keys.searchsorted(key, "right") - lo
    if np.any(counts != m):
        raise AssertionError(f"a label has {counts[counts != m][0]} seed kets, not {m}")
    at = lo[:, None] + np.arange(m)
    (_, z, phase), (_, first) = group.action_arrays.dense(), group.x_span
    # 2 parity(b & z) on each of the 2^K / |V_X| orbit seeds b, read by row;
    # uint8 sums and products wrap mod 256, which 4 divides
    exponents = (2 * _parity(kets[:, None] & z[first])).astype(np.uint8)[at]
    exponents += (phase[first] - labels @ group.coordinate_matrix[first].T)[:, None]
    exponents &= 3
    seeds = kets[at]
    seeds.flags.writeable = exponents.flags.writeable = False
    return seeds, exponents


# ---------------------------------------------------------------------------
# verification against random group-algebra operators
# ---------------------------------------------------------------------------


def _splitmix(words: np.ndarray) -> np.ndarray:
    """SplitMix64's output for each state ``words`` (uint64, wrapping)."""
    z = words + _GAMMA
    for shift, multiplier in zip((30, 27), _MIX):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(multiplier)
    z ^= z >> np.uint64(31)
    return z


def seeded_normals(seed, size: int) -> np.ndarray:
    """``size`` standard normals for an integer ``seed`` >= 0 (ValueError if
    negative, TypeError if no integer), or one row per seed of a sequence,
    each a function of its seed alone.  A seed's 64-bit limbs, up to its last
    nonzero one, fold into a SplitMix64 key; normals 2j, 2j + 1 are Box-
    Muller's sqrt(-2 ln u) (cos, sin)(2 pi v) of the 53-bit uniforms at the
    key's stream counters 2j, 2j + 1, read ``_DRAW_CHUNK`` pairs at a time."""
    from operator import index
    seeds = [index(s) for s in np.ravel(np.asarray(seed, dtype=object))]
    if min(seeds) < 0:
        raise ValueError("seed must be non-negative")
    width = 8 * (max(s.bit_length() for s in seeds) // 64 + 1)
    limbs = b"".join(s.to_bytes(width, "little") for s in seeds)
    limbs = np.frombuffer(limbs, dtype=_WORD).reshape(len(seeds), -1)
    used = np.logical_or.accumulate(limbs[:, ::-1] != 0, axis=1)[:, ::-1]
    keys = _splitmix(limbs[:, 0])
    for limb, more in zip(limbs.T[1:], used.T[1:]):
        keys = np.where(more, _splitmix(keys ^ limb), keys)
    pairs = (size + 1) // 2
    out = np.empty((len(seeds), pairs, 2))
    steps = np.arange(0, 2 * pairs, 2, dtype=_WORD) * _GAMMA
    rows = max(1, _DRAW_CHUNK // max(pairs, 1))
    for lo in range(0, len(seeds), rows):
        for at in range(0, pairs, _DRAW_CHUNK):
            state = keys[lo : lo + rows, None] + steps[at : at + _DRAW_CHUNK]
            # 53-bit uniforms in (0, 1), so that the logarithm stays finite
            words = _splitmix(state), _splitmix(state + _GAMMA)
            u, v = ((w >> np.uint64(11)).view(np.int64) + 0.5 for w in words)
            radius, angle = np.sqrt(-2 * np.log(u / 2.0**53)), np.pi * (v / 2.0**52)
            block = out[lo : lo + rows, at : at + _DRAW_CHUNK]
            block[..., 0] = radius * np.cos(angle)
            block[..., 1] = radius * np.sin(angle)
    out = out.reshape(len(seeds), -1)[:, :size]
    return out if np.ndim(seed) else out[0]


class VerificationTrial(NamedTuple):
    """One random operator A = sum_n a_n G_n applied to the basis."""

    coefficients: np.ndarray
    eigenvalue: complex
    eigenvalue_predicted: complex
    max_residual: float
    eigenvalue_spread: float


class VerificationReport(NamedTuple):
    """Aggregated result of seeded verification trials."""

    character_label: int
    trials: tuple[VerificationTrial, ...]
    seed: int
    passed: bool
    max_residual: float


def _apply_on_closures(
    group: PauliSubgroup, kets, amplitudes, coefficients
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's A = sum_n a_n G_n over the elements G_n of ``group``,
    applied to every vector, given as its ``kets`` and ``amplitudes``, on
    its X-span closure.

    Vector j is written on the kets {b XOR x_n} for b in its support, keyed
    (j << K) | ket and sorted, so the vectors' closures follow one another.
    Returns ``(values, images, starts)``: the vectors and the (rows, keys)
    images A v on those keys, and where each vector's keys start.
    """
    n = group.n_qubits
    x, z, phase = group.action_arrays.dense()
    span, _ = group.x_span
    owners = np.repeat(np.arange(len(kets)), [len(k) for k in kets])
    support = owners << n | np.concatenate(kets)
    # one representative per coset of V_X: the ket with no lead bit, found
    # by reducing with the sifted pivots' x masks from the top lead down
    seeds = support
    for pivot in group.sifted.pivots:
        if pivot.x_mask:
            lead = pivot.x_mask.bit_length() - 1
            seeds = np.where(seeds >> lead & 1, seeds ^ pivot.x_mask, seeds)
    # sorted and compared with their neighbours: a plain np.unique would
    # import numpy.ma for its masked-array check
    seeds = np.sort(seeds)
    distinct = np.ones(len(seeds), dtype=bool)
    distinct[1:] = seeds[1:] != seeds[:-1]
    keys = np.sort((seeds[distinct][:, None] ^ span).ravel())
    values = np.zeros(len(keys), dtype=complex)
    values[np.searchsorted(keys, support)] = np.concatenate(amplitudes)
    # (G_n v)[c] = i^phase_n (-1)^parity(s & z_n) v[s] with s = c XOR x_n,
    # which stays in the closure of the vector that owns c
    images = np.zeros((len(coefficients), len(keys)), dtype=complex)
    rows = max(1, _VERIFY_BLOCK_ENTRIES // len(keys))
    for lo in range(0, len(x), rows):
        part = slice(lo, lo + rows)
        sources = keys ^ x[part, None]
        exponents = (phase[part, None] + 2 * _parity(sources & z[part, None])) % 4
        block = _ROOT_VALUES[exponents] * values[np.searchsorted(keys, sources)]
        images += coefficients[:, part] @ block
    starts = np.searchsorted(keys >> n, np.arange(len(kets)))
    return values, images, starts


def verify_dfs(
    group: PauliSubgroup, basis: DfsBasis, trials: int = 32, seed: int = 0
) -> VerificationReport:
    """Check that every basis vector is a shared eigenvector of random
    group-algebra operators.

    Each trial takes its complex normal coefficients a_n over the elements
    (canonical order) from ``seeded_normals``, real then imaginary parts.
    A = sum a_n G_n is never formed: it maps the X-span closure
    {b XOR x_n} of a vector's support into itself, so it is applied on
    that closure only, one X-orbit of |V_X| kets for a ``dfs_basis``
    vector, and all trials go through one (trials x N) @ (N x closure)
    product.  The test is A |psi_z> = c |psi_z> with one c shared across
    all z, and the shared c must also match the closed form
    sum_n a_n gamma_n within ``RESIDUAL_PASS_TOL``.  Failures are
    reported, never raised: the same routine is used to demonstrate that
    cross-irrep superpositions are *not* decoherence-free.

    Raises:
        ValueError: ``trials`` below 1, a character of another subgroup,
            or vectors whose length is not 2^K.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    character = basis.character
    _check_character(group, character, basis.dimension)
    draws = seeded_normals(seed, trials * 2 * group.order).reshape(trials, 2, -1)
    coefficients = draws[:, 0] + 1j * draws[:, 1]
    exponents = np.array(character.exponents, dtype=np.uint8)
    chi = character.group.coordinate_matrix @ exponents % 4
    predicted = coefficients @ _ROOT_VALUES[chi]
    shared, residuals, spreads = predicted, np.zeros(trials), np.zeros(trials)
    kets, amplitudes = basis.kets, basis.amplitudes
    if len(kets):
        values, images, starts = _apply_on_closures(
            group, kets, amplitudes, coefficients
        )
        rayleigh = np.add.reduceat(values.conj() * images, starts, axis=1)
        shared = rayleigh.mean(axis=1)
        misfit = np.abs(images - shared[:, None] * values) ** 2
        residuals = np.sqrt(np.add.reduceat(misfit, starts, axis=1)).max(axis=1)
        spreads = np.abs(rayleigh - shared[:, None]).max(axis=1)
    gap = np.abs(shared - predicted).max()
    passed = residuals.max() < RESIDUAL_PASS_TOL and gap < RESIDUAL_PASS_TOL
    results = tuple(
        VerificationTrial(row, complex(c), complex(p), float(r), float(d))
        for row, c, p, r, d in zip(coefficients, shared, predicted, residuals, spreads)
    )
    return VerificationReport(
        character.label, results, seed, bool(passed), float(residuals.max())
    )


def verify_on_generators(group: PauliSubgroup, labels, seeds, exponents) -> list:
    """``(passed, max_residual)`` per row of the (S, r + 1) ``labels`` over
    ``group.sifted``, (S, m) ``seeds`` and (S, m, |V_X|) ``exponents`` of
    ``dfs_bases`` (ValueError for shapes not those of the group), checked
    exactly on the sifted generators g = i^phase X^x Z^z, which decide it
    for the whole group algebra: vector b XOR V_X of exponents E passes when

        d = E[v XOR x] + phase + 2 parity((b XOR v XOR x) & z) - chi(g) - E[v]

    is 0 mod 4 for every g and v; ``max_residual``, the worst
    ||g psi - chi(g) psi||, is sqrt(sum_v |i^d - 1|^2 / |V_X|).
    """
    labels = np.asarray(labels, dtype=np.uint8)
    span, _ = group.x_span
    generators = action_arrays(group.sifted.generators, group.n_qubits).dense()
    shapes = labels.shape, np.shape(exponents)
    if shapes != ((len(seeds), len(generators[0])), (*np.shape(seeds), len(span))):
        raise ValueError("labels, seeds and exponents do not match the subgroup")
    worst = np.zeros(len(seeds), dtype=np.int64)
    # uint8 sums wrap mod 256, which 4 divides, so every d is exact
    for x, z, phase, chi in zip(*generators, labels.T):
        moved = span ^ x
        d = np.take(exponents, span.searchsorted(moved), axis=-1)
        d -= exponents
        d += (phase + 2 * _parity(moved & z)).astype(np.uint8)
        d += ((2 * _parity(seeds & z)).astype(np.uint8) - chi[:, None])[..., None]
        d &= 3
        # |i^d - 1|^2 = 2 min(d, 4 - d): no table, so no intp copy of d
        gaps = np.minimum(d, 4 - d).sum(axis=2, dtype=np.int64)
        np.maximum(worst, gaps.max(axis=1, initial=0), out=worst)
    return [(not w, (2 * w / len(span)) ** 0.5) for w in worst.tolist()]


# ---------------------------------------------------------------------------
# closed-form dimensions
# ---------------------------------------------------------------------------


def dimension_formula(n_qubits: int, order: int, phase_class: str) -> int:
    """Closed-form DFS dimension for the two phase classes.

    ``"no_phase_factors"``: the subgroup meets the identity string only in
    +I; every character is supported with multiplicity 2^K / N.

    ``"contains_minus_identity"``: the subgroup contains the full phase
    group {+-I, +-iI}; characters with chi(-I) = -1 (and chi(iI) = i) are
    supported with multiplicity 2^(K+2) / N, all others get 0.

    Raises:
        ValueError: unknown class, or N does not divide the numerator,
            which signals that no subgroup of that class has this order.
    """
    if phase_class == "no_phase_factors":
        numerator = 1 << n_qubits
    elif phase_class == "contains_minus_identity":
        numerator = 1 << (n_qubits + 2)
    else:
        raise ValueError(f"unknown phase class {phase_class!r}")
    if order <= 0 or numerator % order:
        raise ValueError(
            f"order {order} does not divide 2^{n_qubits}"
            f"{'+2' if phase_class == 'contains_minus_identity' else ''}"
            f" = {numerator}; no {phase_class} subgroup has this order"
        )
    return numerator // order


def applicable_phase_class(group: PauliSubgroup) -> str | None:
    """Which closed-form class applies to ``group``, if any.

    Subgroups containing -I but not iI sit between the two closed forms;
    for those the exact multiplicity sum is the only route and None is
    returned.
    """
    if not group.contains_minus_identity and not group.contains_imaginary_identity:
        return "no_phase_factors"
    if group.contains_minus_identity and group.contains_imaginary_identity:
        return "contains_minus_identity"
    return None


# ---------------------------------------------------------------------------
# joint-eigenspace search (independent of the character machinery)
# ---------------------------------------------------------------------------


class JointEigenspace(NamedTuple):
    """A subspace of simultaneous eigenvectors of every group element."""

    eigenvalues: dict[PauliElement, complex]
    vectors: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


class SearchResult(NamedTuple):
    spaces: tuple[JointEigenspace, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.spaces


def nonabelian_one_dim_search(
    group: PauliSubgroup, tol: float = 1e-8
) -> SearchResult:
    """Find all simultaneous eigenvectors of the group, by brute force.

    Eigenspaces of a sifted generating set are intersected incrementally:
    each generator has eigenvalues i^phase * (+-1), and for every branch
    the vectors satisfying the chosen eigenvalue are extracted as the
    nullspace of (G - lambda) restricted to the branch's subspace.  A
    non-Abelian group always ends with no surviving branch (any
    anticommuting pair kills every candidate); for an Abelian group the
    branches reproduce the character decomposition, which makes this an
    independent oracle for it.
    """
    _require_dense(group.n_qubits)
    dim = 1 << group.n_qubits
    sifted = group.sifted

    steps: list[tuple[PauliElement, tuple[complex, ...]]] = []
    if sifted.phase_exp_generator:
        u = PauliElement(sifted.phase_exp_generator, 0, 0, group.n_qubits)
        steps.append((u, (1j**u.phase_exp,)))
    for pivot in sifted.pivots:
        lead = 1j**pivot.phase_exp
        steps.append((pivot, (lead, -lead)))

    branches: list[tuple[dict[PauliElement, complex], np.ndarray]] = [
        ({}, np.eye(dim, dtype=complex))
    ]
    for element, candidates in steps:
        matrix = to_matrix(element)
        next_branches = []
        for assignment, basis in branches:
            shifted = matrix @ basis
            for lam in candidates:
                residual = shifted - lam * basis
                # nullspace of (G - lam) within the current subspace
                _, sing, vh = np.linalg.svd(residual, full_matrices=False)
                null_dim = int(np.sum(sing < tol)) + (
                    basis.shape[1] - len(sing)
                )
                if null_dim == 0:
                    continue
                new_basis = basis @ vh.conj().T[:, basis.shape[1] - null_dim :]
                next_branches.append(
                    ({**assignment, element: lam}, new_basis)
                )
        branches = next_branches
        if not branches:
            break

    spaces = []
    for assignment, basis in branches:
        eigenvalues = _extend_assignment(group, assignment)
        spaces.append(
            JointEigenspace(
                eigenvalues=eigenvalues,
                vectors=tuple(basis[:, j] for j in range(basis.shape[1])),
            )
        )
    return SearchResult(spaces=tuple(spaces))


def _extend_assignment(
    group: PauliSubgroup,
    assignment: dict[PauliElement, complex],
) -> dict[PauliElement, complex]:
    """Extend generator eigenvalues multiplicatively to every element."""
    e = group.sifted.phase_exp_generator
    pivot_values = [assignment[p] for p in group.sifted.pivots]
    full: dict[PauliElement, complex] = {}
    for element, (m, *ks) in zip(group.elements, group.coordinate_matrix.tolist()):
        value = 1j ** (e * m)
        for k, lam in zip(ks, pivot_values):
            if k:
                value *= lam.conjugate()
        full[element] = value
    return full

