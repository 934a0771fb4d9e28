"""Irrep projectors, DFS bases, the eigenvalue verification and the
joint-eigenspace search.

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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import (
    DENSE_QUBIT_LIMIT,
    PauliElement,
    _parity,
    _require_dense,
    matrix_action,
    to_matrix,
)
from .subgroup import (
    _ROOTS,
    Character,
    NotAbelianError,
    PauliSubgroup,
    exponent_table,
)

#: A verification trial passes when the worst eigenvalue residual is below
#: this; sits far above double-precision noise at dim <= 4096 and far
#: below any genuine gap between fourth-root-of-unity eigenvalues.
RESIDUAL_PASS_TOL = 1e-9

#: Entries of each (elements x closure kets) block ``verify_dfs`` builds.
#: At about 100 bytes an entry, its working memory stays near 26 MB for
#: any N (measured at N = 16384, K = 12).
_VERIFY_BLOCK_ENTRIES = 1 << 18

_ROOT_VALUES = np.array(_ROOTS)


def _check_character(group: PauliSubgroup, character: Character):
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


@dataclass(frozen=True)
class IrrepProjector:
    """Dense projector onto the invariant subspace of one character."""

    character: Character
    matrix: np.ndarray
    multiplicity: int


@dataclass(frozen=True)
class DfsBasis:
    """Orthonormal vectors spanning one character's invariant subspace.

    Vector j is stored as its nonzeros: ``kets[j]``, sorted computational
    basis indices, and ``amplitudes[j]`` on them.  A ``dfs_basis`` vector
    lives on one X-orbit {b XOR x_n}, so it has |V_X| of each, V_X being
    the span of the elements' x masks.  ``dimension`` is 2^K.
    """

    character: Character
    kets: tuple[np.ndarray, ...]
    amplitudes: tuple[np.ndarray, ...]
    multiplicity: int
    dimension: int

    @classmethod
    def from_vectors(cls, character: Character, vectors) -> DfsBasis:
        """A basis of given dense vectors, such as hand-built superpositions."""
        vectors = [np.asarray(v, dtype=complex) for v in vectors]
        kets = tuple(np.flatnonzero(v) for v in vectors)
        if not all(len(k) for k in kets):
            raise ValueError("basis vectors must be nonzero")
        return cls(
            character=character,
            kets=kets,
            amplitudes=tuple(v[k] for v, k in zip(vectors, kets)),
            multiplicity=len(vectors),
            dimension=len(vectors[0]),
        )

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        """The vectors as dense 2^K arrays, built on each access."""
        dense = np.zeros((len(self.kets), self.dimension), dtype=complex)
        for row, kets, amplitudes in zip(dense, self.kets, self.amplitudes):
            row[kets] = amplitudes
        return tuple(dense)

    def stack(self) -> np.ndarray:
        """Basis as a dim x multiplicity column matrix."""
        if not self.kets:
            return np.zeros((0, 0), dtype=complex)
        return np.column_stack(self.vectors)

    def to_json_dict(self) -> dict:
        return {
            "character_label": self.character.label,
            "multiplicity": self.multiplicity,
            "vectors": [
                {
                    "kets": kets.tolist(),
                    "amplitudes": np.column_stack(
                        [amplitudes.real, amplitudes.imag]
                    ).tolist(),
                }
                for kets, amplitudes in zip(self.kets, self.amplitudes)
            ],
        }


def _character_exponents(character: Character) -> np.ndarray:
    """k_n with chi(G_n) = i^k_n over the elements of the character's group,
    which are in canonical order, as those of any equal subgroup are."""
    return exponent_table(character.group, [character])[0]


def projector(
    group: PauliSubgroup,
    character: Character,
    dense_limit: int = DENSE_QUBIT_LIMIT,
) -> IrrepProjector:
    """Normalized irrep projector (1/N) sum_n conj(gamma_n) G_n.

    The 1/N factor is included, so the matrix is idempotent and Hermitian
    and its trace equals the multiplicity.
    """
    _check_character(group, character)
    _require_dense(group.n_qubits, dense_limit)
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
    sifted = group.sifted
    if character.exponents[0] != sifted.phase_exp_generator:
        return 0
    return (sifted.phase_subgroup_size << group.n_qubits) // group.order


def dfs_basis(
    group: PauliSubgroup,
    character: Character,
    dense_limit: int = DENSE_QUBIT_LIMIT,
) -> DfsBasis:
    """Orthonormal basis of the range of P_k, without forming P_k.

    Each element maps |b> to a multiple of |b XOR x_n>, so P_k |b> lives
    on the X-orbit b XOR V_X.  Seeds are the smallest ket of each orbit
    (no bit in ``lead``, the pivots' leading x bits) on which the X-free
    elements act as chi_k, checked on their generators in exact Z4
    exponents.  On such a seed the N/|V_X| elements that share an x mask
    add up in phase, so P_k |b> has amplitude
    conj(chi_k(h)) <b XOR x|h|b> / |V_X| on b XOR x, for any one element
    h with that x mask.  The m vectors are normalized and kept on their
    orbits in increasing ket order, in increasing seed order.  A zero
    multiplicity yields an empty basis.
    """
    _check_character(group, character)
    _require_dense(group.n_qubits, dense_limit)
    n = group.n_qubits
    sifted = group.sifted
    # sifted pivots have distinct leading bits, so the sum is a bitwise or
    lead = sum(1 << (p.x_mask.bit_length() - 1) for p in sifted.pivots if p.x_mask)
    diagonal = [PauliElement(sifted.phase_exp_generator, 0, 0, n)]
    diagonal += [p for p in sifted.pivots if not p.x_mask]
    # the kets without a lead bit, in increasing order: each pass appends
    # kets above every earlier one
    seeds = np.zeros(1, dtype=np.int64)
    for bit in range(n):
        if not lead >> bit & 1:
            seeds = np.concatenate([seeds, seeds | 1 << bit])
    for h in diagonal:
        exponent_on_kets = (h.phase_exp + 2 * _parity(seeds & h.z_mask)) % 4
        seeds = seeds[exponent_on_kets == character.exponent(h)]
    target = multiplicity(group, character)
    if len(seeds) != target:
        raise AssertionError(
            f"basis extraction found {len(seeds)} seed kets, expected {target}"
        )
    _, z, phase = group.action_arrays
    span, first = group.x_span
    exponents = (
        phase[first]
        - _character_exponents(character)[first]
        + 2 * _parity(seeds[:, None] & z[first])
    ) % 4
    amplitudes = _ROOT_VALUES[exponents] / len(span)
    amplitudes /= np.linalg.norm(amplitudes, axis=1)[:, None]
    kets = seeds[:, None] ^ span
    order = np.argsort(kets, axis=1)
    kets = np.take_along_axis(kets, order, axis=1)
    amplitudes = np.take_along_axis(amplitudes, order, axis=1)
    kets.flags.writeable = amplitudes.flags.writeable = False
    return DfsBasis(
        character=character,
        kets=tuple(kets),
        amplitudes=tuple(amplitudes),
        multiplicity=target,
        dimension=1 << n,
    )


# ---------------------------------------------------------------------------
# verification against random group-algebra operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationTrial:
    """One random operator A = sum_n a_n G_n applied to the basis."""

    coefficients: np.ndarray
    eigenvalue: complex
    eigenvalue_predicted: complex
    max_residual: float
    eigenvalue_spread: float


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated result of seeded verification trials."""

    character_label: int
    trials: tuple[VerificationTrial, ...]
    seed: int
    passed: bool
    max_residual: float

    def to_json_dict(self) -> dict:
        return {
            "character_label": self.character_label,
            "seed": self.seed,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "trials": [
                {
                    "eigenvalue": [t.eigenvalue.real, t.eigenvalue.imag],
                    "eigenvalue_predicted": [
                        t.eigenvalue_predicted.real,
                        t.eigenvalue_predicted.imag,
                    ],
                    "max_residual": t.max_residual,
                    "eigenvalue_spread": t.eigenvalue_spread,
                }
                for t in self.trials
            ],
        }


@lru_cache(maxsize=1)
def _trial_coefficients(order: int, trials: int, seed: int) -> np.ndarray:
    """Read-only (trials, order) draw: per trial, real parts then imaginary
    parts, complex standard normal.  Every character of one report asks
    for the same draw, so the last one is kept."""
    draws = np.random.default_rng(seed).standard_normal((trials, 2, order))
    coefficients = draws[:, 0] + 1j * draws[:, 1]
    coefficients.flags.writeable = False
    return coefficients


def _apply_on_closures(
    group: PauliSubgroup, basis: DfsBasis, coefficients: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every trial's A applied to every basis vector, on its X-span closure.

    Vector j is written on the kets {b XOR x_n} for b in its support, keyed
    (j << K) | ket and sorted, so the vectors' closures follow one another.
    Returns ``(values, images, starts)``: the vectors and the (trials,
    keys) images A v on those keys, and where each vector's keys start.
    """
    n = group.n_qubits
    x, z, phase = group.action_arrays
    span, _ = group.x_span
    owners = np.repeat(np.arange(len(basis.kets)), [len(k) for k in basis.kets])
    support = owners << n | np.concatenate(basis.kets)
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
    values[np.searchsorted(keys, support)] = np.concatenate(basis.amplitudes)
    # (G_n v)[c] = i^phase_n (-1)^parity(s & z_n) v[s] with s = c XOR x_n,
    # which stays in the closure of the vector that owns c
    images = np.zeros((len(coefficients), len(keys)), dtype=complex)
    rows = max(1, _VERIFY_BLOCK_ENTRIES // len(keys))
    for lo in range(0, group.order, rows):
        part = slice(lo, lo + rows)
        sources = keys ^ x[part, None]
        exponents = (phase[part, None] + 2 * _parity(sources & z[part, None])) % 4
        block = _ROOT_VALUES[exponents] * values[np.searchsorted(keys, sources)]
        images += coefficients[:, part] @ block
    starts = np.searchsorted(keys >> n, np.arange(len(basis.kets)))
    return values, images, starts


def verify_dfs(
    group: PauliSubgroup,
    basis: DfsBasis,
    trials: int = 32,
    seed: int = 0,
) -> VerificationReport:
    """Check that every basis vector is a shared eigenvector of random
    group-algebra operators.

    Each trial draws complex standard-normal coefficients a_n over the
    group elements (in canonical order); calls with the same order, trials
    and seed share one draw.  A = sum a_n G_n is never formed: it maps the
    X-span closure {b XOR x_n} of a vector's support into itself, so it is
    applied on that closure only, one X-orbit of |V_X| kets for a
    ``dfs_basis`` vector, and all trials go through one (trials x N) @
    (N x closure) product.  The test is A |psi_z> = c |psi_z> with one c
    shared across all z, and the shared c is also compared against the
    closed form sum_n a_n gamma_n.  Failures are reported, never raised:
    the same routine is used to demonstrate that cross-irrep
    superpositions are *not* decoherence-free.

    Raises:
        ValueError: ``trials`` below 1, a character of another subgroup,
            or vectors whose length is not 2^K.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_character(group, basis.character)
    if basis.dimension != 1 << group.n_qubits:
        raise ValueError(
            f"basis vectors have length {basis.dimension}, but the subgroup "
            f"acts on {1 << group.n_qubits} amplitudes"
        )
    coefficients = _trial_coefficients(group.order, trials, seed)
    predicted = coefficients @ _ROOT_VALUES[_character_exponents(basis.character)]
    if basis.kets:
        values, images, starts = _apply_on_closures(group, basis, coefficients)
        rayleigh = np.add.reduceat(values.conj() * images, starts, axis=1)
        shared = rayleigh.mean(axis=1)
        misfit = np.abs(images - shared[:, None] * values) ** 2
        residuals = np.sqrt(np.add.reduceat(misfit, starts, axis=1)).max(axis=1)
        spreads = np.abs(rayleigh - shared[:, None]).max(axis=1)
    else:
        shared, residuals, spreads = predicted, np.zeros(trials), np.zeros(trials)
    results = tuple(
        VerificationTrial(
            coefficients=row,
            eigenvalue=complex(c),
            eigenvalue_predicted=complex(p),
            max_residual=float(r),
            eigenvalue_spread=float(d),
        )
        for row, c, p, r, d in zip(coefficients, shared, predicted, residuals, spreads)
    )
    worst = float(residuals.max())
    return VerificationReport(
        character_label=basis.character.label,
        trials=results,
        seed=seed,
        passed=worst < RESIDUAL_PASS_TOL,
        max_residual=worst,
    )


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


@dataclass(frozen=True)
class JointEigenspace:
    """A subspace of simultaneous eigenvectors of every group element."""

    eigenvalues: dict[PauliElement, complex]
    vectors: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class SearchResult:
    spaces: tuple[JointEigenspace, ...] = field(default_factory=tuple)

    @property
    def is_empty(self) -> bool:
        return not self.spaces

    def total_dimension(self) -> int:
        return sum(s.dimension for s in self.spaces)


def nonabelian_one_dim_search(
    group: PauliSubgroup,
    dense_limit: int = DENSE_QUBIT_LIMIT,
    tol: float = 1e-8,
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
    _require_dense(group.n_qubits, dense_limit)
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
        matrix = to_matrix(element, dense_limit=dense_limit)
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


# ---------------------------------------------------------------------------
# subspace geometry helpers
# ---------------------------------------------------------------------------


def subspace_distance(vectors_a, vectors_b) -> float:
    """Spectral distance between the projectors onto two spans.

    Arguments are sequences of vectors (not necessarily orthonormal).
    Returns ||P_A - P_B||_2, which is 0 for equal spans and 1 for spans
    with any orthogonal mismatch direction.
    """
    a = _orthonormal_matrix(vectors_a)
    b = _orthonormal_matrix(vectors_b)
    if a.shape[1] == 0 and b.shape[1] == 0:
        return 0.0
    dim = a.shape[0] if a.shape[1] else b.shape[0]
    pa = a @ a.conj().T if a.shape[1] else np.zeros((dim, dim), dtype=complex)
    pb = b @ b.conj().T if b.shape[1] else np.zeros((dim, dim), dtype=complex)
    return float(np.linalg.norm(pa - pb, ord=2))


def _orthonormal_matrix(vectors) -> np.ndarray:
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        return np.zeros((1, 0), dtype=complex)
    stacked = np.column_stack(vecs)
    q, r = np.linalg.qr(stacked)
    keep = np.abs(np.diag(r)) > 1e-10
    return q[:, keep]


def projector_rank(matrix: np.ndarray, threshold: float = 0.5) -> int:
    """Rank of an (approximate) projector via its eigenvalues."""
    eigenvalues = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)
    return int(np.sum(eigenvalues > threshold))
