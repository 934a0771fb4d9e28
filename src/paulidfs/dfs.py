"""Irrep projectors, DFS bases, the eigenvalue verification and the
joint-eigenspace search.

For an Abelian subgroup {G_n} of order N with one-dimensional characters
gamma^k, the projector onto the k-th invariant subspace is

    P_k = (1/N) sum_n conj(gamma_n^k) G_n

and its rank m_k (the DFS dimension) equals the multiplicity

    m_k = (1/N) sum_n conj(chi_k(G_n)) tr(G_n).

Only phase multiples of the identity have nonzero trace, so m_k is exact
integer arithmetic regardless of the qubit count.  The joint-eigenspace
search is a fully independent decomposition path: it intersects
eigenspaces of a generating set numerically and never touches the
character machinery, which is what makes it usable as a cross-check
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    DENSE_QUBIT_LIMIT,
    PauliElement,
    _parity,
    _require_dense,
    algebra_action,
    matrix_action,
    to_matrix,
)
from .subgroup import (
    Character,
    NotAbelianError,
    PauliSubgroup,
    decompose,
)

#: A verification trial passes when the worst eigenvalue residual is below
#: this; sits far above double-precision noise at dim <= 4096 and far
#: below any genuine gap between fourth-root-of-unity eigenvalues.
RESIDUAL_PASS_TOL = 1e-9


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
    """Orthonormal vectors spanning one character's invariant subspace."""

    character: Character
    vectors: tuple[np.ndarray, ...]
    multiplicity: int

    def stack(self) -> np.ndarray:
        """Basis as a dim x multiplicity column matrix."""
        if not self.vectors:
            return np.zeros((0, 0), dtype=complex)
        return np.column_stack(self.vectors)

    def to_json_dict(self) -> dict:
        return {
            "character_label": self.character.label,
            "multiplicity": self.multiplicity,
            "vectors": [
                [[float(a.real), float(a.imag)] for a in vec]
                for vec in self.vectors
            ],
        }


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

    Exact evaluation of (1/N) sum_n conj(chi_k) chi_natural: every Pauli
    string except phase multiples of the identity is traceless, so only
    the phase subgroup contributes, i^c I giving i^(c - k) 2^K when
    chi_k(i^c I) = i^k.  The powers of i are counted in Z4, so the sum is
    exact integer arithmetic at any qubit count.
    """
    _check_character(group, character)
    counts = [0, 0, 0, 0]
    for element in group.phase_subgroup:
        counts[(element.phase_exp - character.exponent(element)) % 4] += 1
    real, imag = counts[0] - counts[2], counts[1] - counts[3]
    total = real << group.n_qubits
    if imag or total % group.order:
        raise AssertionError(
            f"non-integer multiplicity ({real}{imag:+d}i) * 2^{group.n_qubits}"
            f" / {group.order} from exact sum"
        )
    return total // group.order


def dfs_basis(
    group: PauliSubgroup,
    character: Character,
    dense_limit: int = DENSE_QUBIT_LIMIT,
) -> DfsBasis:
    """Orthonormal basis of the range of P_k, without forming P_k.

    Each element maps |b> to a multiple of |b XOR x_n>, so P_k |b> is one
    vector, up to phase, per X-orbit.  Seeds are the smallest ket of each
    orbit (no bit in ``lead``, the pivots' leading x bits) on which the
    X-free elements act as chi_k, checked on their generators in exact Z4
    exponents.  The m images have disjoint supports and are normalized in
    increasing seed order.  A zero multiplicity yields an empty basis.
    """
    _check_character(group, character)
    _require_dense(group.n_qubits, dense_limit)
    n = group.n_qubits
    sifted = group.sifted
    # sifted pivots have distinct leading bits, so the sum is a bitwise or
    lead = sum(1 << (p.x_mask.bit_length() - 1) for p in sifted.pivots if p.x_mask)
    diagonal = [PauliElement(sifted.phase_exp_generator, 0, 0, n)]
    diagonal += [p for p in sifted.pivots if not p.x_mask]
    kets = np.arange(1 << n, dtype=np.int64)
    keep = (kets & lead) == 0
    for h in diagonal:
        exponent_on_kets = (h.phase_exp + 2 * _parity(kets & h.z_mask)) % 4
        keep &= exponent_on_kets == character.exponent(h)
    seeds = np.flatnonzero(keep)
    target = multiplicity(group, character)
    if len(seeds) != target:
        raise AssertionError(
            f"basis extraction found {len(seeds)} seed kets, expected {target}"
        )
    block = np.zeros((1 << n, target), dtype=complex)
    block[seeds, np.arange(target)] = 1
    coefficients = [
        character.values[e].conjugate() / group.order for e in group.elements
    ]
    images = algebra_action(
        (matrix_action(e) for e in group.elements), coefficients, block
    )
    images /= np.linalg.norm(images, axis=0)
    vectors = images.T.copy()
    vectors.flags.writeable = False
    return DfsBasis(character=character, vectors=tuple(vectors), multiplicity=target)


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


def verify_dfs(
    group: PauliSubgroup,
    basis: DfsBasis,
    trials: int = 32,
    seed: int = 0,
) -> VerificationReport:
    """Check that every basis vector is a shared eigenvector of random
    group-algebra operators.

    Each trial draws complex standard-normal coefficients a_n over the
    group elements (in canonical order), applies A = sum a_n G_n to the
    stacked basis with ``algebra_action``, never forming A, and tests
    A |psi_z> = c |psi_z> with one c shared across all z.  The shared c is
    also compared against the closed form sum_n a_n gamma_n.  Failures are
    reported, never raised: the same routine is used to demonstrate that
    cross-irrep superpositions are *not* decoherence-free.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    actions = [matrix_action(e) for e in group.elements]
    gammas = np.array(
        [basis.character.values[e] for e in group.elements], dtype=complex
    )
    stack = basis.stack()
    rng = np.random.default_rng(seed)
    results = []
    worst = 0.0
    for _ in range(trials):
        coeff = rng.standard_normal(group.order) + 1j * rng.standard_normal(
            group.order
        )
        predicted = complex(np.dot(coeff, gammas))
        if basis.vectors:
            images = algebra_action(actions, coeff, stack)
            rayleigh = np.einsum("ij,ij->j", stack.conj(), images)
            shared = complex(rayleigh.mean())
            residual = float(np.linalg.norm(images - shared * stack, axis=0).max())
            spread = float(np.abs(rayleigh - shared).max())
        else:
            shared = predicted
            residual = 0.0
            spread = 0.0
        worst = max(worst, residual)
        results.append(
            VerificationTrial(
                coefficients=coeff,
                eigenvalue=shared,
                eigenvalue_predicted=predicted,
                max_residual=residual,
                eigenvalue_spread=spread,
            )
        )
    return VerificationReport(
        character_label=basis.character.label,
        trials=tuple(results),
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
    pivot_values = [assignment[p] for p in group.sifted.pivots]
    full: dict[PauliElement, complex] = {}
    for element in group.elements:
        selection, c = decompose(element, group.sifted)
        value = 1j**c
        for picked, lam in zip(selection, pivot_values):
            if picked:
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
