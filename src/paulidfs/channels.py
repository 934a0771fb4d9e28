"""Group-algebra Kraus channels and density-matrix diagnostics.

A channel is a set of operators {A_d} with sum_d A_d^dag A_d = I acting as
rho -> sum_d A_d rho A_d^dag.  The channels built here live in the group
algebra of a Pauli subgroup: each A_d is a complex combination of the
group's elements, and trace preservation is enforced by right-multiplying
a raw random draw with S^(-1/2), S = sum A^dag A.

One body (``_draw`` and the trial loop of ``decoherence_scan``) serves two
bases of the algebra, neither of which builds a 2^K x 2^K array: the D =
N/|Z| Pauli strings of any group (``_StringAlgebra``, O(D^3) per draw) and
the irreps of an Abelian one (``_IrrepBasis``, O(N) per character).  The
dense construction is kept in the tests as the oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dfs import multiplicity
from .pauli import (
    PauliElement,
    _parity,
    _require_dense,
    format_pauli,
    matrix_action,
    parse_pauli,
    to_matrix,
)
from .subgroup import _ROOTS, PauliSubgroup, characters, exponent_table

KRAUS_NORM_TOL = 1e-9
#: A random draw whose S = sum A^dag A has an eigenvalue below this is
#: degenerate and reseeded.
DEGENERATE_S_TOL = 1e-12
#: Irrep weights ||P_k psi||^2 must be real, non-negative and sum to 1
#: within this; each is a sum of N expectation values of unit-modulus
#: operators over a unit vector.
IRREP_WEIGHT_TOL = 1e-10
#: Largest string-algebra dimension D = N/|Z|.  Each draw diagonalizes one
#: D x D matrix: at D = 512 a 32-trial CLI scan takes 8.2-8.6 s and 76 MB
#: on one core of a 2-vCPU VM, and each doubling of D costs about 8x.
ALGEBRA_DIMENSION_LIMIT = 512


class DegenerateKrausError(ValueError):
    """Raised when a random draw yields a numerically singular S; the
    caller should retry with a fresh seed."""


class ChannelConstraintError(ValueError):
    """Raised when explicit channel parameters violate a normalization or
    orthogonality constraint; the message names the violated one."""


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators, optionally tagged with their group-algebra origin.

    The set takes ownership of the arrays and marks them read-only, so a
    constructed channel can be shared freely across threads.
    """

    n_qubits: int
    operators: tuple[np.ndarray, ...]
    group: PauliSubgroup | None = None
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        for op in self.operators:
            op.flags.writeable = False
        if self.coefficients is not None:
            self.coefficients.flags.writeable = False

    def normalization_defect(self) -> float:
        dim = 1 << self.n_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for op in self.operators:
            total += op.conj().T @ op
        return float(np.linalg.norm(total - np.eye(dim)))

    def validate(self, atol: float = KRAUS_NORM_TOL):
        defect = self.normalization_defect()
        if defect > atol:
            raise ChannelConstraintError(
                f"sum A^dag A deviates from identity by {defect:.3e}"
            )

    def to_json_dict(self) -> dict:
        out: dict = {"n_qubits": self.n_qubits}
        if self.group is not None:
            out["subgroup"] = [format_pauli(e) for e in self.group.elements]
        if self.coefficients is not None:
            out["operators"] = [
                [[float(a.real), float(a.imag)] for a in row]
                for row in self.coefficients
            ]
        else:
            out["operators"] = [
                [[float(a.real), float(a.imag)] for a in op.ravel()]
                for op in self.operators
            ]
        return out


# ---------------------------------------------------------------------------
# density matrices (plain ndarrays plus validation helpers)
# ---------------------------------------------------------------------------


def _unit_vector(state: np.ndarray) -> np.ndarray:
    psi = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise ValueError("cannot form a density matrix from the zero vector")
    return psi / norm


def assert_density_matrix(rho: np.ndarray, eig_floor: float = -1e-8):
    """Check unit trace, Hermiticity and positivity of ``rho``."""
    trace = complex(np.trace(rho))
    if abs(trace - 1) > 1e-10:
        raise ValueError(f"trace {trace} is not 1")
    if np.linalg.norm(rho - rho.conj().T) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    smallest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if smallest < eig_floor:
        raise ValueError(f"negative eigenvalue {smallest}")


# ---------------------------------------------------------------------------
# channel draws in two bases of the group algebra
# ---------------------------------------------------------------------------


def _raw_coefficients(n_ops: int, order: int, seed: int) -> np.ndarray:
    """Complex standard-normal draw over the elements; real parts first."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_ops, order)) + 1j * rng.standard_normal(
        (n_ops, order)
    )


def _require_nondegenerate(smallest: float):
    if smallest < DEGENERATE_S_TOL:
        raise DegenerateKrausError(
            f"normalization matrix is singular (min eigenvalue "
            f"{smallest:.3e}); reseed and retry"
        )


def _expectations(elements, psi: np.ndarray) -> np.ndarray:
    """<psi|G|psi> for each element G, one gather each."""
    actions = map(matrix_action, elements)
    return np.array([np.vdot(psi, v[rows] * psi[rows]) for rows, v in actions])


class _StringAlgebra:
    """The group algebra over its D = N/|Z| Pauli strings.

    W_s, s < D = 2^r, is the phase-free string whose masks XOR the sifted
    pivots selected by the bits of s; every element is some i^p W_s.  The
    strings are Hermitian, orthonormal under (1/2^K) tr, and multiply as
    W_s W_t = i^phi(s,t) W_(s XOR t), phi as in ``pauli.mul``.  Left
    multiplication by sum_s c_s W_s is L(c)[u, t] = c[u ^ t] i^phi(u ^ t, t),
    a faithful *-representation: L(c)^dag = L(conj(c)), and L(S) has the
    spectrum of S.  D above ``ALGEBRA_DIMENSION_LIMIT`` is refused first.
    """

    def __init__(self, group: PauliSubgroup):
        dim = 1 << len(group.sifted.pivots)
        if dim > ALGEBRA_DIMENSION_LIMIT:
            raise ValueError(
                f"string algebra dimension D = {dim} exceeds the limit of "
                f"{ALGEBRA_DIMENSION_LIMIT}"
            )
        masks = [(0, 0)]
        for b in group.sifted.pivots:
            masks += [(x ^ b.x_mask, z ^ b.z_mask) for x, z in masks]
        self.strings = [PauliElement(0, x, z, group.n_qubits) for x, z in masks]
        x, z = np.array(masks, dtype=np.int64).T
        y = np.array([(w.x_mask & w.z_mask).bit_count() for w in self.strings])
        self._xor = np.arange(dim)[:, None] ^ np.arange(dim)
        phi = (y[:, None] + y - y[self._xor] + 2 * _parity(z[:, None] & x)) % 4
        self._products = np.array(_ROOTS)[phi]
        # row n of the draw map is i^p e_s for element n = i^p W_s
        index = {(w.x_mask, w.z_mask): s for s, w in enumerate(self.strings)}
        self.draw_map = np.zeros((group.order, dim), dtype=complex)
        for n, e in enumerate(group.elements):
            self.draw_map[n, index[e.x_mask, e.z_mask]] = _ROOTS[e.phase_exp]
        # ||sum_s c_s W_s||_F^2 = 2^K ||c||^2, and I = W_0
        self.norm_weights, self.unit = 2.0**group.n_qubits, np.arange(dim) == 0

    def left(self, c: np.ndarray) -> np.ndarray:
        return np.take_along_axis(c[:, None] * self._products, self._xor, axis=0)

    def square_sum(self, hat: np.ndarray) -> np.ndarray:
        return sum(self.left(c).conj().T @ c for c in hat)

    def normalize(self, hat: np.ndarray) -> np.ndarray:
        # one left-multiplication matrix per raw operator, for S and S^(-1/2)
        lefts = [self.left(c) for c in hat]
        s = sum(m.conj().T @ c for m, c in zip(lefts, hat))
        eigenvalues, eigenvectors = np.linalg.eigh(self.left(s))
        _require_nondegenerate(eigenvalues[0])
        # L(S)^(-1/2) applied to W_0 = I: the coefficients of S^(-1/2)
        inv_sqrt = eigenvectors @ (eigenvalues**-0.5 * eigenvectors[0].conj())
        return np.array([m @ inv_sqrt for m in lefts])

    def moments(self, psi: np.ndarray) -> np.ndarray:
        return _expectations(self.strings, psi)

    def gram(self, hat: np.ndarray, moments: np.ndarray) -> np.ndarray:
        """<psi|A_e^dag A_d|psi> at [d, e], from <psi|W_s W_t|psi>."""
        return hat @ (self._products * moments[self._xor]).T @ hat.conj().T


class _IrrepBasis:
    """An Abelian group's algebra in irrep space.

    An operator is held as its scalars a^_k = sum_n a_n gamma_n^k on the
    supported characters, so S acts on the m_k-dimensional block k as
    s_k = sum_d |a^_{d,k}|^2 and S^(-1/2) divides column k by sqrt(s_k).
    The moments of a state are its irrep weights w_k = ||P_k psi||^2.
    """

    def __init__(self, group: PauliSubgroup):
        chars = characters(group)
        multiplicities = np.array([multiplicity(group, c) for c in chars])
        supported = [c for c, m in zip(chars, multiplicities) if m]
        self._elements = group.elements
        self.norm_weights, self.unit = multiplicities[multiplicities > 0], 1
        self.draw_map = np.array(_ROOTS)[exponent_table(group, supported)].T

    def square_sum(self, hat: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(hat) ** 2, axis=0)

    def normalize(self, hat: np.ndarray) -> np.ndarray:
        s = self.square_sum(hat)
        _require_nondegenerate(s.min())
        return hat / np.sqrt(s)

    def moments(self, psi: np.ndarray) -> np.ndarray:
        expectations = _expectations(self._elements, psi)
        weights = self.draw_map.T.conj() @ expectations / len(self._elements)
        # written so that NaN weights fail too
        if not (
            abs(weights.sum() - 1) <= IRREP_WEIGHT_TOL
            and np.all(np.abs(weights.imag) <= IRREP_WEIGHT_TOL)
            and np.all(weights.real >= -IRREP_WEIGHT_TOL)
        ):
            raise AssertionError(f"irrep weights {weights} are not a distribution")
        return weights.real

    def gram(self, hat: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return (hat * weights) @ hat.conj().T


def _draw(basis, n_ops: int, seed: int) -> np.ndarray:
    """The seeded draw over the elements, in ``basis``, times S^(-1/2);
    DegenerateKrausError (reseed and retry) if S is numerically singular."""
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    raw = _raw_coefficients(n_ops, len(basis.draw_map), seed)
    hat = basis.normalize(raw @ basis.draw_map)
    # ||sum A^dag A - I||_F from the coefficients of sum A^dag A
    excess = np.abs(basis.square_sum(hat) - basis.unit) ** 2
    defect = float(np.sqrt(np.sum(basis.norm_weights * excess)))
    if defect > KRAUS_NORM_TOL:
        raise ChannelConstraintError(
            f"sum A^dag A deviates from identity by {defect:.3e}"
        )
    return hat


# ---------------------------------------------------------------------------
# channel construction and application
# ---------------------------------------------------------------------------


def random_group_algebra_kraus(
    group: PauliSubgroup, n_ops: int, seed: int
) -> KrausSet:
    """Random trace-preserving channel inside the group algebra.

    The draw is made and corrected in the string algebra, and only the
    result is densified.  ``coefficients`` spread each string's c_s over
    its |Z| elements i^p W_s as c_s i^(-p)/|Z|, the minimum-norm
    coefficients over the elements.

    Raises:
        DegenerateKrausError: the raw draw's S has an eigenvalue below
            ``DEGENERATE_S_TOL``, reseed and retry.
    """
    _require_dense(group.n_qubits)
    algebra = _StringAlgebra(group)
    matrices = [to_matrix(w) for w in algebra.strings]
    return _algebra_kraus(group, algebra, matrices, n_ops, seed)


def _algebra_kraus(
    group: PauliSubgroup,
    algebra: _StringAlgebra,
    matrices: list[np.ndarray],
    n_ops: int,
    seed: int,
) -> KrausSet:
    """``random_group_algebra_kraus`` over a built string algebra and the
    dense matrices of its strings, which a caller drawing many channels of
    one group builds once."""
    hat = _draw(algebra, n_ops, seed)
    spread = len(algebra.strings) / group.order
    return KrausSet(
        n_qubits=group.n_qubits,
        operators=tuple(sum(c * m for c, m in zip(row, matrices)) for row in hat),
        group=group,
        coefficients=hat @ algebra.draw_map.conj().T * spread,
    )


def apply_channel(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """rho -> sum_d A_d rho A_d^dag, validated as a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << kraus.n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape} != ({dim}, {dim})")
    out = np.zeros_like(rho)
    for op in kraus.operators:
        out += op @ rho @ op.conj().T
    if abs(np.trace(out) - np.trace(rho)) > KRAUS_NORM_TOL:
        raise ValueError("channel application failed to preserve the trace")
    assert_density_matrix(out)
    return out


# ---------------------------------------------------------------------------
# decoherence scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Purity/fidelity statistics over independent random channels."""

    trials: int
    seed: int
    n_ops: int
    purities: tuple[float, ...]
    fidelities: tuple[float, ...]

    @property
    def min_purity(self) -> float:
        return min(self.purities)

    @property
    def mean_purity(self) -> float:
        return sum(self.purities) / len(self.purities)

    @property
    def min_fidelity(self) -> float:
        return min(self.fidelities)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "n_ops": self.n_ops,
            "purities": list(self.purities),
            "fidelities": list(self.fidelities),
            "min_purity": self.min_purity,
            "mean_purity": self.mean_purity,
            "min_fidelity": self.min_fidelity,
        }


def decoherence_scan(
    group: PauliSubgroup,
    state: np.ndarray,
    trials: int = 32,
    seed: int = 0,
    n_ops: int = 2,
) -> ScanReport:
    """Apply ``trials`` independent random channels to |state><state|.

    States inside a single irrep's subspace keep purity 1 in every trial;
    superpositions across irreps lose purity for generic draws.  Each
    trial gets its own derived seed; a degenerate draw is retried with a
    shifted seed (deterministically).  One trial body scans an Abelian
    group in irrep space and any other in its string algebra, with the
    same draws.  Fidelity is sum_d |<psi|A_d|psi>|^2 for the unit vector
    psi along ``state``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _require_dense(group.n_qubits)
    psi = _unit_vector(state)
    dim = 1 << group.n_qubits
    if psi.shape != (dim,):
        raise ValueError(f"state shape {psi.shape} != ({dim},)")
    basis = _IrrepBasis(group) if group.is_abelian else _StringAlgebra(group)
    moments = basis.moments(psi)
    purities = []
    fidelities = []
    for t in range(trials):
        for attempt in range(9):
            try:
                hat = _draw(basis, n_ops, seed * 1_000_003 + t * 97 + attempt)
                break
            except DegenerateKrausError:
                if attempt == 8:
                    raise
        # the Gram matrix <psi|A_e^dag A_d|psi> of the vectors A_d psi has
        # the nonzero spectrum of the evolved density matrix
        gram = basis.gram(hat, moments)
        if abs(np.trace(gram) - 1) > KRAUS_NORM_TOL:
            raise ValueError("channel application failed to preserve the trace")
        assert_density_matrix(gram)
        purities.append(float(np.vdot(gram, gram).real))
        fidelities.append(float(np.sum(np.abs(hat @ moments) ** 2)))
    return ScanReport(
        trials=trials,
        seed=seed,
        n_ops=n_ops,
        purities=tuple(purities),
        fidelities=tuple(fidelities),
    )


# ---------------------------------------------------------------------------
# the non-generic three-qubit construction
# ---------------------------------------------------------------------------

_Q8_TERMS = ("III", "XXI", "IZZ", "+iXYZ")


def q8_constrained_kraus(
    c1: complex,
    c2: complex,
    d1: complex,
    d2: complex,
    e1: complex,
    e2: complex,
    atol: float = 1e-10,
) -> KrausSet:
    """Two-operator channel in the eight-element non-Abelian group's algebra
    that fixes the four-state code {|000>, |111>, |100>, |011>}.

    Operator d is (c_d + e_d)/2 III + d_d/2 XXI + (c_d - e_d)/2 IZZ
    + d_d/2 (iXYZ); on each of the four invariant planes it acts as the
    upper-triangular matrix [[c_d, d_d], [0, e_d]], so the first plane
    vectors are common eigenvectors with eigenvalue c_d.  The matching
    coefficients on XXI and iXYZ are exactly the "conspiracy" that makes
    this work despite the group being non-Abelian.

    Raises:
        ChannelConstraintError: some normalization or orthogonality
            constraint is violated; the message names it.
    """
    from .presets import preset_group

    return _q8_kraus(
        preset_group("q8"), _q8_term_matrices(), c1, c2, d1, d2, e1, e2, atol
    )


def _q8_term_matrices() -> list[np.ndarray]:
    return [to_matrix(parse_pauli(s)) for s in _Q8_TERMS]


def _q8_kraus(group, terms, c1, c2, d1, d2, e1, e2, atol=1e-10) -> KrausSet:
    """``q8_constrained_kraus`` over the built q8 group and the dense
    matrices of ``_Q8_TERMS``."""
    ortho = np.conj(c1) * d1 + np.conj(c2) * d2
    if abs(ortho) > atol:
        raise ChannelConstraintError(
            f"conj(c1) d1 + conj(c2) d2 = {ortho:.3e}, expected 0"
        )
    c_norm = abs(c1) ** 2 + abs(c2) ** 2
    if abs(c_norm - 1) > atol:
        raise ChannelConstraintError(f"|c1|^2 + |c2|^2 = {c_norm}, expected 1")
    de_norm = abs(d1) ** 2 + abs(d2) ** 2 + abs(e1) ** 2 + abs(e2) ** 2
    if abs(de_norm - 1) > atol:
        raise ChannelConstraintError(
            f"|d1|^2 + |d2|^2 + |e1|^2 + |e2|^2 = {de_norm}, expected 1"
        )
    operators = []
    for c, d, e in ((c1, d1, e1), (c2, d2, e2)):
        weights = ((c + e) / 2, d / 2, (c - e) / 2, d / 2)
        operators.append(sum(w * m for w, m in zip(weights, terms)))
    kraus = KrausSet(n_qubits=3, operators=tuple(operators), group=group)
    kraus.validate()
    return kraus


def code_fix_residual(kraus: KrausSet, code_states) -> float:
    """Worst-case deviation of the code states from being common
    eigenvectors (one shared eigenvalue per operator)."""
    worst = 0.0
    for op in kraus.operators:
        reference = complex(np.vdot(code_states[0], op @ code_states[0]))
        for state in code_states:
            worst = max(
                worst,
                float(np.linalg.norm(op @ state - reference * state)),
            )
    return worst


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the constrained-versus-generic channel comparison."""

    draws: int
    unconstrained_failures: int
    constrained_failures: int
    min_unconstrained_residual: float
    max_constrained_residual: float
    failure_threshold: float

    def to_json_dict(self) -> dict:
        return {
            "draws": self.draws,
            "unconstrained_failures": self.unconstrained_failures,
            "constrained_failures": self.constrained_failures,
            "min_unconstrained_residual": self.min_unconstrained_residual,
            "max_constrained_residual": self.max_constrained_residual,
            "failure_threshold": self.failure_threshold,
        }


def q8_genericity_probe(
    seed: int, draws: int = 64, threshold: float = 1e-6
) -> ProbeReport:
    """Contrast generic and constrained channels on the four-state code.

    Unconstrained draws take arbitrary coefficients over all eight group
    elements; essentially all of them break the code (residual above the
    threshold).  Constrained draws sample valid parameters for
    ``q8_constrained_kraus`` and never break it.
    """
    from .presets import preset_group, q8_code_states

    group = preset_group("q8")
    algebra = _StringAlgebra(group)
    matrices = [to_matrix(w) for w in algebra.strings]
    terms = _q8_term_matrices()
    code = q8_code_states()
    rng = np.random.default_rng(seed)

    unconstrained_failures = 0
    min_residual = np.inf
    for t in range(draws):
        kraus = _algebra_kraus(group, algebra, matrices, 2, seed * 131 + t)
        residual = code_fix_residual(kraus, code)
        min_residual = min(min_residual, residual)
        if residual > threshold:
            unconstrained_failures += 1

    constrained_failures = 0
    max_residual = 0.0
    for _ in range(draws):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / np.linalg.norm(c)
        beta = rng.standard_normal() + 1j * rng.standard_normal()
        d = beta * np.array([-np.conj(c[1]), np.conj(c[0])])
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        tail = np.concatenate([d, e])
        tail = tail / np.linalg.norm(tail)
        kraus = _q8_kraus(group, terms, c[0], c[1], *tail)
        residual = code_fix_residual(kraus, code)
        max_residual = max(max_residual, residual)
        if residual > threshold:
            constrained_failures += 1

    return ProbeReport(
        draws=draws,
        unconstrained_failures=unconstrained_failures,
        constrained_failures=constrained_failures,
        min_unconstrained_residual=float(min_residual),
        max_constrained_residual=float(max_residual),
        failure_threshold=threshold,
    )
