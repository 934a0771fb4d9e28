"""Group-algebra Kraus channels and density-matrix diagnostics.

A channel is a set of operators {A_d} with sum_d A_d^dag A_d = I acting as
rho -> sum_d A_d rho A_d^dag.  The channels built here live in the group
algebra of a Pauli subgroup: each A_d is a complex combination of the
group's elements.  Trace preservation is enforced by right-multiplying a
raw random draw with S^(-1/2), S = sum A^dag A.

Two routes compute the same channels.  ``random_group_algebra_kraus`` and
``apply_channel`` work on dense 2^K x 2^K matrices: S^(-1/2) comes from a
Hermitian eigendecomposition, and since S lies in the adjoint-closed group
algebra, so does the corrected operator, which is re-verified numerically
by projecting back onto the elements.  ``decoherence_scan`` takes that
route for non-Abelian groups only.  For an Abelian group it works in irrep
space: A = sum_n a_n G_n acts on the k-th invariant subspace as the scalar
a^_k = sum_n a_n gamma_n^k, so S^(-1/2) is a scaling per character and
purity and fidelity follow in closed form from the state's irrep weights,
without any 2^K x 2^K array.  The dense route is the test oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dfs import multiplicity
from .pauli import (
    DENSE_QUBIT_LIMIT,
    _require_dense,
    adjoint,
    format_pauli,
    matrix_action,
    mul,
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


def density_matrix_from_state(state: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized state vector."""
    psi = _unit_vector(state)
    return np.outer(psi, psi.conj())


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


def purity(rho: np.ndarray) -> float:
    """tr(rho^2); equals 1 exactly for pure states."""
    return float(np.real(np.trace(rho @ rho)))


def state_fidelity(state: np.ndarray, rho: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference state."""
    psi = np.asarray(state, dtype=complex)
    return float(np.real(np.vdot(psi, rho @ psi)))


# ---------------------------------------------------------------------------
# channel construction and application
# ---------------------------------------------------------------------------


def _element_gram(group: PauliSubgroup) -> np.ndarray:
    """Exact Gram matrix tr(G_m^dag G_n) / 2^K over the group elements.

    Entries are fourth roots of unity where two elements share a string
    and zero otherwise; duplicates (same string, different phase) make
    the Gram singular, which the least-squares re-projection tolerates.
    """
    n = group.order
    gram = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(group.elements):
        for j, b in enumerate(group.elements):
            product = mul(adjoint(a), b)
            if product.is_identity_multiple:
                gram[i, j] = 1j**product.phase_exp
    return gram


def _raw_coefficients(n_ops: int, order: int, seed: int) -> np.ndarray:
    """Complex standard-normal draw over the elements; real parts first."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_ops, order)) + 1j * rng.standard_normal(
        (n_ops, order)
    )


def random_group_algebra_kraus(
    group: PauliSubgroup,
    n_ops: int,
    seed: int,
    dense_limit: int = DENSE_QUBIT_LIMIT,
) -> KrausSet:
    """Random trace-preserving channel inside the group algebra.

    Raw operators get complex standard-normal coefficients over the group
    elements; the draw is corrected by S^(-1/2) (Hermitian
    eigendecomposition) and the final coefficients are recovered by
    projecting each corrected operator back onto the elements under the
    trace inner product.

    Raises:
        DegenerateKrausError: the raw draw's S has an eigenvalue below
            ``DEGENERATE_S_TOL``, reseed and retry.
    """
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    _require_dense(group.n_qubits, dense_limit)
    dim = 1 << group.n_qubits
    matrices = [to_matrix(e, dense_limit=dense_limit) for e in group.elements]
    raw_coeff = _raw_coefficients(n_ops, group.order, seed)
    raw_ops = [
        sum(c * m for c, m in zip(row, matrices)) for row in raw_coeff
    ]
    s = np.zeros((dim, dim), dtype=complex)
    for op in raw_ops:
        s += op.conj().T @ op
    eigenvalues, eigenvectors = np.linalg.eigh(s)
    if eigenvalues[0] < DEGENERATE_S_TOL:
        raise DegenerateKrausError(
            f"normalization matrix is singular (min eigenvalue "
            f"{eigenvalues[0]:.3e}); reseed and retry"
        )
    inv_sqrt = eigenvectors @ np.diag(eigenvalues**-0.5) @ eigenvectors.conj().T
    operators = tuple(op @ inv_sqrt for op in raw_ops)

    gram = _element_gram(group)
    targets = np.array(
        [[np.vdot(m, op) / dim for m in matrices] for op in operators]
    )
    coefficients, *_ = np.linalg.lstsq(gram, targets.T, rcond=None)
    coefficients = coefficients.T
    for row, op in zip(coefficients, operators):
        rebuilt = sum(c * m for c, m in zip(row, matrices))
        if np.linalg.norm(rebuilt - op) > 1e-9:
            raise AssertionError(
                "corrected Kraus operator left the group algebra"
            )
    kraus = KrausSet(
        n_qubits=group.n_qubits,
        operators=operators,
        group=group,
        coefficients=coefficients,
    )
    kraus.validate()
    return kraus


def uniform_group_channel(
    group: PauliSubgroup, dense_limit: int = DENSE_QUBIT_LIMIT
) -> KrausSet:
    """The channel whose Kraus operators are the elements over sqrt(N).

    For the two-qubit phase-damping subgroup this is the equal-weight
    dephasing channel (1/2){II, ZI, IZ, ZZ}: it zeroes every off-diagonal
    density-matrix entry in the computational basis in one application
    while leaving populations untouched.
    """
    n = group.order
    scale = 1.0 / np.sqrt(n)
    operators = tuple(
        scale * to_matrix(e, dense_limit=dense_limit) for e in group.elements
    )
    coefficients = np.eye(n, dtype=complex) * scale
    return KrausSet(
        n_qubits=group.n_qubits,
        operators=operators,
        group=group,
        coefficients=coefficients,
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


def _dense_trial(group, state, n_ops, dense_limit):
    """Per-seed (purity, fidelity) through dense Kraus operators."""
    psi = _unit_vector(state)
    rho0 = density_matrix_from_state(psi)

    def trial(seed: int) -> tuple[float, float]:
        kraus = random_group_algebra_kraus(group, n_ops, seed, dense_limit=dense_limit)
        rho = apply_channel(kraus, rho0)
        return purity(rho), state_fidelity(psi, rho)

    return trial


def _irrep_trial(group, state, n_ops, dense_limit):
    """Per-seed (purity, fidelity) in irrep space, for an Abelian group.

    The draw is the dense route's, mapped to a^_{d,k} = sum_n a_{d,n}
    gamma_n^k over the supported characters.  S acts on block k as
    s_k = sum_d |a^_{d,k}|^2, so S^(-1/2) divides column k by sqrt(s_k).
    With irrep weights w_k = ||P_k psi||^2, the vectors A'_d psi have the
    Gram matrix sum_k a'_{d,k} conj(a'_{e,k}) w_k, whose nonzero spectrum
    is that of rho' = sum_d A'_d |psi><psi| A'_d^dag: purity is its
    squared Frobenius norm and fidelity sum_d |sum_k a'_{d,k} w_k|^2.
    Each dense check has a block form here: the normalization defect
    sum_k m_k (sum_d |a'_{d,k}|^2 - 1)^2 is ||sum A'^dag A' - I||_F^2, and
    the Gram matrix is checked as a density matrix.
    """
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    _require_dense(group.n_qubits, dense_limit)
    psi = _unit_vector(state)
    dim = 1 << group.n_qubits
    if psi.shape != (dim,):
        raise ValueError(f"state shape {psi.shape} != ({dim},)")
    chars = characters(group)
    multiplicities = np.array([multiplicity(group, c) for c in chars])
    supported = [c for c, m in zip(chars, multiplicities) if m]
    multiplicities = multiplicities[multiplicities > 0]
    gamma = np.array(_ROOTS)[exponent_table(group, supported)]
    expectations = np.array(
        [
            np.vdot(psi, values[rows] * psi[rows])
            for rows, values in map(matrix_action, group.elements)
        ]
    )
    weights = gamma.conj() @ expectations / group.order
    # written so that NaN weights fail too
    if not (
        abs(weights.sum() - 1) <= IRREP_WEIGHT_TOL
        and np.all(np.abs(weights.imag) <= IRREP_WEIGHT_TOL)
        and np.all(weights.real >= -IRREP_WEIGHT_TOL)
    ):
        raise AssertionError(f"irrep weights {weights} are not a distribution")
    weights = weights.real

    def trial(seed: int) -> tuple[float, float]:
        hat = _raw_coefficients(n_ops, group.order, seed) @ gamma.T
        s = np.sum(np.abs(hat) ** 2, axis=0)
        if s.min() < DEGENERATE_S_TOL:
            raise DegenerateKrausError(
                f"normalization matrix is singular (min eigenvalue "
                f"{s.min():.3e}); reseed and retry"
            )
        hat /= np.sqrt(s)
        column_norms = np.sum(np.abs(hat) ** 2, axis=0)
        defect = float(np.sqrt(np.sum(multiplicities * (column_norms - 1) ** 2)))
        if defect > KRAUS_NORM_TOL:
            raise ChannelConstraintError(
                f"sum A^dag A deviates from identity by {defect:.3e}"
            )
        gram = (hat * weights) @ hat.conj().T
        if abs(np.trace(gram) - 1) > KRAUS_NORM_TOL:
            raise ValueError("channel application failed to preserve the trace")
        assert_density_matrix(gram)
        fidelity = np.sum(np.abs(hat @ weights) ** 2)
        return float(np.vdot(gram, gram).real), float(fidelity)

    return trial


def decoherence_scan(
    group: PauliSubgroup,
    state: np.ndarray,
    trials: int = 32,
    seed: int = 0,
    n_ops: int = 2,
    dense_limit: int = DENSE_QUBIT_LIMIT,
) -> ScanReport:
    """Apply ``trials`` independent random channels to |state><state|.

    States inside a single irrep's subspace keep purity 1 in every trial;
    superpositions across irreps lose purity for generic draws.  Each
    trial gets its own derived seed; a degenerate draw is retried with a
    shifted seed (deterministically).  Abelian groups are scanned in irrep
    space, non-Abelian ones through dense Kraus operators; both routes
    draw the same channel from the same seed.  Both read the fidelity off
    the unit vector along ``state``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    route = _irrep_trial if group.is_abelian else _dense_trial
    trial = route(group, state, n_ops, dense_limit)
    purities = []
    fidelities = []
    for t in range(trials):
        attempt = 0
        while True:
            trial_seed = seed * 1_000_003 + t * 97 + attempt
            try:
                p, f = trial(trial_seed)
                break
            except DegenerateKrausError:
                attempt += 1
                if attempt > 8:
                    raise
        purities.append(p)
        fidelities.append(f)
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
    from .presets import preset_group

    terms = [to_matrix(parse_pauli(s)) for s in _Q8_TERMS]
    operators = []
    for c, d, e in ((c1, d1, e1), (c2, d2, e2)):
        weights = ((c + e) / 2, d / 2, (c - e) / 2, d / 2)
        operators.append(sum(w * m for w, m in zip(weights, terms)))
    kraus = KrausSet(
        n_qubits=3, operators=tuple(operators), group=preset_group("q8")
    )
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

    @property
    def unconstrained_failure_fraction(self) -> float:
        return self.unconstrained_failures / self.draws

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
    code = q8_code_states()
    rng = np.random.default_rng(seed)

    unconstrained_failures = 0
    min_residual = np.inf
    for t in range(draws):
        kraus = random_group_algebra_kraus(group, 2, seed * 131 + t)
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
        kraus = q8_constrained_kraus(c[0], c[1], tail[0], tail[1], tail[2], tail[3])
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
