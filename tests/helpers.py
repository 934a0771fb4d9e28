from typing import NamedTuple

import numpy as np

from paulidfs.channels import (
    DEGENERATE_S_TOL,
    DegenerateKrausError,
    KrausSet,
    _raw_coefficients,
    _unit_vector,
    apply_channel,
)
from paulidfs.cli import Column
from paulidfs.dfs import projector, seeded_normals
from paulidfs.pauli import (
    PauliElement,
    _require_dense,
    adjoint,
    algebra_action,
    commutes,
    format_pauli,
    identity,
    matrix_action,
    mul,
    to_matrix,
)
from sampling import random_abelian_subgroup
from paulidfs.subgroup import closure, sift_generators


def ket(bits: str) -> np.ndarray:
    """Computational basis ket from a bit string, qubit 1 leftmost."""
    state = np.zeros(1 << len(bits), dtype=complex)
    state[int(bits, 2)] = 1.0
    return state


def abelian_group(rng, n_qubits, phases):
    """Random Abelian group whose identity multiples are exactly ``phases``:
    +I only ("plus"), +-I ("minus") or +-I, +-iI ("full"); "trivial" is
    the group {I}."""
    if phases == "trivial":
        return closure([], n_qubits=n_qubits)
    if phases == "full":
        return random_abelian_subgroup(rng, n_qubits, phases="full")
    group = random_abelian_subgroup(rng, n_qubits, phases="none")
    if phases == "minus":
        group = closure(group.generators + (PauliElement(2, 0, 0, n_qubits),))
    return group


def reference_closure(generators, n_qubits) -> dict:
    """The subgroup generated by ``generators``, by breadth-first search.

    Reference oracle for ``closure``: multiplies from the identity by every
    generator until no new element appears, then reads the flags off the
    element set and the generator pairs.  Returns the canonically ordered
    ``elements``, ``is_abelian``, ``contains_minus_identity``,
    ``contains_imaginary_identity`` and the ``phase_subgroup``.
    """
    start = identity(n_qubits)
    seen = {start}
    frontier = [start]
    while frontier:
        element = frontier.pop()
        for g in generators:
            product = mul(element, g)
            if product not in seen:
                seen.add(product)
                frontier.append(product)
    # the canonical order: phase exponent, then x mask, then z mask
    elements = tuple(
        sorted(seen, key=lambda e: (e.phase_exp, e.x_mask, e.z_mask))
    )
    return {
        "elements": elements,
        "is_abelian": all(
            commutes(a, b) for i, a in enumerate(generators) for b in generators[i + 1 :]
        ),
        "contains_minus_identity": PauliElement(2, 0, 0, n_qubits) in seen,
        "contains_imaginary_identity": PauliElement(1, 0, 0, n_qubits) in seen
        or PauliElement(3, 0, 0, n_qubits) in seen,
        "phase_subgroup": tuple(e for e in elements if e.is_identity_multiple),
    }


def decompose(p, sifted) -> tuple[tuple[int, ...], int]:
    """Express ``p`` as i^c I times a product of pivot inverses.

    Reference oracle for the coordinate rows of ``closure``: strips the
    pivots off ``p`` by exact group multiplication.

    Returns ``(selection, c)`` where ``selection[i]`` flags whether pivot
    i participates, such that p = (i^c I) * prod(selected pivots)^(-1) in
    an Abelian subgroup.  Raises ValueError if ``p`` is not in the span.
    """
    w = p
    chosen = [0] * len(sifted.pivots)
    while True:
        vec = (w.x_mask << w.n_qubits) | w.z_mask
        if vec == 0:
            return tuple(chosen), w.phase_exp
        bit = vec.bit_length() - 1
        try:
            index = sifted.pivot_bits.index(bit)
        except ValueError:
            raise ValueError(f"{format_pauli(p)} is outside the sifted span")
        chosen[index] = 1
        w = mul(w, sifted.pivots[index])


def reference_multiplicity(group, character) -> int:
    """(1/N) sum_n conj(chi_k(G_n)) tr(G_n), summed exactly in Z4.

    Reference oracle for ``multiplicity``: scans the elements for identity
    multiples, the only ones with a nonzero trace; i^c I contributes
    i^(c - k) 2^K when chi_k(i^c I) = i^k.
    """
    counts = [0, 0, 0, 0]
    for element in group.elements:
        if element.is_identity_multiple:
            counts[(element.phase_exp - character.exponent(element)) % 4] += 1
    real, imag = counts[0] - counts[2], counts[1] - counts[3]
    total = real << group.n_qubits
    assert imag == 0 and total % group.order == 0
    return total // group.order


_ROOTS = (1 + 0j, 1j, -1 + 0j, -1j)


def root_exponent(value: complex) -> int:
    """Index k with value == i^k, for exact fourth roots of unity."""
    for k, root in enumerate(_ROOTS):
        if value == root:
            return k
    raise ValueError(f"{value!r} is not an exact fourth root of unity")


def reference_characters(group) -> list[dict]:
    """Every character of an Abelian group as a full element -> value dict.

    Reference oracle for ``characters``: all consistent root-of-unity
    assignments on the sifted generators, each extended to every element
    as complex values and sorted on its whole value row in canonical
    element order.  Theta(N^2) time and memory.
    """
    sifted = sift_generators(group.generators, group.n_qubits)
    z_size = sifted.phase_subgroup_size
    r = len(sifted.pivots)
    decomposition = [decompose(e, sifted) for e in group.elements]
    e_exp = sifted.phase_exp_generator
    omegas = {1: (1 + 0j,), 2: (1 + 0j, -1 + 0j), 4: _ROOTS}[z_size]
    # chi(b_i)^2 == chi(b_i^2) == chi(i^(2 a_i) I)
    pivot_square_exp = tuple((2 * b.phase_exp) % 4 for b in sifted.pivots)

    raw: list[dict] = []
    for omega in omegas:
        bases = []
        for sq in pivot_square_exp:
            target = omega ** (sq // e_exp) if sq else 1 + 0j
            bases.append(1 + 0j if target == 1 else 1j)
        for pattern in range(2**r):
            betas = [
                bases[i] * (1 - 2 * ((pattern >> (r - 1 - i)) & 1))
                for i in range(r)
            ]
            beta_conj = [b.conjugate() for b in betas]
            values = {}
            for element, (selection, c) in zip(group.elements, decomposition):
                value = omega ** (c // e_exp) if e_exp else 1 + 0j
                for i, picked in enumerate(selection):
                    if picked:
                        value *= beta_conj[i]
                values[element] = complex(value.real + 0.0, value.imag + 0.0)
            raw.append(values)
    return sorted(
        raw,
        key=lambda vals: tuple(root_exponent(vals[e]) for e in group.elements),
    )


#: Projected seed vectors below this norm are treated as annihilated.
NULL_PROJECTION_TOL = 1e-8


def reference_dfs_basis(group, character) -> list[np.ndarray]:
    """Basis vectors read off the dense projector, by Gram-Schmidt.

    Reference oracle for ``dfs_basis``: columns of P_k in computational
    basis order, numerically null ones dropped and the survivors
    orthonormalized by modified Gram-Schmidt until m vectors are kept.
    Builds the 2^K x 2^K projector.
    """
    proj = projector(group, character)
    kept: list[np.ndarray] = []
    for b in range(proj.matrix.shape[0]):
        if len(kept) == proj.multiplicity:
            break
        candidate = proj.matrix[:, b].copy()
        if np.linalg.norm(candidate) < NULL_PROJECTION_TOL:
            continue
        for basis_vec in kept:
            candidate -= np.vdot(basis_vec, candidate) * basis_vec
        norm = np.linalg.norm(candidate)
        if norm < NULL_PROJECTION_TOL:
            continue
        kept.append(candidate / norm)
    assert len(kept) == proj.multiplicity
    return kept


class SparseVectors(NamedTuple):
    """Hand-built vectors, such as superpositions, in the form ``verify_dfs``
    reads a basis: vector j as its nonzero ``kets[j]`` and the
    ``amplitudes[j]`` on them."""

    character: object
    kets: tuple
    amplitudes: tuple
    multiplicity: int
    dimension: int

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack().T)

    def stack(self) -> np.ndarray:
        """The vectors as a dimension x multiplicity column matrix."""
        dense = np.zeros((self.multiplicity, self.dimension), dtype=complex)
        for row, kets, amplitudes in zip(dense, self.kets, self.amplitudes):
            row[kets] = amplitudes
        return dense.T


def sparse_vectors(character, vectors) -> SparseVectors:
    """The given dense vectors, all of one length, under ``character``."""
    vectors = [np.asarray(v, dtype=complex) for v in vectors]
    kets = tuple(np.flatnonzero(v) for v in vectors)
    amplitudes = tuple(v[k] for v, k in zip(vectors, kets))
    return SparseVectors(character, kets, amplitudes, len(vectors), len(vectors[0]))


def reference_verify_dfs(group, basis, trials, seed) -> list[tuple]:
    """(coefficients, eigenvalue, eigenvalue_predicted, max_residual,
    eigenvalue_spread) of every trial, on dense 2^K columns.

    Reference oracle for ``verify_dfs``: it shares only the draw, one
    ``seeded_normals`` stream for the seed, each trial's coefficients
    taken from it in turn, real parts then imaginary parts.  It applies
    sum a_n G_n to the stacked dense basis with ``algebra_action``, one
    2^K gather per element, and reads the shared Rayleigh quotient, the
    residuals and the spread off the full columns.
    """
    actions = [matrix_action(e) for e in group.elements]
    gammas = np.array([basis.character.values[e] for e in group.elements])
    stack = basis.stack()
    draws = seeded_normals(seed, 2 * trials * group.order).reshape(trials, 2, -1)
    out = []
    for real, imag in draws:
        coeff = real + 1j * imag
        images = algebra_action(actions, coeff, stack)
        rayleigh = np.einsum("ij,ij->j", stack.conj(), images)
        shared = complex(rayleigh.mean())
        residual = float(np.linalg.norm(images - shared * stack, axis=0).max())
        spread = float(np.abs(rayleigh - shared).max())
        out.append((coeff, shared, complex(np.dot(coeff, gammas)), residual, spread))
    return out


#: v1 names of the character values i^k, indexed by k.
V1_VALUE_NAMES = ("+1", "+i", "-1", "-i")


def decode_z4_rows(rows: list[str]) -> np.ndarray:
    """Schema v6 digit strings of equal width as a uint8 (rows, width)
    matrix of Z4 exponents."""
    digits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8) - 48
    return digits.reshape(len(rows), -1)


def decode_amplitudes(amplitude: float, exponents: str) -> list[list[float]]:
    """The [re, im] pair i^e * a of each digit e of a schema v6 basis's
    exponent string, a being the basis's ``amplitude``."""
    pairs = ([amplitude, 0.0], [0.0, amplitude], [-amplitude, 0.0], [0.0, -amplitude])
    return [pairs[int(e)] for e in exponents]


def plain(node):
    """A report, or any part of one, with every ``Column`` read into a
    list: the value that ``json.loads`` reads back from its JSON."""
    if isinstance(node, dict):
        return {key: plain(value) for key, value in node.items()}
    if isinstance(node, (list, Column)):
        return [plain(value) for value in node]
    return node


def expand_v1(report: dict) -> dict:
    """A schema v6 report written out in schema v1, under schema_version 1.

    ``inputs`` gets back ``"dense_limit": 12`` right after ``seed``, where
    the removed option stood, and the reducibility sum is written as a
    float.  The character table gets back its element strings and, per
    character, the named value i^k of every element,
    k = exponents . coordinates[n] mod 4, both read off their digit
    strings.  The top-level ``x_span`` goes, and each basis is written as
    its ``character_label``, ``multiplicity`` and ``vectors``: vector j as
    2^K dense [re, im] pairs, i^e * a at ket seeds[j] XOR x_span[v] for the
    digit e at j * |V_X| + v and the basis's ``amplitude`` a, and
    [0.0, 0.0] off its support.
    """
    out = plain(report)
    out["schema_version"] = 1
    items = list(out["inputs"].items())
    at = [key for key, _ in items].index("seed") + 1
    out["inputs"] = dict(items[:at] + [("dense_limit", 12)] + items[at:])
    if "reducibility" in out:
        out["reducibility"]["sum"] = float(out["reducibility"]["sum"])
    if "character_table" in out:
        table = out["character_table"]
        coordinates = decode_z4_rows(table["coordinates"]).astype(np.int64)
        labels = decode_z4_rows(table["exponents"]).astype(np.int64)
        out["character_table"] = {
            "elements": out["subgroup"]["elements"],
            "rows": [
                {
                    "label": k + 1,
                    "values": [V1_VALUE_NAMES[v] for v in coordinates @ row % 4],
                }
                for k, row in enumerate(labels)
            ],
        }
    span = out.pop("x_span", [])
    width, dim = len(span), 1 << out["subgroup"]["n_qubits"]
    for entry in out.get("characters", []):
        if "basis" not in entry:
            continue
        basis = entry["basis"]
        pairs = decode_amplitudes(basis["amplitude"], basis["exponents"])
        assert len(pairs) == len(basis["seeds"]) * width
        dense = []
        for j, seed in enumerate(basis["seeds"]):
            vector = [[0.0, 0.0] for _ in range(dim)]
            for x, pair in zip(span, pairs[j * width : (j + 1) * width], strict=True):
                vector[seed ^ x] = pair
            dense.append(vector)
        entry["basis"] = {
            "character_label": basis["character_label"],
            "multiplicity": basis["multiplicity"],
            "vectors": dense,
        }
    return out


def _element_gram(group) -> np.ndarray:
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


def reference_group_algebra_kraus(group, n_ops: int, seed: int) -> KrausSet:
    """Random trace-preserving channel inside the group algebra, densely.

    Reference oracle for ``random_group_algebra_kraus``: raw operators get
    complex standard-normal coefficients over the group elements; the draw
    is corrected by S^(-1/2) for the dense 2^K x 2^K S = sum A^dag A, taken
    as the polar factor U V^dag of the raw operators stacked into one
    column block A = U Sigma V^dag (Higham 1986): equal in exact
    arithmetic, it keeps sum A^dag A = I to rounding however ill
    conditioned S is.  The final coefficients are recovered by projecting
    each corrected operator back onto the elements under the trace inner
    product.  Builds N 2^K x 2^K matrices.

    Raises:
        DegenerateKrausError: the raw draw's S has an eigenvalue below
            ``DEGENERATE_S_TOL``, reseed and retry.
    """
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    _require_dense(group.n_qubits)
    dim = 1 << group.n_qubits
    matrices = [to_matrix(e) for e in group.elements]
    raw_coeff = _raw_coefficients(n_ops, group.order, seed)
    raw_ops = [
        sum(c * m for c, m in zip(row, matrices)) for row in raw_coeff
    ]
    s = np.zeros((dim, dim), dtype=complex)
    for op in raw_ops:
        s += op.conj().T @ op
    eigenvalues, _ = np.linalg.eigh(s)
    if eigenvalues[0] < DEGENERATE_S_TOL:
        raise DegenerateKrausError(
            f"normalization matrix is singular (min eigenvalue "
            f"{eigenvalues[0]:.3e}); reseed and retry"
        )
    u, _, vh = np.linalg.svd(np.concatenate(raw_ops), full_matrices=False)
    operators = tuple(np.split(u @ vh, n_ops))

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


def uniform_group_channel(group) -> KrausSet:
    """The channel whose Kraus operators are the elements over sqrt(N).

    For the two-qubit phase-damping subgroup this is the equal-weight
    dephasing channel (1/2){II, ZI, IZ, ZZ}: it zeroes every off-diagonal
    density-matrix entry in the computational basis in one application
    while leaving populations untouched.
    """
    n = group.order
    scale = 1.0 / np.sqrt(n)
    operators = tuple(scale * to_matrix(e) for e in group.elements)
    coefficients = np.eye(n, dtype=complex) * scale
    return KrausSet(
        n_qubits=group.n_qubits,
        operators=operators,
        group=group,
        coefficients=coefficients,
    )


def density_matrix_from_state(state: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized state vector."""
    psi = _unit_vector(state)
    return np.outer(psi, psi.conj())


def purity(rho: np.ndarray) -> float:
    """tr(rho^2); equals 1 exactly for pure states."""
    return float(np.real(np.trace(rho @ rho)))


def state_fidelity(state: np.ndarray, rho: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference state."""
    psi = np.asarray(state, dtype=complex)
    return float(np.real(np.vdot(psi, rho @ psi)))


def reference_decoherence_scan(group, state, trials, seed, n_ops=2):
    """Purities and fidelities of a scan through dense Kraus operators.

    Reference oracle for ``decoherence_scan``: every trial builds its
    channel with ``reference_group_algebra_kraus`` from the scan's derived
    seed, reseeding a degenerate draw up to 8 times, and applies it to
    |psi><psi| with ``apply_channel``, for the unit vector psi along
    ``state``; the fidelity is read off psi too.  Builds N 2^K x 2^K
    matrices per trial.
    """
    state = state / np.linalg.norm(state)
    rho0 = density_matrix_from_state(state)
    purities, fidelities = [], []
    for t in range(trials):
        attempt = 0
        while True:
            trial_seed = seed * 1_000_003 + t * 97 + attempt
            try:
                kraus = reference_group_algebra_kraus(group, n_ops, trial_seed)
                break
            except DegenerateKrausError:
                attempt += 1
                if attempt > 8:
                    raise
        rho = apply_channel(kraus, rho0)
        purities.append(purity(rho))
        fidelities.append(state_fidelity(state, rho))
    return purities, fidelities


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
