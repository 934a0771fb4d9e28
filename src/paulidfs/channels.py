"""Group-algebra Kraus channels and density-matrix diagnostics.

A channel is a set of operators {A_d} with sum_d A_d^dag A_d = I acting as
rho -> sum_d A_d rho A_d^dag.  The channels built here live in the group
algebra of a Pauli subgroup: each A_d is a complex combination of the
group's elements, and trace preservation is enforced by right-multiplying
a raw random draw with S^(-1/2), S = sum A^dag A.

Every group's algebra is held in one block basis (``_BlockBasis``), read
off the symplectic normal form of the sift: 2^c blocks of 2^h x 2^h
matrices, the 1 x 1 supported characters of an Abelian group among them.
Draws come from ``dfs.seeded_normals``, not ``numpy.random``, so a seed now
gives other purities and fidelities than under ``numpy.random``.  S^(-1/2)
is the polar factor of each block's stacked operators (Higham 1986): in
closed form for blocks of 1 x 1 and 2 x 2 (h <= 1), else one SVD stacked
over a scan's trials; a state's moments are one Walsh-Hadamard transform
per x mask.  No 2^K x 2^K array is built, a scan's work is bounded
before any element is, and the dense construction is the tests' oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dfs import _ROOT_VALUES, seeded_normals
from .pauli import (
    ChannelConstraintError,
    DegenerateKrausError,
    PauliElement,
    _Frozen,
    _require_dense,
    action_arrays,
    format_paulis,
    parse_pauli,
    subset_products,
    to_matrix,
)
from .subgroup import PauliSubgroup, SiftedGenerators

KRAUS_NORM_TOL = 1e-9
#: A random draw whose S = sum A^dag A has an eigenvalue (a squared singular
#: value of a block's stacked operators) below this is degenerate.
DEGENERATE_S_TOL = 1e-12
#: A state's moment blocks must be Hermitian and positive semidefinite,
#: with traces summing to 1, within this; each entry is a sum of D
#: expectation values of unit-modulus operators over a unit vector.
IRREP_WEIGHT_TOL = 1e-10
#: Largest work of one channel scan (``require_scan_work``).  At the cap,
#: 25 block shapes up to K = 12 take 2.4-10 s (time per trial x trials); CLI:
#: 4048 trials of twelve Z strings at K = 12 took 8.9-10.8 s and 41 MB, and
#: 837 552 of ZI IZ 4.5-5.1 s and 188 MB (2-vCPU VM, one BLAS thread).
SCAN_WORK_CAP = 1 << 32
#: Work charged to each trial besides its draw and blocks, so that the
#: trials of a trivial group are bounded too: 6 us a CLI trial of ZI IZ.
SCAN_TRIAL_WORK = 1 << 12
#: Entries of each stacked block: the (x masks x kets) transforms of the
#: moments, and a scan's (trials x operators x elements) draws.
_BLOCK_ENTRIES = 1 << 16


class KrausSet(_Frozen):
    """Kraus operators, optionally tagged with their group-algebra origin.

    The set takes ownership of the arrays and marks them read-only, so a
    constructed channel can be shared freely across threads.
    """

    def __init__(
        self,
        n_qubits: int,
        operators: tuple[np.ndarray, ...],
        group: PauliSubgroup | None = None,
        coefficients: np.ndarray | None = None,
    ):
        for op in operators:
            op.flags.writeable = False
        if coefficients is not None:
            coefficients.flags.writeable = False
        vars(self).update(
            n_qubits=n_qubits, operators=operators, group=group, coefficients=coefficients
        )

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
            out["subgroup"] = format_paulis(self.group.action_arrays, self.n_qubits)
        rows = self.coefficients
        if rows is None:
            rows = [op.ravel() for op in self.operators]
        out["operators"] = [[[float(a.real), float(a.imag)] for a in r] for r in rows]
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
    """Check unit trace, Hermiticity and positivity of ``rho`` or a stack."""
    worst = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1).max()
    if worst > 1e-10:
        raise ValueError(f"trace deviates from 1 by {worst:.3e}")
    adjoint = rho.conj().swapaxes(-1, -2)
    if np.linalg.norm(rho - adjoint, axis=(-2, -1)).max() > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    smallest = float(np.linalg.eigvalsh((rho + adjoint) / 2).min())
    if smallest < eig_floor:
        raise ValueError(f"negative eigenvalue {smallest}")


# ---------------------------------------------------------------------------
# channel draws in the block basis of the group algebra
# ---------------------------------------------------------------------------


def _raw_coefficients(n_ops: int, order: int, seed) -> np.ndarray:
    """Complex standard-normal draw over the elements, real parts first:
    (n_ops, order) for one seed, one such draw per seed of a sequence."""
    draws = seeded_normals(seed, 2 * n_ops * order)
    raw = 1j * draws[..., n_ops * order :]
    raw += draws[..., : n_ops * order]
    return raw.reshape(*draws.shape[:-1], n_ops, order)


def _walsh(values: np.ndarray, bits) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of the last axis of ``values``
    over the given bits of its index."""
    shape = values.shape
    for bit in bits:
        halves = values.reshape(-1, 2, 1 << bit)
        values = np.empty_like(halves)
        np.add(halves[:, 0], halves[:, 1], out=values[:, 0])
        np.subtract(halves[:, 0], halves[:, 1], out=values[:, 1])
    return values.reshape(shape)


def require_scan_work(sifted: SiftedGenerators, trials: int, n_ops: int = 2):
    """ValueError if a ``decoherence_scan`` would act on more than
    ``DENSE_QUBIT_LIMIT`` qubits, or if its work W = |V_X| K 2^K + trials
    (n_ops (2^7 N + 2^c 8^h) + ``SCAN_TRIAL_WORK``) exceeds ``SCAN_WORK_CAP``:
    one transform of 2^K amplitudes per x mask, then per trial the draw and
    transform over the N elements and the algebra on 2^c blocks of 2^h x
    2^h, a unit of work about 2 ns.  All are read off the sift, before any
    element is built (|V_X| = 2^(pivots with x))."""
    _require_dense(k := sifted.n_qubits)
    central, pairs = sifted.normal_form
    r, blocks = len(sifted.pivots), len(central) + 3 * len(pairs)
    per_trial = n_ops * ((sifted.phase_subgroup_size << (r + 7)) + (1 << blocks))
    x_rank = sum(1 for p in sifted.pivots if p.x_mask)
    work = (k << (x_rank + k)) + trials * (per_trial + SCAN_TRIAL_WORK)
    if work > SCAN_WORK_CAP:
        raise ValueError(
            f"channel scan work W = {work} exceeds the cap of {SCAN_WORK_CAP}"
        )


class _BlockBasis:
    """A group algebra as 2^c blocks of 2^h x 2^h matrices.

    With the c central vectors and h pairs (P_k, Q_k) of
    ``sifted.normal_form`` made phase-free strings, the D = 2^r ordered
    products V_t = C^t_c P^a Q^b, t = t_c | a << c | b << (c + h), span the
    algebra, and block l holds V_t as (-1)^|l & t_c| X^a Z^b on h virtual
    qubits: 2^c inequivalent irreps of dimension 2^h, each ``multiplicity``
    = 2^(K - c - h) times in the natural representation.  An Abelian group
    is the case h = 0, its blocks the supported characters.  Element n is
    i^q_n V_(t_n), and coefficients over the strings go to blocks with one
    Walsh-Hadamard transform over the c + h bits of t_c and b and a gather.
    """

    def __init__(self, group: PauliSubgroup):
        sifted, n = group.sifted, group.n_qubits
        central, pairs = sifted.normal_form
        c, h = len(central), len(pairs)
        # the strings, V_(t | 1 << i) = V_t G_i, by one ``subset_products``
        strings = []
        for mask in (*central, *(p for p, _ in pairs), *(q for _, q in pairs)):
            gx = gz = 0
            for j, b in enumerate(sifted.pivots):
                if mask >> j & 1:
                    gx, gz = gx ^ b.x_mask, gz ^ b.z_mask
            strings.append(PauliElement(0, gx, gz, n))
        start = action_arrays([PauliElement(0, 0, 0, n)], n)
        factors = action_arrays(strings, n)
        self.actions = x, z, phase = subset_products(start, factors).dense()
        # element n is i^q_n times the string with its masks, and u^m its
        # phase part: sorting by (m, t) needs no sort
        keys = x << n | z
        by_key = np.argsort(keys)
        ex, ez, ephase = group.action_arrays.dense()
        self.string_of = by_key[np.searchsorted(keys[by_key], ex << n | ez)]
        self.phase_of = _ROOT_VALUES[(ephase - phase[self.string_of]) % 4]
        self.phase_count = group.order >> (c + 2 * h)
        self.by_string = np.empty(group.order, dtype=np.int64)
        order = group.coordinate_matrix[:, 0] * np.int64(len(x)) + self.string_of
        self.by_string[order] = np.arange(group.order)
        self.multiplicity, self.identity = 1 << (n - c - h), np.eye(1 << h)
        self._bits = [*range(c), *range(c + h, c + 2 * h)]
        blocks, ket = np.arange(1 << c)[:, None, None], np.arange(1 << h)
        self._gather = blocks | (ket[:, None] ^ ket) << c | ket << (c + h)

    def blocks(self, coefficients: np.ndarray) -> np.ndarray:
        """(..., 2^c, 2^h, 2^h) blocks of sum_t coefficients[..., t] V_t."""
        return _walsh(coefficients, self._bits)[..., self._gather]

    def coefficients(self, blocks: np.ndarray) -> np.ndarray:
        """The string coefficients of ``blocks``, inverting ``blocks``."""
        flat = np.empty(blocks.shape[:-3] + (self._gather.size,), dtype=complex)
        flat[..., self._gather] = blocks
        return _walsh(flat, self._bits) / (1 << len(self._bits))

    def moments(self, psi: np.ndarray) -> np.ndarray:
        """The state's reduced blocks sigma, <psi|A|psi> = sum_l tr(A_l sigma_l),
        from the expectations e_t = <psi|V_t|psi>: sigma = blocks(conj(e)) /
        2^(c + h).  One Walsh-Hadamard transform of conj(psi[b ^ x]) psi[b]
        over b gives e_t for every string of x mask x, the masks taken
        ``_BLOCK_ENTRIES`` entries at a time.  The blocks must be Hermitian
        and positive semidefinite with traces summing to 1, within
        ``IRREP_WEIGHT_TOL``."""
        x, z, phase = self.actions
        kets, bits = np.arange(len(psi)), range(len(psi).bit_length() - 1)
        by_mask = np.argsort(x)
        starts = np.flatnonzero(np.diff(x[by_mask], prepend=-1))
        masks, bounds = x[by_mask[starts]], np.append(starts, len(x))
        expectations = np.empty(len(x), dtype=complex)
        rows, rows_of = max(1, _BLOCK_ENTRIES // len(psi)), np.searchsorted(masks, x)
        for lo in range(0, len(masks), rows):
            spectra = _walsh(psi[kets ^ masks[lo : lo + rows, None]].conj() * psi, bits)
            part = by_mask[bounds[lo] : bounds[min(lo + rows, len(masks))]]
            expectations[part] = spectra[rows_of[part] - lo, z[part]]
        expectations *= _ROOT_VALUES[phase]
        sigma = self.blocks(expectations.conj()) / (1 << len(self._bits))
        trace = np.trace(sigma, axis1=-2, axis2=-1).sum()
        skew = np.abs(sigma - sigma.conj().swapaxes(-1, -2)).max()
        low = np.linalg.eigvalsh(sigma).min()
        # written so that NaN blocks fail too
        if not np.max([abs(trace - 1), skew, -low]) <= IRREP_WEIGHT_TOL:
            raise AssertionError(f"moment blocks {sigma} are not a state")
        return sigma


def _draw(basis: _BlockBasis, n_ops: int, seed, attempts: int = 1) -> np.ndarray:
    """The seeded draw over the elements as (n_ops, 2^c, 2^h, 2^h) blocks, each
    block's operators replaced by the polar factor U V^dag of their stack,
    ``_polar`` for h <= 1 and one stacked SVD for h >= 2: one draw for an int
    seed, one per seed of a sequence.  A draw whose S has an eigenvalue below
    ``DEGENERATE_S_TOL`` is redrawn at seed + 1, + 2, ...; DegenerateKrausError
    after ``attempts`` draws."""
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    # the string coefficients of sum_n a_n G_n, G_n = i^q_n V_(t_n), in blocks
    # with each block's operators stacked; rebound so that the draw is held once
    hat = _raw_coefficients(n_ops, len(basis.string_of), seed)
    hat *= basis.phase_of
    hat = hat[..., basis.by_string].reshape(*hat.shape[:-1], basis.phase_count, -1)
    hat = np.moveaxis(basis.blocks(hat.sum(axis=-2)), -4, -3)
    shape = hat.shape
    if shape[-1] > 2:
        u, sigma, vh = np.linalg.svd(hat.reshape(*shape[:-3], -1, shape[-1]), False)
        hat = np.moveaxis((u @ vh).reshape(shape), -3, -4)
        low = sigma.min(axis=(-2, -1)) ** 2
    else:
        hat, low = _polar(hat.reshape(*shape[:-3], -1, shape[-1]))
        hat, low = np.moveaxis(hat.reshape(shape), -3, -4), low.min(axis=-1)
    # written so that NaN fails both checks
    redo = np.flatnonzero(~(low >= DEGENERATE_S_TOL))
    if redo.size and attempts > 1:
        hat[redo] = _draw(basis, n_ops, [seed[i] + 1 for i in redo], attempts - 1)
    elif redo.size:
        message = f"normalization matrix is singular (min eigenvalue {low.min():.3e})"
        raise DegenerateKrausError(message + "; reseed and retry")
    # ||sum A^dag A - I||_F, each block counted multiplicity times
    excess = (hat.conj().swapaxes(-1, -2) @ hat).sum(axis=-4) - basis.identity
    defect = np.sqrt(basis.multiplicity * (np.abs(excess) ** 2).sum(axis=(-3, -2, -1)))
    if not defect.max() <= KRAUS_NORM_TOL:
        raise ChannelConstraintError(
            f"sum A^dag A deviates from identity by {defect.max():.3e}"
        )
    return hat


def _polar(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The polar factor of each m x 1 or m x 2 matrix of ``stack`` in closed
    form, and its smallest squared singular value, 0 for a zero or dependent
    column.  One column is normalized; two are Q R by classical Gram-Schmidt
    run twice, R = [[a, b], [0, d]], and U V^dag = Q (R + ad R^(-dag)) =
    Q [[a + d, b], [-conj(b), a + d]] over its norm sqrt((a + d)^2 + |b|^2)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.linalg.norm(stack[..., :1], axis=-2, keepdims=True)
        q = stack[..., :1] / a
        if stack.shape[-1] == 1:
            return q, a[..., 0, 0] ** 2
        r, b = stack[..., 1:], 0
        for _ in range(2):
            step = (q.conj() * r).sum(axis=-2, keepdims=True)
            r, b = r - q * step, b + step
        d = np.linalg.norm(r, axis=-2, keepdims=True)
        q2, s = r / d, a + d
        u = np.concatenate([s * q - b.conj() * q2, b * q + s * q2], axis=-1)
        u /= np.sqrt(s**2 + np.abs(b) ** 2)
        # S = R^dag R in squares: trace f, det ad; f^2 - 4ad = (a - d)^2 + b (f + a + d)
        a, b, d = (np.abs(v[..., 0, 0]) ** 2 for v in (a, b, d))
        f = a + b + d
        low = 2 * a * d / (f + np.sqrt((a - d) ** 2 + b * (f + a + d)))
    return u, np.nan_to_num(low)


# ---------------------------------------------------------------------------
# channel construction and application
# ---------------------------------------------------------------------------


def random_group_algebra_kraus(
    group: PauliSubgroup, n_ops: int, seed: int
) -> KrausSet:
    """Random trace-preserving channel inside the group algebra.

    The draw is made and corrected in the block basis, and only the
    result is densified.  ``coefficients`` spread each string's c_t over
    its |Z| elements i^q V_t as c_t i^(-q)/|Z|, the minimum-norm
    coefficients over the elements, and the operators are built from them.

    Raises:
        DegenerateKrausError: the raw draw's S has an eigenvalue below
            ``DEGENERATE_S_TOL``, reseed and retry.
    """
    _require_dense(group.n_qubits)
    matrices = [to_matrix(e) for e in group.elements]
    return _algebra_kraus(group, _BlockBasis(group), matrices, n_ops, seed)


def _algebra_kraus(
    group: PauliSubgroup,
    basis: _BlockBasis,
    matrices: list[np.ndarray],
    n_ops: int,
    seed: int,
) -> KrausSet:
    """``random_group_algebra_kraus`` over a built block basis and the
    dense matrices of the group's elements, which a caller drawing many
    channels of one group builds once."""
    strings = basis.coefficients(_draw(basis, n_ops, seed))
    spread = strings[:, basis.string_of] * basis.phase_of.conj() / basis.phase_count
    return KrausSet(
        n_qubits=group.n_qubits,
        operators=tuple(sum(c * m for c, m in zip(row, matrices)) for row in spread),
        group=group,
        coefficients=spread,
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


class ScanReport(NamedTuple):
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
        return self._asdict() | {
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
    trial gets its own derived seed, shifted by one per redraw of a
    degenerate draw, up to nine draws.  Every group is scanned in its block
    basis, against the state's moment blocks, once ``require_scan_work``
    has passed, the trials in stacks of ``_BLOCK_ENTRIES`` draw entries.
    Fidelity is sum_d |<psi|A_d|psi>|^2, psi the unit vector along ``state``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_scan_work(group.sifted, trials, n_ops)
    psi = _unit_vector(state)
    dim = 1 << group.n_qubits
    if psi.shape != (dim,):
        raise ValueError(f"state shape {psi.shape} != ({dim},)")
    basis = _BlockBasis(group)
    moments = basis.moments(psi)
    seeds = [seed * 1_000_003 + t * 97 for t in range(trials)]
    rows = max(1, _BLOCK_ENTRIES // (n_ops * group.order))
    purities, fidelities = [], []
    for lo in range(0, trials, rows):
        hat = _draw(basis, n_ops, seeds[lo : lo + rows], attempts=9)
        # the Gram matrix <psi|A_e^dag A_d|psi> = sum_l tr(A_e^dag A_d
        # sigma_l) of the vectors A_d psi has the nonzero spectrum of the
        # evolved density matrix
        gram = np.einsum("telki,tdlki->tde", hat.conj(), hat @ moments)
        assert_density_matrix(gram)
        purities += (np.abs(gram) ** 2).sum(axis=(1, 2)).tolist()
        expectations = np.einsum("tdlij,lji->td", hat, moments)
        fidelities += (np.abs(expectations) ** 2).sum(axis=1).tolist()
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


class ProbeReport(NamedTuple):
    """Outcome of the constrained-versus-generic channel comparison."""

    draws: int
    unconstrained_failures: int
    constrained_failures: int
    min_unconstrained_residual: float
    max_constrained_residual: float
    failure_threshold: float

    def to_json_dict(self) -> dict:
        return self._asdict()


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
    basis = _BlockBasis(group)
    matrices = [to_matrix(e) for e in group.elements]
    terms = _q8_term_matrices()
    code = q8_code_states()

    seeds = range(seed * 131, seed * 131 + draws)
    generic = (_algebra_kraus(group, basis, matrices, 2, s) for s in seeds)
    unconstrained = [code_fix_residual(kraus, code) for kraus in generic]
    constrained = []
    # per draw: c, beta and e, real parts then imaginary parts
    for row in seeded_normals(seed, 10 * draws).reshape(draws, 2, 5):
        c, beta, e = np.split(row[0] + 1j * row[1], [2, 3])
        c = c / np.linalg.norm(c)
        tail = np.concatenate([beta * [-np.conj(c[1]), np.conj(c[0])], e])
        kraus = _q8_kraus(group, terms, c[0], c[1], *tail / np.linalg.norm(tail))
        constrained.append(code_fix_residual(kraus, code))
    return ProbeReport(
        draws=draws,
        unconstrained_failures=sum(r > threshold for r in unconstrained),
        constrained_failures=sum(r > threshold for r in constrained),
        min_unconstrained_residual=float(min(unconstrained, default=np.inf)),
        max_constrained_residual=float(max(constrained, default=0.0)),
        failure_threshold=threshold,
    )
