import numpy as np

from paulidfs.channels import (
    DegenerateKrausError,
    apply_channel,
    density_matrix_from_state,
    purity,
    random_group_algebra_kraus,
    state_fidelity,
)
from paulidfs.dfs import projector
from paulidfs.subgroup import decompose, sift_generators


def ket(bits: str) -> np.ndarray:
    """Computational basis ket from a bit string, qubit 1 leftmost."""
    state = np.zeros(1 << len(bits), dtype=complex)
    state[int(bits, 2)] = 1.0
    return state


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


def reference_decoherence_scan(group, state, trials, seed, n_ops=2):
    """Purities and fidelities of a scan through dense Kraus operators.

    Reference oracle for ``decoherence_scan``: every trial builds its
    channel with ``random_group_algebra_kraus`` from the scan's derived
    seed, reseeding a degenerate draw up to 8 times, and applies it to
    |state><state| with ``apply_channel``.  Builds N 2^K x 2^K matrices
    per trial.
    """
    rho0 = density_matrix_from_state(state)
    purities, fidelities = [], []
    for t in range(trials):
        attempt = 0
        while True:
            trial_seed = seed * 1_000_003 + t * 97 + attempt
            try:
                kraus = random_group_algebra_kraus(group, n_ops, trial_seed)
                break
            except DegenerateKrausError:
                attempt += 1
                if attempt > 8:
                    raise
        rho = apply_channel(kraus, rho0)
        purities.append(purity(rho))
        fidelities.append(state_fidelity(state, rho))
    return purities, fidelities
