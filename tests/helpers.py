import numpy as np

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
