"""Seeded random subgroup generation for the property suites.

The Abelian sampler draws commuting generators and can steer the phase
content of the closure, because the closed-form dimension results only
cover two situations: subgroups whose sole identity multiple is +I, and
subgroups containing the full phase group {+-I, +-iI}.  Commuting
sign-free generators can still close onto -I (products of overlapping
strings pick up signs), so the "none" mode rejects such draws and falls
back to diagonal strings, while the "full" mode simply adjoins iI.
"""

from __future__ import annotations

import numpy as np

from paulidfs.pauli import PauliElement, commutes
from paulidfs.subgroup import PauliSubgroup, closure


def random_element(
    rng: np.random.Generator, n_qubits: int, allow_phase: bool = True
) -> PauliElement:
    full = (1 << n_qubits) - 1
    phase = int(rng.integers(0, 4)) if allow_phase else 0
    return PauliElement(
        phase,
        int(rng.integers(0, full + 1)),
        int(rng.integers(0, full + 1)),
        n_qubits,
    )


def random_abelian_subgroup(
    rng: np.random.Generator,
    n_qubits: int,
    max_generators: int | None = None,
    phases: str = "any",
) -> PauliSubgroup:
    """Random Abelian subgroup built from a sifted commuting generator set.

    ``phases`` selects the identity-multiple content of the closure:

    * ``"none"``: only +I (rejection sampling with a diagonal-string
      fallback, at most 32 retries);
    * ``"full"``: iI is adjoined, so all of {+-I, +-iI} are present;
    * ``"any"``: whatever the draw produces.
    """
    if phases not in ("none", "full", "any"):
        raise ValueError(f"unknown phases mode {phases!r}")
    cap = max_generators if max_generators is not None else n_qubits
    cap = max(1, min(cap, n_qubits))
    for _ in range(32):
        r = int(rng.integers(1, cap + 1))
        gens: list[PauliElement] = []
        for _ in range(8 * r):
            if len(gens) == r:
                break
            candidate = random_element(
                rng, n_qubits, allow_phase=(phases == "any")
            )
            if candidate.is_identity_multiple and phases != "any":
                continue
            if all(commutes(candidate, g) for g in gens):
                gens.append(candidate)
        if phases == "full":
            gens.append(PauliElement(1, 0, 0, n_qubits))
        group = closure(gens, n_qubits=n_qubits)
        if not group.is_abelian:
            continue
        if phases == "none" and group.contains_minus_identity:
            continue
        return group
    if phases == "none":
        # diagonal strings multiply without ever producing a sign
        gens = []
        for _ in range(cap):
            z = int(rng.integers(1, 1 << n_qubits))
            gens.append(PauliElement(0, 0, z, n_qubits))
        return closure(gens, n_qubits=n_qubits)
    raise RuntimeError("abelian sampling failed to converge")


def random_nonabelian_subgroup(
    rng: np.random.Generator,
    n_qubits: int,
    max_generators: int | None = None,
    order_cap: int = 1 << 16,
) -> PauliSubgroup:
    """Random subgroup guaranteed to contain an anticommuting pair."""
    cap = max_generators if max_generators is not None else n_qubits + 2
    for _ in range(256):
        r = int(rng.integers(2, cap + 1))
        gens = [random_element(rng, n_qubits) for _ in range(r)]
        if all(
            commutes(a, b)
            for i, a in enumerate(gens)
            for b in gens[i + 1 :]
        ):
            continue
        group = closure(gens, n_qubits=n_qubits, order_cap=order_cap)
        if not group.is_abelian:
            return group
    raise RuntimeError("nonabelian sampling failed to converge")


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unit vector."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)
