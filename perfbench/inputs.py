"""Seeded job lists for the three benchmark workloads.

Every job is a ``paulidfs`` command line plus the facts its output is
checked against.  Pauli strings are drawn here with a small symplectic
implementation of their own (bit masks over GF(2) and a per-qubit product
table), so the program under test receives nothing but strings: no code
of the package is used to make or to predict its inputs.

Shapes are fixed per workload: qubit count K, symplectic rank r and phase
class.  The seed only chooses which strings realise a shape, so the work
per job stays the same from seed to seed while the inputs differ.

Phase classes of an Abelian group, with Z its subgroup of identity
multiples and N = |Z| * 2^r its order:

    plus   Z = {+I}            r independent commuting Hermitian strings
    minus  Z = {+I, -I}        plus -(product of some generators)
    full   Z = {+-I, +-iI}     plus +-i (product of some generators)

Every list also carries one redundant generator, the exact product of
other generators, which leaves the group unchanged but makes the closure
and the sift see a dependent string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Trials per verification and per channel scan, as the CLI default.
TRIALS = 32

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_SIGNS = {0: "+", 1: "+i", 2: "-", 3: "-i"}
#: Phase exponent k of a * b = i^k c for distinct non-identity letters.
_PRODUCT_PHASE = {
    ("X", "Y"): 1, ("Y", "Z"): 1, ("Z", "X"): 1,
    ("Y", "X"): 3, ("Z", "Y"): 3, ("X", "Z"): 3,
}
#: Orders of the four-qubit Abelian presets.
_PRESET_ORDERS = {"qx": 4, "q4": 4, "q2z": 8}


@dataclass(frozen=True)
class Pauli:
    """i^phase times a Hermitian Pauli string, as masks over K qubits."""

    phase: int
    x: int
    z: int
    k: int

    def letters(self) -> str:
        return "".join(
            _LETTERS[((self.x >> j) & 1, (self.z >> j) & 1)]
            for j in range(self.k - 1, -1, -1)
        )

    def text(self) -> str:
        return _SIGNS[self.phase % 4] + self.letters()


def multiply(p: Pauli, q: Pauli) -> Pauli:
    """Exact product p * q, letter by letter."""
    phase = p.phase + q.phase
    for a, b in zip(p.letters(), q.letters()):
        if a != "I" and b != "I" and a != b:
            phase += _PRODUCT_PHASE[(a, b)]
    return Pauli(phase % 4, p.x ^ q.x, p.z ^ q.z, p.k)


def anticommute(p: Pauli, q: Pauli) -> bool:
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 1


def _reduce(vector: int, basis: dict[int, int]) -> int:
    """Remainder of ``vector`` against a GF(2) basis keyed by leading bit."""
    while vector:
        lead = vector.bit_length() - 1
        if lead not in basis:
            return vector
        vector ^= basis[lead]
    return 0


def _commutant_sample(rng: random.Random, chosen: list[Pauli], k: int) -> Pauli:
    """Uniform random string commuting with every string in ``chosen``.

    Commuting with s is one parity equation on the 2K bits of the
    candidate, with the x and z halves of s swapped.  The equations are
    brought to reduced row echelon form; free bits are drawn at random and
    each pivot bit is then set to satisfy its own equation.
    """
    rows: dict[int, int] = {}
    for s in chosen:
        row = (s.z << k) | s.x
        for lead, pivot_row in rows.items():
            if (row >> lead) & 1:
                row ^= pivot_row
        if not row:
            continue
        lead = row.bit_length() - 1
        for other in list(rows):
            if (rows[other] >> lead) & 1:
                rows[other] ^= row
        rows[lead] = row
    vector = rng.getrandbits(2 * k)
    for lead, row in rows.items():
        vector &= ~(1 << lead)
        if (vector & row).bit_count() % 2:
            vector |= 1 << lead
    return Pauli(0, vector >> k, vector & ((1 << k) - 1), k)


def independent_strings(
    rng: random.Random, k: int, r: int, commuting: bool = True, z_only: bool = False
) -> list[Pauli]:
    """r strings with random signs whose X parts (Z parts for ``z_only``)
    are independent, so their symplectic vectors are independent too.

    With ``commuting`` false the last string anticommutes with at least
    one of the others, so the group they generate is non-Abelian.
    """
    chosen: list[Pauli] = []
    span: dict[int, int] = {}
    while len(chosen) < r:
        last = len(chosen) == r - 1
        if z_only:
            p = Pauli(0, 0, rng.getrandbits(k), k)
            remainder = _reduce(p.z, span)
        else:
            if last and not commuting:
                p = Pauli(0, rng.getrandbits(k), rng.getrandbits(k), k)
                if not any(anticommute(p, q) for q in chosen):
                    continue
            else:
                p = _commutant_sample(rng, chosen, k)
            # independent X parts fix how many basis kets each DFS basis
            # vector spans, and with it the size of the JSON output
            remainder = _reduce(p.x, span)
        if not remainder:
            continue
        span[remainder.bit_length() - 1] = remainder
        chosen.append(Pauli(rng.choice((0, 2)), p.x, p.z, k))
    return chosen


def _subset_product(rng: random.Random, gens: list[Pauli]) -> Pauli:
    picked = rng.sample(gens, rng.randint(1, min(3, len(gens))))
    product = picked[0]
    for g in picked[1:]:
        product = multiply(product, g)
    return product


def abelian_generators(
    rng: random.Random, k: int, r: int, phase_class: str, z_only: bool = False
) -> tuple[list[Pauli], int]:
    """Shuffled generator list of the given shape and its group order."""
    gens = independent_strings(rng, k, r, z_only=z_only)
    extra = [_subset_product(rng, gens)]
    z_size = 1
    if phase_class == "minus":
        p = _subset_product(rng, gens)
        extra.append(Pauli((p.phase + 2) % 4, p.x, p.z, k))
        z_size = 2
    elif phase_class == "full":
        p = _subset_product(rng, gens)
        extra.append(Pauli((p.phase + rng.choice((1, 3))) % 4, p.x, p.z, k))
        z_size = 4
    gens += extra
    rng.shuffle(gens)
    return gens, z_size << r


def nonabelian_generators(rng: random.Random, k: int, r: int) -> tuple[list[Pauli], int]:
    """Hermitian strings with one anticommuting pair, plus -I.

    The group's only identity multiples are +-I, so its order is 2^(r+1).
    The commutator of the pair is -I already; listing it fixes the phase
    part of the sifted generators, and with it the number of eigenspace
    branches the non-Abelian search explores, whatever the seed.
    """
    gens = independent_strings(rng, k, r, commuting=False) + [Pauli(2, 0, 0, k)]
    rng.shuffle(gens)
    return gens, 2 << r


@dataclass(frozen=True)
class Job:
    """One CLI run and the invariants its JSON report must satisfy."""

    name: str
    argv: tuple[str, ...]
    kind: str  # "abelian", "nonabelian" or "channel"
    n_qubits: int
    order: int
    in_irrep: bool = False


def _analyze(name, gens, order, k, kind, seed) -> Job:
    argv = ("analyze", "--json", "--trials", str(TRIALS), "--seed", str(seed), "--")
    return Job(name, argv + tuple(g.text() for g in gens), kind, k, order)


def _channel(name, gens, order, k, state, in_irrep, seed) -> Job:
    argv = (
        "channel", "--json", "--trials", str(TRIALS), "--seed", str(seed),
        "--state", state, "--",
    )
    return Job(name, argv + tuple(g.text() for g in gens), "channel", k, order, in_irrep)


def _preset(name: str, seed: int) -> Job:
    argv = ("preset", name, "--json", "--trials", str(TRIALS), "--seed", str(seed))
    if name == "q8":
        return Job("preset-q8", argv, "nonabelian", 3, 8)
    return Job(f"preset-{name}", argv, "abelian", 4, _PRESET_ORDERS[name])


def _ket(bits: int, k: int) -> str:
    return format(bits, f"0{k}b")


def large_order(rng: random.Random, seed: int) -> list[Job]:
    """Abelian groups of order 256-1024 above the dense limit."""
    jobs = []
    for k, r, phase_class in (
        (14, 8, "plus"),
        (15, 8, "minus"),
        (16, 8, "full"),
        (17, 9, "plus"),
        (19, 9, "minus"),
    ):
        gens, order = abelian_generators(rng, k, r, phase_class)
        jobs.append(_analyze(f"K{k}-N{order}-{phase_class}", gens, order, k, "abelian", seed))
    return jobs


def dense_dfs(rng: random.Random, seed: int) -> list[Job]:
    """Small groups at K = 8-10, where bases and verification are dense."""
    jobs = []
    for k, r, phase_class in ((9, 3, "plus"), (9, 3, "minus"), (8, 1, "full")):
        gens, order = abelian_generators(rng, k, r, phase_class)
        jobs.append(_analyze(f"K{k}-N{order}-{phase_class}", gens, order, k, "abelian", seed))
    for k, r in ((8, 3), (10, 2)):
        gens, order = nonabelian_generators(rng, k, r)
        jobs.append(_analyze(f"K{k}-N{order}-nonabelian", gens, order, k, "nonabelian", seed))
    jobs += [_preset(name, seed) for name in ("qx", "q4", "q2z", "q8")]
    return jobs


def channel_scan(rng: random.Random, seed: int) -> list[Job]:
    """Random group-algebra channels at K = 6-8 against chosen states."""
    jobs = []
    # Z-type groups: every computational basis ket lies inside one irrep.
    for k, label in ((6, "ket"), (8, "ket"), (8, "superposition")):
        gens, order = abelian_generators(rng, k, 2, "plus", z_only=True)
        ket = rng.getrandbits(k)
        if label == "ket":
            state, in_irrep = f"|{_ket(ket, k)}>", True
        else:
            # flipping a qubit that a generator acts on changes its
            # eigenvalue, so the two kets lie in different irreps
            support = next(g.z for g in gens if g.z)
            flip = 1 << rng.choice([j for j in range(k) if (support >> j) & 1])
            state = f"0.6|{_ket(ket, k)}>+0.8|{_ket(ket ^ flip, k)}>"
            in_irrep = False
        jobs.append(_channel(f"K{k}-N{order}-z-{label}", gens, order, k, state, in_irrep, seed))
    k = 7
    gens, order = abelian_generators(rng, k, 2, "full", z_only=True)
    state = f"|{_ket(rng.getrandbits(k), k)}>"
    jobs.append(_channel(f"K{k}-N{order}-z-iI", gens, order, k, state, True, seed))
    k = 6
    gens, order = nonabelian_generators(rng, k, 3)
    state = f"|{_ket(rng.getrandbits(k), k)}>"
    jobs.append(_channel(f"K{k}-N{order}-nonabelian", gens, order, k, state, False, seed))
    return jobs


WORKLOADS = {
    "large_order": large_order,
    "dense_dfs": dense_dfs,
    "channel_scan": channel_scan,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, seed % (1 << 31))
