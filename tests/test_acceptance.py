"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see them inline.
"""

import contextlib

import numpy as np

from paulidfs import (
    DfsBasis,
    apply_channel,
    characters,
    code_fix_residual,
    decoherence_scan,
    density_matrix_from_state,
    dfs_basis,
    dimension_formula,
    format_pauli,
    multiplicity,
    nonabelian_one_dim_search,
    parse_pauli,
    projector,
    projector_rank,
    q8_code_states,
    q8_genericity_probe,
    random_group_algebra_kraus,
    subspace_distance,
    uniform_group_channel,
    verify_dfs,
)
from paulidfs.cli import build_preset_report
from paulidfs.presets import plane_invariance_residual, preset_group
from paulidfs.sampling import (
    random_abelian_subgroup,
    random_nonabelian_subgroup,
    random_state,
)
from helpers import ket


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def supported_characters(group):
    return [c for c in characters(group) if multiplicity(group, c) > 0]


def test_criterion_1_qx_reproduction():
    with criterion(1, "Q_X characters, multiplicities, basis span, eigenvalues"):
        report = build_preset_report("qx", trials=8, seed=0, dense_limit=12)
        table = report["character_table"]
        table_order = ["+IIII", "+XXII", "+IIXX", "+XXXX"]
        index = [table["elements"].index(e) for e in table_order]
        rows = {
            tuple(row["values"][i] for i in index) for row in table["rows"]
        }
        assert rows == {
            ("+1", "+1", "+1", "+1"),
            ("+1", "+1", "-1", "-1"),
            ("+1", "-1", "+1", "-1"),
            ("+1", "-1", "-1", "+1"),
        }
        assert len(table["rows"]) == 4
        assert [c["multiplicity"] for c in report["characters"]] == [4, 4, 4, 4]

        qx = preset_group("qx")
        chars = characters(qx)
        trivial_basis = dfs_basis(qx, chars[0])
        listed = [
            ket("0000") + ket("1100") + ket("0011") + ket("1111"),
            ket("0001") + ket("1101") + ket("0010") + ket("1110"),
            ket("0100") + ket("1000") + ket("0111") + ket("1011"),
            ket("1001") + ket("0101") + ket("1010") + ket("0110"),
        ]
        assert subspace_distance(trivial_basis.vectors, listed) < 1e-10

        for char in chars:
            basis = dfs_basis(qx, char)
            verification = verify_dfs(qx, basis, trials=8, seed=0)
            assert verification.passed
            signs = np.array([char.values[e] for e in qx.elements])
            for trial in verification.trials:
                pattern = complex(np.dot(trial.coefficients, signs))
                assert abs(trial.eigenvalue - pattern) < 1e-10


def test_criterion_2_q4_reproduction():
    with criterion(2, "Q_4 trivial-character span and annihilated projections"):
        q4 = preset_group("q4")
        chars = characters(q4)
        basis = dfs_basis(q4, chars[0])
        listed = [
            ket("0000") + ket("1111"),
            ket("0011") + ket("1100"),
            ket("0101") + ket("1010"),
            ket("1001") + ket("0110"),
        ]
        assert basis.multiplicity == 4
        assert subspace_distance(basis.vectors, listed) < 1e-10

        x4, y4, z4 = (parse_pauli(s) for s in ("XXXX", "YYYY", "ZZZZ"))
        gamma2 = next(
            c for c in chars
            if (c.values[x4], c.values[y4], c.values[z4]) == (1, -1, -1)
        )
        gamma3 = next(
            c for c in chars
            if (c.values[x4], c.values[y4], c.values[z4]) == (-1, 1, -1)
        )
        zero = ket("0000")
        for char in (gamma2, gamma3):
            assert np.linalg.norm(projector(q4, char).matrix @ zero) < 1e-12


def test_criterion_3_qz_reproduction():
    with criterion(3, "Q_Z computational-basis DFSs and dephasing channel"):
        qz = preset_group("qz")
        chars = characters(qz)
        assert [multiplicity(qz, c) for c in chars] == [1, 1, 1, 1]
        supports = set()
        for char in chars:
            basis = dfs_basis(qz, char)
            vec = basis.vectors[0]
            magnitudes = sorted(np.abs(vec))
            assert magnitudes[-1] > 1 - 1e-12 and magnitudes[-2] < 1e-12
            supports.add(int(np.argmax(np.abs(vec))))
        assert supports == {0, 1, 2, 3}

        dephasing = uniform_group_channel(qz)
        # one operator per element, each with coefficient 1/2
        assert np.allclose(dephasing.coefficients, np.eye(4) / 2, atol=1e-15)
        plus = np.array([1, 1]) / np.sqrt(2)
        rho = density_matrix_from_state(np.kron(plus, [1, 0]))
        evolved = apply_channel(dephasing, rho)
        off_diagonal = evolved - np.diag(np.diag(evolved))
        assert np.max(np.abs(off_diagonal)) < 1e-12
        assert np.max(np.abs(np.diag(evolved) - np.diag(rho))) < 1e-12


def test_criterion_4_q2z_reproduction():
    with criterion(4, "Q_2Z two-dimensional DFS and exact closure"):
        q2z = preset_group("q2z")
        listed = {
            "+IIII", "+ZZII", "+ZIIZ", "+IIZZ", "+ZIZI", "+IZZI", "+IZIZ",
            "+ZZZZ",
        }
        assert {format_pauli(e) for e in q2z.elements} == listed
        trivial = characters(q2z)[0]
        assert multiplicity(q2z, trivial) == 2
        basis = dfs_basis(q2z, trivial)
        assert subspace_distance(basis.vectors, [ket("0000"), ket("1111")]) < 1e-10


def test_criterion_5_dimension_formula_sweep():
    with criterion(5, "closed-form multiplicities across random subgroups"):
        rng = np.random.default_rng(2024)
        for n_qubits in range(2, 9):
            max_generators = n_qubits if n_qubits <= 5 else 4
            for index in range(50):
                phases, klass = (
                    ("none", "no_phase_factors")
                    if index % 2 == 0
                    else ("full", "contains_minus_identity")
                )
                group = random_abelian_subgroup(
                    rng, n_qubits, max_generators=max_generators, phases=phases
                )
                closed_form = dimension_formula(n_qubits, group.order, klass)
                chars = characters(group)
                mults = {c.label: multiplicity(group, c) for c in chars}
                supported = {m for m in mults.values() if m > 0}
                assert supported == {closed_form}
                assert sum(mults.values()) == 1 << n_qubits

                # dense identity rank(P) = trace(P) = |basis|: all characters
                # at small K, all supported ones at large K (the unsupported
                # zero projectors are fully covered at K <= 5)
                for char in chars:
                    m = mults[char.label]
                    if n_qubits > 5 and m == 0:
                        continue
                    proj = projector(group, char)
                    trace = np.trace(proj.matrix)
                    assert abs(trace.real - m) < 1e-8
                    assert abs(trace.imag) < 1e-10
                    assert projector_rank(proj.matrix) == m
                    assert dfs_basis(group, char).multiplicity == m


def test_criterion_6_nonabelian_impossibility():
    with criterion(6, "no joint eigenvectors for non-Abelian subgroups"):
        q8 = preset_group("q8")
        assert nonabelian_one_dim_search(q8).is_empty
        assert plane_invariance_residual(q8) < 1e-12

        rng = np.random.default_rng(77)
        for index in range(100):
            n_qubits = 2 + index % 4  # K in {2..5}
            group = random_nonabelian_subgroup(rng, n_qubits)
            assert not group.is_abelian
            assert nonabelian_one_dim_search(group).is_empty


def test_criterion_7_necessity_probe():
    with criterion(7, "cross-irrep superpositions fail verification"):
        groups = [preset_group(n) for n in ("qz", "qx", "q4", "q2z")]
        rng = np.random.default_rng(99)
        attempts = 0
        while len(groups) < 16 and attempts < 200:
            attempts += 1
            n_qubits = 2 + attempts % 3
            candidate = random_abelian_subgroup(rng, n_qubits, phases="any")
            if len(supported_characters(candidate)) >= 2:
                groups.append(candidate)
        assert len(groups) >= 12

        for group in groups:
            first, second = supported_characters(group)[:2]
            basis_a = dfs_basis(group, first)
            basis_b = dfs_basis(group, second)
            # random unit vector with components in both irreps
            pieces = list(basis_a.vectors) + list(basis_b.vectors)
            weights = rng.standard_normal(len(pieces)) + 1j * rng.standard_normal(
                len(pieces)
            )
            weights[0] += 2.0  # keep a solid component in each irrep
            weights[len(basis_a.vectors)] += 2.0
            vec = sum(w * v for w, v in zip(weights, pieces))
            vec /= np.linalg.norm(vec)
            mixed = DfsBasis.from_vectors(first, (vec,))
            report = verify_dfs(group, mixed, trials=32, seed=0)
            assert not report.passed
            assert sum(t.max_residual > 1e-6 for t in report.trials) >= 1


def test_criterion_8_nongeneric_code():
    with criterion(8, "constrained channels fix the code, generic ones break it"):
        probe = q8_genericity_probe(seed=0, draws=64)
        assert probe.constrained_failures == 0
        assert probe.max_constrained_residual < 1e-10
        assert probe.unconstrained_failures >= 63

        # explicit constrained draws: normalization and common-scalar fixing
        rng = np.random.default_rng(41)
        from paulidfs import q8_constrained_kraus

        code = q8_code_states()
        for _ in range(8):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c /= np.linalg.norm(c)
            beta = rng.standard_normal() + 1j * rng.standard_normal()
            d = beta * np.array([-np.conj(c[1]), np.conj(c[0])])
            e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            tail = np.concatenate([d, e])
            tail /= np.linalg.norm(tail)
            kraus = q8_constrained_kraus(
                c[0], c[1], tail[0], tail[1], tail[2], tail[3]
            )
            assert kraus.normalization_defect() < 1e-9
            for op, shared in zip(kraus.operators, c):
                for state in code:
                    assert np.linalg.norm(op @ state - shared * state) < 1e-10
            assert code_fix_residual(kraus, code) < 1e-10


def test_criterion_9_oracle_equivalence():
    with criterion(9, "joint-eigenspace oracle matches character projectors"):
        rng = np.random.default_rng(314)
        groups = [preset_group(n) for n in ("qz", "qx", "q4", "q2z")]
        for n_qubits in range(1, 5):
            for _ in range(10):
                groups.append(
                    random_abelian_subgroup(rng, n_qubits, phases="any")
                )
        for group in groups:
            spaces = nonabelian_one_dim_search(group).spaces
            by_row = {
                tuple(s.eigenvalues[e] for e in group.elements): s
                for s in spaces
            }
            assert len(by_row) == len(spaces)
            for char in characters(group):
                m = multiplicity(group, char)
                row = tuple(char.values[e] for e in group.elements)
                if m == 0:
                    assert row not in by_row
                    continue
                space = by_row.pop(row)
                assert space.dimension == m
                basis = dfs_basis(group, char)
                assert subspace_distance(space.vectors, basis.vectors) < 1e-9
            assert not by_row


def test_criterion_10_channel_sanity():
    with criterion(10, "random channels: trace, DFS purity, cross-irrep decay"):
        rng = np.random.default_rng(123)
        for name in ("qz", "qx", "q4", "q2z"):
            group = preset_group(name)
            dim = 1 << group.n_qubits

            mixed_state = random_state(rng, dim)
            rho = density_matrix_from_state(mixed_state)
            for seed in range(32):
                kraus = random_group_algebra_kraus(group, 2, seed=seed)
                evolved = apply_channel(kraus, rho)
                assert abs(np.trace(evolved).real - 1) < 1e-9

            first, second = supported_characters(group)[:2]
            dfs_vec = dfs_basis(group, first).vectors[0]
            scan = decoherence_scan(group, dfs_vec, trials=32, seed=7)
            assert scan.min_purity > 1 - 1e-9

            cross = (
                dfs_vec + dfs_basis(group, second).vectors[0]
            ) / np.sqrt(2)
            scan = decoherence_scan(group, cross, trials=32, seed=7)
            assert scan.min_purity < 1 - 1e-3
