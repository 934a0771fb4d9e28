"""Projectors, multiplicities, bases, verification and dimension formulas."""

import numpy as np
import pytest

from paulidfs import (
    NotAbelianError,
    applicable_phase_class,
    characters,
    closure,
    dfs_basis,
    dimension_formula,
    multiplicity,
    nonabelian_one_dim_search,
    parse_pauli,
    projector,
    projector_rank,
    subspace_distance,
    to_matrix,
    verify_dfs,
)
from paulidfs.sampling import (
    random_abelian_subgroup,
    random_nonabelian_subgroup,
)
from helpers import ket


def char_by_row(group, signature: dict[str, complex]):
    """Select the character matching given values on named elements."""
    wanted = {parse_pauli(k): v for k, v in signature.items()}
    for c in characters(group):
        if all(c.values[e] == v for e, v in wanted.items()):
            return c
    raise AssertionError(f"no character matches {signature}")


class TestProjector:
    def test_qx_trivial_action_on_zero_ket(self, qx):
        proj = projector(qx, characters(qx)[0])
        projected = proj.matrix @ ket("0000")
        # (1/4)(|0000> + |1100> + |0011> + |1111>)
        expected = (
            ket("0000") + ket("1100") + ket("0011") + ket("1111")
        ) / 4
        assert np.linalg.norm(projected - expected) < 1e-12

    def test_q4_gamma2_annihilates_zero_ket(self, q4):
        gamma2 = char_by_row(
            q4, {"XXXX": 1 + 0j, "YYYY": -1 + 0j, "ZZZZ": -1 + 0j}
        )
        proj = projector(q4, gamma2)
        assert np.linalg.norm(proj.matrix @ ket("0000")) < 1e-12

    def test_idempotent_hermitian_trace(self, qx, q2z):
        for group in (qx, q2z):
            for c in characters(group):
                proj = projector(group, c)
                m = proj.matrix
                assert np.max(np.abs(m @ m - m)) < 1e-10
                assert np.max(np.abs(m - m.conj().T)) < 1e-10
                assert abs(np.trace(m).real - proj.multiplicity) < 1e-8
                assert abs(np.trace(m).imag) < 1e-10

    def test_completeness_and_orthogonality(self, q2z):
        chars = characters(q2z)
        projs = [projector(q2z, c).matrix for c in chars]
        total = sum(projs)
        assert np.max(np.abs(total - np.eye(16))) < 1e-10
        for i, pi in enumerate(projs):
            for j, pj in enumerate(projs):
                expected = pi if i == j else np.zeros_like(pi)
                assert np.max(np.abs(pi @ pj - expected)) < 1e-10

    def test_wrong_character_rejected(self, qx, qz):
        with pytest.raises(ValueError):
            projector(qz, characters(qx)[0])

    def test_same_order_other_subgroup_rejected(self, qz):
        other = closure([parse_pauli("XI"), parse_pauli("IX")])
        with pytest.raises(ValueError, match="does not belong"):
            multiplicity(other, characters(qz)[1])

    def test_equal_subgroup_from_other_generators_accepted(self, q2z):
        rebuilt = closure(list(reversed(q2z.elements)))
        assert rebuilt is not q2z and rebuilt.generators != q2z.generators
        for char in characters(q2z):
            assert multiplicity(rebuilt, char) == multiplicity(q2z, char)
            assert np.array_equal(
                projector(rebuilt, char).matrix, projector(q2z, char).matrix
            )

    def test_nonabelian_rejected(self, q8):
        fake = characters(closure([parse_pauli("ZI"), parse_pauli("IZ")]))[0]
        with pytest.raises(NotAbelianError):
            projector(q8, fake)


class TestMultiplicity:
    def test_qx_all_four(self, qx):
        assert [multiplicity(qx, c) for c in characters(qx)] == [4, 4, 4, 4]

    def test_qz_all_one(self, qz):
        assert [multiplicity(qz, c) for c in characters(qz)] == [1, 1, 1, 1]

    def test_q2z_trivial_two(self, q2z):
        chars = characters(q2z)
        assert chars[0].is_trivial
        assert multiplicity(q2z, chars[0]) == 2

    def test_symbolic_beyond_dense_limit(self):
        # 20 qubits: dense matrices impossible, exact sum still fine
        gens = [parse_pauli("Z" * 20), parse_pauli("X" * 20)]
        group = closure(gens)
        for c in characters(group):
            assert multiplicity(group, c) == 2**20 // 4

    def test_agrees_with_rank_and_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            group = random_abelian_subgroup(rng, 3, phases="any")
            for c in characters(group):
                proj = projector(group, c)
                m = multiplicity(group, c)
                assert proj.multiplicity == m
                assert projector_rank(proj.matrix) == m
                assert abs(np.trace(proj.matrix).real - m) < 1e-8


class TestDfsBasis:
    def test_q4_trivial_span(self, q4):
        basis = dfs_basis(q4, characters(q4)[0])
        expected = [
            ket("0000") + ket("1111"),
            ket("0011") + ket("1100"),
            ket("0101") + ket("1010"),
            ket("1001") + ket("0110"),
        ]
        assert basis.multiplicity == 4
        assert subspace_distance(basis.vectors, expected) < 1e-10

    def test_q2z_trivial_span(self, q2z):
        basis = dfs_basis(q2z, characters(q2z)[0])
        assert basis.multiplicity == 2
        assert subspace_distance(basis.vectors, [ket("0000"), ket("1111")]) < 1e-12

    def test_qz_single_char_is_ket(self, qz):
        gamma2 = char_by_row(qz, {"ZI": 1 + 0j, "IZ": -1 + 0j})
        basis = dfs_basis(qz, gamma2)
        assert basis.multiplicity == 1
        assert np.linalg.norm(np.abs(basis.vectors[0]) - ket("01")) < 1e-12

    def test_zero_multiplicity_empty(self):
        # i X has eigenvalues +-i; the character sending it to +1 gets nothing
        group = closure([parse_pauli("iX")])
        chars = characters(group)
        empty = [c for c in chars if multiplicity(group, c) == 0]
        assert empty
        for c in empty:
            assert dfs_basis(group, c).vectors == ()

    def test_orthonormal_and_transforming(self, qx):
        for c in characters(qx):
            basis = dfs_basis(qx, c)
            stacked = basis.stack()
            gram = stacked.conj().T @ stacked
            assert np.max(np.abs(gram - np.eye(basis.multiplicity))) < 1e-10
            for element in qx.elements:
                m = to_matrix(element)
                for vec in basis.vectors:
                    assert (
                        np.linalg.norm(m @ vec - c.values[element] * vec) < 1e-10
                    )

    def test_json_shape(self, q2z):
        data = dfs_basis(q2z, characters(q2z)[0]).to_json_dict()
        assert data["multiplicity"] == 2
        assert len(data["vectors"]) == 2
        assert len(data["vectors"][0]) == 16
        assert data["vectors"][0][0] == [1.0, 0.0]


class TestVerifyDfs:
    def test_qx_eigenvalue_patterns(self, qx):
        order = [parse_pauli(s) for s in ("IIII", "IIXX", "XXII", "XXXX")]
        assert [format(e) for e in qx.elements] == [
            format(e) for e in order
        ]
        for c in characters(qx):
            basis = dfs_basis(qx, c)
            report = verify_dfs(qx, basis, trials=6, seed=13)
            assert report.passed
            signs = np.array([c.values[e] for e in qx.elements])
            for trial in report.trials:
                pattern = np.dot(trial.coefficients, signs)
                assert abs(trial.eigenvalue - pattern) < 1e-10
                assert abs(trial.eigenvalue_predicted - pattern) < 1e-12
                assert trial.eigenvalue_spread < 1e-10

    def test_cross_irrep_superposition_fails(self, qx):
        chars = characters(qx)
        b1 = dfs_basis(qx, chars[0]).vectors[0]
        b2 = dfs_basis(qx, chars[1]).vectors[0]
        mixed = (b1 + b2) / np.sqrt(2)
        fake = type(dfs_basis(qx, chars[0]))(
            character=chars[0], vectors=(mixed,), multiplicity=1
        )
        report = verify_dfs(qx, fake, trials=32, seed=3)
        assert not report.passed
        assert sum(t.max_residual > 1e-3 for t in report.trials) >= 1

    def test_within_irrep_superposition_passes(self, qx):
        chars = characters(qx)
        basis = dfs_basis(qx, chars[0])
        mixed = (basis.vectors[0] + basis.vectors[1]) / np.sqrt(2)
        fake = type(basis)(character=chars[0], vectors=(mixed,), multiplicity=1)
        assert verify_dfs(qx, fake, trials=16, seed=5).passed

    def test_passes_on_every_example_basis(self, qz, qx, q4, q2z):
        for group in (qz, qx, q4, q2z):
            for c in characters(group):
                basis = dfs_basis(group, c)
                assert verify_dfs(group, basis, trials=8, seed=1).passed


class TestDimensionFormula:
    def test_known_dimensions(self):
        assert dimension_formula(4, 8, "no_phase_factors") == 2
        assert dimension_formula(4, 4, "no_phase_factors") == 4
        for k in range(1, 8):
            assert dimension_formula(k, 2 ** (k + 2), "contains_minus_identity") == 1

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            dimension_formula(3, 3, "no_phase_factors")
        with pytest.raises(ValueError):
            dimension_formula(2, 32, "contains_minus_identity")

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            dimension_formula(2, 2, "sometimes")

    def test_phase_class_detection(self, qx, q8):
        assert applicable_phase_class(qx) == "no_phase_factors"
        full = closure([parse_pauli("ZI"), parse_pauli("iII")])
        assert applicable_phase_class(full) == "contains_minus_identity"
        # -I without iI sits between the closed forms
        in_between = closure([parse_pauli("iX")])
        assert applicable_phase_class(in_between) is None

    def test_in_between_class_multiplicities(self):
        """<iX> contains -I but not iI: exact count gives 2^(K+1)/N."""
        group = closure([parse_pauli("iX")])
        mults = sorted(
            multiplicity(group, c) for c in characters(group)
        )
        assert mults == [0, 0, 1, 1]
        for c in characters(group):
            if multiplicity(group, c):
                assert c.values[parse_pauli("-I")] == -1

    def test_exchange_pair_group_single_dim_dfs(self):
        strings = ("XXII", "YYII", "ZZII", "IIXX", "IIYY", "IIZZ", "iIIII")
        group = closure([parse_pauli(s) for s in strings])
        mults = [multiplicity(group, c) for c in characters(group)]
        supported = [m for m in mults if m > 0]
        assert set(supported) == {1}
        assert len(supported) == 16
        assert dimension_formula(4, group.order, "contains_minus_identity") == 1

    def test_closed_form_sweep_small(self):
        rng = np.random.default_rng(404)
        for k in (2, 3, 4):
            for phases, klass in (
                ("none", "no_phase_factors"),
                ("full", "contains_minus_identity"),
            ):
                for _ in range(10):
                    group = random_abelian_subgroup(rng, k, phases=phases)
                    expected = dimension_formula(k, group.order, klass)
                    supported = [
                        multiplicity(group, c)
                        for c in characters(group)
                        if multiplicity(group, c) > 0
                    ]
                    assert set(supported) == {expected}
                    assert sum(supported) == 2**k


class TestJointEigenspaceSearch:
    def test_q8_empty(self, q8):
        assert nonabelian_one_dim_search(q8).is_empty

    def test_full_p1_empty(self):
        group = closure([parse_pauli("X"), parse_pauli("Z"), parse_pauli("iI")])
        assert nonabelian_one_dim_search(group).is_empty

    def test_qz_computational_basis(self, qz):
        result = nonabelian_one_dim_search(qz)
        assert [s.dimension for s in result.spaces] == [1, 1, 1, 1]
        supports = set()
        for space in result.spaces:
            vec = space.vectors[0]
            supports.add(int(np.argmax(np.abs(vec))))
            # each invariant direction is a single computational basis ket
            assert sorted(np.abs(vec)) == pytest.approx([0, 0, 0, 1], abs=1e-12)
        assert supports == {0, 1, 2, 3}

    def test_random_nonabelian_all_empty(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            group = random_nonabelian_subgroup(rng, k)
            assert nonabelian_one_dim_search(group).is_empty

    def test_abelian_matches_character_decomposition(self):
        rng = np.random.default_rng(66)
        for _ in range(8):
            group = random_abelian_subgroup(rng, 3, phases="any")
            spaces = nonabelian_one_dim_search(group).spaces
            by_row = {
                tuple(s.eigenvalues[e] for e in group.elements): s
                for s in spaces
            }
            for c in characters(group):
                m = multiplicity(group, c)
                row = tuple(c.values[e] for e in group.elements)
                if m == 0:
                    assert row not in by_row
                    continue
                space = by_row.pop(row)
                assert space.dimension == m
                basis = dfs_basis(group, c)
                assert subspace_distance(space.vectors, basis.vectors) < 1e-9
            assert not by_row


class TestSubspaceDistance:
    def test_identical_spans(self):
        a = [ket("00"), ket("11")]
        b = [
            (ket("00") + ket("11")) / np.sqrt(2),
            (ket("00") - ket("11")) / np.sqrt(2),
        ]
        assert subspace_distance(a, b) < 1e-12

    def test_orthogonal_spans(self):
        assert subspace_distance([ket("00")], [ket("01")]) == pytest.approx(1.0)

    def test_empty(self):
        assert subspace_distance([], []) == 0.0
