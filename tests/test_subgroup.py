"""Closure, structural flags and character enumeration."""

import itertools
import json

import numpy as np
import pytest

from paulidfs import (
    NotAbelianError,
    PauliElement,
    characters,
    closure,
    commutes,
    format_pauli,
    identity,
    mul,
    multiplicity,
    nonabelian_one_dim_search,
    parse_pauli,
    reducibility_sum,
    subgroup_from_error_generators,
    to_matrix,
)
from paulidfs.sampling import random_abelian_subgroup, random_nonabelian_subgroup
from paulidfs.subgroup import ClosureCapError, exponent_table
from helpers import reference_characters, root_exponent


class TestClosure:
    def test_qz(self, qz):
        assert {format_pauli(e) for e in qz.elements} == {"+II", "+ZI", "+IZ", "+ZZ"}
        assert qz.order == 4
        assert qz.is_abelian
        assert not qz.contains_minus_identity

    def test_q2z_from_six_pairs(self, q2z):
        expected = {
            "+IIII", "+ZZII", "+ZIIZ", "+IIZZ", "+ZIZI", "+IZZI", "+IZIZ", "+ZZZZ",
        }
        assert {format_pauli(e) for e in q2z.elements} == expected
        assert q2z.order == 8

    def test_empty_generators(self):
        group = closure([], n_qubits=1)
        assert group.order == 1
        assert group.elements == (identity(1),)

    def test_closure_is_idempotent(self, q2z):
        again = closure(list(q2z.elements))
        assert again.elements == q2z.elements

    def test_cap(self):
        gens = [parse_pauli("X"), parse_pauli("Z"), parse_pauli("iI")]
        with pytest.raises(ClosureCapError):
            closure(gens, order_cap=8)

    def test_q8_flags(self, q8):
        assert q8.order == 8
        assert not q8.is_abelian
        assert q8.contains_minus_identity
        assert not q8.contains_imaginary_identity

    def test_full_p1(self):
        group = closure([parse_pauli("X"), parse_pauli("Z"), parse_pauli("iI")])
        assert group.order == 16
        assert group.contains_imaginary_identity

    def test_deterministic_order(self, q2z):
        keys = [(e.phase_exp, e.x_mask, e.z_mask) for e in q2z.elements]
        assert keys == sorted(keys)

    def test_largest_abelian_bound(self):
        # order 2^(K+2) is attained by single-qubit Z's plus all phases
        gens = [parse_pauli(s) for s in ("ZI", "IZ", "iII")]
        group = closure(gens)
        assert group.is_abelian
        assert group.order == 2 ** (2 + 2)

    def test_exchange_pair_group_attains_maximal_order(self):
        """Pairwise XX/YY/ZZ generators plus all phases reach 2^(K+2)."""
        strings = ("XXII", "YYII", "ZZII", "IIXX", "IIYY", "IIZZ", "iIIII")
        group = closure([parse_pauli(s) for s in strings])
        assert group.is_abelian
        assert group.order == 2 ** (4 + 2)
        assert group.contains_minus_identity
        assert group.contains_imaginary_identity

    def test_order_invariants_random(self):
        rng = np.random.default_rng(909)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            full = (1 << n) - 1
            gens = [
                PauliElement(
                    int(rng.integers(0, 4)),
                    int(rng.integers(0, full + 1)),
                    int(rng.integers(0, full + 1)),
                    n,
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            group = closure(gens, n_qubits=n)
            assert 4 ** (n + 1) % group.order == 0
            if group.is_abelian and group.contains_minus_identity:
                assert group.order <= 2 ** (n + 2)

    def test_json_round_trip(self, q2z):
        blob = json.dumps(q2z.to_json_dict())
        data = json.loads(blob)
        assert data["order"] == 8
        assert data["is_abelian"] is True
        assert data["contains_minus_identity"] is False
        rebuilt = closure([parse_pauli(s) for s in data["elements"]])
        assert rebuilt.elements == q2z.elements


class TestErrorGeneratorEntryPoint:
    def test_two_qubit_dephasing_support(self):
        group = subgroup_from_error_generators(
            [parse_pauli("ZI"), parse_pauli("IZ")]
        )
        assert {format_pauli(e) for e in group.elements} == {
            "+II", "+ZI", "+IZ", "+ZZ",
        }

    def test_pairwise_coupling_support(self):
        group = subgroup_from_error_generators(
            [parse_pauli("ZZII"), parse_pauli("IIZZ")]
        )
        assert {format_pauli(e) for e in group.elements} == {
            "+IIII", "+ZZII", "+IIZZ", "+ZZZZ",
        }

    def test_dipolar_anisotropic_set(self, q2z):
        strings = ("ZZII", "ZIIZ", "IIZZ", "ZIZI", "IZZI", "IZIZ")
        group = subgroup_from_error_generators([parse_pauli(s) for s in strings])
        assert group.elements == q2z.elements


class TestCharacters:
    def test_qx_sign_table(self, qx):
        # rows of the multiplication table on (I4, X2I2, I2X2, X4)
        order = [parse_pauli(s) for s in ("IIII", "XXII", "IIXX", "XXXX")]
        rows = {
            tuple(int(c.values[e].real) for e in order) for c in characters(qx)
        }
        assert rows == {
            (1, 1, 1, 1),
            (1, 1, -1, -1),
            (1, -1, 1, -1),
            (1, -1, -1, 1),
        }

    def test_trivial_group(self):
        group = closure([], n_qubits=1)
        chars = characters(group)
        assert len(chars) == 1
        assert chars[0].values == {identity(1): 1 + 0j}

    def test_trivial_character_first(self, q2z):
        chars = characters(q2z)
        assert chars[0].is_trivial
        assert [c.label for c in chars] == list(range(1, 9))

    def test_q2z_against_brute_force(self, q2z):
        """Oracle: extend all sign choices on three independent generators
        and keep the multiplicative ones."""
        gens = [parse_pauli(s) for s in ("ZZII", "ZIIZ", "IIZZ")]
        element_of = {}
        for e1, e2, e3 in itertools.product((0, 1), repeat=3):
            word = identity(4)
            for g, e in zip(gens, (e1, e2, e3)):
                for _ in range(e):
                    word = mul(word, g)
            element_of[(e1, e2, e3)] = word
        assert len(set(element_of.values())) == 8

        expected = set()
        for s1, s2, s3 in itertools.product((1, -1), repeat=3):
            table = {}
            for (e1, e2, e3), element in element_of.items():
                table[element] = complex(s1**e1 * s2**e2 * s3**e3)
            # multiplicativity over all pairs
            for a in table:
                for b in table:
                    assert table[mul(a, b)] == table[a] * table[b]
            expected.add(tuple(table[e] for e in q2z.elements))

        produced = {
            tuple(c.values[e] for e in q2z.elements) for c in characters(q2z)
        }
        assert produced == expected
        trivial = characters(q2z)[0]
        assert all(v == 1 for v in trivial.values.values())

    def test_multiplicativity_exhaustive(self, qx, q2z):
        for group in (qx, q2z):
            for char in characters(group):
                for a in group.elements:
                    for b in group.elements:
                        assert char.values[mul(a, b)] == (
                            char.values[a] * char.values[b]
                        )

    def test_character_count_equals_order_randomized(self):
        rng = np.random.default_rng(101)
        for k in range(1, 7):
            for _ in range(8):
                group = random_abelian_subgroup(rng, k, phases="any")
                chars = characters(group)
                assert len(chars) == group.order
                rows = {
                    tuple(c.values[e] for e in group.elements) for c in chars
                }
                assert len(rows) == group.order

    def test_multiplicativity_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            group = random_abelian_subgroup(rng, 3, phases="any")
            for char in characters(group):
                for a in group.elements:
                    for b in group.elements:
                        assert char.values[mul(a, b)] == (
                            char.values[a] * char.values[b]
                        )

    @pytest.mark.parametrize("phases", ["none", "full", "any"])
    def test_matches_reference_enumeration(self, phases):
        """Same label order and the same value, signed zeros included, on
        every element as the dict-based oracle; the vectorized table too."""
        rng = np.random.default_rng({"none": 41, "full": 42, "any": 43}[phases])
        for n_qubits in range(1, 7):
            for _ in range(6):
                group = random_abelian_subgroup(rng, n_qubits, phases=phases)
                chars = characters(group)
                expected = reference_characters(group)
                assert [c.label for c in chars] == list(range(1, group.order + 1))
                assert [[repr(v) for v in c.values.values()] for c in chars] == [
                    [repr(vals[e]) for e in group.elements] for vals in expected
                ]
                assert exponent_table(group, chars).tolist() == [
                    [root_exponent(vals[e]) for e in group.elements]
                    for vals in expected
                ]
                # the label is the value on the phase generator and pivots
                sifted = group.sifted
                u = PauliElement(sifted.phase_exp_generator, 0, 0, n_qubits)
                for c in chars:
                    on_generators = tuple(c.exponent(g) for g in (u, *sifted.pivots))
                    assert on_generators == c.exponents

    def test_order_8192_count_and_multiplicativity(self):
        """Past what an N x N dict table allows in a unit test (67M entries)."""
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        strings = ["i" + "I" * 12, "I" * 10 + "ZI"]
        for a, b in pairs:
            for letter in "XZ":
                strings.append(
                    "".join(letter if j in (a, b) else "I" for j in range(12))
                )
        group = closure([parse_pauli(s) for s in strings])
        assert group.order == 2**13
        chars = characters(group)
        assert [c.label for c in chars] == list(range(1, group.order + 1))
        assert chars[0].is_trivial
        assert len({c.exponents for c in chars}) == group.order
        rng = np.random.default_rng(8192)
        for _ in range(300):
            char = chars[int(rng.integers(group.order))]
            a, b = (group.elements[int(i)] for i in rng.integers(group.order, size=2))
            assert char.values[mul(a, b)] == char.values[a] * char.values[b]

    def test_values_mapping_is_read_only_view(self, q2z):
        char = characters(q2z)[5]
        assert list(char.values) == list(q2z.elements)
        assert len(char.values) == q2z.order
        assert parse_pauli("-ZZII") not in char.values
        with pytest.raises(KeyError):
            char.values[parse_pauli("XXXX")]
        with pytest.raises(TypeError):
            char.values[q2z.elements[0]] = 1

    def test_fourth_roots_with_imaginary_identity(self):
        group = closure([parse_pauli("X"), parse_pauli("iI")])
        chars = characters(group)
        assert len(chars) == group.order == 8
        values = {v for c in chars for v in c.values.values()}
        assert values == {1, -1, 1j, -1j}

    def test_nonabelian_rejected(self, q8):
        with pytest.raises(NotAbelianError) as err:
            characters(q8)
        assert "one-dim" in str(err.value)

    def test_diagonalization_oracle(self):
        """Supported characters match the joint-eigenspace decomposition."""
        rng = np.random.default_rng(202)
        for _ in range(6):
            group = random_abelian_subgroup(rng, 3, phases="any")
            supported = {
                tuple(c.values[e] for e in group.elements)
                for c in characters(group)
                if multiplicity(group, c) > 0
            }
            spaces = nonabelian_one_dim_search(group).spaces
            found = {
                tuple(s.eigenvalues[e] for e in group.elements) for s in spaces
            }
            assert found == supported

    def test_anticommuting_pair_flags_nonabelian(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            full = (1 << n) - 1
            gens = [
                PauliElement(
                    int(rng.integers(0, 4)),
                    int(rng.integers(0, full + 1)),
                    int(rng.integers(0, full + 1)),
                    n,
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            group = closure(gens)
            has_anticommuting = any(
                not commutes(a, b)
                for i, a in enumerate(group.elements)
                for b in group.elements[i + 1 :]
            )
            assert group.is_abelian == (not has_anticommuting)


def dense_reducibility_sum(group) -> float:
    """Oracle: sum of |trace|^2 over the dense matrices of every element."""
    return sum(abs(np.trace(to_matrix(e))) ** 2 for e in group.elements)


class TestReducibility:
    def test_matches_dense_traces(self):
        rng = np.random.default_rng(616)
        groups = []
        for n_qubits in range(1, 7):
            for phases in ("none", "full", "any"):
                groups.append(random_abelian_subgroup(rng, n_qubits, phases=phases))
        for n_qubits in range(1, 4):
            groups.append(random_nonabelian_subgroup(rng, n_qubits))
        for group in groups:
            total, verdict = reducibility_sum(group)
            assert isinstance(total, float)
            assert total == dense_reducibility_sum(group)
            assert verdict == ("irreducible" if total == group.order else "reducible")

    def test_full_p1_irreducible(self):
        group = closure([parse_pauli("X"), parse_pauli("Z"), parse_pauli("iI")])
        total, verdict = reducibility_sum(group)
        assert total == pytest.approx(16)
        assert group.order == 16
        assert verdict == "irreducible"

    def test_qx_reducible(self, qx):
        total, verdict = reducibility_sum(qx)
        assert total == pytest.approx(256)
        assert verdict == "reducible"

    def test_trivial_group_on_two_qubits(self):
        total, verdict = reducibility_sum(closure([], n_qubits=2))
        assert total == pytest.approx(16)
        assert verdict == "reducible"
