"""Closure, structural flags and character enumeration."""

import itertools
import json
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    to_matrix,
)
import paulidfs.subgroup as subgroup_module
from sampling import random_abelian_subgroup, random_nonabelian_subgroup
from paulidfs.dfs import _multiplicities
from paulidfs.subgroup import ClosureCapError, exponent_table
from helpers import (
    abelian_group,
    decompose,
    reference_characters,
    reference_closure,
    reference_multiplicity,
    root_exponent,
)


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

    def test_elements_built_only_on_demand(self, monkeypatch):
        """The closure, its JSON strings and the channel block basis work on
        the columns: six X, Z pairs (order 2^13) build no element object
        until ``elements`` is read."""
        from paulidfs.channels import _BlockBasis

        built = []
        real = PauliElement.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(PauliElement, "__init__", counting)
        gens = [PauliElement(0, 1 << j, 0, 6) for j in range(6)]
        gens += [PauliElement(0, 0, 1 << j, 6) for j in range(6)]
        group = closure(gens)
        group.to_json_dict()
        _BlockBasis(group)
        assert group.order == 1 << 13
        assert len(built) < 100
        assert len(group.elements) == group.order
        assert len(built) > group.order

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


def _random_generators(rng, n_qubits, count):
    full = (1 << n_qubits) - 1
    return [
        PauliElement(
            int(rng.integers(0, 4)),
            int(rng.integers(0, full + 1)),
            int(rng.integers(0, full + 1)),
            n_qubits,
        )
        for _ in range(count)
    ]


def _assert_matches_reference(generators, n_qubits):
    """closure agrees with the breadth-first oracle, and each element's
    coordinates are the ones decompose reads off the sifted form."""
    group = closure(generators, n_qubits=n_qubits)
    expected = reference_closure(generators, n_qubits)
    assert group.elements == expected["elements"]
    assert group.order == len(expected["elements"])
    for name in (
        "is_abelian",
        "contains_minus_identity",
        "contains_imaginary_identity",
        "phase_subgroup",
    ):
        assert getattr(group, name) == expected[name], name
    sifted = group.sifted
    e = sifted.phase_exp_generator
    assert list(group.element_coordinates) == list(group.elements)
    for element, coords in group.element_coordinates.items():
        selection, c = decompose(element, sifted)
        assert coords == (c // e if e else 0, *(3 * s for s in selection))


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(1, 5),
        count=st.integers(0, 6),
    )
    def test_matches_breadth_first_closure(self, seed, n_qubits, count):
        rng = np.random.default_rng(seed)
        _assert_matches_reference(_random_generators(rng, n_qubits, count), n_qubits)

    @pytest.mark.parametrize(
        "strings, n_qubits",
        [
            ((), 1),
            ((), 3),
            (("ZZ", "ZI", "IZ"), 2),  # dependent
            (("ZZ", "-ZZ"), 2),  # -I as a phase remainder
            (("iX",), 1),  # anti-Hermitian: squares to -I
            (("iXI", "iIX", "ZZ"), 2),
            (("X", "Z"), 1),  # non-Abelian, -I only as a commutator
            (("XX", "ZI"), 2),
            (("XYZ", "ZZX", "YXI"), 3),
            (("X", "Y", "Z"), 1),
            (("XXI", "IZZ", "-III", "+iXYZ"), 3),
            # 64 qubits fill one mask word, 65 and 70 need two
            (("Z" + "I" * 63, "I" * 63 + "X", "X" + "I" * 62 + "Z"), 64),
            (("iY" + "I" * 64, "I" * 63 + "XX", "Z" * 65, "I" * 64 + "Z"), 65),
            (("Z" + "I" * 68 + "Y", "I" * 69 + "X", "X" + "I" * 68 + "Z"), 70),
        ],
    )
    def test_named_generator_lists(self, strings, n_qubits):
        generators = [parse_pauli(s) for s in strings]
        _assert_matches_reference(generators, n_qubits)

    @pytest.mark.parametrize("phases", ["plus", "minus", "full", "trivial"])
    def test_multiplicity_rule_matches_exact_sum(self, phases):
        rng = np.random.default_rng(
            {"plus": 51, "minus": 52, "full": 53, "trivial": 54}[phases]
        )
        for n_qubits in range(1, 6):
            for _ in range(4):
                group = abelian_group(rng, n_qubits, phases)
                for c in characters(group):
                    assert multiplicity(group, c) == reference_multiplicity(group, c)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(1, 5),
        kind=st.sampled_from(["plus", "minus", "full", "trivial", "nonabelian"]),
    )
    def test_normal_form_matches_dense_decomposition(self, seed, n_qubits, kind):
        """The c central strings and h pairs of the normal form split the
        natural representation densely as claimed: each of the 2^c joint
        eigenspaces of the central strings has dimension 2^(K-c), the
        group restricted to it spans all 4^h matrices of one 2^h irrep
        (2^(K-c-h) times), and N * sum mult^2 is the reducibility sum."""
        rng = np.random.default_rng(seed)
        if kind == "nonabelian":
            group = random_nonabelian_subgroup(rng, n_qubits)
        else:
            group = abelian_group(rng, n_qubits, kind)
        sifted = group.sifted
        central, pairs = sifted.normal_form
        c, h = len(central), len(pairs)
        assert c + 2 * h == len(sifted.pivots)
        assert (h == 0) == group.is_abelian

        def string(mask):
            x = z = 0
            for j, p in enumerate(sifted.pivots):
                if mask >> j & 1:
                    x, z = x ^ p.x_mask, z ^ p.z_mask
            return PauliElement(0, x, z, n_qubits)

        # anticommuting exactly within a pair, and spanning the pivots
        masks = [*central, *itertools.chain.from_iterable(pairs)]
        paired = {frozenset(pair) for pair in pairs}
        for a, b in itertools.combinations(masks, 2):
            assert commutes(string(a), string(b)) != (frozenset((a, b)) in paired)
        leads = {}
        for mask in masks:
            while mask.bit_length() in leads:
                mask ^= leads[mask.bit_length()]
            leads[mask.bit_length()] = mask
        assert 0 not in leads and len(leads) == len(sifted.pivots)

        dim = 1 << n_qubits
        elements = [to_matrix(e) for e in group.elements]
        multiplicities = []
        for signs in itertools.product((1, -1), repeat=c):
            projector = np.eye(dim)
            for sign, mask in zip(signs, central):
                flip = sign * to_matrix(string(mask))
                projector = projector @ (np.eye(dim) + flip) / 2
            assert round(np.trace(projector).real) == 1 << (n_qubits - c)
            values, vectors = np.linalg.eigh(projector)
            space = vectors[:, values > 0.5]
            restricted = [(space.conj().T @ g @ space).ravel() for g in elements]
            assert np.linalg.matrix_rank(restricted, tol=1e-8) == 4**h
            multiplicities.append(space.shape[1] >> h)
        assert multiplicities == [1 << (n_qubits - c - h)] * (1 << c)
        total = group.order * sum(m * m for m in multiplicities)
        assert total == reducibility_sum(group)[0]

    def test_cap_checked_before_any_product(self, monkeypatch):
        """16 independent Z strings have order 65536: refused at a cap of
        4096 before the product kernel enumerates a single element."""
        calls = []
        real_products = subgroup_module.subset_products

        def counting_products(rows, factors):
            calls.append((rows, factors))
            return real_products(rows, factors)

        monkeypatch.setattr(subgroup_module, "subset_products", counting_products)
        gens = [PauliElement(0, 0, 1 << j, 16) for j in range(16)]
        with pytest.raises(ClosureCapError, match="65536"):
            closure(gens, order_cap=4096)
        assert calls == []
        assert closure(gens[:12], order_cap=4096).order == 4096
        assert len(calls) == 1


class TestErrorGeneratorEntryPoint:
    """The error group of a coupling to given Pauli strings is their
    closure: the time-evolution Kraus operators expand over it."""

    def test_two_qubit_dephasing_support(self):
        group = closure([parse_pauli("ZI"), parse_pauli("IZ")])
        assert {format_pauli(e) for e in group.elements} == {
            "+II", "+ZI", "+IZ", "+ZZ",
        }

    def test_pairwise_coupling_support(self):
        group = closure([parse_pauli("ZZII"), parse_pauli("IIZZ")])
        assert {format_pauli(e) for e in group.elements} == {
            "+IIII", "+ZZII", "+IIZZ", "+ZZZZ",
        }

    def test_dipolar_anisotropic_set(self, q2z):
        strings = ("ZZII", "ZIIZ", "IIZZ", "ZIZI", "IZZI", "IZIZ")
        group = closure([parse_pauli(s) for s in strings])
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

    @staticmethod
    def _assert_greedy_scan(group):
        """An element is kept exactly when the kept elements before it do
        not generate it, and the scan stops once they generate the group,
        both checked by breadth-first closure."""
        basis = subgroup_module._canonical_basis(group)
        scanned = group.elements[: basis[-1] + 1] if basis else ()
        kept = []
        for index, element in enumerate(scanned):
            generated = reference_closure(kept, group.n_qubits)["elements"]
            assert (index in basis) == (element not in generated)
            if index in basis:
                kept.append(element)
        assert len(reference_closure(kept, group.n_qubits)["elements"]) == group.order

    @pytest.mark.parametrize("phases", ["plus", "minus", "full", "trivial"])
    def test_canonical_basis_is_a_greedy_scan(self, phases):
        seeds = {"plus": 61, "minus": 62, "full": 63, "trivial": 64}
        rng = np.random.default_rng(seeds[phases])
        for n_qubits in range(1, 5):
            for _ in range(4):
                self._assert_greedy_scan(abelian_group(rng, n_qubits, phases))

    @pytest.mark.parametrize(
        "strings",
        [("iX",), ("iXI", "iIX", "ZZ"), ("iXX", "ZZ"), ("-iZI", "IX")],
    )
    def test_canonical_basis_with_anti_hermitian_pivots(self, strings):
        """A pivot squaring to -I puts -I into the span of the kept ones."""
        self._assert_greedy_scan(closure([parse_pauli(s) for s in strings]))

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

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(1, 6),
        phases=st.sampled_from(["plus", "minus", "full", "anti_hermitian"]),
    )
    def test_label_table_matches_dense_oracle(self, seed, n_qubits, phases):
        """The table's label order is the oracle's value-row order, the
        multiplicities read off its label column are ``multiplicity`` on
        every view and the exact sum, and ``exponent_table`` equals the
        views' exponents times the coordinates.  "anti_hermitian" multiplies
        the first generator of a +I-only group by i, so the first pivot
        squares to -I."""
        rng = np.random.default_rng(seed)
        if phases == "anti_hermitian":
            generators = abelian_group(rng, n_qubits, "plus").generators
            g = generators[0]
            twisted = PauliElement(g.phase_exp + 1, g.x_mask, g.z_mask, n_qubits)
            group = closure([twisted, *generators[1:]])
            assert any(p.phase_exp % 2 for p in group.sifted.pivots)
        else:
            group = abelian_group(rng, n_qubits, phases)
        table = characters(group)
        table_rows = exponent_table(group, table)
        assert table_rows.tolist() == [
            [root_exponent(vals[e]) for e in group.elements]
            for vals in reference_characters(group)
        ]
        views = np.array([c.exponents for c in table], dtype=np.uint8)
        assert np.array_equal(views, table.labels)
        assert np.array_equal(table_rows, views @ group.coordinate_matrix.T % 4)
        counts = _multiplicities(group, table.labels[:, 0].tolist())
        assert counts == [multiplicity(group, c) for c in table]
        assert counts == [reference_multiplicity(group, c) for c in table]

    def test_table_is_a_sequence_of_views(self, q2z):
        """A sized, indexable and sliceable sequence whose items are built
        once, over a read-only label array."""
        table = characters(q2z)
        assert isinstance(table, Sequence) and len(table) == q2z.order
        assert table[-1] is table[7] and table[-1].label == 8
        assert table[2:4] == [table[2], table[3]]
        assert table[3].exponents == tuple(table.labels[3].tolist())
        assert [c.label for c in table] == list(range(1, 9))
        with pytest.raises(IndexError):
            table[8]
        with pytest.raises(ValueError):
            table.labels[0, 0] = 1
        with pytest.raises(ValueError):
            exponent_table(closure(q2z.generators), table)

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
            assert isinstance(total, int)
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
