"""Element arithmetic: parsing, products, commutation, dense realization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulidfs import (
    PauliElement,
    PauliParseError,
    QubitCountError,
    adjoint,
    commutes,
    format_pauli,
    identity,
    mul,
    parse_pauli,
    pauli_group_order,
    pauli_string_count,
    to_matrix,
)
from paulidfs.pauli import (
    DenseLimitError,
    algebra_action,
    format_paulis,
    matrix_action,
)
from paulidfs.sampling import random_element


def elements(max_qubits=6):
    """Hypothesis strategy for arbitrary elements on a shared qubit count."""
    return st.integers(1, max_qubits).flatmap(
        lambda n: st.tuples(
            st.integers(0, 3),
            st.integers(0, (1 << n) - 1),
            st.integers(0, (1 << n) - 1),
            st.just(n),
        ).map(lambda t: PauliElement(*t))
    )


def element_pairs(max_qubits=6):
    return st.integers(1, max_qubits).flatmap(
        lambda n: st.tuples(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, (1 << n) - 1),
                st.integers(0, (1 << n) - 1),
            ).map(lambda t: PauliElement(*t, n)),
            st.tuples(
                st.integers(0, 3),
                st.integers(0, (1 << n) - 1),
                st.integers(0, (1 << n) - 1),
            ).map(lambda t: PauliElement(*t, n)),
        )
    )


class TestParse:
    def test_zi_masks(self):
        p = parse_pauli("ZI")
        assert p.z_mask == 0b10
        assert p.x_mask == 0
        assert p.phase_exp == 0

    def test_identity_single_qubit(self):
        p = parse_pauli("I")
        assert p == identity(1)

    def test_signed_three_qubit(self):
        p = parse_pauli("+iXYZ")
        assert p.phase_exp == 1
        assert p.n_qubits == 3
        assert format_pauli(p) == "+iXYZ"

    def test_bare_i_sign(self):
        assert parse_pauli("iX") == parse_pauli("+iX")

    def test_length_check(self):
        with pytest.raises(PauliParseError):
            parse_pauli("XY", n_qubits=3)

    def test_empty_body(self):
        with pytest.raises(PauliParseError):
            parse_pauli("+i")

    def test_bad_character_position(self):
        with pytest.raises(PauliParseError) as err:
            parse_pauli("-XQZ")
        assert err.value.position == 2
        assert "position 2" in str(err.value)

    @given(elements())
    @settings(max_examples=300)
    def test_round_trip(self, p):
        assert parse_pauli(format_pauli(p)) == p

    def test_format_always_has_sign(self):
        assert format_pauli(parse_pauli("XX")).startswith("+")
        assert format_pauli(PauliElement(2, 0, 0, 1)) == "-I"
        assert format_pauli(PauliElement(3, 1, 1, 1)) == "-iY"


@st.composite
def element_lists(draw, max_qubits=70):
    """Up to 12 elements on one qubit count, beyond 64-bit masks."""
    n = draw(st.integers(1, max_qubits))
    masks = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(st.tuples(st.integers(0, 3), masks, masks), max_size=12))
    return n, [PauliElement(phase, x, z, n) for phase, x, z in rows]


class TestFormatPaulis:
    @given(element_lists())
    @settings(max_examples=300)
    def test_matches_format_pauli(self, drawn):
        n, ps = drawn
        assert format_paulis(ps, n) == [format_pauli(p) for p in ps]

    def test_every_phase_and_letter(self):
        ps = [PauliElement(phase, 0b0101, 0b0011, 4) for phase in range(4)]
        assert format_paulis(ps, 4) == ["+IXZY", "+iIXZY", "-IXZY", "-iIXZY"]


class TestMul:
    def test_single_qubit_table(self):
        x, y, z = parse_pauli("X"), parse_pauli("Y"), parse_pauli("Z")
        assert format_pauli(mul(x, y)) == "+iZ"
        assert format_pauli(mul(y, z)) == "+iX"
        assert format_pauli(mul(z, x)) == "+iY"
        assert format_pauli(mul(y, x)) == "-iZ"
        assert format_pauli(mul(z, z)) == "+I"

    def test_anti_hermitian_square(self):
        p = parse_pauli("+iXYZ")
        assert format_pauli(mul(p, p)) == "-III"

    def test_qubit_mismatch(self):
        with pytest.raises(QubitCountError):
            mul(parse_pauli("X"), parse_pauli("XX"))

    @given(element_pairs())
    @settings(max_examples=200)
    def test_square_is_plus_minus_identity(self, pair):
        p, _ = pair
        square = mul(p, p)
        assert square.is_identity_multiple
        assert square.phase_exp in (0, 2)

    @given(element_pairs())
    @settings(max_examples=200)
    def test_adjoint_is_inverse(self, pair):
        p, _ = pair
        assert mul(p, adjoint(p)) == identity(p.n_qubits)

    def test_group_axioms_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            full = (1 << n) - 1
            p, q, r = (
                PauliElement(
                    int(rng.integers(0, 4)),
                    int(rng.integers(0, full + 1)),
                    int(rng.integers(0, full + 1)),
                    n,
                )
                for _ in range(3)
            )
            assert mul(mul(p, q), r) == mul(p, mul(q, r))
            assert mul(p, identity(n)) == p
            assert mul(identity(n), p) == p
            assert mul(p, adjoint(p)) == identity(n)


class TestCommutes:
    def test_reference_pairs(self):
        assert not commutes(parse_pauli("X"), parse_pauli("Z"))
        assert commutes(parse_pauli("ZZII"), parse_pauli("IIZZ"))
        assert not commutes(parse_pauli("XXI"), parse_pauli("IZZ"))

    def test_xxi_izz_dense_oracle(self):
        # single overlapping X/Z position: pq + qp must vanish
        p = to_matrix(parse_pauli("XXI"))
        q = to_matrix(parse_pauli("IZZ"))
        assert np.linalg.norm(p @ q + q @ p) == 0.0

    def test_exhaustive_against_dense_two_qubits(self):
        strings = []
        for a in "IXYZ":
            for b in "IXYZ":
                strings.append(parse_pauli(a + b))
        for p in strings:
            mp = to_matrix(p)
            for q in strings:
                mq = to_matrix(q)
                comm = np.linalg.norm(mp @ mq - mq @ mp)
                anti = np.linalg.norm(mp @ mq + mq @ mp)
                if commutes(p, q):
                    assert comm < 1e-12
                else:
                    assert anti < 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_exhaustive_all_string_pairs(self, n):
        """All 4^n x 4^n string pairs against the dense test; global phases
        provably drop out of (anti)commutators, so phase 0 covers them."""
        dim = 1 << n
        elements = [
            PauliElement(0, x, z, n)
            for x in range(dim)
            for z in range(dim)
        ]
        stacked = np.array([to_matrix(p) for p in elements])
        predicted = np.array(
            [[commutes(p, q) for q in elements] for p in elements]
        )
        for i, mp in enumerate(stacked):
            left = mp @ stacked  # batched products mp @ mq for all q
            right = stacked @ mp
            comm = np.abs(left - right).max(axis=(1, 2))
            anti = np.abs(left + right).max(axis=(1, 2))
            assert np.all(comm[predicted[i]] < 1e-12)
            assert np.all(anti[~predicted[i]] < 1e-12)

    def test_random_against_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(3, 5))
            full = (1 << n) - 1
            p, q = (
                PauliElement(
                    int(rng.integers(0, 4)),
                    int(rng.integers(0, full + 1)),
                    int(rng.integers(0, full + 1)),
                    n,
                )
                for _ in range(2)
            )
            mp, mq = to_matrix(p), to_matrix(q)
            if commutes(p, q):
                assert np.linalg.norm(mp @ mq - mq @ mp) < 1e-12
            else:
                assert np.linalg.norm(mp @ mq + mq @ mp) < 1e-12

    def test_phase_does_not_matter(self):
        p = parse_pauli("XY")
        q = parse_pauli("-iZY")
        assert commutes(p, q) == commutes(parse_pauli("XY"), parse_pauli("ZY"))


class TestAdjoint:
    def test_hermitian_fixed(self):
        z = parse_pauli("Z")
        assert adjoint(z) == z
        y = parse_pauli("Y")
        assert adjoint(y) == y

    def test_anti_hermitian_conjugates(self):
        assert format_pauli(adjoint(parse_pauli("+iXYZ"))) == "-iXYZ"

    @given(elements())
    @settings(max_examples=200)
    def test_involution(self, p):
        assert adjoint(adjoint(p)) == p

    @given(elements(max_qubits=4))
    @settings(max_examples=100)
    def test_matches_dense_adjoint(self, p):
        assert np.allclose(to_matrix(adjoint(p)), to_matrix(p).conj().T)


class TestToMatrix:
    def test_x_matrix(self):
        assert np.array_equal(to_matrix(parse_pauli("X")), [[0, 1], [1, 0]])

    def test_single_qubit_table(self):
        assert np.array_equal(to_matrix(parse_pauli("Z")), [[1, 0], [0, -1]])
        assert np.array_equal(
            to_matrix(parse_pauli("Y")), [[0, -1j], [1j, 0]]
        )

    def test_traceless_unless_identity_multiple(self):
        assert np.trace(to_matrix(parse_pauli("XXI"))) == 0
        assert np.trace(to_matrix(parse_pauli("-II"))) == -4

    def test_identity_multiple_trace(self):
        p = PauliElement(1, 0, 0, 3)
        assert np.trace(to_matrix(p)) == 1j * 8

    def test_dense_limit(self):
        with pytest.raises(DenseLimitError):
            to_matrix(identity(5), dense_limit=4)

    def test_homomorphism_random(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            full = (1 << n) - 1
            p, q = (
                PauliElement(
                    int(rng.integers(0, 4)),
                    int(rng.integers(0, full + 1)),
                    int(rng.integers(0, full + 1)),
                    n,
                )
                for _ in range(2)
            )
            lhs = to_matrix(mul(p, q))
            rhs = to_matrix(p) @ to_matrix(q)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unitarity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            full = (1 << n) - 1
            p = PauliElement(
                int(rng.integers(0, 4)),
                int(rng.integers(0, full + 1)),
                int(rng.integers(0, full + 1)),
                n,
            )
            m = to_matrix(p)
            assert np.max(np.abs(m @ m.conj().T - np.eye(1 << n))) < 1e-12


class TestAlgebraAction:
    def test_matches_dense_sum(self):
        """sum_n a_n G_n applied through XOR gathers equals the dense sum."""
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            terms = [random_element(rng, n) for _ in range(int(rng.integers(1, 9)))]
            coeff = rng.standard_normal(len(terms)) + 1j * rng.standard_normal(
                len(terms)
            )
            dense = sum(a * to_matrix(g) for a, g in zip(coeff, terms))
            actions = [matrix_action(g) for g in terms]
            for shape in ((1 << n,), (1 << n, int(rng.integers(1, 5)))):
                block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                out = algebra_action(actions, coeff, block)
                assert out.shape == block.shape
                assert np.max(np.abs(out - dense @ block)) < 1e-12


def test_group_counts():
    assert pauli_group_order(2) == 64
    assert pauli_string_count(2) == 16
