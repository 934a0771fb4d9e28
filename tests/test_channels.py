"""Kraus channels: normalization, evolution, scans and the q8 code."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paulidfs import (
    ChannelConstraintError,
    DegenerateKrausError,
    apply_channel,
    assert_density_matrix,
    characters,
    closure,
    code_fix_residual,
    decoherence_scan,
    density_matrix_from_state,
    dfs_basis,
    multiplicity,
    parse_pauli,
    purity,
    q8_code_states,
    q8_constrained_kraus,
    q8_genericity_probe,
    q8_invariant_planes,
    random_group_algebra_kraus,
    state_fidelity,
    to_matrix,
    uniform_group_channel,
)
from paulidfs import channels
from paulidfs.presets import plane_invariance_residual
from paulidfs.sampling import random_nonabelian_subgroup, random_state
from helpers import (
    abelian_group,
    ket,
    reference_decoherence_scan,
    reference_group_algebra_kraus,
)


class _ZeroDraws:
    """Stands in for a generator whose every normal draw is zero."""

    def standard_normal(self, size):
        return np.zeros(size)


def _zero_draws_at(monkeypatch, bad_seeds) -> list:
    """Make ``default_rng`` draw zeros for ``bad_seeds``; returns the list
    of every seed requested from then on."""
    real = np.random.default_rng
    requested = []

    def default_rng(seed=None):
        requested.append(seed)
        return _ZeroDraws() if seed in bad_seeds else real(seed)

    monkeypatch.setattr(channels.np.random, "default_rng", default_rng)
    return requested


class TestRandomKraus:
    def test_normalized(self, qz, qx, q2z):
        for i, group in enumerate((qz, qx, q2z)):
            kraus = random_group_algebra_kraus(group, 3, seed=i)
            assert kraus.normalization_defect() < 1e-9

    def test_trivial_group_single_op(self):
        group = closure([], n_qubits=1)
        kraus = random_group_algebra_kraus(group, 1, seed=0)
        op = kraus.operators[0]
        # identity up to a global phase
        phase = op[0, 0] / abs(op[0, 0])
        assert np.max(np.abs(op - phase * np.eye(2))) < 1e-12

    def test_operators_stay_in_algebra(self, qx):
        kraus = random_group_algebra_kraus(qx, 2, seed=9)
        matrices = [to_matrix(e) for e in qx.elements]
        for row, op in zip(kraus.coefficients, kraus.operators):
            rebuilt = sum(c * m for c, m in zip(row, matrices))
            assert np.max(np.abs(rebuilt - op)) < 1e-9

    def test_coefficient_json_round_trip(self, qz):
        kraus = random_group_algebra_kraus(qz, 2, seed=4)
        data = kraus.to_json_dict()
        assert data["n_qubits"] == 2
        assert data["subgroup"] == ["+II", "+IZ", "+ZI", "+ZZ"]
        assert len(data["operators"]) == 2
        assert len(data["operators"][0]) == 4
        # the schema carries enough to rebuild the operators exactly
        elements = [parse_pauli(s) for s in data["subgroup"]]
        for row, op in zip(data["operators"], kraus.operators):
            rebuilt = sum(
                complex(re, im) * to_matrix(e)
                for (re, im), e in zip(row, elements)
            )
            assert np.max(np.abs(rebuilt - op)) < 1e-9

    def test_n_ops_validation(self, qz):
        with pytest.raises(ValueError):
            random_group_algebra_kraus(qz, 0, seed=0)

    @pytest.mark.parametrize("kind", ["abelian", "nonabelian"])
    def test_matches_dense_oracle(self, monkeypatch, kind):
        """The string-algebra draw gives the dense oracle's operators and
        its minimum-norm coefficients over the elements, and both refuse a
        zero draw with the same error."""
        for i in range(12):
            rng = np.random.default_rng(i)
            n_qubits = int(rng.integers(1, 5))
            if kind == "nonabelian":
                group = random_nonabelian_subgroup(rng, n_qubits, max_generators=4)
            else:
                group = abelian_group(rng, n_qubits, ("plus", "minus", "full")[i % 3])
            n_ops = int(rng.integers(1, 4))
            kraus = random_group_algebra_kraus(group, n_ops, seed=i)
            oracle = reference_group_algebra_kraus(group, n_ops, seed=i)
            assert np.max(np.abs(kraus.coefficients - oracle.coefficients)) < 1e-10
            for op, expected in zip(kraus.operators, oracle.operators, strict=True):
                assert np.max(np.abs(op - expected)) < 1e-10
        _zero_draws_at(monkeypatch, {7})
        errors = []
        for build in (random_group_algebra_kraus, reference_group_algebra_kraus):
            with pytest.raises(DegenerateKrausError) as caught:
                build(group, 2, seed=7)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


class TestApplyChannel:
    def test_identity_channel(self, qz):
        rho = density_matrix_from_state(ket("01"))
        kraus = uniform_group_channel(closure([], n_qubits=2))
        out = apply_channel(kraus, rho)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_dephasing_kills_off_diagonals(self, qz):
        plus = np.array([1, 1]) / np.sqrt(2)
        state = np.kron(plus, [1, 0])
        rho = density_matrix_from_state(state)
        out = apply_channel(uniform_group_channel(qz), rho)
        off = out - np.diag(np.diag(out))
        assert np.max(np.abs(off)) < 1e-12
        assert np.max(np.abs(np.diag(out) - np.diag(rho))) < 1e-12

    def test_dfs_state_untouched(self, q2z):
        basis = dfs_basis(q2z, characters(q2z)[0])
        state = (basis.vectors[0] + 1j * basis.vectors[1]) / np.sqrt(2)
        rho = density_matrix_from_state(state)
        for seed in range(4):
            kraus = random_group_algebra_kraus(q2z, 2, seed=seed)
            out = apply_channel(kraus, rho)
            assert np.max(np.abs(out - rho)) < 1e-9
            assert purity(out) == pytest.approx(1.0, abs=1e-9)

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(8)
        group = closure([parse_pauli("XX"), parse_pauli("ZZ")])
        for seed in range(6):
            kraus = random_group_algebra_kraus(group, 3, seed=seed)
            vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rho = density_matrix_from_state(vec)
            out = apply_channel(kraus, rho)
            assert abs(np.trace(out) - 1) < 1e-9
            assert np.linalg.eigvalsh(out)[0] > -1e-8

    def test_dimension_mismatch(self, qz):
        kraus = uniform_group_channel(qz)
        with pytest.raises(ValueError):
            apply_channel(kraus, np.eye(8) / 8)


class TestPurity:
    def test_pure_state(self):
        assert purity(density_matrix_from_state(ket("10"))) == pytest.approx(1.0)

    def test_maximally_mixed_one_qubit(self):
        assert purity(np.eye(2) / 2) == pytest.approx(0.5)

    def test_dephased_plus_state(self, qz):
        """Frozen oracle: equal-weight dephasing of |+>|0> leaves the
        affected qubit maximally mixed, purity 1/2."""
        plus = np.array([1, 1]) / np.sqrt(2)
        rho = density_matrix_from_state(np.kron(plus, [1, 0]))
        out = apply_channel(uniform_group_channel(qz), rho)
        # brute-force oracle over the four explicit Kraus terms
        oracle = np.zeros((4, 4), dtype=complex)
        for s in ("II", "ZI", "IZ", "ZZ"):
            m = 0.5 * to_matrix(parse_pauli(s))
            oracle += m @ rho @ m.conj().T
        assert np.max(np.abs(out - oracle)) < 1e-12
        assert purity(out) == pytest.approx(0.5, abs=1e-12)
        reduced = out.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert purity(reduced) == pytest.approx(0.5, abs=1e-12)

    def test_assert_density_matrix_rejects_bad(self):
        with pytest.raises(ValueError):
            assert_density_matrix(np.eye(2))
        with pytest.raises(ValueError):
            assert_density_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))


class TestDecoherenceScan:
    def test_dfs_ket_keeps_purity(self, qz):
        report = decoherence_scan(qz, ket("00"), trials=8, seed=0)
        assert report.min_purity > 1 - 1e-9
        assert report.min_fidelity > 1 - 1e-9

    def test_cross_irrep_bell_state_decoheres(self, qz):
        bell = (ket("00") + ket("11")) / np.sqrt(2)
        report = decoherence_scan(qz, bell, trials=32, seed=0)
        assert report.min_purity < 1 - 1e-3

    def test_within_irrep_superposition_stays_pure(self, qx):
        basis = dfs_basis(qx, characters(qx)[0])
        state = (basis.vectors[0] + basis.vectors[1]) / np.sqrt(2)
        report = decoherence_scan(qx, state, trials=8, seed=2)
        assert report.min_purity > 1 - 1e-9

    def test_trivial_group_never_decoheres(self):
        group = closure([], n_qubits=2)
        state = (ket("00") + 1j * ket("10")) / np.sqrt(2)
        report = decoherence_scan(group, state, trials=8, seed=0)
        assert report.min_purity > 1 - 1e-12

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials_rejected(self, qz, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            decoherence_scan(qz, ket("00"), trials=trials)

    @pytest.mark.parametrize("phases", ["plus", "minus", "full", "trivial", "nonabelian"])
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(1, 5),
        in_irrep=st.booleans(),
        n_ops=st.integers(1, 3),
        scale=st.floats(0.5, 2.0),
    )
    def test_matches_dense_oracle(self, phases, seed, n_qubits, in_irrep, n_ops, scale):
        """The irrep-space scan (Abelian phase classes) and the
        string-algebra scan (non-Abelian groups, whose states are never
        inside one irrep) reproduce the dense Kraus scan: same draws, same
        channels, purities and fidelities to 1e-10.  The state is scaled
        off unit norm; both read the fidelity off the unit state, so it
        stays at most 1."""
        rng = np.random.default_rng(seed)
        if phases == "nonabelian":
            group = random_nonabelian_subgroup(rng, n_qubits, max_generators=4)
            assert not group.is_abelian
            in_irrep = False
        else:
            group = abelian_group(rng, n_qubits, phases)
            phase_subgroup = {e.phase_exp for e in group.phase_subgroup}
            assert phase_subgroup == {
                "plus": {0}, "trivial": {0}, "minus": {0, 2}, "full": {0, 1, 2, 3}
            }[phases]
        if in_irrep:
            supported = [c for c in characters(group) if multiplicity(group, c)]
            basis = dfs_basis(group, supported[rng.integers(len(supported))])
            m = basis.multiplicity
            state = basis.stack() @ (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            state /= np.linalg.norm(state)
        else:
            state = random_state(rng, 1 << n_qubits)
        state = scale * state
        scan_seed = int(rng.integers(0, 1000))
        report = decoherence_scan(group, state, trials=2, seed=scan_seed, n_ops=n_ops)
        purities, fidelities = reference_decoherence_scan(
            group, state, trials=2, seed=scan_seed, n_ops=n_ops
        )
        assert np.max(np.abs(np.subtract(report.purities, purities))) < 1e-10
        assert np.max(np.abs(np.subtract(report.fidelities, fidelities))) < 1e-10
        assert max(report.fidelities) <= 1 + 1e-12
        if in_irrep:
            assert report.min_purity > 1 - 1e-9

    @pytest.mark.parametrize("generators", [("ZI", "IZ"), ("XI", "ZI")])
    def test_fidelity_reads_unit_state(self, generators):
        """2|00> scans like |00> on the irrep route (Abelian) and on the
        string-algebra route (non-Abelian), so its fidelity stays at most 1."""
        group = closure([parse_pauli(s) for s in generators])
        unit = decoherence_scan(group, ket("00"), trials=4, seed=1)
        scaled = decoherence_scan(group, 2 * ket("00"), trials=4, seed=1)
        assert scaled.purities == pytest.approx(unit.purities, abs=1e-12)
        assert scaled.fidelities == pytest.approx(unit.fidelities, abs=1e-12)
        assert max(scaled.fidelities) <= 1 + 1e-12

    @pytest.mark.parametrize(
        "generators",
        [
            pytest.param(("Z" * 10, "X" * 10), id="abelian"),
            pytest.param(("XIIIIIIIII", "ZIIIIIIIII", "IIZZIIIIII"), id="nonabelian"),
        ],
    )
    def test_scan_builds_no_dense_operator(self, monkeypatch, generators):
        """At K=10 neither route calls ``to_matrix``, and the scan's
        tracemalloc peak stays below a quarter of one dense 2^10 x 2^10
        operator; the dense oracle holds one per element."""

        def forbidden(*args, **kwargs):
            raise AssertionError("to_matrix called on the scan path")

        monkeypatch.setattr(channels, "to_matrix", forbidden)
        group = closure([parse_pauli(s) for s in generators])
        state = random_state(np.random.default_rng(0), 1 << 10)
        tracemalloc.start()
        try:
            report = decoherence_scan(group, state, trials=4, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = 16 << 20  # one complex128 2^10 x 2^10 matrix
        assert report.min_purity < 1 - 1e-3
        assert peak < dense_bytes // 4

    def test_degenerate_draw_reseeds(self, monkeypatch, qz):
        """A zero draw in trial 2 is retried with attempt + 1, exactly as
        the dense route retries it."""
        bell = (ket("00") + ket("11")) / np.sqrt(2)
        seeds = [5 * 1_000_003 + t * 97 for t in range(4)]
        requested = _zero_draws_at(monkeypatch, {seeds[2]})
        report = decoherence_scan(qz, bell, trials=4, seed=5)
        assert requested == [seeds[0], seeds[1], seeds[2], seeds[2] + 1, seeds[3]]
        purities, fidelities = reference_decoherence_scan(qz, bell, trials=4, seed=5)
        assert np.max(np.abs(np.subtract(report.purities, purities))) < 1e-12
        assert np.max(np.abs(np.subtract(report.fidelities, fidelities))) < 1e-12

    @pytest.mark.parametrize("degenerate, raises", [(8, False), (9, True)])
    def test_reseed_limit(self, monkeypatch, qz, degenerate, raises):
        """Nine degenerate attempts in a row give up; eight do not."""
        first = 5 * 1_000_003 + 97
        _zero_draws_at(monkeypatch, set(range(first, first + degenerate)))
        if raises:
            with pytest.raises(DegenerateKrausError):
                decoherence_scan(qz, ket("00"), trials=2, seed=5)
        else:
            assert decoherence_scan(qz, ket("00"), trials=2, seed=5).trials == 2

    def test_report_json(self, qz):
        report = decoherence_scan(qz, ket("00"), trials=4, seed=0)
        data = report.to_json_dict()
        assert data["trials"] == 4
        assert len(data["purities"]) == 4
        assert data["min_purity"] <= data["mean_purity"]


class TestQ8Construction:
    def test_planes_invariant(self, q8):
        assert plane_invariance_residual(q8) < 1e-12

    def test_degenerate_identity_channel(self):
        kraus = q8_constrained_kraus(1, 0, 0, 0, 1, 0)
        assert np.max(np.abs(kraus.operators[0] - np.eye(8))) < 1e-12
        assert np.max(np.abs(kraus.operators[1])) < 1e-12
        assert code_fix_residual(kraus, q8_code_states()) < 1e-12

    def test_generic_parameters_fix_code(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
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
            # every code state is an eigenvector with the shared value c_d
            for op, expected in zip(kraus.operators, c):
                for state in q8_code_states():
                    assert np.linalg.norm(op @ state - expected * state) < 1e-10

    def test_second_plane_vector_not_fixed(self):
        """With d1 != 0 the partner vector |110> leaves the eigenline."""
        c1, c2 = np.sqrt(0.5), np.sqrt(0.5)
        d = 0.6 * np.array([-c2, c1])
        e = np.array([0.4, 0.4])
        tail = np.concatenate([d, e])
        tail = tail / np.linalg.norm(tail) * 1.0
        kraus = q8_constrained_kraus(c1, c2, tail[0], tail[1], tail[2], tail[3])
        partner = ket("110")
        op = kraus.operators[0]
        image = op @ partner
        overlap = np.vdot(partner, image)
        assert np.linalg.norm(image - overlap * partner) > 1e-3

    def test_constraint_violations_named(self):
        with pytest.raises(ChannelConstraintError, match="conj"):
            q8_constrained_kraus(1, 0, 0.5, 0, 0.5, np.sqrt(0.5))
        with pytest.raises(ChannelConstraintError, match=r"\|c1\|"):
            q8_constrained_kraus(2, 0, 0, 0, 1, 0)
        with pytest.raises(ChannelConstraintError, match=r"\|d1\|"):
            q8_constrained_kraus(1, 0, 0, 0, 0.5, 0)

    def test_probe(self):
        report = q8_genericity_probe(seed=0, draws=64)
        assert report.draws == 64
        assert report.unconstrained_failures >= 63
        assert report.constrained_failures == 0
        assert report.max_constrained_residual < 1e-10
        assert report.min_unconstrained_residual > report.failure_threshold

    def test_planes_listed_shapes(self):
        planes = q8_invariant_planes()
        assert len(planes) == 4
        for a, b in planes:
            assert abs(np.vdot(a, b)) < 1e-12


def test_every_example_basis_is_channel_stable(qz, qx, q4, q2z):
    """Every DFS basis of every example subgroup survives 32 seeded
    channels with purity and span fidelity 1."""
    rng = np.random.default_rng(1)
    for group in (qz, qx, q4, q2z):
        for char in characters(group):
            basis = dfs_basis(group, char)
            if not basis.vectors:
                continue
            weights = rng.standard_normal(len(basis.vectors)) + 1j * (
                rng.standard_normal(len(basis.vectors))
            )
            state = sum(w * v for w, v in zip(weights, basis.vectors))
            state /= np.linalg.norm(state)
            report = decoherence_scan(group, state, trials=32, seed=3)
            assert report.min_purity > 1 - 1e-9
            assert report.min_fidelity > 1 - 1e-9


def test_degenerate_draw_is_value_error():
    # callers catch ValueError and reseed; keep the subclassing stable
    assert issubclass(DegenerateKrausError, ValueError)


def test_fidelity_definition():
    state = ket("01")
    rho = 0.25 * np.eye(4)
    assert state_fidelity(state, rho) == pytest.approx(0.25)
