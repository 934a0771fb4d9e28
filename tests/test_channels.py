"""Kraus channels: normalization, evolution, scans and the q8 code."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paulidfs import (
    ChannelConstraintError,
    DegenerateKrausError,
    apply_channel,
    assert_density_matrix,
    characters,
    closure,
    code_fix_residual,
    decoherence_scan,
    dfs_basis,
    multiplicity,
    parse_pauli,
    q8_code_states,
    q8_constrained_kraus,
    q8_genericity_probe,
    q8_invariant_planes,
    random_group_algebra_kraus,
    to_matrix,
)
from paulidfs import channels
from paulidfs.presets import plane_invariance_residual
from sampling import random_nonabelian_subgroup, random_state
from helpers import (
    abelian_group,
    density_matrix_from_state,
    ket,
    purity,
    reference_decoherence_scan,
    reference_group_algebra_kraus,
    state_fidelity,
    uniform_group_channel,
)


def _zero_draws_at(monkeypatch, bad_seeds) -> list:
    """Make the channels' ``seeded_normals`` draw zeros for ``bad_seeds``;
    returns the list of every seed requested from then on."""
    real = channels.seeded_normals
    requested = []

    def seeded_normals(seed, size):
        seeds = np.ravel(np.asarray(seed, dtype=object)).tolist()
        requested.extend(seeds)
        out = real(seed, size).reshape(len(seeds), size)
        out[[s in bad_seeds for s in seeds]] = 0
        return out if np.ndim(seed) else out[0]

    monkeypatch.setattr(channels, "seeded_normals", seeded_normals)
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

    @pytest.mark.parametrize(
        "entry, message",
        [
            pytest.param(None, "trace deviates", id="all-nan"),
            pytest.param((1, 1), "trace deviates", id="nan-diagonal"),
            pytest.param((1, 0), "not Hermitian", id="nan-off-diagonal"),
        ],
    )
    @pytest.mark.parametrize("stacked", [False, True])
    def test_assert_density_matrix_rejects_nan(self, entry, message, stacked):
        """NaN fails the trace and Hermiticity tests, in one matrix and in one
        block of a stack of otherwise valid density matrices."""
        rho = np.diag([0.5, 0.5]).astype(complex)
        if entry is None:
            rho[:] = np.nan
        else:
            rho[entry] = np.nan
        if stacked:
            rho = np.stack([np.diag([1.0, 0.0]), rho, np.eye(2) / 2])
        with pytest.raises(ValueError, match=message):
            assert_density_matrix(rho)


def _hermitian_stack(rng, count, size, rank, exponent):
    """``count`` Hermitian blocks of ``size`` x ``size`` and the given rank
    ("full": indefinite; "one"; "zero"), scaled by 2^exponent, with noise in
    the imaginary parts of the diagonal and in the upper triangle, which
    ``eigvalsh`` does not read."""
    shape = (count, size, size)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if rank == "full":
        blocks = v + v.conj().swapaxes(-1, -2)
    elif rank == "one":
        blocks = v[..., :1] * v[..., :1].conj().swapaxes(-1, -2)
    else:
        blocks = np.zeros_like(v)
    blocks[..., range(size), range(size)] += 1j * rng.standard_normal((count, size))
    if size == 2:
        blocks[..., 0, 1] += rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return blocks * 2.0**exponent


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 6),
    size=st.sampled_from([1, 2]),
    rank=st.sampled_from(["full", "one", "zero"]),
    exponent=st.sampled_from([-40, 0, 40]),
    nan_at=st.sampled_from([None, (0, 0), (-1, -1), (-1, 0)]),
)
def test_closed_form_lowest_eigenvalue_matches_eigvalsh(
    seed, count, size, rank, exponent, nan_at
):
    """The closed-form smallest eigenvalue of 1 x 1 and 2 x 2 blocks is
    ``eigvalsh``'s within 1e-12 of each block's scale, rank-deficient and
    2^(+-40)-scaled blocks included; a NaN read from the real diagonal or
    the lower triangle gives NaN for its block and for the stack's minimum."""
    rng = np.random.default_rng(seed)
    blocks = _hermitian_stack(rng, count, size, rank, exponent)
    low = channels._lowest_eigenvalues(blocks)
    expected = np.linalg.eigvalsh(blocks)[..., 0]
    scale = np.abs(blocks).max(axis=(-2, -1))
    assert low.shape == (count,)
    assert np.all(np.abs(low - expected) <= 1e-12 * scale)
    assert abs(low.min() - expected.min()) <= 1e-12 * scale.max()
    if nan_at is not None:
        hit = rng.integers(count)
        blocks[(hit, *nan_at)] = np.nan
        low = channels._lowest_eigenvalues(blocks)
        assert np.isnan(low[hit]) and np.isnan(low.min())
        assert not np.isnan(np.delete(low, hit)).any()


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
    # S with eigenvalues from about 1.9e-6 to 20 for "minus"
    @example(seed=2, n_qubits=4, in_irrep=True, n_ops=1, scale=1.0)
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
        """2|00> scans like |00> on 1 x 1 blocks (Abelian) and on one 2 x 2
        block (non-Abelian), so its fidelity stays at most 1."""
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

    def test_scan_work_counts_every_trial(self, qz):
        """Each trial is charged ``SCAN_TRIAL_WORK`` besides its draw, so a
        four-element group passes at 837 552 trials and is refused at one
        more, in the library as on the command line."""
        channels.require_scan_work(qz.sifted, 837_552)
        with pytest.raises(ValueError, match="channel scan work W = "):
            channels.require_scan_work(qz.sifted, 837_553)
        with pytest.raises(ValueError, match="channel scan work W = "):
            decoherence_scan(qz, ket("00"), trials=1 << 40)

    @pytest.mark.parametrize("generators", [("ZI", "IZ"), ("XI", "ZI"), ("XX", "ZI")])
    def test_moment_blocks_checked_for_every_group(self, generators):
        """The moment blocks of a unit vector have traces summing to 1; those
        of a vector of norm 2 sum to 4 and are refused, on the Abelian route
        (1 x 1 blocks) and the non-Abelian ones alike."""
        basis = channels._BlockBasis(closure([parse_pauli(s) for s in generators]))
        traces = np.trace(basis.moments(ket("01")), axis1=1, axis2=2)
        assert traces.sum() == pytest.approx(1, abs=1e-12)
        with pytest.raises(AssertionError, match="are not a state"):
            basis.moments(2 * ket("01"))

    def test_polar_factor_survives_ill_conditioned_draw(self, monkeypatch):
        """A hand-built draw whose S has condition number 1e10, two
        operators on the one 4 x 4 block of the two-qubit Pauli group, comes
        out of ``_draw`` as its polar factor U V^dag, with sum A^dag A = I
        within 1e-12; S^(-1/2) from ``eigh`` misses that by far more."""
        group = closure([parse_pauli(s) for s in ("XI", "ZI", "IX", "IZ")])
        basis = channels._BlockBasis(group)
        rng = np.random.default_rng(5)
        draw = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        u, _ = np.linalg.qr(draw[:8])
        v, _ = np.linalg.qr(draw[8:])
        hand = ((u * np.geomspace(1, 1e-5, 4)) @ v.conj().T).reshape(2, 1, 4, 4)
        strings = basis.coefficients(hand)
        raw = strings[:, basis.string_of] * basis.phase_of.conj() / basis.phase_count
        monkeypatch.setattr(channels, "_raw_coefficients", lambda *args: raw.copy())
        hat = channels._draw(basis, 2, 0)
        assert np.abs(hat - (u @ v.conj().T).reshape(2, 1, 4, 4)).max() < 1e-9
        total = (hat.conj().swapaxes(-1, -2) @ hat).sum(axis=0)
        assert np.abs(total - basis.identity).max() < 1e-12
        s = (hand.conj().swapaxes(-1, -2) @ hand).sum(axis=0)
        eigenvalues, vectors = np.linalg.eigh(s)
        assert eigenvalues.max() / eigenvalues.min() == pytest.approx(1e10, rel=1e-3)
        inv_sqrt = vectors * eigenvalues[..., None, :] ** -0.5
        by_eigh = hand @ (inv_sqrt @ vectors.conj().swapaxes(-1, -2))
        eigh_total = (by_eigh.conj().swapaxes(-1, -2) @ by_eigh).sum(axis=0)
        assert np.abs(eigh_total - basis.identity).max() > 1e-12

    def test_closed_form_polar_survives_ill_conditioned_draw(self, monkeypatch):
        """The 2 x 2 twin of the test above: {X, Z} on one qubit, one 2 x 2
        block, a hand-built draw whose S has condition number 1e10, comes out
        of ``_draw``'s closed form as U V^dag with sum A^dag A = I within
        1e-12."""
        basis = channels._BlockBasis(closure([parse_pauli("X"), parse_pauli("Z")]))
        rng = np.random.default_rng(5)
        draw = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        u, _ = np.linalg.qr(draw[:4])
        v, _ = np.linalg.qr(draw[4:])
        hand = ((u * [1, 1e-5]) @ v.conj().T).reshape(2, 1, 2, 2)
        strings = basis.coefficients(hand)
        raw = strings[:, basis.string_of] * basis.phase_of.conj() / basis.phase_count
        monkeypatch.setattr(channels, "_raw_coefficients", lambda *args: raw.copy())
        s = np.linalg.eigvalsh((hand.conj().swapaxes(-1, -2) @ hand).sum(axis=0))
        assert s.max() / s.min() == pytest.approx(1e10, rel=1e-3)
        hat = channels._draw(basis, 2, 0)
        assert np.abs(hat - (u @ v.conj().T).reshape(2, 1, 2, 2)).max() < 1e-9
        total = (hat.conj().swapaxes(-1, -2) @ hat).sum(axis=0)
        assert np.abs(total - basis.identity).max() < 1e-12

    @pytest.mark.parametrize("generators", [("ZI", "IZ"), ("X", "Z")], ids=["1x1", "2x2"])
    def test_zero_draw_redrawn_then_refused(self, monkeypatch, generators):
        """A zero draw on 1 x 1 blocks (qz) and on one 2 x 2 block ({X, Z})
        is redrawn at seed + 1; a zero redraw too raises DegenerateKrausError
        with the dense route's message."""
        group = closure([parse_pauli(s) for s in generators])
        basis = channels._BlockBasis(group)
        expected = channels._draw(basis, 2, [3, 8])
        requested = _zero_draws_at(monkeypatch, {7})
        assert np.array_equal(channels._draw(basis, 2, [3, 7], attempts=2), expected)
        assert requested == [3, 7, 8]
        _zero_draws_at(monkeypatch, {7, 8})
        errors = []
        for build in (
            lambda: channels._draw(basis, 2, [3, 7], attempts=2),
            lambda: reference_group_algebra_kraus(group, 2, seed=8),
        ):
            with pytest.raises(DegenerateKrausError) as caught:
                build()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        columns=st.integers(1, 2),
        rows=st.integers(0, 5),
        stacks=st.integers(1, 4),
        spread=st.floats(0, 3),
        scale=st.integers(-40, 40),
    )
    def test_closed_form_polar_matches_svd(
        self, seed, columns, rows, stacks, spread, scale
    ):
        """``_polar`` on stacks of m x 1 and m x 2 matrices, the latter with
        condition number 10^spread up to 10^3, scaled by 2^-40 ... 2^40,
        gives the polar factor U V^dag and the smallest singular value of
        ``np.linalg.svd`` within 1e-12 (times sigma_max for the latter)."""
        rng = np.random.default_rng(seed)
        shape = (stacks, columns + rows, columns)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if columns == 2:
            left, _ = np.linalg.qr(stack)
            right, _ = np.linalg.qr(stack[:, :2])
            stack = (left * [1, 10.0**-spread]) @ right.conj().swapaxes(-1, -2)
        stack *= 2.0**scale
        u, sigma, vh = np.linalg.svd(stack, full_matrices=False)
        polar, low = channels._polar(stack)
        assert np.abs(polar - u @ vh).max() < 1e-12
        assert np.abs(np.sqrt(low) - sigma.min(axis=-1)).max() < 1e-12 * sigma.max()

    def test_degenerate_draw_reseeds(self, monkeypatch, qz):
        """A zero draw in trial 2 is redrawn with attempt + 1, exactly as
        the dense route redraws it; each trial requests its own seeds, the
        batch of all trials first."""
        bell = (ket("00") + ket("11")) / np.sqrt(2)
        seeds = [5 * 1_000_003 + t * 97 for t in range(4)]
        requested = _zero_draws_at(monkeypatch, {seeds[2]})
        report = decoherence_scan(qz, bell, trials=4, seed=5)
        by_trial = {}
        for s in requested:
            by_trial.setdefault((s - seeds[0]) // 97, []).append(s)
        assert by_trial == {
            0: [seeds[0]], 1: [seeds[1]], 2: [seeds[2], seeds[2] + 1], 3: [seeds[3]]
        }
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

    @pytest.mark.parametrize("entry", [None, (3, 5)], ids=["all-nan", "one-nan"])
    def test_nan_operators_fail_check_and_residual(self, entry):
        """A channel with NaN in its operators fails ``validate`` and has a NaN
        code residual, not the 0 of a channel that fixes the code."""
        identity = q8_constrained_kraus(1, 0, 0, 0, 1, 0)
        operators = [op.copy() for op in identity.operators]
        if entry is None:
            operators[1][:] = np.nan
        else:
            operators[1][entry] = np.nan
        kraus = channels.KrausSet(3, tuple(operators))
        with pytest.raises(ChannelConstraintError, match="deviates from identity"):
            kraus.validate()
        assert np.isnan(kraus.normalization_defect())
        assert np.isnan(code_fix_residual(kraus, q8_code_states()))

    def test_probe_counts_nan_draws_as_breaking(self, monkeypatch):
        """A NaN unconstrained draw counts as breaking the code, and its NaN
        residual is the reported minimum."""
        nan_kraus = channels.KrausSet(3, (np.full((8, 8), np.nan),) * 2)
        monkeypatch.setattr(channels, "_algebra_kraus", lambda *args: nan_kraus)
        report = q8_genericity_probe(seed=0, draws=4)
        assert report.unconstrained_failures == 4
        assert np.isnan(report.min_unconstrained_residual)
        assert report.constrained_failures == 0

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


_K6_H1 = ("XIIIII", "ZIIIII", "IIZZII", "IIIIZZ")


def test_small_blocks_call_no_lapack(monkeypatch, qz, q8):
    """Scans whose blocks are 1 x 1 (qz) or 2 x 2 (q8, and a K=6 group with
    c = 2 central strings and h = 1 pair), and the q8 preset report, call
    neither ``eigvalsh``, ``svd`` nor ``norm`` of ``np.linalg``."""
    from paulidfs.cli import build_preset_report

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called on a path of blocks of at most 2 x 2")

    k6 = closure([parse_pauli(s) for s in _K6_H1])
    for name in ("eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for group, size in ((qz, 1), (q8, 2), (k6, 2)):
        assert channels._BlockBasis(group).identity.shape == (size, size)
        report = decoherence_scan(group, ket("0" * group.n_qubits), trials=8, seed=3)
        assert 0 < report.min_purity <= 1 + 1e-12
    probe = build_preset_report("q8", 32, 0)["nongeneric_code"]["probe"]
    assert probe["constrained_failures"] == 0


_OPENBLAS_GROWTH = """
import contextlib, io, sys
import paulidfs.channels
from paulidfs.cli import main

def openblas_kb():
    total, inside = 0, False
    for line in open("/proc/self/smaps"):
        head = line.split()
        if "-" in head[0] and ":" not in head[0]:
            inside = "openblas" in line
        elif inside and head[0] == "Rss:":
            total += int(head[1])
    return total

before = openblas_kb()
with contextlib.redirect_stdout(io.StringIO()):
    main(["channel", "ZI", "IZ", "--state", "|00>", "--trials", "64", "--json"])
    main(["channel", *sys.argv[1:], "--state", "|000000>", "--trials", "64", "--json"])
    main(["preset", "q8", "--json"])
print(before, openblas_kb())
"""


def test_small_blocks_fault_in_no_openblas_code():
    """A fresh process that runs a 1 x 1 scan, a 2 x 2 scan and the q8 report
    maps no further OpenBLAS page: no BLAS or LAPACK code runs at all.
    Skipped where numpy's BLAS is not OpenBLAS or smaps is not readable."""
    try:
        smaps = open("/proc/self/smaps").read()
    except OSError:
        pytest.skip("no /proc/self/smaps")
    if "openblas" not in smaps:
        pytest.skip("numpy does not use OpenBLAS here")
    done = subprocess.run(
        [sys.executable, "-c", _OPENBLAS_GROWTH, *_K6_H1],
        capture_output=True, text=True, check=True,
    )
    before, after = map(int, done.stdout.split())
    assert after == before, f"OpenBLAS Rss grew from {before} to {after} kB"


class TestScanArrays:
    def test_results_are_read_only_float_arrays(self, qz):
        """Purities and fidelities are float64 arrays, one entry a trial,
        which ``to_json_dict`` writes as lists; the mean is Python's
        left-to-right sum of the purities."""
        report = decoherence_scan(qz, ket("00") + ket("11"), trials=37, seed=2)
        for values in (report.purities, report.fidelities):
            assert values.dtype == np.float64 and values.shape == (37,)
            assert not values.flags.writeable
        data = report.to_json_dict()
        assert data["purities"] == report.purities.tolist()
        assert data["fidelities"] == report.fidelities.tolist()
        assert data["mean_purity"] == sum(data["purities"]) / 37
        assert data["min_purity"] == min(data["purities"])
        assert data["min_fidelity"] == min(data["fidelities"])

    def test_trial_seeds_unchanged(self, monkeypatch, qz):
        """Trial t of seed s draws at s * 1 000 003 + 97 t, past 2^63 too."""
        requested = _zero_draws_at(monkeypatch, set())
        seed = 1 << 60
        decoherence_scan(qz, ket("00"), trials=5, seed=seed)
        assert requested == [seed * 1_000_003 + 97 * t for t in range(5)]
