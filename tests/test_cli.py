"""Command-line surface: exit codes, JSON determinism, state parsing."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paulidfs
from paulidfs import cli
from paulidfs.cli import (
    build_analysis_report,
    build_preset_report,
    main,
    parse_state_spec,
)
from paulidfs.pauli import format_pauli, identity
from paulidfs.presets import PRESET_NAMES
from helpers import (
    V1_VALUE_NAMES,
    abelian_group,
    expand_v1,
    reference_characters,
    root_exponent,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateSpec:
    def test_single_ket(self):
        state = parse_state_spec("|00>")
        assert np.allclose(state, [1, 0, 0, 0])

    def test_superposition(self):
        state = parse_state_spec("0.7071|00> + 0.7071|11>")
        assert np.allclose(state, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_negative_amplitude(self):
        state = parse_state_spec("|01>-|10>")
        assert np.allclose(state, np.array([0, 1, -1, 0]) / np.sqrt(2))

    def test_normalizes(self):
        state = parse_state_spec("3|0>+4|1>")
        assert np.allclose(state, [0.6, 0.8])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="position"):
            parse_state_spec("|00> + cat")

    def test_rejects_mixed_width(self):
        with pytest.raises(ValueError, match="equal length"):
            parse_state_spec("|0>+|00>")

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            parse_state_spec("|0>-|0>")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1e999|00>", "term '1e999|00>' is not finite"),
            ("|00>-1e999|11>", "term '-1e999|11>' is not finite"),
            ("1e200|00>+1e200|11>", "norm of '1e200|00>+1e200|11>' is not finite"),
            ("1e308|00>+1e308|00>", "norm of '1e308|00>+1e308|00>' is not finite"),
        ],
    )
    def test_rejects_non_finite(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_state_spec(spec)

    def test_qubit_count_check(self):
        with pytest.raises(ValueError, match="acts on"):
            parse_state_spec("|000>", n_qubits=2)


class TestAnalyze:
    def test_qz_generators(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "ZI", "IZ", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 3
        assert report["subgroup"]["order"] == 4
        assert len(report["characters"]) == 4
        assert all(c["multiplicity"] == 1 for c in report["characters"])

    def test_qx_generators(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "XXII", "IIXX", "--json")
        assert code == 0
        report = json.loads(out)
        assert [c["multiplicity"] for c in report["characters"]] == [4, 4, 4, 4]

    def test_comma_separated(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "ZZII,ZIIZ,IIZZ", "--json")
        assert code == 0
        assert json.loads(out)["subgroup"]["order"] == 8

    def test_nonabelian_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "XXI", "IZZ", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "non_abelian"
        assert report["one_dim_search"]["joint_eigenspaces"] == []
        assert report["one_dim_search"]["one_dimensional_dfs_count"] == 0

    def test_require_dfs_refusal(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "XXI", "IZZ", "--require-dfs")
        assert code == 2
        assert "non-Abelian" in err

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "XQ")
        assert code == 1
        assert "position 1" in err

    def test_mixed_qubit_counts_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "XX", "ZZZ")
        assert code == 1
        assert "qubit" in err.lower()

    def test_json_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "analyze", "ZI", "IZ", "--json", "--seed", "3")
        _, second, _ = run_cli(capsys, "analyze", "ZI", "IZ", "--json", "--seed", "3")
        assert first == second

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "XXXX", "ZZZZ", "--json")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_character_labels_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "ZZII,ZIIZ,IIZZ", "--json")
        labels = [c["label"] for c in json.loads(out)["characters"]]
        assert labels == sorted(labels)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(1, 5),
        phases=st.sampled_from(["plus", "minus", "full", "trivial"]),
    )
    def test_v3_table_matches_dense_oracle(self, seed, n_qubits, phases):
        """The values rebuilt from the generators, coordinates and label
        rows of the JSON table are the oracle's characters, row by row."""
        group = abelian_group(np.random.default_rng(seed), n_qubits, phases)
        strings = [format_pauli(g) for g in group.generators] or [
            format_pauli(identity(n_qubits))
        ]
        report = json.loads(json.dumps(build_analysis_report(strings, 1, 0, 0)))
        table = report["character_table"]
        r = len(table["generators"]) - 1
        assert 2**r <= group.order <= 4 * 2**r
        assert len(table["coordinates"]) == len(table["rows"]) == group.order
        assert all(len(row["exponents"]) == r + 1 for row in table["rows"])
        v1 = expand_v1(report)["character_table"]
        assert v1["elements"] == [format_pauli(e) for e in group.elements]
        assert [row["values"] for row in v1["rows"]] == [
            [V1_VALUE_NAMES[root_exponent(values[e])] for e in group.elements]
            for values in reference_characters(group)
        ]

    def test_report_order_cap_refused_before_work(self, capsys):
        """Twice the report cap, as independent Z strings, is refused by the
        order read off the sift, before any element is built."""
        k = cli.REPORT_ORDER_CAP.bit_length()
        generators = ["I" * j + "Z" + "I" * (k - 1 - j) for j in range(k)]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "analyze", *generators, "--json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert f"closure order {1 << k} exceeds the order cap" in err
        assert peak < 4 << 20

    def test_report_order_cap_spares_non_abelian(self, capsys):
        """A non-Abelian report has no character table, so X_j and Z_j on 8
        qubits (order 2^17, above the report cap) still complete."""
        generators = [
            "I" * j + letter + "I" * (7 - j) for j in range(8) for letter in "XZ"
        ]
        code, out, _ = run_cli(capsys, "analyze", *generators, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["subgroup"]["order"] == 1 << 17 > cli.REPORT_ORDER_CAP
        assert report["verdict"] == "non_abelian"
        assert "character_table" not in report

    def test_dense_limit_skips_matrices(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "ZI", "IZ", "--json", "--dense-limit", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert "reducibility" not in report
        assert [c["multiplicity"] for c in report["characters"]] == [1, 1, 1, 1]
        assert all("basis" not in c for c in report["characters"])


class TestPreset:
    def test_q2z(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "q2z", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["preset"] == "q2z"
        trivial = report["characters"][0]
        assert trivial["multiplicity"] == 2
        assert trivial["basis"]["vectors"] == [
            {"kets": [0], "amplitudes": [[1.0, 0.0]]},
            {"kets": [15], "amplitudes": [[1.0, 0.0]]},
        ]

    def test_q4_paired_basis(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "q4", "--json")
        report = json.loads(out)
        trivial = report["characters"][0]
        assert trivial["multiplicity"] == 4
        vectors = trivial["basis"]["vectors"]
        assert [vec["kets"] for vec in vectors] == [[0, 15], [3, 12], [5, 10], [6, 9]]
        for vec in vectors:
            assert all(abs(re) + abs(im) > 1e-12 for re, im in vec["amplitudes"])

    def test_q8_extras(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "q8", "--json", "--trials", "4")
        assert code == 0
        report = json.loads(out)
        extras = report["nongeneric_code"]
        assert extras["plane_invariance_residual"] < 1e-12
        assert extras["probe"]["unconstrained_failures"] >= 63
        assert extras["probe"]["constrained_failures"] == 0

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("qz", "e015eb1ddd24dc5293b7caef5a468900e6f517fcd0e5c6278f30cd5326ab72c1"),
            ("qx", "90de8d44a6cb5734c4edae78b995f821a41f972a96bc447a3c79487dfe787629"),
            ("q4", "95c0defa369ede93dde68c17a3ac1054f1b8ce8c3c81c04cf0de27554d318a22"),
            ("q2z", "ea147481e05ff24a692abb1be2ad2d234b92e8df1fd6cd679ef036906293046c"),
            ("q8", "5285d82a7ab643a9a37f8a386f7348b03f849f11402fe59570d282478cf7932d"),
        ],
    )
    def test_json_contract_pinned(self, capsys, name, digest):
        """The preset JSON, its sparse basis vectors written out densely as
        in schema v1, stays byte-identical, residuals aside: those are
        round-off and depend on the order of floating-point sums."""

        def null_residuals(node):
            if isinstance(node, dict):
                return {
                    k: None if k.endswith("residual") else null_residuals(v)
                    for k, v in node.items()
                }
            if isinstance(node, list):
                return [null_residuals(v) for v in node]
            return node

        code, out, _ = run_cli(capsys, "preset", name, "--json")
        assert code == 0
        text = json.dumps(null_residuals(expand_v1(json.loads(out))), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "q9"])
        assert exc.value.code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_text_mode_default(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "qz", "--trials", "2")
        assert code == 0
        assert "character 1: multiplicity 1" in out
        assert "elapsed" in out


def z_strings(count, n_qubits):
    """``count`` single-qubit Z strings on ``n_qubits`` qubits: order 2^count."""
    return ["I" * j + "Z" + "I" * (n_qubits - 1 - j) for j in range(count)]


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


class TestEmit:
    def test_multi_batch_json_equals_dumps(self, capsys):
        """Order 2^12 at K=13, above the dense limit of 12."""
        report = build_analysis_report(z_strings(12, 13), 4, 0, 12)
        chunks = json.JSONEncoder(indent=2).iterencode(report)
        assert sum(1 for _ in chunks) > 4 * cli.EMIT_BATCH_CHUNKS
        cli._emit(report, True, 0.0)
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_json_equals_dumps(self, capsys, name):
        report = build_preset_report(name, 4, 0, 12)
        cli._emit(report, True, 0.0)
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"

    def test_emission_memory_bounded(self, capsys, monkeypatch):
        """Writing a report of several MB holds a small share of it: the
        document is never joined whole, nor are all its chunks kept."""
        report = build_analysis_report(z_strings(14, 15), 1, 0, 12)
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._emit(report, True, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size >= 5_000_000
        assert peak < sink.size / 4, (peak, sink.size)

    def test_memory_error_while_writing_is_numeric_failure(
        self, capsys, monkeypatch
    ):
        """A failure after the first batch exits 3 with the numeric-failure
        message; stdout then holds only the first batch of the document."""
        generators = z_strings(10, 13)
        report = build_analysis_report(generators, 32, 0, 12)
        document = json.dumps(report, indent=2)
        encode = json.JSONEncoder.iterencode

        def fail_after_first_batch(self, o):
            chunks = encode(self, o)
            for _ in range(cli.EMIT_BATCH_CHUNKS):
                yield next(chunks)
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(json.JSONEncoder, "iterencode", fail_after_first_batch)
        code, out, err = run_cli(capsys, "analyze", *generators, "--json")
        assert code == 3
        assert "numeric failure: Unable to allocate 8.00 GiB" in err
        assert 0 < len(out) < len(document)
        assert document.startswith(out)

    def test_abelian_analyze_imports_no_masked_arrays(self):
        """``np.unique`` without return arrays imports ``numpy.ma``; an
        Abelian report with bases and verification needs none of it."""
        script = (
            "import sys\n"
            "from paulidfs.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(paulidfs.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script, "analyze", "XXXX", "ZZZZ", "ZZII", "--json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["characters"][0]["verification"]["passed"]
        assert done.stderr.splitlines()[-1] == "False"


class TestChannel:
    def test_dfs_ket_purity_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "|00>", "--json",
            "--trials", "8",
        )
        assert code == 0
        scan = json.loads(out)["scan"]
        assert scan["min_purity"] > 1 - 1e-9

    def test_cross_irrep_purity_drops(self, capsys):
        code, out, _ = run_cli(
            capsys, "channel", "ZI", "IZ",
            "--state", "0.7071|00>+0.7071|11>", "--json", "--trials", "16",
        )
        assert code == 0
        assert json.loads(out)["scan"]["min_purity"] < 1 - 1e-3

    def test_comma_generators_q2z(self, capsys):
        code, out, _ = run_cli(
            capsys, "channel", "ZZII,ZIIZ,IIZZ", "--state", "|0000>",
            "--json", "--trials", "4",
        )
        assert code == 0
        assert json.loads(out)["scan"]["min_purity"] > 1 - 1e-9

    def test_state_qubit_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "|000>"
        )
        assert code == 1

    def test_zero_trials_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "|00>", "--trials", "0"
        )
        assert code == 1
        assert out == ""
        assert "input error: trials must be >= 1" in err

    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "|00>", "--trials", "2"
        )
        assert code == 0
        assert "channel scan: 2 trials" in out

    def test_usage_error_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["channel", "ZI", "IZ"])  # missing --state
        assert exc.value.code == 1

    @pytest.mark.filterwarnings("error")
    def test_non_finite_state_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "1e999|00>"
        )
        assert code == 1
        assert out == ""
        assert "input error: coefficient of term '1e999|00>' is not finite" in err

    def test_dense_limit_checked_before_state(self, capsys):
        """At 20 qubits the refusal comes before the state is parsed into
        2^20-entry vectors of 16 MB each."""
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "channel", "Z" + "I" * 19, "--state", "|" + "0" * 20 + ">",
                "--dense-limit", "12",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert "exceeds the dense limit" in err
        assert peak < 4 << 20

    def test_linalg_error_is_numeric_failure(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "decoherence_scan", fail)
        code, out, err = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "|00>"
        )
        assert code == 3
        assert out == ""
        assert "numeric failure: Eigenvalues did not converge" in err

    def test_memory_error_is_numeric_failure(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(cli, "decoherence_scan", fail)
        code, out, err = run_cli(
            capsys, "channel", "XI", "ZI", "--state", "|00>"
        )
        assert code == 3
        assert out == ""
        assert "numeric failure: Unable to allocate 8.00 GiB" in err

    def test_algebra_dimension_checked_before_work(self, capsys):
        """A non-Abelian group whose string algebra has D = 1024 > 512 is
        refused before anything of size D is built."""
        generators = ["I" * j + p + "I" * (5 - j) for j in range(5) for p in "XZ"]
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "channel", *generators, "--state", "|000000>"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert (
            "input error: string algebra dimension D = 1024 exceeds the limit of 512"
            in err
        )
        assert peak < 4 << 20

    def test_scan_numbers_pinned(self, capsys):
        """Purities and fidelities of one irrep-space scan, pinned at the
        values the dense Kraus route gave for the same draws: any change of
        draw order or channel shows here."""
        code, out, _ = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "0.6|00>+0.8|11>",
            "--json", "--trials", "8", "--seed", "3",
        )
        assert code == 0
        scan = json.loads(out)["scan"]
        assert scan["purities"] == pytest.approx(
            [
                0.6599099491871379, 0.8264110573885707, 0.7796839782868178,
                0.9956441538108839, 0.9172846400429765, 0.8319599752923508,
                0.8341324403023781, 0.579775876286827,
            ],
            abs=1e-12,
        )
        assert scan["fidelities"] == pytest.approx(
            [
                0.7677163297633308, 0.7679060049204699, 0.7674799341148576,
                0.140194376154274, 0.32989831446699364, 0.3214497920500097,
                0.17270841197685805, 0.4131977264149445,
            ],
            abs=1e-12,
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "XI", "ZI", "--trials", "0"], "trials must be >= 1"),
        (["preset", "q8", "--trials", "0"], "trials must be >= 1"),
        (
            ["analyze", "ZI", "IZ", "--trials", "0", "--dense-limit", "1"],
            "trials must be >= 1",
        ),
        (["analyze", "XI", "ZI", "--seed", "-1"], "seed must be >= 0"),
    ],
)
def test_trials_and_seed_checked_before_any_work(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"input error: {message}" in err
