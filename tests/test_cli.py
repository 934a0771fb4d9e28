"""Command-line surface: exit codes, JSON determinism, state parsing."""

import json

import numpy as np
import pytest

from paulidfs.cli import main, parse_state_spec


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

    def test_qubit_count_check(self):
        with pytest.raises(ValueError, match="acts on"):
            parse_state_spec("|000>", n_qubits=2)


class TestAnalyze:
    def test_qz_generators(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "ZI", "IZ", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
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
        supports = [
            [i for i, (re, im) in enumerate(vec) if abs(re) + abs(im) > 1e-12]
            for vec in trivial["basis"]["vectors"]
        ]
        assert supports == [[0], [15]]

    def test_q4_paired_basis(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "q4", "--json")
        report = json.loads(out)
        trivial = report["characters"][0]
        assert trivial["multiplicity"] == 4
        supports = [
            sorted(
                i for i, (re, im) in enumerate(vec) if abs(re) + abs(im) > 1e-12
            )
            for vec in trivial["basis"]["vectors"]
        ]
        assert supports == [[0, 15], [3, 12], [5, 10], [6, 9]]

    def test_q8_extras(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "q8", "--json", "--trials", "4")
        assert code == 0
        report = json.loads(out)
        extras = report["nongeneric_code"]
        assert extras["plane_invariance_residual"] < 1e-12
        assert extras["probe"]["unconstrained_failures"] >= 63
        assert extras["probe"]["constrained_failures"] == 0

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
