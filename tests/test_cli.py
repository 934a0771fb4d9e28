"""Command-line surface: exit codes, JSON determinism, state parsing."""

import gc
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import paulidfs
from paulidfs import channels, cli, dfs
from paulidfs.cli import (
    build_analysis_report,
    build_preset_report,
    main,
    parse_state_spec,
)
from paulidfs.pauli import format_pauli, identity, parse_pauli
from paulidfs.presets import PRESET_NAMES
from paulidfs.dfs import dfs_basis, multiplicity
from paulidfs.subgroup import (
    DEFAULT_ORDER_CAP,
    Character,
    characters,
    closure,
    reducibility_sum,
)
from helpers import (
    V1_VALUE_NAMES,
    abelian_group,
    decode_amplitudes,
    decode_z4_rows,
    expand_v1,
    plain,
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

    @pytest.mark.parametrize(
        "spec, position", [("|0>|1>", 3), ("0.6|0>0.8|1>", 6), ("|0>+|1>2|0>", 7)]
    )
    def test_rejects_unsigned_later_term(self, spec, position):
        """Every term after the first needs a sign: juxtaposed kets were
        read as a sum."""
        message = f"state term at position {position} in {spec!r} needs a + or - sign"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_state_spec(spec)


class TestAnalyze:
    def test_qz_generators(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "ZI", "IZ", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 6
        assert "dense_limit" not in report["inputs"]
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

    def test_minus_generator_after_double_dash(self, capsys):
        """-ZZ would be read as an option; after -- it is a generator."""
        code, out, _ = run_cli(capsys, "analyze", "--json", "--", "XX", "-ZZ")
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["generators"] == ["XX", "-ZZ"]
        assert report["subgroup"]["generators"] == ["+XX", "-ZZ"]

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
        """The values rebuilt from the generators and the coordinate and
        exponent digit strings of the JSON table are the oracle's
        characters, row by row."""
        group = abelian_group(np.random.default_rng(seed), n_qubits, phases)
        strings = [format_pauli(g) for g in group.generators] or [
            format_pauli(identity(n_qubits))
        ]
        report = json.loads(json.dumps(plain(build_analysis_report(strings, 1, 0))))
        table = report["character_table"]
        r = len(table["generators"]) - 1
        assert 2**r <= group.order <= 4 * 2**r
        rows = table["coordinates"] + table["exponents"]
        assert len(table["coordinates"]) == len(table["exponents"]) == group.order
        assert all(len(row) == r + 1 and set(row) <= set("0123") for row in rows)
        v1 = expand_v1(report)["character_table"]
        assert v1["elements"] == [format_pauli(e) for e in group.elements]
        assert [row["values"] for row in v1["rows"]] == [
            [V1_VALUE_NAMES[root_exponent(values[e])] for e in group.elements]
            for values in reference_characters(group)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(1, 6),
        phases=st.sampled_from(["plus", "minus", "full"]),
    )
    def test_v6_digits_and_amplitudes_round_trip(self, seed, n_qubits, phases):
        """The table's digit strings decode to the coordinate matrix and the
        characters' exponents; each basis's seeds XOR ``x_span`` are the
        kets of ``dfs_basis``, and its exponent string and amplitude decode
        to the [re, im] pairs of ``dfs_basis``, bit for bit."""
        group = abelian_group(np.random.default_rng(seed), n_qubits, phases)
        strings = [format_pauli(g) for g in group.generators] or [
            format_pauli(identity(n_qubits))
        ]
        report = json.loads(json.dumps(plain(build_analysis_report(strings, 1, 0))))
        table = report["character_table"]
        chars = characters(group)
        coordinates = decode_z4_rows(table["coordinates"])
        assert np.array_equal(coordinates, group.coordinate_matrix)
        labels = decode_z4_rows(table["exponents"]).tolist()
        assert labels == [list(c.exponents) for c in chars]
        span = np.array(report["x_span"])
        assert np.array_equal(span, group.x_span[0])
        for c, entry in zip(chars, report["characters"], strict=True):
            if not entry["multiplicity"]:
                assert "basis" not in entry
                continue
            basis, written = dfs_basis(group, c), entry["basis"]
            assert written["amplitude"] > 0
            kets = np.array(written["seeds"])[:, None] ^ span
            assert kets.tobytes() == basis.kets.tobytes()
            pairs = decode_amplitudes(written["amplitude"], written["exponents"])
            pairs = np.array(pairs).reshape(*kets.shape, 2)
            assert pairs.tobytes() == basis.amplitudes.tobytes()

    def test_order_cap_refused_before_work(self, capsys):
        """Twice ``DEFAULT_ORDER_CAP``, as independent Z strings, is refused by
        the order read off the sift, before any element is built."""
        k = DEFAULT_ORDER_CAP.bit_length()
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "analyze", *z_strings(k, k), "--json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert f"closure order {1 << k} exceeds the order cap" in err
        assert peak < 4 << 20

    def test_abelian_order_above_2_16_completes(self, capsys):
        """One order cap for every group: 17 Z strings at K = 17 (order
        2^17, no bases) get their full report, one ``characters`` entry and
        one element, coordinate and exponent string per element."""
        code, out, _ = run_cli(capsys, "analyze", *z_strings(17, 17), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["subgroup"]["order"] == 1 << 17
        assert report["verdict"] == "abelian"
        table = report["character_table"]
        assert len(table["coordinates"]) == len(table["exponents"]) == 1 << 17
        assert len(report["subgroup"]["elements"]) == 1 << 17
        assert [c["multiplicity"] for c in report["characters"]] == [1] * (1 << 17)
        assert report["dimension_check"]["consistent"]

    def test_dense_limit_skips_matrices(self, capsys):
        """At K = 13, one above ``DENSE_QUBIT_LIMIT``, a report keeps its
        exact multiplicities and its closed-form reducibility, but has no
        bases and no ``x_span``."""
        code, out, _ = run_cli(capsys, "analyze", *z_strings(2, 13), "--json")
        assert code == 0
        report = json.loads(out)
        group = closure([parse_pauli(s) for s in z_strings(2, 13)])
        total, verdict = reducibility_sum(group)
        assert report["reducibility"] == {"sum": total, "verdict": verdict}
        assert [c["multiplicity"] for c in report["characters"]] == [2048] * 4
        assert all("basis" not in c for c in report["characters"])
        assert "x_span" not in report

    def test_reducibility_exact_past_the_float_range(self, capsys):
        """At K = 600 the sum |Z| 4^K = 2^1201 of ZI...I and -I is written
        as its exact integer, in JSON and in text."""
        strings = ["Z" + "I" * 599, "-" + "I" * 600]
        code, out, _ = run_cli(capsys, "analyze", "--json", "--", *strings)
        assert code == 0
        reducibility = json.loads(out)["reducibility"]
        assert reducibility == {"sum": 1 << 1201, "verdict": "reducible"}
        code, out, _ = run_cli(capsys, "analyze", "--", *strings)
        assert f"sum |chi|^2 = {1 << 1201} vs order 4 -> reducible" in out

    def test_report_builds_no_character(self, monkeypatch):
        """The report reads every multiplicity off the label array: thirteen
        Z strings at K = 13 (order 2^13, no bases) construct no
        ``Character``, while reading one item of the table constructs one."""
        built = []
        real = Character.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Character, "__init__", counting)
        report = build_analysis_report(z_strings(13, 13), 1, 0)
        assert [c["multiplicity"] for c in report["characters"]] == [1] * (1 << 13)
        assert built == []
        characters(closure([parse_pauli(s) for s in z_strings(13, 13)]))[5]
        assert len(built) == 1

    def test_report_builds_no_float_basis(self, monkeypatch):
        """Bases are written and checked in Z4 form: with the kets, complex
        amplitudes and dense vectors of ``DfsBasis`` forbidden, every preset
        and ten X strings at K = 10 pass with residual 0.0."""

        def forbidden(*args, **kwargs):
            raise AssertionError("complex basis array built")

        for name in ("kets", "amplitudes", "vectors"):
            monkeypatch.setattr(dfs.DfsBasis, name, property(forbidden))
        monkeypatch.setattr(dfs.DfsBasis, "stack", forbidden)
        x_strings = ["I" * j + "X" + "I" * (9 - j) for j in range(10)]
        reports = [build_preset_report(name, 1, 0) for name in PRESET_NAMES]
        reports.append(build_analysis_report(x_strings, 1, 0))
        for report in reports:
            for entry in report.get("characters", []):
                if entry["multiplicity"]:
                    assert entry["verification"]["passed"]
                    assert entry["verification"]["max_residual"] == 0.0
        assert len(reports[-1]["characters"]) == 1024

    def test_report_builds_bases_in_one_pass(self, monkeypatch):
        """With ``dfs_basis`` and ``multiplicity`` forbidden, each report
        builds its bases in one ``dfs_bases`` call and checks them in one
        ``verify_on_generators`` call: every preset and twelve Z strings at
        K = 12 pass with residual 0.0."""

        def forbidden(*args, **kwargs):
            raise AssertionError("per-character basis work")

        monkeypatch.setattr(dfs, "dfs_basis", forbidden)
        monkeypatch.setattr(dfs, "multiplicity", forbidden)
        calls = []
        for name in ("dfs_bases", "verify_on_generators"):
            def counted(*args, _name=name, _fn=getattr(cli, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(cli, name, counted)
        z_strings = ["I" * j + "Z" + "I" * (11 - j) for j in range(12)]
        for build, arg in [(build_preset_report, n) for n in PRESET_NAMES] + [
            (build_analysis_report, z_strings)
        ]:
            calls.clear()
            report = build(arg, 1, 0)
            supported = [e for e in report.get("characters", []) if e["multiplicity"]]
            assert calls == (["dfs_bases", "verify_on_generators"] if supported else [])
            for entry in supported:
                assert entry["verification"]["passed"]
                assert entry["verification"]["max_residual"] == 0.0
        assert len(supported) == 4096
        assert all(len(e["basis"]["seeds"]) == 1 for e in supported)
        assert all(len(e["basis"]["exponents"]) == 1 for e in supported)

    def test_non_abelian_search_entry_above_dense_limit(self, capsys):
        """At K = 13 a non-Abelian report still counts its joint
        eigenvectors: none, in closed form."""
        x, z = "X" + "I" * 12, "Z" + "I" * 12
        code, out, _ = run_cli(capsys, "analyze", x, z, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "non_abelian"
        assert report["one_dim_search"] == {
            "joint_eigenspaces": [],
            "one_dimensional_dfs_count": 0,
        }
        code, out, _ = run_cli(capsys, "analyze", x, z)
        assert "joint eigenvector search found 0 invariant directions" in out

    def test_basis_ket_cap_bounds_bases_alone(self, monkeypatch):
        """With 2^K * |V_X| = 16 * 2 kets the report is unchanged with the
        cap set to 32; at 31 it loses every basis and verification and its
        ``x_span``, and nothing else."""
        strings = ["XXXX", "ZZZZ", "ZZII"]
        group = closure([parse_pauli(s) for s in strings])
        assert cli._basis_kets(group.sifted) == 16 * 2
        full = plain(build_analysis_report(strings, 4, 0))
        monkeypatch.setattr(cli, "BASIS_KET_CAP", 16 * 2)
        assert plain(build_analysis_report(strings, 4, 0)) == full
        monkeypatch.setattr(cli, "BASIS_KET_CAP", 16 * 2 - 1)
        capped = plain(build_analysis_report(strings, 4, 0))
        assert all("basis" in e for e in full["characters"])
        assert capped["characters"] == [
            {"label": e["label"], "multiplicity": e["multiplicity"]}
            for e in full["characters"]
        ]
        assert full["x_span"] == [0, 15]
        assert {k: v for k, v in capped.items() if k != "characters"} == {
            k: v for k, v in full.items() if k not in ("characters", "x_span")
        }

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(1, 6),
        phases=st.sampled_from(["plus", "minus", "full", "trivial"]),
    )
    def test_basis_kets_read_off_the_sift(self, seed, n_qubits, phases):
        """The kets read off the sifted pivots are those of all the
        supported characters' bases."""
        group = abelian_group(np.random.default_rng(seed), n_qubits, phases)
        written = sum(
            len(kets)
            for c in characters(group)
            if multiplicity(group, c)
            for kets in dfs_basis(group, c).kets
        )
        assert cli._basis_kets(group.sifted) == written

    def test_report_checks_bases_on_generators(self, monkeypatch):
        """The report never draws random trials, and every basis of every
        preset passes its check on the sifted generators."""

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_dfs called")

        monkeypatch.setattr(dfs, "verify_dfs", forbidden)
        monkeypatch.setattr(cli, "verify_dfs", forbidden, raising=False)
        for name in PRESET_NAMES:
            report = build_preset_report(name, 32, 0)
            for entry in report.get("characters", []):
                if entry["multiplicity"]:
                    assert entry["verification"]["passed"]
                    assert entry["verification"]["max_residual"] == 0.0


class TestPreset:
    def test_q2z(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "q2z", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["preset"] == "q2z"
        trivial = report["characters"][0]
        assert trivial["multiplicity"] == 2
        assert trivial["basis"]["amplitude"] == 1.0
        assert report["x_span"] == [0]
        assert trivial["basis"]["seeds"] == [0, 15]
        assert trivial["basis"]["exponents"] == "00"

    def test_q4_paired_basis(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "q4", "--json")
        report = json.loads(out)
        trivial = report["characters"][0]
        assert trivial["multiplicity"] == 4
        seeds, span = trivial["basis"]["seeds"], report["x_span"]
        kets = [[seed ^ x for x in span] for seed in seeds]
        assert kets == [[0, 15], [3, 12], [5, 10], [6, 9]]
        assert trivial["basis"]["exponents"] == "00" * 4
        assert trivial["basis"]["amplitude"] == pytest.approx(0.5**0.5, abs=1e-15)

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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("preset", "qz"),
                "0044abab43530ff323939dfa8f0ad70e25326b7ca6cf1a97181b2ed1cb3de8bb",
            ),
            (
                ("preset", "qx"),
                "7ae4a624694cba2f2793c78ed212fe2fe392c0978b76965a1b68e175f1861f29",
            ),
            (
                ("preset", "q4"),
                "2596ca4dcf12c24e61e36f6f8e3e225d221508e8bb5b3f888fb9430b959f79f3",
            ),
            (
                ("preset", "q2z"),
                "4d58bec3948acdc6bdef999c72bd90f9d2fa4cce7b9376c9e92bd9b2b2b86ec1",
            ),
            (
                ("preset", "q8"),
                "a74549c1e81ab252665a3ecdd839612ed73fefb0cce9d84e1e0133f359241f84",
            ),
            (
                ("analyze", "XXXX", "ZZZZ", "ZZII"),
                "86ce7d9fc9ea74c86138c45832205902c877f2514cbf598e4a1708b4f6014bbf",
            ),
        ],
    )
    def test_text_output_pinned(self, capsys, argv, digest):
        """The text output, basis lines included, stays byte-identical up to
        its final ``elapsed:`` line."""
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        body, elapsed = out.rstrip("\n").rsplit("\n", 1)
        assert elapsed.startswith("elapsed: ")
        assert hashlib.sha256(body.encode()).hexdigest() == digest

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


def child_env() -> dict:
    """The environment of a child process that imports this package."""
    src = str(Path(paulidfs.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


def z_strings(count, n_qubits):
    """``count`` single-qubit Z strings on ``n_qubits`` qubits: order 2^count."""
    return ["I" * j + "Z" + "I" * (n_qubits - 1 - j) for j in range(count)]


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 1e-300, math.nan, math.inf, -math.inf]),
    st.text(),
)


def _rows_of_width(width):
    """Lists of ``width`` numbers each: one exact type, or mixed with bool."""
    numbers = st.sampled_from(
        [st.integers(), st.floats(), st.one_of(st.integers(), st.booleans())]
    )
    return numbers.flatmap(
        lambda number: st.lists(st.lists(number, min_size=width, max_size=width))
    )


_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.dictionaries(st.text(), children),
        st.integers(0, 3).flatmap(_rows_of_width),
        st.lists(st.lists(st.integers() | st.floats(), max_size=3)),
    ),
    max_leaves=30,
)


class TestEmit:
    def test_multi_batch_json_equals_dumps(self, capsys, monkeypatch):
        """Order 2^12 at K=13, above the dense limit of 12."""
        report = build_analysis_report(z_strings(12, 13), 4, 0)
        flush = cli._flush
        batches = []

        def counting_flush(text):
            batches.append(len(text))
            flush(text)

        monkeypatch.setattr(cli, "_flush", counting_flush)
        cli._emit(report, True, 0.0)
        assert len(batches) > 4
        assert capsys.readouterr().out == json.dumps(plain(report), indent=2) + "\n"

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_json_equals_dumps(self, capsys, name):
        report = build_preset_report(name, 4, 0)
        cli._emit(report, True, 0.0)
        assert capsys.readouterr().out == json.dumps(plain(report), indent=2) + "\n"

    def test_emission_memory_bounded(self, capsys, monkeypatch):
        """Writing a report of several MB holds a small share of it: the
        document is never joined whole, nor are all its chunks kept."""
        report = build_analysis_report(z_strings(15, 16), 1, 0)
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._emit(report, True, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size >= 4_000_000
        assert peak < sink.size / 4, (peak, sink.size)

    def test_build_and_write_memory_bounded(self, monkeypatch):
        """``analyze --json`` of 16 Z strings at K = 20 (order 2^16, 9.5 MB
        of JSON) peaks below its document: the arrays of the closure and
        the character table, about a third of it, are its only N-long
        data, and the rows exist a slice at a time.  With the report held
        whole, the peak was 3.5 times the document."""
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["analyze", *z_strings(16, 20), "--json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.size >= 9_000_000
        assert peak < sink.size, (peak, sink.size)

    @pytest.mark.parametrize("flush", [1, 40])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_slices_join_at_their_depth(self, capsys, monkeypatch, name, flush):
        """With slices of one row or a few, each preset's JSON is still the
        bytes of ``json.dumps`` of its plain report, and its text is the
        text written with slices of the default size."""
        report = build_preset_report(name, 4, 0)
        text = "".join(cli.render_text(report, 0.0))
        monkeypatch.setattr(cli, "EMIT_FLUSH_CHARS", flush)
        assert len(list(report["subgroup"]["elements"].slices())) > 1
        assert "".join(cli.render_text(report, 0.0)) == text
        cli._emit(report, True, 0.0)
        assert capsys.readouterr().out == json.dumps(plain(report), indent=2) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(1, 6),
        phases=st.sampled_from(["plus", "minus", "full", "trivial"]),
        flush=st.sampled_from([1, 40, 400]),
    )
    def test_slices_join_on_abelian_groups(self, seed, n_qubits, phases, flush):
        """Reports with bases, sliced small, are written as ``json.dumps``
        writes them."""
        group = abelian_group(np.random.default_rng(seed), n_qubits, phases)
        strings = [format_pauli(g) for g in group.generators] or [
            format_pauli(identity(n_qubits))
        ]
        report = build_analysis_report(strings, 1, 0)
        pieces = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "EMIT_FLUSH_CHARS", flush)
            patch.setattr(cli, "_flush", pieces.append)
            cli._write_json(report)
        assert "".join(pieces) == json.dumps(plain(report), indent=2) + "\n"

    def test_slices_join_above_the_dense_limit(self, monkeypatch):
        """At K = 13 (no bases, +-I, order 2^8) a report sliced one row at
        a time is written as ``json.dumps`` writes it."""
        strings = z_strings(6, 13) + ["I" * 12 + "X", "-" + "I" * 13]
        report = build_analysis_report(strings, 1, 0)
        assert report["subgroup"]["order"] == 1 << 8
        pieces = []
        monkeypatch.setattr(cli, "EMIT_FLUSH_CHARS", 1)
        monkeypatch.setattr(cli, "_flush", pieces.append)
        cli._write_json(report)
        assert "".join(pieces) == json.dumps(plain(report), indent=2) + "\n"

    def test_memory_error_while_writing_is_numeric_failure(
        self, capsys, monkeypatch
    ):
        """A failure after the first batch exits 3 with the numeric-failure
        message; stdout then holds only the first batch of the document."""
        generators = z_strings(10, 13)
        report = build_analysis_report(generators, 32, 0)
        document = json.dumps(plain(report), indent=2)
        flush = cli._flush
        batches = []

        def fail_after_first_batch(text):
            if batches:
                raise MemoryError("Unable to allocate 8.00 GiB")
            batches.append(text)
            flush(text)

        monkeypatch.setattr(cli, "_flush", fail_after_first_batch)
        code, out, err = run_cli(capsys, "analyze", *generators, "--json")
        assert code == 3
        assert "numeric failure: Unable to allocate 8.00 GiB" in err
        assert 0 < len(out) < len(document)
        assert document.startswith(out)

    @example(list(range(10_000)))
    @example([[float(n), -0.0] for n in range(5_000)])
    @example([np.float64(0.5), 1.5, True, 1, None])
    @example({"huge": 10**400, "rows": [[10**400, 1]]})
    @settings(max_examples=200, deadline=None)
    @given(value=_json_values)
    def test_writer_equals_dumps(self, value):
        pieces = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_flush", pieces.append)
            cli._write_json(value)
        assert "".join(pieces) == json.dumps(value, indent=2) + "\n"
        assert all(len(piece) >= cli.EMIT_FLUSH_CHARS for piece in pieces[:-1])

    @example([{"a}": "},\n{", 1: math.nan}, {"b": None}, {}, "{"], 40, 2)
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.dictionaries(st.text(), _json_scalars, min_size=1) | _json_values),
        flush=st.sampled_from([1, 40, 400, cli.EMIT_FLUSH_CHARS]),
        depth=st.integers(0, 2),
    )
    def test_column_equals_dumps_of_its_rows(self, rows, flush, depth):
        """A ``Column`` of any rows, flat dicts with braces and newlines in
        their strings among them, at any depth, is written as ``json.dumps``
        writes the list of its rows."""
        value = column = cli.Column(len(rows), lambda start, stop: rows[start:stop])
        for _ in range(depth):
            value = {"before": [1, {}], "rows": value, "after": {"x": []}}
        pieces = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "EMIT_FLUSH_CHARS", flush)
            patch.setattr(cli, "_flush", pieces.append)
            cli._write_json(value)
        assert "".join(pieces) == json.dumps(plain(value), indent=2) + "\n"
        assert list(column) == rows

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
        done = subprocess.run(
            [sys.executable, "-c", script, "analyze", "XXXX", "ZZZZ", "ZZII", "--json"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["characters"][0]["verification"]["passed"]
        assert done.stderr.splitlines()[-1] == "False"

    @pytest.mark.parametrize(
        "argv",
        [
            ["preset", "qx", "--json"],
            ["preset", "q8", "--json"],
            ["channel", "ZI", "IZ", "--state", "|00>", "--json"],
        ],
    )
    def test_other_commands_import_no_masked_arrays(self, argv):
        """As for ``analyze`` above, a preset report and a channel scan never
        import ``numpy.ma`` (about 11 ms and 1.3 MB a process): characters
        are sorted on packed int64 keys, not by ``np.unique``."""
        script = (
            "import sys\n"
            "from paulidfs.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)
        assert done.stderr.splitlines()[-1] == "False"

    @pytest.mark.parametrize(
        "argv",
        [
            ["channel", "ZI", "IZ", "--state", "|00>+|11>", "--json"],
            ["channel", "XI", "ZI", "--state", "|00>", "--json"],
            ["preset", "q8", "--json"],
        ],
    )
    def test_channel_draws_import_no_numpy_random(self, argv):
        """Channel scans and the q8 probe draw from ``seeded_normals``, so
        ``numpy.random`` (and the ``secrets`` and ``hashlib`` it pulls in)
        is never imported."""
        script = (
            "import sys\n"
            "from paulidfs.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.random' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)
        assert done.stderr.splitlines()[-1] == "False"

    @pytest.mark.parametrize(
        ("argv", "loads_channels"),
        [
            ([], False),
            (["analyze", "XXXX", "ZZZZ", "ZZII", "--json"], False),
            (["preset", "qx", "--json"], False),
            (["channel", "ZI", "IZ", "--state", "|00>+|11>", "--json"], True),
            (["preset", "q8", "--json"], True),
        ],
    )
    def test_each_command_loads_only_its_modules(self, argv, loads_channels):
        """``import paulidfs.cli`` (no argv) loads neither ``dataclasses``
        nor ``paulidfs.channels``, and only a channel scan and the q8 probe
        load the latter."""
        script = (
            "import sys\n"
            "from paulidfs.cli import main\n"
            "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "names = ('dataclasses', 'paulidfs.channels')\n"
            "print(*(name in sys.modules for name in names), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) if argv else done.stdout == ""
        assert done.stderr.splitlines()[-1] == f"False {loads_channels}"


class TestEntryPoint:
    def test_only_run_freezes_the_collector(self, capsys):
        assert gc.get_freeze_count() == 0
        assert main(["preset", "qz", "--json"]) == 0
        assert gc.get_freeze_count() == 0
        try:
            assert cli.run(["preset", "qz", "--json"]) == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["preset", "qz", "--json"], 0),
            (["analyze", "XQ", "--json"], 1),
            (["analyze", "XXI", "IZZ", "--require-dfs", "--json"], 2),
            # analyze only records --trials, so 2^40 trials allocate nothing
            (["analyze", "ZI", "IZ", "--trials", str(1 << 40), "--json"], 0),
        ],
    )
    def test_module_run_equals_main(self, capsys, argv, status):
        code, out, err = run_cli(capsys, *argv)
        done = subprocess.run(
            [sys.executable, "-m", "paulidfs.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert code == done.returncode == status
        assert done.stdout == out
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "argv, lines_read, unbuffered",
        [
            (["analyze", *z_strings(12, 14), "--json"], 1, "1"),
            (["analyze", *z_strings(12, 14), "--json"], 1, ""),
            (["preset", "qz"], 0, ""),
        ],
    )
    def test_closed_stdout_exits_one_without_traceback(
        self, argv, lines_read, unbuffered
    ):
        """The reader closes the pipe after the first line of a report of
        about 2 MB, far more than the pipe holds, or before a short text
        report, held in the stdout buffer, is flushed."""
        child = subprocess.Popen(
            [sys.executable, "-m", "paulidfs.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**child_env(), "PYTHONUNBUFFERED": unbuffered},
        )
        try:
            for _ in range(lines_read):
                assert child.stdout.readline() == b"{\n"
            child.stdout.close()
            assert child.wait(timeout=60) == 1
        finally:
            child.kill()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert "output error: stdout closed before the whole report was written" in err
        assert "Traceback" not in err and "Exception ignored" not in err


def test_traced_benchmark_layers_resolve():
    """Every (module, function) that perfbench/traced_cli.py wraps by name
    is still a function of that package module; a moved or renamed one
    would otherwise fail only the traced benchmark's jobs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    namespace = {"__name__": "traced_cli"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    missing = [
        f"paulidfs.{module}.{name}"
        for module, name, *_ in namespace["LAYERS"]
        if not callable(
            getattr(importlib.import_module(f"paulidfs.{module}"), name, None)
        )
    ]
    assert missing == []


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

    def test_unsigned_later_term_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "|00>|11>"
        )
        assert code == 1
        assert out == ""
        assert "input error: state term at position 4 in '|00>|11>' needs a" in err

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
        assert "elements:" not in out

    def test_report_lists_no_elements(self, capsys):
        """A channel report keeps the subgroup's order and generators but
        not its elements, and is written as ``json.dumps`` writes it."""
        code, out, _ = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "|00>", "--json",
            "--trials", "2",
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.loads(out)["subgroup"] == {
            "n_qubits": 2,
            "generators": ["+ZI", "+IZ"],
            "order": 4,
            "is_abelian": True,
            "contains_minus_identity": False,
        }

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
        2^20-entry vectors of 16 MB each, and before the closure of 20 Z
        strings (order 2^20) is built."""
        for count in (1, 20):
            tracemalloc.start()
            try:
                code, out, err = run_cli(
                    capsys, "channel", *z_strings(count, 20),
                    "--state", "|" + "0" * 20 + ">",
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 1
            assert out == ""
            assert "input error: 20 qubits exceeds the dense limit of 12" in err
            assert peak < 4 << 20, (count, peak)

    def test_linalg_error_is_numeric_failure(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(channels, "decoherence_scan", fail)
        code, out, err = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "|00>"
        )
        assert code == 3
        assert out == ""
        assert "numeric failure: Eigenvalues did not converge" in err

    def test_minus_state_joined_by_equals(self, capsys):
        """A state that starts with a minus is one value after ``=``; as a
        separate word argparse reads it as an option."""
        code, out, _ = run_cli(
            capsys, "channel", "ZI", "IZ", "--state=-|00>+|11>", "--trials", "2", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["state"] == "-|00>+|11>"
        assert report["state"][0][0] == -report["state"][3][0] < 0
        with pytest.raises(SystemExit) as exc:
            main(["channel", "ZI", "IZ", "--state", "-|00>"])
        assert exc.value.code == 1
        assert "argument --state: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["channel", "ZI", "IZ", "--state", "|00>", "--trials", "2"], ["preset", "q8"]],
    )
    def test_failed_normalization_is_numeric_failure(self, capsys, monkeypatch, argv):
        """The CLI builds every channel from its own draws, so a channel
        that fails its normalization check is a numeric failure, not an
        input error."""
        monkeypatch.setattr(channels, "KRAUS_NORM_TOL", -1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "numeric failure: sum A^dag A deviates from identity by" in err

    def test_memory_error_is_numeric_failure(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(channels, "decoherence_scan", fail)
        code, out, err = run_cli(
            capsys, "channel", "XI", "ZI", "--state", "|00>"
        )
        assert code == 3
        assert out == ""
        assert "numeric failure: Unable to allocate 8.00 GiB" in err

    def test_scan_runs_past_the_old_dimension_limit(self, capsys):
        """A non-Abelian group whose string algebra has D = 1024 (one block
        of 32 x 32), refused while one D x D ``eigh`` was made per draw,
        is scanned; its purities and fidelities are probabilities."""
        generators = ["I" * j + p + "I" * (5 - j) for j in range(5) for p in "XZ"]
        code, out, err = run_cli(
            capsys, "channel", *generators, "--state", "|000000>", "--json"
        )
        assert code == 0, err
        scan = json.loads(out)["scan"]
        assert len(scan["purities"]) == 32
        assert all(0 <= v <= 1 + 1e-12 for v in scan["purities"] + scan["fidelities"])

    @pytest.mark.parametrize(
        "generators, trials",
        [
            pytest.param(
                ["I" * j + p + "I" * (9 - j) for j in range(9) for p in "XZ"]
                + ["I" * 9 + "X"],
                32,
                id="order-2^20",
            ),
            pytest.param(["ZI", "IZ"], 1 << 40, id="trials-2^40"),
        ],
    )
    def test_scan_work_checked_before_closure(self, capsys, generators, trials):
        """The scan's work is read off the sift, so a closure of order 2^20
        (D = 2^19) and 2^40 trials of a four-element group are both refused
        within a second and 4 MB, before any element is built."""
        state = "|" + "0" * len(generators[0]) + ">"
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code, out, err = run_cli(
                capsys, "channel", *generators, "--state", state,
                "--trials", str(trials),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1
        assert code == 1
        assert out == ""
        assert re.search(
            r"^input error: channel scan work W = \d+ exceeds the cap of 4294967296$",
            err,
            re.MULTILINE,
        )
        assert peak < 4 << 20

    def test_scan_numbers_pinned(self, capsys):
        """Purities and fidelities of one irrep-space scan, pinned at the
        values ``reference_decoherence_scan``, the dense Kraus route, gives
        for the same draws: any change of draw order or channel shows
        here."""
        code, out, _ = run_cli(
            capsys, "channel", "ZI", "IZ", "--state", "0.6|00>+0.8|11>",
            "--json", "--trials", "8", "--seed", "3",
        )
        assert code == 0
        scan = json.loads(out)["scan"]
        assert scan["purities"] == pytest.approx(
            [
                0.7583758105847944, 0.6497541009051694, 0.8821422859896229,
                0.7733327653815216, 0.5823017081906161, 0.8012733374579077,
                0.5471586569642103, 0.8384547313058055,
            ],
            abs=1e-12,
        )
        assert scan["fidelities"] == pytest.approx(
            [
                0.7800724760474316, 0.7145077208333941, 0.16775236402254032,
                0.43834920859531196, 0.6645222772840964, 0.3294027420896486,
                0.5910787575593417, 0.8977555332771882,
            ],
            abs=1e-12,
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "XI", "ZI", "--trials", "0"], "trials must be >= 1"),
        (["preset", "q8", "--trials", "0"], "trials must be >= 1"),
        (["analyze", "ZI", "IZ", "--trials", "0"], "trials must be >= 1"),
        (["analyze", "XI", "ZI", "--seed", "-1"], "seed must be >= 0"),
    ],
)
def test_trials_and_seed_checked_before_any_work(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"input error: {message}" in err
