"""Command-line front end: subgroup analysis, worked-example presets and
channel scans, with deterministic JSON or human-readable text output.

The ``analyze``/``preset`` report has O(N * r) size for a subgroup of order
N with r sifted pivots.  Its ``character_table`` lists the sifted
``generators`` u = i^e I, b_1, ..., b_r, one ``coordinates`` row
[m, k_1, ..., k_r] per entry of ``subgroup.elements``, and per character
its ``label`` and ``exponents`` [w, e_1, ..., e_r], with
chi_label(G_n) = i^((exponents . coordinates[n]) mod 4).  An Abelian
order above ``REPORT_ORDER_CAP`` is refused before any element is built.

Exit codes: 0 success, 1 usage or input error, 2 analysis refusal
(non-Abelian subgroup under --require-dfs), 3 numeric failure or no memory.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from itertools import islice

import numpy as np
from numpy.linalg import LinAlgError

from .channels import (
    DegenerateKrausError,
    decoherence_scan,
    q8_genericity_probe,
)
from .dfs import (
    applicable_phase_class,
    dfs_basis,
    dimension_formula,
    multiplicity,
    verify_dfs,
)
from .pauli import (
    DENSE_QUBIT_LIMIT,
    PauliElement,
    _require_dense,
    format_pauli,
    parse_pauli,
)
from .presets import (
    PRESET_NAMES,
    plane_invariance_residual,
    preset_generators,
    preset_group,
)
from .subgroup import DEFAULT_ORDER_CAP, characters, closure, reducibility_sum

SCHEMA_VERSION = 3

#: Largest Abelian order ``analyze`` and ``preset`` report on; a non-Abelian
#: report has no character table.  On a 2-vCPU VM, ``analyze --json`` took
#: 3.1-3.9 s and 139 MB at order 2^16, and 6.7-8.1 s and 251 MB at 2^17.
REPORT_ORDER_CAP = 1 << 16

#: Encoder chunks joined into one stdout write by ``--json``: one write per
#: chunk doubled the emission time at order 2^16, one write for the whole
#: document held two to three copies of it.
EMIT_BATCH_CHUNKS = 8192


def _state_json(state: np.ndarray) -> list:
    return [[float(a.real), float(a.imag)] for a in state]


KET_TERM = re.compile(
    r"([+-]?)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\|([01]+)>"
)


def parse_state_spec(spec: str, n_qubits: int | None = None) -> np.ndarray:
    """Parse "|00>" or "0.7071|00> + 0.7071|11>" into a unit vector.

    Coefficients are real decimals with optional sign; the result is
    normalized.  Qubit 1 is the leftmost bit of each ket.  A coefficient
    or a norm that overflows to infinity is rejected.
    """
    compact = spec.replace(" ", "")
    if not compact:
        raise ValueError("empty state specification")
    position = 0
    terms: list[tuple[float, str]] = []
    while position < len(compact):
        match = KET_TERM.match(compact, position)
        if match is None:
            raise ValueError(
                f"cannot parse state term at position {position} in {spec!r}"
            )
        sign, magnitude, bits = match.groups()
        coefficient = float(magnitude) if magnitude else 1.0
        if not math.isfinite(coefficient):
            raise ValueError(f"coefficient of term {match.group(0)!r} is not finite")
        if sign == "-":
            coefficient = -coefficient
        terms.append((coefficient, bits))
        position = match.end()
    width = len(terms[0][1])
    if any(len(bits) != width for _, bits in terms):
        raise ValueError("kets in a superposition must have equal length")
    if n_qubits is not None and width != n_qubits:
        raise ValueError(
            f"state has {width} qubits but the subgroup acts on {n_qubits}"
        )
    state = np.zeros(1 << width, dtype=complex)
    with np.errstate(over="ignore"):
        for coefficient, bits in terms:
            state[int(bits, 2)] += coefficient
        norm = np.linalg.norm(state)
    if not math.isfinite(norm):
        raise ValueError(f"the norm of {spec!r} is not finite")
    if norm < 1e-12:
        raise ValueError("state specification sums to the zero vector")
    return state / norm


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def build_analysis_report(
    generator_strings: list[str],
    trials: int,
    seed: int,
    dense_limit: int,
) -> dict:
    generators = [parse_pauli(s) for s in generator_strings]
    group = closure(
        generators,
        order_cap=lambda s: REPORT_ORDER_CAP if s.is_abelian else DEFAULT_ORDER_CAP,
    )
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "inputs": {
            "generators": generator_strings,
            "trials": trials,
            "seed": seed,
            "dense_limit": dense_limit,
        },
        "subgroup": group.to_json_dict(),
    }
    dense_ok = group.n_qubits <= dense_limit
    if dense_ok:
        total, verdict = reducibility_sum(group)
        report["reducibility"] = {"sum": total, "verdict": verdict}

    if not group.is_abelian:
        # the multiplicity rule supports no one-dimensional character of a
        # non-Abelian group, so there are no joint eigenvectors to list
        report["verdict"] = "non_abelian"
        report["one_dim_search"] = (
            {"joint_eigenspaces": [], "one_dimensional_dfs_count": 0}
            if dense_ok
            else {}
        )
        return report

    report["verdict"] = "abelian"
    chars = characters(group)
    sifted = group.sifted
    u = PauliElement(sifted.phase_exp_generator, 0, 0, group.n_qubits)
    report["character_table"] = {
        "generators": [format_pauli(g) for g in (u, *sifted.pivots)],
        "coordinates": group.coordinate_matrix.tolist(),
        "rows": [{"label": c.label, "exponents": list(c.exponents)} for c in chars],
    }
    entries = []
    multiplicities = {}
    for c in chars:
        m = multiplicity(group, c)
        multiplicities[c.label] = m
        entry = {"label": c.label, "multiplicity": m}
        if dense_ok and m > 0:
            basis = dfs_basis(group, c, dense_limit=dense_limit)
            entry["basis"] = basis.to_json_dict()
            verification = verify_dfs(group, basis, trials=trials, seed=seed)
            entry["verification"] = {
                "passed": verification.passed,
                "max_residual": verification.max_residual,
            }
        entries.append(entry)
    report["characters"] = entries

    phase_class = applicable_phase_class(group)
    supported = sorted({m for m in multiplicities.values() if m > 0})
    check: dict = {
        "phase_class": phase_class,
        "supported_multiplicities": supported,
        "all_supported_equal": len(supported) <= 1,
    }
    if phase_class is not None:
        closed = dimension_formula(group.n_qubits, group.order, phase_class)
        check["closed_form"] = closed
        check["consistent"] = supported in ([], [closed])
    report["dimension_check"] = check
    return report


def build_preset_report(name: str, trials: int, seed: int, dense_limit: int) -> dict:
    strings = [format_pauli(g) for g in preset_generators(name)]
    report = build_analysis_report(strings, trials, seed, dense_limit)
    report["command"] = "preset"
    report["inputs"]["preset"] = name
    if name == "q8":
        group = preset_group("q8")
        probe = q8_genericity_probe(seed)
        report["nongeneric_code"] = {
            "plane_invariance_residual": plane_invariance_residual(group),
            "probe": probe.to_json_dict(),
        }
    return report


def build_channel_report(
    generator_strings: list[str],
    state_spec: str,
    trials: int,
    seed: int,
    dense_limit: int,
) -> dict:
    generators = [parse_pauli(s) for s in generator_strings]
    group = closure(generators)
    _require_dense(group.n_qubits, dense_limit)
    state = parse_state_spec(state_spec, n_qubits=group.n_qubits)
    scan = decoherence_scan(
        group, state, trials=trials, seed=seed, dense_limit=dense_limit
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "channel",
        "inputs": {
            "generators": generator_strings,
            "state": state_spec,
            "trials": trials,
            "seed": seed,
            "dense_limit": dense_limit,
        },
        "subgroup": group.to_json_dict(),
        "state": _state_json(state),
        "scan": scan.to_json_dict(),
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _amp(x: float) -> str:
    return f"{x:.12g}"


def render_text(report: dict, elapsed_s: float) -> str:
    lines = []
    sub = report["subgroup"]
    lines.append(
        f"subgroup on {sub['n_qubits']} qubits: order {sub['order']}, "
        f"{'Abelian' if sub['is_abelian'] else 'non-Abelian'}"
        f"{', contains -I' if sub['contains_minus_identity'] else ''}"
    )
    lines.append("elements: " + " ".join(sub["elements"]))
    if "reducibility" in report:
        red = report["reducibility"]
        lines.append(
            f"natural representation: sum |chi|^2 = {_amp(red['sum'])} "
            f"vs order {sub['order']} -> {red['verdict']}"
        )
    if report.get("verdict") == "non_abelian":
        search = report.get("one_dim_search", {})
        count = search.get("one_dimensional_dfs_count")
        lines.append(
            "non-Abelian subgroup: no one-dimensional irreps, joint "
            f"eigenvector search found {count if count is not None else 'n/a'} "
            "invariant directions"
        )
    elif "characters" in report:
        for entry in report["characters"]:
            line = f"character {entry['label']}: multiplicity {entry['multiplicity']}"
            if "verification" in entry:
                v = entry["verification"]
                line += (
                    f", verification {'PASS' if v['passed'] else 'FAIL'} "
                    f"(max residual {_amp(v['max_residual'])})"
                )
            lines.append(line)
            for vec in entry.get("basis", {}).get("vectors", []):
                parts = []
                for index, (re_part, im_part) in zip(vec["kets"], vec["amplitudes"]):
                    if abs(re_part) < 5e-13 and abs(im_part) < 5e-13:
                        continue
                    amp = (
                        _amp(re_part)
                        if abs(im_part) < 5e-13
                        else f"({_amp(re_part)}{im_part:+.12g}i)"
                    )
                    bits = format(index, f"0{sub['n_qubits']}b")
                    parts.append(f"{amp}|{bits}>")
                lines.append("    " + " + ".join(parts))
        check = report.get("dimension_check", {})
        if check.get("phase_class") is not None:
            lines.append(
                f"dimension formula ({check['phase_class']}): "
                f"{check['closed_form']} -> "
                f"{'consistent' if check.get('consistent') else 'INCONSISTENT'}"
            )
    if "scan" in report:
        scan = report["scan"]
        lines.append(
            f"channel scan: {scan['trials']} trials, min purity "
            f"{_amp(scan['min_purity'])}, mean purity {_amp(scan['mean_purity'])}, "
            f"min fidelity {_amp(scan['min_fidelity'])}"
        )
    if "nongeneric_code" in report:
        extra = report["nongeneric_code"]
        probe = extra["probe"]
        lines.append(
            f"invariant planes residual {_amp(extra['plane_invariance_residual'])}; "
            f"unconstrained draws breaking the code: "
            f"{probe['unconstrained_failures']}/{probe['draws']}, constrained: "
            f"{probe['constrained_failures']}/{probe['draws']}"
        )
    lines.append(f"elapsed: {elapsed_s * 1000:.1f} ms")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _split_generators(raw: list[str]) -> list[str]:
    out = []
    for token in raw:
        out.extend(part for part in token.split(",") if part)
    return out


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--trials", type=int, default=32)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--dense-limit", type=int, default=DENSE_QUBIT_LIMIT)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument(
        "--json", action="store_true", help="machine-readable JSON to stdout"
    )
    mode.add_argument(
        "--text", action="store_true", help="human-readable text (default)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paulidfs",
        description="Decoherence-free subspace analysis for Pauli subgroups.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="close a generator set and characterize its DFSs"
    )
    analyze.add_argument("generators", nargs="+", help="Pauli strings")
    analyze.add_argument(
        "--require-dfs",
        action="store_true",
        help="exit with status 2 if the subgroup is non-Abelian",
    )
    _add_common(analyze)

    preset = commands.add_parser(
        "preset", help="run one of the named example subgroups"
    )
    preset.add_argument("name", choices=PRESET_NAMES)
    preset.add_argument("--require-dfs", action="store_true")
    _add_common(preset)

    channel = commands.add_parser(
        "channel", help="purity scan of random group-algebra channels"
    )
    channel.add_argument("generators", nargs="+", help="Pauli strings")
    channel.add_argument(
        "--state", required=True, help='initial state, e.g. "0.7|00>+0.7|11>"'
    )
    _add_common(channel)
    return parser


def _emit(report: dict, as_json: bool, elapsed_s: float):
    """Write the report to stdout.  JSON goes out as it is encoded, in
    batches of ``EMIT_BATCH_CHUNKS`` encoder chunks, so the document is
    never held whole; the bytes equal ``json.dumps(report, indent=2)``."""
    if as_json:
        chunks = json.JSONEncoder(indent=2).iterencode(report)
        while batch := list(islice(chunks, EMIT_BATCH_CHUNKS)):
            sys.stdout.write("".join(batch))
        sys.stdout.write("\n")
        print(f"elapsed: {elapsed_s * 1000:.1f} ms", file=sys.stderr)
    else:
        print(render_text(report, elapsed_s))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trials < 1 or args.seed < 0:
        which = "trials must be >= 1" if args.trials < 1 else "seed must be >= 0"
        print(f"input error: {which}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        if args.command == "analyze":
            report = build_analysis_report(
                _split_generators(args.generators),
                args.trials,
                args.seed,
                args.dense_limit,
            )
        elif args.command == "preset":
            report = build_preset_report(
                args.name, args.trials, args.seed, args.dense_limit
            )
        else:
            report = build_channel_report(
                _split_generators(args.generators),
                args.state,
                args.trials,
                args.seed,
                args.dense_limit,
            )
    # LinAlgError and DegenerateKrausError subclass ValueError, so they
    # must be caught before the input errors
    except (DegenerateKrausError, AssertionError, LinAlgError, MemoryError) as error:
        print(f"numeric failure: {error}", file=sys.stderr)
        return 3
    except ValueError as error:
        print(f"input error: {error}", file=sys.stderr)
        return 1

    elapsed = time.perf_counter() - started
    try:
        _emit(report, args.json, elapsed)
    except MemoryError as error:
        # stdout may already hold the first batches of the document
        print(f"numeric failure: {error}", file=sys.stderr)
        return 3
    if getattr(args, "require_dfs", False) and report.get("verdict") == "non_abelian":
        print(
            "refusing: subgroup is non-Abelian, no DFS exists", file=sys.stderr
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
