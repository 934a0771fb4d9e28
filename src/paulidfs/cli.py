"""Command-line front end: subgroup analysis, worked-example presets and
channel scans, with deterministic JSON or human-readable text output.

Every command parses and sifts its generators first (a string that starts
with a minus goes after ``--``) and checks its bounds on the sift: an order
above ``subgroup.DEFAULT_ORDER_CAP``, and a ``channel`` input above
``DENSE_QUBIT_LIMIT`` qubits or whose scan work, trials included, exceeds
``channels.SCAN_WORK_CAP``, are refused before the closure enumerates a
single element.

The ``analyze``/``preset`` report has O(N * r) size for a subgroup of order
N with r sifted pivots, and writes every Z4 row as one string of the digits
0-3.  Its ``character_table`` lists the sifted ``generators`` u = i^e I,
b_1, ..., b_r, one ``coordinates`` string "m k_1 ... k_r" per entry of
``subgroup.elements``, and one ``exponents`` string "w e_1 ... e_r" per
character, row k for label k + 1, with
chi_label(G_n) = i^((exponents . coordinates[n]) mod 4).  A DFS basis has
one ``amplitude`` a, m ``seeds`` and a string of m * |V_X| ``exponents``,
and V_X is listed once, increasing, as ``x_span``: ket seeds[j] XOR
x_span[v] has amplitude i^e * a, e the digit j * |V_X| + v.  Bases need
K <= ``DENSE_QUBIT_LIMIT`` and their 2^K * |V_X| kets, read off the sift,
within ``BASIS_KET_CAP``; ``reducibility`` is exact at any K.  One pass
builds all bases, and one exact Z4 check on the r + 1 sifted generators
covers them, so ``--trials`` drives only the ``channel`` scan.

``--json`` writes the bytes of ``json.dumps(report, indent=2)``, and text
output its lines, each N-long list a slice of a ``Column`` at a time.
``paulidfs`` and ``python -m paulidfs.cli`` both enter through ``run``.
The ``channels`` module is imported only by a ``channel`` scan and the q8
probe, so the other commands never load it.

Exit codes: 0 success, 1 usage or input error (or stdout closed before the
whole report was written), 2 analysis refusal (non-Abelian subgroup under
--require-dfs), 3 numeric failure or no memory.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import re
import sys
import time
from functools import partial

import numpy as np
from numpy.linalg import LinAlgError

from .dfs import (
    DfsBasis,
    _multiplicities,
    applicable_phase_class,
    dfs_bases,
    dimension_formula,
    verify_on_generators,
)
from .pauli import (
    DENSE_QUBIT_LIMIT,
    ChannelConstraintError,
    DegenerateKrausError,
    format_pauli,
    format_paulis,
    parse_pauli,
)
from .presets import (
    PRESET_NAMES,
    plane_invariance_residual,
    preset_generators,
    preset_group,
)
from .subgroup import (
    SiftedGenerators,
    characters,
    closure,
    reducibility_sum,
    sift_generators,
    z4_digits,
)

SCHEMA_VERSION = 6

#: Largest number of kets, 2^K * |V_X| over all supported characters'
#: bases, that an Abelian report builds and checks.  At the cap, nine
#: single-qubit X strings at K = 12 took 0.41 s and 39 MB for 2.4 MB of
#: ``--json`` (2-vCPU VM, one BLAS thread, median of 5).
BASIS_KET_CAP = 1 << 21

#: Characters of output gathered into one stdout write: one write per row
#: doubled the emission time at order 2^16 with stdout unbuffered, and one
#: write for the whole document held two to three copies of it.
EMIT_FLUSH_CHARS = 1 << 16


class Column:
    """One of a report's N-long lists, as ``rows(start, stop)``, which builds
    rows [start, stop) from arrays the report holds, and its length."""

    def __init__(self, length: int, rows):
        self.length, self.rows = length, rows

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return itertools.chain.from_iterable(self.slices())

    def slices(self):
        # about EMIT_FLUSH_CHARS / 4 of JSON text a slice if rows are as wide
        # as the first: as Python objects they take several times that
        step = EMIT_FLUSH_CHARS // (4 * len(json.dumps(self.rows(0, 1)))) + 1
        return (self.rows(at, at + step) for at in range(0, self.length, step))


KET_TERM = re.compile(
    r"([+-]?)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\|([01]+)>"
)


def parse_state_spec(spec: str, n_qubits: int | None = None) -> np.ndarray:
    """Parse "|00>" or "0.7071|00> + 0.7071|11>" into a unit vector.

    Coefficients are real decimals, and every term but the first needs a
    sign; the result is normalized.  Qubit 1 is the leftmost bit of each
    ket.  A coefficient or a norm that overflows to infinity is rejected.
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
        if terms and not sign:
            raise ValueError(
                f"state term at position {position} in {spec!r} needs a + or - sign"
            )
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


def _basis_kets(sifted: SiftedGenerators) -> int:
    """2^K * |V_X|, the kets of all DFS bases: the pivots that carry an x
    mask have distinct leading x bits, so they span V_X."""
    return 1 << (sifted.n_qubits + sum(1 for p in sifted.pivots if p.x_mask))


def _digit_rows(matrix: np.ndarray, start: int, stop: int) -> list[str]:
    """Rows [start, stop) of a Z4 matrix, each one string of the digits 0-3."""
    text, width = z4_digits(matrix[start:stop]), matrix.shape[1]
    return [text[at : at + width] for at in range(0, len(text), width)]


def build_analysis_report(
    generator_strings: list[str], trials: int, seed: int
) -> dict:
    group = closure([parse_pauli(s) for s in generator_strings])
    n, arrays, order = group.n_qubits, group.action_arrays, group.order

    def strings(a: int, b: int) -> list[str]:
        return format_paulis(arrays._make(c[a:b] for c in arrays), n)

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "inputs": {
            "generators": generator_strings,
            "trials": trials,
            "seed": seed,
        },
        "subgroup": group.to_json_dict(elements=Column(order, strings)),
    }
    total, verdict = reducibility_sum(group)
    report["reducibility"] = {"sum": total, "verdict": verdict}

    if not group.is_abelian:
        # the multiplicity rule supports no one-dimensional character of a
        # non-Abelian group, so there are no joint eigenvectors to list
        report["verdict"] = "non_abelian"
        search = {"joint_eigenspaces": [], "one_dimensional_dfs_count": 0}
        report["one_dim_search"] = search
        return report

    report["verdict"] = "abelian"
    chars = characters(group)
    sifted = group.sifted
    report["character_table"] = {
        "generators": [format_pauli(g) for g in sifted.generators],
        "coordinates": Column(order, partial(_digit_rows, group.coordinate_matrix)),
        "exponents": Column(order, partial(_digit_rows, chars.labels)),
    }
    bases: dict[int, tuple] = {}  # label - 1: seeds, exponents, check
    if n <= DENSE_QUBIT_LIMIT and _basis_kets(sifted) <= BASIS_KET_CAP:
        rows = np.flatnonzero(_multiplicities(group, chars.labels[:, 0].tolist()))
        labels = chars.labels[rows]
        seeds, exponents = dfs_bases(group, labels)
        checks = verify_on_generators(group, labels, seeds, exponents)
        bases = dict(zip(rows.tolist(), zip(seeds, exponents, checks)))
        report["x_span"] = group.x_span[0].tolist()

    def entries(start: int, stop: int) -> list[dict]:
        on_u = chars.labels[start:stop, 0].tolist()
        out = []
        for k, m in enumerate(_multiplicities(group, on_u), start):
            out.append({"label": k + 1, "multiplicity": m})
            if k in bases:
                s, e, (passed, residual) = bases[k]
                out[-1]["basis"] = DfsBasis(chars[k], s, e).to_json_dict()
                out[-1]["verification"] = {"passed": passed, "max_residual": residual}
        return out

    report["characters"] = Column(order, entries)

    phase_class = applicable_phase_class(group)
    on_u = set(chars.labels[:, 0].tobytes())
    supported = sorted(set(_multiplicities(group, on_u)) - {0})
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


def build_preset_report(name: str, trials: int, seed: int) -> dict:
    strings = [format_pauli(g) for g in preset_generators(name)]
    report = build_analysis_report(strings, trials, seed)
    report["command"] = "preset"
    report["inputs"]["preset"] = name
    if name == "q8":
        from .channels import q8_genericity_probe

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
) -> dict:
    from .channels import decoherence_scan, require_scan_work

    generators = [parse_pauli(s) for s in generator_strings]
    # K and the scan's work are read off the sift, before any element
    require_scan_work(sift_generators(generators), trials)
    group = closure(generators)
    state = parse_state_spec(state_spec, n_qubits=group.n_qubits)
    scan = decoherence_scan(group, state, trials=trials, seed=seed)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "channel",
        "inputs": {
            "generators": generator_strings,
            "state": state_spec,
            "trials": trials,
            "seed": seed,
        },
        "subgroup": group.to_json_dict(elements=False),
        "state": [[float(a.real), float(a.imag)] for a in state],
        "scan": scan.to_json_dict(),
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _amp(x: float) -> str:
    return f"{x:.12g}"


def render_text(report: dict, elapsed_s: float):
    """The text report in pieces, a line or an element at a time."""
    sub = report["subgroup"]
    yield (
        f"subgroup on {sub['n_qubits']} qubits: order {sub['order']}, "
        f"{'Abelian' if sub['is_abelian'] else 'non-Abelian'}"
        f"{', contains -I' if sub['contains_minus_identity'] else ''}\n"
    )
    if "elements" in sub:
        yield "elements:"
        yield from (" " + row for row in sub["elements"])
        yield "\n"
    if "reducibility" in report:
        red = report["reducibility"]
        yield (
            f"natural representation: sum |chi|^2 = {red['sum']} "
            f"vs order {sub['order']} -> {red['verdict']}\n"
        )
    if report.get("verdict") == "non_abelian":
        count = report["one_dim_search"]["one_dimensional_dfs_count"]
        yield (
            "non-Abelian subgroup: no one-dimensional irreps, joint "
            f"eigenvector search found {count} invariant directions\n"
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
            yield line + "\n"
            if "basis" not in entry:
                continue
            a = entry["basis"]["amplitude"]
            # i^e * a for e = 0..3
            terms = (_amp(a), f"(0+{a:.12g}i)", _amp(-a), f"(0-{a:.12g}i)")
            digits = iter(entry["basis"]["exponents"])
            for seed in entry["basis"]["seeds"]:
                # zip reads x_span first, so it takes |V_X| digits a vector
                parts = [
                    f"{terms[int(e)]}|{seed ^ x:0{sub['n_qubits']}b}>"
                    for x, e in zip(report["x_span"], digits)
                ]
                yield "    " + " + ".join(parts) + "\n"
        check = report.get("dimension_check", {})
        if check.get("phase_class") is not None:
            yield (
                f"dimension formula ({check['phase_class']}): "
                f"{check['closed_form']} -> "
                f"{'consistent' if check.get('consistent') else 'INCONSISTENT'}\n"
            )
    if "scan" in report:
        scan = report["scan"]
        yield (
            f"channel scan: {scan['trials']} trials, min purity "
            f"{_amp(scan['min_purity'])}, mean purity {_amp(scan['mean_purity'])}, "
            f"min fidelity {_amp(scan['min_fidelity'])}\n"
        )
    if "nongeneric_code" in report:
        extra = report["nongeneric_code"]
        probe = extra["probe"]
        yield (
            f"invariant planes residual {_amp(extra['plane_invariance_residual'])}; "
            f"unconstrained draws breaking the code: "
            f"{probe['unconstrained_failures']}/{probe['draws']}, constrained: "
            f"{probe['constrained_failures']}/{probe['draws']}\n"
        )
    yield f"elapsed: {elapsed_s * 1000:.1f} ms\n"


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


_GENERATORS_HELP = "Pauli strings, put after -- if one starts with -: -- XX -ZZ"


def _add_common(sub: argparse.ArgumentParser):
    trials = "random channels per channel scan; analyze and preset only record it"
    sub.add_argument("--trials", type=int, default=32, help=trials)
    sub.add_argument("--seed", type=int, default=0)
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
    analyze.add_argument("generators", nargs="+", help=_GENERATORS_HELP)
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
    channel.add_argument("generators", nargs="+", help=_GENERATORS_HELP)
    channel.add_argument(
        "--state",
        required=True,
        help='initial state, e.g. "0.7|00>+0.7|11>"; one that starts with - '
        'is written "--state=-|00>+|11>"',
    )
    _add_common(channel)
    return parser


def _flush(text: str):
    sys.stdout.write(text)


def _write(pieces):
    """Write the text ``pieces`` through ``_flush``, gathered into writes of
    at least ``EMIT_FLUSH_CHARS`` characters (the last aside)."""
    text = ""
    for piece in pieces:
        text += piece
        if len(text) >= EMIT_FLUSH_CHARS:
            _flush(text)
            text = ""
    _flush(text)


def _json_pieces(value, pad: str = ""):
    """The text of ``json.dumps(value, indent=2)`` at the depth of ``pad``, in
    pieces, a ``Column`` a slice of rows at a time.  Slices of strings, or of
    nonempty dicts of scalars, go through the C encoder, whose item separator
    then carries their indentation; between dicts it is mended, found by its
    raw newline, which no JSON string holds."""
    inner, deeper = "\n" + pad + "  ", "\n" + pad + "    "
    if isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            # the key as json writes it: "1" for 1, "true" for True
            yield f"{',' if i else '{'}{inner}{json.dumps({key: 0})[1:-4]}: "
            yield from _json_pieces(item, pad + "  ")
        yield "\n" + pad + "}"
        return
    if not isinstance(value, Column):
        # scalars C-encoded: the pure-Python encoder, which indent selects,
        # leaves a reference cycle behind on every call
        indent = 2 if isinstance(value, (list, tuple)) else None
        yield json.dumps(value, indent=indent).replace("\n", "\n" + pad)
        return
    for i, rows in enumerate(value.slices()):
        shapes = {type(row) for row in rows}
        values = {type(v) for r in rows for v in r.values()} if shapes == {dict} else {dict}
        if shapes == {str}:
            text = inner + json.dumps(rows, separators=("," + inner, ": "))[1:-1]
        elif all(rows) and not any(issubclass(t, (dict, list, tuple)) for t in values):
            text = json.dumps(rows, separators=("," + deeper, ": "))[2:-2]
            text = text.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
            text = inner + "{" + deeper + text + inner + "}"
        else:
            text = json.dumps(rows, indent=2)[1:-2].replace("\n", "\n" + pad)
        yield ("," if i else "[") + text
    yield "\n" + pad + "]" if value.length else "[]"


def _write_json(value):
    """Write ``json.dumps(value, indent=2) + "\n"``, a ``Column`` as the list
    of its rows, through ``_write``."""
    _write(itertools.chain(_json_pieces(value), ["\n"]))


def _emit(report: dict, as_json: bool, elapsed_s: float):
    """Write the report to stdout, as JSON or as text."""
    if as_json:
        _write_json(report)
        print(f"elapsed: {elapsed_s * 1000:.1f} ms", file=sys.stderr)
    else:
        _write(render_text(report, elapsed_s))


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
                _split_generators(args.generators), args.trials, args.seed
            )
        elif args.command == "preset":
            report = build_preset_report(args.name, args.trials, args.seed)
        else:
            report = build_channel_report(
                _split_generators(args.generators),
                args.state,
                args.trials,
                args.seed,
            )
    # LinAlgError and the channel errors subclass ValueError, so they must
    # be caught before the input errors; the CLI builds every channel from
    # its own draws, so a violated channel constraint is numeric too
    except (
        ChannelConstraintError,
        DegenerateKrausError,
        AssertionError,
        LinAlgError,
        MemoryError,
    ) as error:
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


def run(argv: list[str] | None = None) -> int:
    """Process entry point of ``paulidfs`` and ``python -m paulidfs.cli``.

    Runs ``main`` and then freezes the garbage collector, so that the
    interpreter's collections at shutdown skip every object left from the
    imports and the run; ``main`` never freezes, since tests and library
    callers run it inside long-lived processes.  A reader that closes
    stdout before the report is written in full exits 1 with a message.
    """
    try:
        code = main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit, so send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(
            "output error: stdout closed before the whole report was written",
            file=sys.stderr,
        )
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
