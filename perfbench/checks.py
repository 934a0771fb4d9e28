"""Invariant checks on one job's JSON report.

The checks read result invariants (orders, counts, sums, verdicts, bounds)
and never the bytes of the character table, so a declared schema change
of the table does not break them.  ``check`` returns a list of problems;
an empty list means the job's output is correct.
"""

from __future__ import annotations

from inputs import Job

#: Slack on purities and fidelities, which are floating-point sums.
PROBABILITY_TOL = 1e-9
#: The CLI's default --dense-limit: up to this many qubits every
#: supported character gets a basis and a verification.
DENSE_LIMIT = 12


def _abelian(job: Job, report: dict) -> list[str]:
    problems = []
    if report.get("verdict") != "abelian":
        problems.append(f"verdict {report.get('verdict')!r}, expected 'abelian'")
        return problems
    entries = report["characters"]
    if len(entries) != job.order:
        problems.append(f"{len(entries)} characters, expected {job.order}")
    multiplicities = [e["multiplicity"] for e in entries]
    if sum(multiplicities) != 1 << job.n_qubits:
        problems.append(f"multiplicities sum to {sum(multiplicities)}, expected 2^{job.n_qubits}")
    supported = {m for m in multiplicities if m > 0}
    if len(supported) != 1:
        problems.append(f"supported multiplicities {sorted(supported)} are not all equal")
    verified = [e["verification"] for e in entries if "verification" in e]
    if any(not v["passed"] for v in verified):
        problems.append("a DFS verification failed")
    if job.n_qubits <= DENSE_LIMIT and len(verified) != len(
        [m for m in multiplicities if m > 0]
    ):
        problems.append("a dense run left a supported character unverified")
    if report.get("dimension_check", {}).get("consistent") is False:
        problems.append("dimension check is inconsistent")
    return problems


def _nonabelian(report: dict) -> list[str]:
    if report.get("verdict") != "non_abelian":
        return [f"verdict {report.get('verdict')!r}, expected 'non_abelian'"]
    count = report.get("one_dim_search", {}).get("one_dimensional_dfs_count")
    if count != 0:
        return [f"one_dimensional_dfs_count is {count}, expected 0"]
    return []


def _channel(job: Job, report: dict) -> list[str]:
    scan = report["scan"]
    problems = []
    values = scan["purities"] + scan["fidelities"]
    if len(scan["purities"]) != scan["trials"]:
        problems.append(f"{len(scan['purities'])} purities for {scan['trials']} trials")
    if any(not 0.0 <= v <= 1.0 + PROBABILITY_TOL for v in values):
        problems.append("a purity or fidelity lies outside [0, 1]")
    if job.in_irrep and scan["min_purity"] < 1.0 - PROBABILITY_TOL:
        problems.append(f"in-irrep state lost purity: {scan['min_purity']!r}")
    return problems


def check(job: Job, report: dict) -> list[str]:
    """Problems found in ``report`` for ``job``; empty when it is correct."""
    order = report["subgroup"]["order"]
    problems = [] if order == job.order else [f"order {order}, expected {job.order}"]
    if job.kind == "abelian":
        problems += _abelian(job, report)
    elif job.kind == "nonabelian":
        problems += _nonabelian(report)
    else:
        problems += _channel(job, report)
    if job.argv[:2] == ("preset", "q8"):
        failures = report.get("nongeneric_code", {}).get("probe", {}).get("constrained_failures")
        if failures != 0:
            problems.append(f"constrained q8 channels breaking the code: {failures}")
    return problems
