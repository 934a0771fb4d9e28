"""Run one ``paulidfs`` CLI job with spans around the package's layers.

Usage: python3 perfbench/traced_cli.py JOB_ID CLI_ARG...

The public functions listed in ``LAYERS`` are wrapped from outside: every
module of the package that binds one of them by name (``cli`` imports most
of them) gets the wrapper instead, so internal calls are traced too.  A
span records name, start, end, parent span and job id, plus a count taken
from the result where one is defined.  Spans stay in memory; when the job
ends they are written to stderr as one line after ``SPAN_MARKER``, and the
CLI's own stdout is left untouched.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN_MARKER = "perfbench-spans "

#: (module, function, span name, count taken from the result).  The span
#: name is the layer: the module and the public function it wraps.
LAYERS = (
    ("pauli", "parse_pauli", "pauli.parse_pauli", None),
    ("subgroup", "closure", "subgroup.closure", lambda g: g.order),
    ("subgroup", "characters", "subgroup.characters", len),
    ("subgroup", "reducibility_sum", "subgroup.reducibility_sum", None),
    ("dfs", "multiplicity", "dfs.multiplicity", None),
    ("dfs", "projector", "dfs.projector", None),
    ("dfs", "dfs_basis", "dfs.dfs_basis", lambda b: b.multiplicity),
    ("dfs", "verify_dfs", "dfs.verify_dfs", lambda v: len(v.trials)),
    ("dfs", "nonabelian_one_dim_search", "dfs.nonabelian_one_dim_search", None),
    ("channels", "random_group_algebra_kraus", "channels.random_group_algebra_kraus", None),
    ("channels", "apply_channel", "channels.apply_channel", None),
    ("channels", "decoherence_scan", "channels.decoherence_scan", None),
    ("channels", "q8_genericity_probe", "channels.q8_genericity_probe", None),
    ("cli", "build_analysis_report", "cli.build_report", None),
    ("cli", "build_preset_report", "cli.build_report", None),
    ("cli", "build_channel_report", "cli.build_report", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span list for one job; spans nest through a call stack."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "job": self.job_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
                "count": None,
                "error": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                span["error"] = type(error).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["count"] = count(result)
            return result

        return traced

    def install(self):
        """Swap every package-level binding of a layer function for its wrapper."""
        wrappers = {}
        for module, attr, name, count in LAYERS:
            fn = getattr(importlib.import_module(f"paulidfs.{module}"), attr)
            wrappers[id(fn)] = self.wrap(fn, name, count)
        for module_name, module in list(sys.modules.items()):
            if module_name != "paulidfs" and not module_name.startswith("paulidfs."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])


def main(argv: list[str]) -> int:
    tracer = Tracer(argv[0])
    tracer.install()
    try:
        return sys.modules["paulidfs.cli"].main(argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(SPAN_MARKER + json.dumps(tracer.spans) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
