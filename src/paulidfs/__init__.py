"""Decoherence-free subspace characterization for Pauli subgroups.

The package closes subgroups of the Pauli group from error generators,
enumerates their one-dimensional characters, builds irrep projectors,
extracts and verifies DFS bases, and drives group-algebra Kraus channels
over density matrices.

The names in ``__all__`` are loaded on first access (PEP 562): importing
the package, or ``paulidfs.cli``, loads no module that its caller does not
use, and ``paulidfs.closure`` is ``paulidfs.subgroup.closure``.
"""

import importlib

__version__ = "0.1.0"

#: Every public name, under the module that defines it.
_EXPORTS = {
    "channels": """KrausSet ProbeReport ScanReport apply_channel
        assert_density_matrix code_fix_residual decoherence_scan
        q8_constrained_kraus q8_genericity_probe random_group_algebra_kraus""",
    "dfs": """DfsBasis IrrepProjector JointEigenspace SearchResult
        VerificationReport applicable_phase_class dfs_basis dimension_formula
        multiplicity nonabelian_one_dim_search projector verify_dfs""",
    "pauli": """ChannelConstraintError DENSE_QUBIT_LIMIT DegenerateKrausError
        DenseLimitError PauliElement PauliParseError QubitCountError adjoint
        commutes format_pauli identity mul parse_pauli to_matrix""",
    "presets": """PRESET_NAMES preset_generators preset_group q8_code_states
        q8_invariant_planes""",
    "subgroup": """Character ClosureCapError NotAbelianError PauliSubgroup
        characters closure reducibility_sum""",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
