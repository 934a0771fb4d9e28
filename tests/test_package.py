"""The package namespace: lazy exports, and immutable value and result types."""

import importlib

import numpy as np
import pytest

import paulidfs
from paulidfs import (
    characters,
    decoherence_scan,
    dfs_basis,
    nonabelian_one_dim_search,
    projector,
    q8_genericity_probe,
    random_group_algebra_kraus,
    verify_dfs,
)

MODULES = ("channels", "dfs", "pauli", "presets", "subgroup")


class TestLazyExports:
    @pytest.mark.parametrize("name", paulidfs.__all__)
    def test_name_is_its_module_object(self, name):
        """Each export is the very object of a package module, and a class
        or function is found in the module that defines it."""
        value = getattr(paulidfs, name)
        homes = [
            f"paulidfs.{module}"
            for module in MODULES
            if getattr(importlib.import_module(f"paulidfs.{module}"), name, None)
            is value
        ]
        assert homes
        if hasattr(value, "__module__"):
            assert value.__module__ in homes

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from paulidfs import *", namespace)
        assert set(paulidfs.__all__) <= set(namespace)
        assert all(namespace[n] is getattr(paulidfs, n) for n in paulidfs.__all__)

    def test_dir_lists_every_name(self):
        listed = dir(paulidfs)
        assert set(paulidfs.__all__) <= set(listed)
        assert "__version__" in listed and listed == sorted(listed)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="'paulidfs' has no attribute 'nope'"):
            paulidfs.nope


def _values(qz):
    """One instance of every value and result type, with one field each."""
    c = next(c for c in characters(qz) if c.is_trivial)
    basis = dfs_basis(qz, c)
    report = verify_dfs(qz, basis, trials=2)
    state = np.zeros(1 << qz.n_qubits)
    state[0] = 1
    search = nonabelian_one_dim_search(qz)
    return [
        (qz.sifted, "is_abelian"),
        (qz, "generators"),
        (c, "label"),
        (basis, "seeds"),
        (random_group_algebra_kraus(qz, 2, 0), "operators"),
        (projector(qz, c), "matrix"),
        (report, "passed"),
        (report.trials[0], "max_residual"),
        (decoherence_scan(qz, state, trials=2), "purities"),
        (q8_genericity_probe(0, draws=2), "draws"),
        (search, "spaces"),
        (search.spaces[0], "vectors"),
    ]


def test_values_refuse_assignment(qz):
    for value, field in _values(qz):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before, type(value).__name__
