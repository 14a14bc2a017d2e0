"""The algorithm table: the paper's six algorithms and the five
extensions, closed, keyed by name, in the paper's order."""

from __future__ import annotations

import pytest

from repro.checkpoint.base import BaseCheckpointer
from repro.checkpoint.fuzzy import FuzzyCopyCheckpointer
from repro.checkpoint.registry import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    ALL_ALGORITHM_NAMES,
    EXTENSION_NAMES,
    resolve_algorithm,
)
from repro.errors import ConfigurationError


class TestRegistration:
    def test_builtin_categories_are_complete(self):
        """The table is the paper's algorithms, then the extensions."""
        assert tuple(ALGORITHMS) == ALL_ALGORITHM_NAMES
        assert ALL_ALGORITHM_NAMES == ALGORITHM_NAMES + EXTENSION_NAMES
        assert len(ALGORITHM_NAMES) == 6 and len(EXTENSION_NAMES) == 5
        for name, cls in ALGORITHMS.items():
            assert issubclass(cls, BaseCheckpointer)
            assert cls.name == name

    def test_resolution_is_case_insensitive(self):
        assert resolve_algorithm("fuzzycopy") is FuzzyCopyCheckpointer
        assert resolve_algorithm("FuzzyCopy") is FuzzyCopyCheckpointer

    def test_unknown_name_lists_the_known_names(self):
        with pytest.raises(ConfigurationError,
                           match="unknown algorithm 'TESTPLUGIN'") as info:
            resolve_algorithm("TESTPLUGIN")
        assert str(info.value).endswith(
            "known: " + ", ".join(ALL_ALGORITHM_NAMES))
