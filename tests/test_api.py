"""The package's export list names only what the package defines, so a
removed function cannot linger in ``__all__``."""
import graphdenoise


def test_every_exported_name_resolves():
    assert [n for n in graphdenoise.__all__ if not hasattr(graphdenoise, n)] == []


def test_star_import():
    namespace = {}
    exec("from graphdenoise import *", namespace)
    assert set(graphdenoise.__all__) <= set(namespace)
