"""The package's public names."""

import types

import weibrec


def test_all_names_only_what_the_submodules_define():
    # A helper or module that a later import in __init__ brings in would
    # otherwise join __all__, and ``from weibrec import *``, unnoticed.
    assert len(set(weibrec.__all__)) == len(weibrec.__all__)
    for name in weibrec.__all__:
        value = getattr(weibrec, name)
        assert not isinstance(value, types.ModuleType), name
        if name != "__version__":
            module = getattr(value, "__module__", None) or ""
            assert module.startswith("weibrec."), name

