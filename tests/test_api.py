import types

import hppca


def test_every_public_name_resolves_and_none_is_a_module():
    namespace = {}
    exec("from hppca import *", namespace)  # raises if a name in __all__ is missing
    for name in hppca.__all__:
        assert not isinstance(namespace[name], types.ModuleType), name
