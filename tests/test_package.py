"""The package namespace: what ``from wignerpf import *`` exports."""

import wignerpf


def test_star_import_exports_every_name_once():
    namespace = {}
    exec("from wignerpf import *", namespace)
    assert len(set(wignerpf.__all__)) == len(wignerpf.__all__)
    for name in wignerpf.__all__:
        assert namespace[name] is getattr(wignerpf, name)
