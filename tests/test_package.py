"""The package namespace: what ``from wignerpf import *`` exports, and which
module may hold the skew-Pfaffian oracle."""

from pathlib import Path

import wignerpf


def test_star_import_exports_every_name_once():
    namespace = {}
    exec("from wignerpf import *", namespace)
    assert len(set(wignerpf.__all__)) == len(wignerpf.__all__)
    for name in wignerpf.__all__:
        assert namespace[name] is getattr(wignerpf, name)


def test_householder_is_an_oracle_only():
    # one production skew-Pfaffian kernel: Parlett-Reid; Householder stays in
    # pfaffian.py as the reference the tests compare against
    package = Path(wignerpf.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name != "pfaffian.py":
            assert "pf_skew_householder" not in path.read_text(encoding="utf-8"), path.name
