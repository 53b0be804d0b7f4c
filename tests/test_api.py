"""The package's public surface: `from fordcircles import *` must work."""

from __future__ import annotations

import fordcircles


def test_every_exported_name_resolves_once():
    names = fordcircles.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fordcircles, name)]
    assert missing == []
    namespace: dict = {}
    exec("from fordcircles import *", namespace)
    assert set(names) <= set(namespace)


def test_removed_names_are_gone():
    for name in ("ChainEntry", "Horocircle", "tangent_horocircle",
                 "make_rational", "Rational", "is_integer"):
        assert name not in fordcircles.__all__
        assert not hasattr(fordcircles, name)
