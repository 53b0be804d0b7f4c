"""The mutation runner's table stays in step with the source it edits: a
mutant whose text no longer matches would otherwise show only when the
runner itself is started."""

from __future__ import annotations

import pytest

import mutants


@pytest.mark.parametrize("name, path, old", [m[:3] for m in mutants.MUTANTS],
                         ids=[m[0] for m in mutants.MUTANTS])
def test_text_occurs_once(name, path, old):
    assert (mutants.ROOT / path).read_text(encoding="utf-8").count(old) == 1


def test_equivalents_are_mutants():
    assert set(mutants.EQUIVALENT) <= {m[0] for m in mutants.MUTANTS}
