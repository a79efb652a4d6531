"""The mutant table of tests/mutants.py still points at the source: every
entry's old text occurs exactly once in its file and differs from its new
text, so an edit to src/ that moves a mutated line fails here, not in the
next run of the table."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_the_table_has_one_description_per_mutant():
    assert len(MUTANTS) >= 30
    assert len({m[3] for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("file, old, new, what", MUTANTS, ids=[m[3] for m in MUTANTS])
def test_old_occurs_once_and_differs_from_new(file, old, new, what):
    assert old != new
    assert (ROOT / file).read_text().count(old) == 1
