"""The mutant table of tests/mutants.py still points at the source and the
suite: every entry's old text occurs exactly once in its file and differs
from its new text, so an edit to src/ that moves a mutated line fails here,
not in the next run of the table; and every recorded killer names a test
that its file still defines."""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_the_table_has_one_description_per_mutant():
    assert len(MUTANTS) >= 30
    assert len({m[3] for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("file, old, new, what, killer", MUTANTS, ids=[m[3] for m in MUTANTS])
def test_old_occurs_once_and_differs_from_new(file, old, new, what, killer):
    assert old != new
    assert (ROOT / file).read_text().count(old) == 1


@pytest.mark.parametrize("killer", sorted({m[4] for m in MUTANTS}))
def test_each_recorded_killer_names_a_test_in_its_file(killer):
    """A killer is a pytest id, file::[Class::]test[params]; a killer in
    test_mutants.py would never run, since the copies leave it out."""
    file, *classes, test = killer.split("::")
    assert file.startswith("tests/test_") and file != "tests/test_mutants.py"
    text = (ROOT / file).read_text()
    for name in classes:
        assert re.search(rf"^\s*class {name}\b", text, re.MULTILINE), name
    assert re.search(rf"^\s*def {test.split('[')[0]}\(", text, re.MULTILINE), test
    assert ("[" in test) == test.endswith("]"), "a parametrized id cut short"
