"""The mutant runner of tests/mutants.py: every listed edit still applies,
and the runner tells a killed mutant from a surviving one. The whole list
runs as its own step (python tests/mutants.py), not here."""

import pytest
from mutants import ENUMERATION, MUTANTS, ROOT, Mutant, apply, run


def test_each_mutant_is_one_edit_at_one_place_in_the_source():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new, m.name
        apply(m, (ROOT / "src" / m.file).read_text())
        assert all((ROOT / t.partition("::")[0]).is_file() for t in m.tests), m.name
        # never this file, whose tests would start the runner again
        assert not any("test_mutants" in t for t in m.tests), m.name


def test_an_edit_that_does_not_apply_exactly_once_is_refused():
    for old in ("no such text", "yield"):
        with pytest.raises(ValueError, match="occurs"):
            apply(Mutant("m", ENUMERATION, old, "", ()), "yield a\nyield b\n")


def test_the_runner_reports_the_D_seed_mutant_killed():
    assert run(next(m for m in MUTANTS if m.name == "walk-seed-D")) == "killed"


def test_the_runner_reports_an_edit_of_a_comment_survived():
    comment = Mutant("comment", ENUMERATION, "# top[X] caps column X", "# edited",
                     ("tests/test_enumeration.py::test_frozen_D_examples",))
    assert run(comment) == "survived"
