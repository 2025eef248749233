"""The physics-mutant table of tests/mutants.py stays live: a refactor that
moves a mutated line fails here, instead of stopping the script."""

from mutants import MUTANTS, check_edits


def test_every_mutant_edit_matches_its_file_once():
    assert MUTANTS and check_edits() == []
