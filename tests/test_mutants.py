"""The one-line mutants of scripts/mutants.py stay live: each finds its
old text exactly once in the tree."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("k", range(1, len(mutants.MUTANTS) + 1))
def test_each_mutant_finds_its_old_text_once(k):
    path, old, _, _ = mutants.MUTANTS[k - 1]
    assert (ROOT / path).read_text().count(old) == 1, (k, path, old)
