"""Each row of tools/mutants.py mutates one place of the library.

An edit that moves or rewrites a mutated text makes its row fail here, so
the table changes with the code it covers.  This reads files only; the
mutation runs themselves stay a review tool run by hand.
"""
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old, new", mutants.MUTANTS,
                         ids=[row[0] for row in mutants.MUTANTS])
def test_a_mutant_row_names_one_place_of_its_file(name, file, old, new):
    text = (_ROOT / "src" / "isospec" / file).read_text()
    assert text.count(old) == 1 and new != old
