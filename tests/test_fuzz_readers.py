"""The text readers under small random edits, through ``tools/fuzz_readers.py``."""

import importlib.util
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fuzz():
    spec = importlib.util.spec_from_file_location(
        "fuzz_readers", ROOT / "tools" / "fuzz_readers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_edits_raise_only_documented_errors(fuzz):
    escaped = fuzz.fuzz(300, 0)
    assert {name: [(text, repr(exc)) for text, exc in found]
            for name, found in escaped.items()} == {name: [] for name in fuzz.READERS}


def test_an_undocumented_error_is_reported(fuzz, monkeypatch):
    # a reader that raises KeyError on every text whose length an edit changed
    text, _, documented = fuzz.READERS["graph6"]

    def reader(edited):
        if len(edited) != len(text):
            raise KeyError(edited)

    monkeypatch.setitem(fuzz.READERS, "graph6", (text, reader, documented))
    found = fuzz.fuzz(300, 0)["graph6"]
    assert found and all(len(t) != len(text) and isinstance(exc, KeyError)
                         for t, exc in found)
    assert fuzz.main(["--edits", "50"]) == 1


def test_edits_repeat_per_seed(fuzz):
    text = fuzz.READERS["dimacs"][0]
    rng_a, rng_b = random.Random(5), random.Random(5)
    assert [fuzz.edit(text, rng_a) for _ in range(20)] == [fuzz.edit(text, rng_b)
                                                          for _ in range(20)]
    assert fuzz.fuzz(40, 3).keys() == fuzz.READERS.keys()
