"""Every example imports: a public name an example uses cannot vanish
without a test failing.  Importing by path runs the module body (its
imports and definitions) but not ``main``."""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples")
                  .glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
