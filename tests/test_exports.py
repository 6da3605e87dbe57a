"""Every module's ``__all__`` names what the module holds, so a stale
export fails here and not in a user's ``import *``."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sparsemetrics

MODULES = ["sparsemetrics"] + [
    f"sparsemetrics.{m.name}" for m in pkgutil.iter_modules(sparsemetrics.__path__)
]


def test_the_modules_are_found():
    assert {"sparsemetrics.compliance", "sparsemetrics.transforms"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_imports(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", None)
    if exports is not None:
        assert [export for export in exports if not hasattr(module, export)] == []
        assert len(set(exports)) == len(exports)
    namespace = {}
    exec(f"from {name} import *", namespace)  # raises on a stale name
    if exports is not None:
        assert set(namespace) - {"__builtins__"} == set(exports)


def test_bare_import_loads_neither_the_cli_nor_argparse(run_python):
    """The fork helper is shared with the CLI; importing the package must
    still not import the CLI and its argument parser."""
    script = (
        "import sys\n"
        "import sparsemetrics\n"
        "loaded = sorted({'sparsemetrics.cli', 'argparse'} & set(sys.modules))\n"
        "sys.exit(f'loaded: {loaded}' if loaded else 0)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_only_parts_forks_pipes_or_pickles():
    """The fork machinery, and the pickle a forked part is sent back in,
    stay in ``parts``: no other module names ``os.fork``, ``os.pipe`` or
    ``pickle``, and ``parts`` names all three, so the search finds them."""
    named = {
        path.name: set(re.findall(r"\b(?:os\.fork|os\.pipe|pickle)\b", path.read_text()))
        for path in Path(sparsemetrics.__file__).parent.glob("*.py")
    }
    assert named.pop("parts.py") == {"os.fork", "os.pipe", "pickle"}
    assert {name: found for name, found in named.items() if found} == {}
