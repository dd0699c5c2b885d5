"""The package's lazy name table: `import kezeta` resolves its public names
on first use, each from the module that defines it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kezeta


def test_every_public_name_resolves_to_its_defining_module():
    for name in kezeta.__all__:
        obj = getattr(kezeta, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("kezeta."), name
        assert vars(home)[name] is obj, name


def test_dir_lists_every_public_name():
    assert set(kezeta.__all__) <= set(dir(kezeta))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from kezeta import *", namespace)
    for name in kezeta.__all__:
        assert namespace[name] is getattr(kezeta, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kezeta.no_such_name


_SUBMODULE_SCRIPT = """
import sys
import kezeta

names = ("errors", "gammaprod", "closedforms", "stability", "chart", "sphere", "montecarlo", "sampler",
         "meanfield")
print([m for m in names if f"kezeta.{m}" in sys.modules])
print([m for m in names if getattr(kezeta, m) is not sys.modules[f"kezeta.{m}"]])
"""


def test_submodules_are_attributes_of_a_fresh_import():
    # a fresh interpreter, where `import kezeta` has loaded no submodule yet
    src = str(Path(kezeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SUBMODULE_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]
