"""The package's public surface."""

import inspect
import subprocess
import sys

import pytest

import oucausal


def test_every_exported_name_resolves():
    assert len(set(oucausal.__all__)) == len(oucausal.__all__)
    missing = [name for name in oucausal.__all__ if not hasattr(oucausal, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from oucausal import *", namespace)
    assert set(oucausal.__all__) <= set(namespace)


def test_each_exported_name_is_its_home_modules_object():
    for name in oucausal.__all__:
        value = getattr(oucausal, name)
        if inspect.ismodule(value):
            assert sys.modules[f"oucausal.{name}"] is value
        else:
            assert value.__module__.startswith("oucausal."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert getattr(oucausal, name) is value


def test_package_import_loads_no_submodule_but_lists_every_name():
    script = (
        "import sys\n"
        "import oucausal\n"
        "print(sorted(m for m in sys.modules if m.startswith('oucausal.')))\n"
        "print(set(oucausal.__all__) <= set(dir(oucausal)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "['oucausal.errors']\nTrue\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'oucausal' has no attribute 'nope'"):
        oucausal.nope
    assert not hasattr(oucausal, "nope")
