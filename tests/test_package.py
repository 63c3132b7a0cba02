"""Package surface: every exported name resolves, and the CLI starts
without the slow scipy.stats import."""

import importlib
import os
import pkgutil
import subprocess
import sys

import bpire


def test_every_exported_name_resolves():
    modules = [bpire] + [
        importlib.import_module(f"bpire.{info.name}") for info in pkgutil.iter_modules(bpire.__path__)
    ]
    for mod in modules:
        exported = getattr(mod, "__all__", ())
        missing = [name for name in exported if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"
        assert len(set(exported)) == len(exported), f"{mod.__name__}.__all__ repeats a name"


def test_cli_import_leaves_scipy_stats_out():
    src = os.path.dirname(os.path.dirname(bpire.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, bpire.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
