"""Package surface: every exported name resolves, the benchmark's tracer
still finds what it wraps, the CLI starts without the slow scipy.stats
and concurrent.futures imports, and the exact routes run without scipy at
all."""

import importlib
import importlib.util
import inspect
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


def _run_fresh(code: str) -> str:
    src = os.path.dirname(os.path.dirname(bpire.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_stats_out():
    assert _run_fresh("import sys, bpire.cli; print('scipy.stats' in sys.modules)") == "False"


def test_cli_import_leaves_concurrent_futures_out():
    # concurrent.futures and the logging it imports cost 5-8 ms a run; only
    # a pool of two or more workers needs them
    code = "import sys, bpire.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    assert _run_fresh(code) == "[]"


def test_exact_routes_import_no_scipy():
    # each process that builds a kernel once paid about 0.8 s to import
    # scipy.stats for four closed-form pmfs
    code = """
import sys
from bpire.env_model import EnvAtom, EnvSpec, ImmigrationFamily, OffspringFamily, offspring_moment
from bpire.oracle import brute_force_random_sum_tail, build_kernel, stationary_power_iteration
env = EnvSpec.from_atoms([
    EnvAtom(0.5, OffspringFamily.poisson(0.5), ImmigrationFamily.geometric0(0.5)),
    EnvAtom(0.5, OffspringFamily.binomial(2, 0.3), ImmigrationFamily.bernoulli(0.5)),
])
stationary_power_iteration(build_kernel(env, 64))
offspring_moment(OffspringFamily.binomial(3, 0.5), 2.0)
brute_force_random_sum_tail(env, ImmigrationFamily.geometric0(0.5), 3, cap=100)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    assert _run_fresh(code) == "[]"


def test_one_worker_cli_imports_no_multiprocessing(tmp_path):
    # only a pool of two or more workers needs it
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "config_a.cfg")
    code = f"""
import sys
from bpire import cli
assert cli.main(["check", "--config", {config!r}, "--out", {str(tmp_path)!r}]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "multiprocessing"))
"""
    assert _run_fresh(code).splitlines()[-1] == "[]"


def _load_spans():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_names_resolve():
    # The tracer swaps these names at run time; a renamed function would only
    # show up as failed benchmark operations.
    spans = _load_spans()
    for mod_name, attr, _, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), f"{mod_name}.{attr}"
    rng_state = importlib.import_module("bpire.rng").RngState
    for name in spans.RNG_METHODS:
        assert callable(getattr(rng_state, name, None)), f"RngState.{name}"
    # each counter reads one positional argument at a fixed place
    positions = {
        ("bpire.env_model", "draw_env_batch"): (2, "size"),
        ("bpire.simulator", "thin_for_batch"): (1, "values"),
        ("bpire.simulator", "sample_immigration_batch"): (2, "size"),
        ("bpire.oracle", "build_kernel"): (1, "n_max"),
    }
    counted = {(m, a) for m, a, _, counter in spans.TRACED if counter is not None}
    assert counted == set(positions)
    for (mod_name, attr), (index, param) in positions.items():
        params = list(inspect.signature(getattr(importlib.import_module(mod_name), attr)).parameters)
        assert params.index(param) == index, f"{mod_name}.{attr}: {param} moved to {params.index(param)}"
