"""Cold start: an entry point loads only the code its requests run.

These tests check *which* modules a fresh interpreter has loaded, not
how long loading took, so they are deterministic on any host:

* the service readiness probe (``perfbench/ready.py``) and ``import
  repro.cli`` load no numpy, no ``multiprocessing``, no HTTP server,
  no synthesis, baselines or analysis, and no netlist generator — and
  an extraction in the same interpreter afterwards still loads no
  ``multiprocessing``;
* the result cache loads no extract module and the HTTP API no BLIF
  or Verilog parser until a request needs one;
* every package that re-exports lazily (PEP 562) resolves each
  ``__all__`` name to the object its defining module holds, even after
  every submodule was imported first (a submodule must never shadow a
  re-exported name);
* no module under ``src/`` imports numpy.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules no entry point may load before a request needs them.
FORBIDDEN = (
    "numpy",
    "multiprocessing",
    "http.server",
    "repro.synth",
    "repro.baselines",
    "repro.analysis",
)

#: ``repro.gen`` modules that are not generators: the net-naming
#: convention is shared with verification and diagnosis.
GEN_HELPERS = {"repro.gen", "repro.gen.naming"}

ENTRY_POINTS = {
    # ready.py reads its cache directory from sys.argv[1].
    "ready": "import runpy\nrunpy.run_path(READY)\n",
    "cli": "import repro.cli\n",
}

AFTERWARDS = textwrap.dedent(
    """
    from repro.extract.extractor import extract_irreducible_polynomial
    from repro.gen.montgomery import generate_montgomery

    netlist = generate_montgomery(0b10011)
    result = extract_irreducible_polynomial(netlist)
    assert result.polynomial_str == "x^4 + x + 1", result.polynomial_str
    assert "multiprocessing" not in sys.modules
    print("AFTERWARDS OK")
    """
)


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(SRC)
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_only_what_requests_run(entry, tmp_path):
    script = (
        f"READY = {str(ROOT / 'perfbench' / 'ready.py')!r}\n"
        + ENTRY_POINTS[entry]
        + "import json, sys\n"
        + "print(json.dumps(sorted(sys.modules)))\n"
        + AFTERWARDS
    )
    completed = _run(script, str(tmp_path / "cache"))
    first, rest = completed.stdout.split("\n", 1)
    loaded = set(json.loads(first))
    assert "repro" in loaded
    assert not [name for name in FORBIDDEN if name in loaded]
    generators = sorted(
        name for name in loaded
        if name.startswith("repro.gen.") and name not in GEN_HELPERS
    )
    assert not generators
    assert "AFTERWARDS OK" in rest


def _lazy_packages():
    """Every package whose ``__init__`` re-exports through ``_EXPORTS``."""
    packages = ["repro"]
    for init in sorted((SRC / "repro").glob("*/__init__.py")):
        if "_EXPORTS = {" in init.read_text(encoding="utf-8"):
            packages.append(f"repro.{init.parent.name}")
    return packages


def test_every_lazy_package_is_found():
    assert {"repro", "repro.gen", "repro.netlist", "repro.extract"} <= set(
        _lazy_packages()
    )


@pytest.mark.parametrize("package", _lazy_packages())
def test_submodules_never_shadow_lazy_exports(package):
    """Import every submodule first, then resolve ``__all__``: each
    name must be the object its defining module holds, as when the
    package imported it eagerly."""
    script = textwrap.dedent(
        """
        import importlib, pkgutil, sys, types

        package_name = sys.argv[1]
        root = importlib.import_module("repro")
        for info in pkgutil.walk_packages(root.__path__, "repro."):
            importlib.import_module(info.name)

        package = importlib.import_module(package_name)
        bad = []
        for name in package.__all__:
            value = getattr(package, name)
            source = package._EXPORTS.get(name)
            if source is None:  # an eager module attribute
                continue
            module, _, attribute = source.partition(":")
            expected = getattr(
                importlib.import_module(module), attribute or name
            )
            if isinstance(value, types.ModuleType) or value is not expected:
                bad.append(name)
        assert not bad, bad
        print("OK", len(package.__all__))
        """
    )
    assert "OK" in _run(script, package).stdout


def test_extract_diagnose_stays_the_function():
    script = textwrap.dedent(
        """
        import sys
        import repro.extract.diagnose
        from repro.extract import diagnose
        from repro import diagnose as top
        module = sys.modules["repro.extract.diagnose"]
        assert diagnose is top is module.diagnose
        assert repro.extract.diagnose is diagnose
        print("OK")
        """
    )
    assert "OK" in _run(script).stdout


def test_star_import_and_dir_list_every_export():
    script = textwrap.dedent(
        """
        import repro
        listed = set(dir(repro))
        namespace = {}
        exec("from repro import *", namespace)
        missing = [
            name for name in repro.__all__
            if name not in namespace or name not in listed
        ]
        assert not missing, missing
        assert namespace["generate_mastrovito"].__module__ == (
            "repro.gen.mastrovito"
        )
        print("OK")
        """
    )
    assert "OK" in _run(script).stdout


def test_bare_import_reaches_subpackages_as_attributes():
    script = textwrap.dedent(
        """
        import sys
        import repro
        assert "repro.fieldmath" not in sys.modules
        assert repro.fieldmath.bitpoly.bitpoly_str(0b10011) == "x^4 + x + 1"
        assert not hasattr(repro, "no_such_module")
        print("OK")
        """
    )
    assert "OK" in _run(script).stdout


@pytest.mark.parametrize(
    "module,unloaded",
    [
        (
            "repro.service.cache",
            (
                "repro.extract.diagnose",
                "repro.extract.extractor",
                "repro.extract.verify",
            ),
        ),
        (
            "repro.service.api",
            ("repro.netlist.blif_io", "repro.netlist.verilog_io"),
        ),
    ],
)
def test_service_module_defers_what_only_requests_use(module, unloaded):
    """The cache decodes results with the extract types only when it
    reads one; the HTTP API loads a netlist format's parser with its
    first submission in that format."""
    script = textwrap.dedent(
        f"""
        import json, sys
        import {module}
        print(json.dumps(sorted(sys.modules)))
        """
    )
    loaded = set(json.loads(_run(script).stdout))
    assert module in loaded
    assert not [name for name in unloaded if name in loaded]


def test_no_module_under_src_imports_numpy():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.lstrip().startswith(("import numpy", "from numpy"))
    ]
    assert not offenders
