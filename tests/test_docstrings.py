"""Documentation meta-test: every public item carries a docstring.

Deliverable (e) of a library release is doc comments on every public
item; this test makes the property structural rather than aspirational.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.datasets",
    "repro.harness",
    "repro.netenergy",
    "repro.netsim",
    "repro.power",
    "repro.projection",
    "repro.testbeds",
]


def iter_modules():
    seen = set()
    for name in PACKAGES:
        module = importlib.import_module(name)
        yield module
        if hasattr(module, "__path__"):
            for info in pkgutil.iter_modules(module.__path__):
                full = f"{name}.{info.name}"
                if full not in seen:
                    seen.add(full)
                    yield importlib.import_module(full)


ALL_MODULES = list({m.__name__: m for m in iter_modules()}.values())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), f"{module.__name__} lacks a docstring"


def public_items(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or not callable(obj):
            continue
        # only items defined inside this package
        defined_in = getattr(obj, "__module__", "") or ""
        if not defined_in.startswith("repro"):
            continue
        yield name, obj


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_callables_documented(module):
    undocumented = [
        name
        for name, obj in public_items(module)
        if not (inspect.getdoc(obj) or "").strip()
    ]
    assert not undocumented, f"{module.__name__}: undocumented public items {undocumented}"


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_classes_document_their_methods(module):
    offenders = []
    for name, obj in public_items(module):
        if not inspect.isclass(obj):
            continue
        for method_name, method in inspect.getmembers(obj, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if method.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited
            if not (inspect.getdoc(method) or "").strip():
                offenders.append(f"{name}.{method_name}")
    assert not offenders, f"{module.__name__}: undocumented methods {offenders}"
