"""The README's library example runs as written, and every dotted name it
cites in backticks (``MarketInstance.regret_columns``,
``harness.mean_metric_by_horizon``, ...) names something in the package, so
the README cannot keep citing a function after it is deleted or renamed."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import eqprice

README = Path(__file__).resolve().parent.parent / "README.md"

#: A backticked span holding nothing but identifiers joined by dots.
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _modules() -> dict:
    """``eqprice`` and each of its submodules, by short name."""
    mods = {"eqprice": eqprice}
    for info in pkgutil.iter_modules(eqprice.__path__):
        mods[info.name] = importlib.import_module(f"eqprice.{info.name}")
    return mods


def _resolve(name: str):
    """The object a dotted name refers to: its first part is ``eqprice``, a
    submodule, or a name defined in one of them; the rest are attributes,
    and the last may be a dataclass field (which resolves to its name)."""
    head, *rest = name.split(".")
    mods = _modules()
    if head in mods:
        obj = mods[head]
    else:
        owners = [m for m in mods.values() if hasattr(m, head)]
        if not owners:
            raise AttributeError(f"no eqprice module defines {head!r}")
        obj = getattr(owners[0], head)
    for i, part in enumerate(rest):
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        if i == len(rest) - 1 and part in fields:
            return part
        obj = getattr(obj, part)
    return obj


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library quick start", "exec"), {})
    price, fit = capsys.readouterr().out.splitlines()
    assert float(price) == pytest.approx(0.12, rel=1e-12)
    assert fit.startswith("ScalingFit(model='power_law'")


def test_readme_dotted_names_resolve():
    names = sorted(set(DOTTED.findall(README.read_text())))
    assert "MarketInstance.regret_columns" in names  # the pattern finds them
    missing = []
    for name in names:
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_resolver_rejects_unknown_names():
    with pytest.raises(AttributeError):
        _resolve("FunctionClass.no_such_method")
    with pytest.raises(AttributeError):
        _resolve("no_such_name.member_coefficients")
    with pytest.raises(AttributeError):
        _resolve("MarketInstance.coefficients.real")  # a field is a leaf
    assert _resolve("harness.mean_metric_by_horizon") is eqprice.harness.mean_metric_by_horizon
    assert _resolve("MarketInstance.coefficients") == "coefficients"
