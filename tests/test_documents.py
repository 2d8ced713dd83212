"""Instance and config documents are read through the fields' annotations:
a value of the wrong type, a missing required key and a malformed sequence
are each a ``ValueError`` that names the key, whatever document it is in."""

import json
import os
import re
import sys
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqprice.harness import ExperimentConfig, run_experiment
from eqprice.market import CostSpec, FunctionClass, GeneratorSpec, InstanceSpec, _read

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's instances)

#: The types whose fields are read through their annotations, and the
#: spec types a field may hold.
READ_TYPES = (CostSpec, GeneratorSpec, InstanceSpec, FunctionClass, ExperimentConfig)
FIELD_SPECS = (CostSpec, GeneratorSpec, InstanceSpec)


def readme_json(heading):
    """The first JSON block after ``heading`` in the README, parsed."""
    section = (ROOT / "README.md").read_text().split(heading, 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


_QUADRATIC = {"family": "quadratic", "mu": 1.0}
_INSTANCE = {"suppliers": [_QUADRATIC], "demands": [0.5, 0.75], "horizon": 2}
_CONTEXTUAL = {
    "suppliers": [{"family": "context_quadratic", "phi": [1.0]}],
    "demands": [0.5, 0.75],
    "contexts": [[1.0], [2.0]],
    "horizon": 2,
}
_CONFIG = {"instance": _INSTANCE, "policy": "constant_price", "horizons": [2]}


@pytest.mark.parametrize(
    "cls, doc, key",
    [
        # each was read without an error: phi as (1.0, 2.0), mu as 1.0, the
        # horizon as 1, the bounds as (0.0, 1.0), demands as (5.0,) and (0.5,)
        (CostSpec, {"family": "context_quadratic", "phi": "12"}, "phi"),
        (CostSpec, {**_QUADRATIC, "mu": "1"}, "mu"),
        (CostSpec, {**_QUADRATIC, "mu": True}, "mu"),
        (InstanceSpec, {**_INSTANCE, "horizon": True}, "horizon"),
        (InstanceSpec, {**_INSTANCE, "demand_bounds": "01"}, "demand_bounds"),
        (InstanceSpec, {**_INSTANCE, "demand_bounds": [1]}, "demand_bounds"),
        (InstanceSpec, {**_INSTANCE, "demands": "5"}, "demands"),
        (InstanceSpec, {**_INSTANCE, "demands": ["0.5"]}, "demands"),
        (InstanceSpec, {**_INSTANCE, "demands": [True, True]}, "demands"),
        # numpy's own message for ragged rows named no key
        (InstanceSpec, {**_CONTEXTUAL, "contexts": [[1.0], [2.0, 3.0]]}, "contexts"),
        (InstanceSpec, {**_INSTANCE, "class_bound": "9"}, "class_bound"),
        (ExperimentConfig, {**_CONFIG, "instance": [1]}, "instance"),
        (ExperimentConfig, {**_CONFIG, "policy_params": [1]}, "policy_params"),
        (ExperimentConfig, {**_CONFIG, "out": 5}, "out"),
        (GeneratorSpec, {"kind": "uniform", "lo": "0.5", "hi": 1.0}, "lo"),
        # a dict where a list of suppliers belongs was read as its keys
        (InstanceSpec, {**_INSTANCE, "suppliers": _QUADRATIC}, "suppliers"),
        # and inside a document, the field that holds the nested record
        (InstanceSpec, {**_INSTANCE, "demands": {"lo": 0.5, "hi": 1.0}}, "demands"),
        (ExperimentConfig, {**_CONFIG, "instance": {**_INSTANCE, "horizon": "2"}}, "horizon"),
    ],
)
def test_mistyped_value_names_its_key(cls, doc, key):
    with pytest.raises(ValueError, match=key):
        cls.from_json_dict(doc)


@pytest.mark.parametrize(
    "cls, doc, key",
    [
        (GeneratorSpec, {"lo": 0.5, "hi": 1.5}, "kind"),
        (CostSpec, {"mu": 1.0}, "family"),
        (InstanceSpec, {"suppliers": [_QUADRATIC], "demands": [0.5]}, "horizon"),
        (ExperimentConfig, {"instance": _INSTANCE, "horizons": [2]}, "policy"),
    ],
)
def test_missing_required_key_is_named(cls, doc, key):
    # each was a TypeError: __init__() missing 1 required positional argument
    with pytest.raises(ValueError, match=f"lacks the required key '{key}'"):
        cls.from_json_dict(doc)


def test_numbers_keep_their_values():
    # numpy scalars and arrays, float32 included, read as the floats float()
    # gives; integral floats and numpy integers as ints
    spec = InstanceSpec(
        suppliers=[CostSpec.quadratic(np.float32(0.1), a=np.int64(0))],
        demands=np.array([0.5, 0.1], dtype=np.float32),
        horizon=np.float64(2.0),
        contexts=np.array([[1, 2], [3, 4]]).T,
        demand_bounds=(np.float64(0.25), 1),
        class_bound=np.int32(3),
    )
    assert spec.suppliers[0].mu == float(np.float32(0.1))
    assert spec.demands == (0.5, float(np.float32(0.1)))
    assert spec.contexts == ((1.0, 3.0), (2.0, 4.0))
    assert (spec.horizon, spec.demand_bounds, spec.class_bound) == (2, (0.25, 1.0), 3.0)
    for value in (spec.horizon, *spec.demands, *spec.contexts[0], *spec.demand_bounds):
        assert type(value) is (int if value is spec.horizon else float)
    config = ExperimentConfig(instance=spec, policy="demand_grid", horizons=[2], out=Path("r"))
    assert config.out == Path("r")


@pytest.mark.parametrize(
    "cls, doc, entry",
    [
        # each was read as 1.0 or 0.0: numpy promotes a bool among numbers
        (InstanceSpec, {**_INSTANCE, "demands": [0.5, True]}, "demands[1]"),
        (InstanceSpec, {**_INSTANCE, "demands": [1, 0.5, 1.0, np.True_]}, "demands[3]"),
        (CostSpec, {"family": "context_quadratic", "phi": [0.75, True]}, "phi[1]"),
        (InstanceSpec, {**_CONTEXTUAL, "contexts": [[1.0], [False]]}, "contexts[1, 0]"),
        (InstanceSpec, {**_CONTEXTUAL, "contexts": [(0.0, 1), (True, 2.0)]}, "contexts[1, 0]"),
    ],
)
def test_bool_in_a_list_of_numbers_names_its_entry(cls, doc, entry):
    with pytest.raises(ValueError, match=re.escape(f"{entry} must be a number")):
        cls.from_json_dict(doc)


def test_zeros_and_ones_in_a_list_of_numbers_are_read():
    spec = InstanceSpec.from_json_dict(
        {**_CONTEXTUAL, "demands": [1, 1.0], "contexts": [[0], [1.0]]}
    )
    assert (spec.demands, spec.contexts) == ((1.0, 1.0), ((0.0,), (1.0,)))


def _supported(kind) -> bool:
    """Whether ``kind`` is an annotation :func:`eqprice.market._read` reads."""
    args = typing.get_args(kind)
    if isinstance(kind, types.UnionType):
        return all(map(_supported, args))
    if typing.get_origin(kind) is tuple:
        return all(a is ... or _supported(a) for a in args)
    return kind in (float, int, str, dict, os.PathLike, type(None)) + FIELD_SPECS


def test_every_field_annotation_is_a_supported_kind():
    # a field of any other kind (a list, a bool, an array) would be read as an
    # instance of itself, unchecked; this test fails first
    for cls in READ_TYPES:
        for name, kind in typing.get_type_hints(cls).items():
            assert _supported(kind), f"{cls.__name__}.{name}: {kind}"
    assert not _supported(list[float]) and not _supported(bool | None)
    # the numbers a spec tuple holds are read in one pass, rows included
    assert _read([[1, 2]], tuple[tuple[float, ...], ...], "rows") == ((1.0, 2.0),)
    with pytest.raises(ValueError, match=r"pair must be a list of finite numbers"):
        _read([1.0, 2.0, 3.0], tuple[float, float], "pair")


# --- mutated documents ---------------------------------------------------------

#: Each document and the policy an instance document is run with.
_POLICY = {
    "readme_instance": "contextual_igw",
    "criterion_1": "fixed_interval",
    "criterion_2": "demand_grid",
    "criterion_5": "contextual_igw",
}


def _documents() -> dict:
    docs = {
        "readme_instance": readme_json("### Instance file"),
        "criterion_1": workloads.criterion_1_instance().to_json_dict(),
        "criterion_2": workloads.criterion_2_instance().to_json_dict(),
        "criterion_5": workloads.criterion_5_instance().to_json_dict(),
    }
    config = readme_json("### Config file")
    docs["readme_config"] = {**config, "instance": docs["readme_instance"], "horizons": [20]}
    return json.loads(json.dumps(docs))


def _keys(doc, path=()):
    """The path of every key of every record in ``doc``, lists entered."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from _keys(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _keys(value, path + (i,))


DOCUMENTS = _documents()
KEYS = [(name, path) for name, doc in DOCUMENTS.items() for path in _keys(doc)]
MUTATIONS = {
    "drop": None,
    "as text": lambda v: 1.0 if isinstance(v, str) else str(v),
    "as a bool": lambda v: True,
    "as null": lambda v: None,
    "wrapped in a list": lambda v: [v],
    "in a dict": lambda v: {"x": v},
}


def _build(name, doc):
    """The spec or config a document describes, and a run of it at T = 20."""
    if name == "readme_config":
        config = ExperimentConfig.from_json_dict(doc)
        return lambda: run_experiment(config)
    config = ExperimentConfig(
        instance=InstanceSpec.from_json_dict(doc), policy=_POLICY[name], horizons=(20,)
    )
    return lambda: run_experiment(config)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(KEYS), st.sampled_from(list(MUTATIONS)))
def test_mutated_document_runs_or_names_the_key(target, mutation):
    name, path = target
    with tempfile.TemporaryDirectory() as out_dir:
        doc = json.loads(json.dumps(DOCUMENTS[name]))
        if "out" in doc:
            doc["out"] = out_dir
        record = doc
        for step in path[:-1]:
            record = record[step]
        key = path[-1]
        if mutation == "drop":
            del record[key]
        else:
            record[key] = MUTATIONS[mutation](record[key])
        try:
            run = _build(name, doc)
            # A document without a key that has a default reads as one that
            # sets the default (a missing required key is named, see above).
            # Whether the default's market clears is not a question of
            # reading: a uniform generator without lo draws from [0, hi).
            if mutation != "drop":
                run()
        except ValueError as exc:
            assert key in str(exc), f"{mutation} {path}: {exc}"
        except OSError:
            # a config's instance given as text is the path of an instance file
            assert (name, path, mutation) == ("readme_config", ("instance",), "as text")


def test_mutation_targets_cover_every_document():
    assert {name for name, _ in KEYS} == set(DOCUMENTS)
    # every key of a README instance supplier, generator and class member
    paths = {path for name, path in KEYS if name == "readme_instance"}
    assert {("suppliers", 1, "phi"), ("contexts", "dim"), ("function_class", 2, "phi")} <= paths
