"""The contract of the package's immutable value types.

Every class a module exports with annotated fields is a value type: it is
built by position or keyword with defaults, refuses assignment and deletion,
compares and hashes by its fields, names them in its ``repr``, and can be
copied with ``replace``.  The classes are found from the modules' ``__all__``,
so a new one fails here until it has a sample below.
"""

import copy
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import patchlab
from patchlab import (
    CostLedger,
    ExperimentConfig,
    LiftingScheme,
    MetricResult,
    MicroGrid,
    PdeSpec,
    Table,
    ToothConfig,
    propagator_matrix,
    replace,
)
from patchlab.core import value_type


def _drift(x):
    return -x


# constructor keyword arguments in positional order, and one field to change
SAMPLES = {
    "MacroState": lambda: dict(values=np.array([0.0, 1.0, 2.0, 3.0]), dx=0.5, time=1.0),
    "PdeSpec": lambda: dict(terms={2: 1.0, 4: -0.5}),
    "ToothConfig": lambda: dict(h=0.1, H=0.5),
    "RngStreamSpec": lambda: dict(master_seed=7, stream_id=2, step_id=3),
    "LiftingScheme": lambda: dict(variant="upwind_d2", wind_sign=-1),
    "PatchConfig": lambda: dict(
        lifting=LiftingScheme("central_d2"), tooth=ToothConfig(0.1, 0.5), dt_micro=1e-3,
        dt_macro=1e-2, alpha=0.25, evolution="fd", micro=MicroGrid(0.01, 1e-5),
    ),
    "ExperimentConfig": lambda: dict(
        experiment="kp", parameters={"deltas": (1.0,)}, seed=3, output="out"
    ),
    "SdeModel": lambda: dict(drift=_drift, noise_amplitude=0.5),
    "MicroGrid": lambda: dict(dx=0.01, dt=1e-5),
    "MetricResult": lambda: dict(
        name="gamma", value=1.5, expected=2.0, tolerance=0.1, verdict="fail"
    ),
    "Table": lambda: dict(name="msd", columns=("lag", "msd"), rows=((1, 2.0),)),
    "RunRecord": lambda: dict(
        config=ExperimentConfig("kp", {"deltas": (1.0,)}),
        metrics=(MetricResult("a", 1),),
        tables=(Table("t", ("x",), ((1,),)),),
        wall_time_s=0.5,
    ),
    "CoarseStepConfig": lambda: dict(
        ensemble_size=4, micro_steps=2, dt_micro=1e-3, dt_macro=0.1, alpha=0.5
    ),
    "CostLedger": lambda: dict(macro_steps=3, ensemble_size=4, micro_steps_per_member=2),
    "CoarseTrajectory": lambda: dict(
        values=np.array([0.0, 0.5]), ledger=CostLedger(1, 4, 2), diverged_at=1
    ),
    "ProbeSpec": lambda: dict(n_base=4, n_perturb=16, halfwidth=0.5, seed=3),
    "DependencyReport": lambda: dict(
        indices=(1, 2), variances=(0.5, 0.0), dependent=(True, False), detected_order=1,
        threshold=1e-9, budget_used=64, stopped_early=True, budget_exhausted=False,
    ),
    "RandomForceField": lambda: dict(
        amplitudes=np.array([1.0, 0.5]), wavenumbers=np.array([1.0, 2.0]),
        phases=np.array([0.1, 0.2]),
    ),
    "ScaledTrajectory": lambda: dict(
        delta=0.5, times=[0.0, 1.0], positions=[0.0, 0.5], velocities=[1.0, 1.0],
        dt_used=0.1, energy_error=None,
    ),
    "MsdFit": lambda: dict(gamma=1.5, lags=[0.1, 0.2], msd=[1.0, 2.0]),
    "StabilityReport": lambda: dict(
        growth_factor=0.99, classification="stable", steps_used=40, terminated_early=True
    ),
    "ConvergenceReport": lambda: dict(
        grid_sizes=(8, 16), spacings=(0.1, 0.05), errors=(1e-2, 2.5e-3), fitted_order=2.0,
        excluded=(32,),
    ),
    "IncrementMoments": lambda: dict(n=10, mean=0.1, std=1.0, se_mean=0.3, se_std=0.2),
    "VarianceCheck": lambda: dict(
        measured=1.0, expected=1.1, tolerance_fraction=0.1, n_tail=50, passed=True
    ),
}
CHANGES = {
    "MacroState": ("dx", 0.25),
    "PdeSpec": ("terms", ((2, 2.0),)),
    "ToothConfig": ("H", 0.3),
    "RngStreamSpec": ("step_id", 4),
    "LiftingScheme": ("wind_sign", 1),
    "PatchConfig": ("alpha", 0.5),
    "ExperimentConfig": ("seed", 4),
    "SdeModel": ("noise_amplitude", 2.0),
    "MicroGrid": ("dt", 2e-5),
    "MetricResult": ("verdict", "pass"),
    "Table": ("name", "t2"),
    "RunRecord": ("wall_time_s", 1.0),
    "CoarseStepConfig": ("ensemble_size", 8),
    "CostLedger": ("macro_steps", 5),
    "CoarseTrajectory": ("diverged_at", None),
    "ProbeSpec": ("seed", 4),
    "DependencyReport": ("budget_used", 32),
    "RandomForceField": ("phases", np.array([0.3, 0.4])),
    "ScaledTrajectory": ("energy_error", np.array(1e-3)),
    "MsdFit": ("gamma", 2.0),
    "StabilityReport": ("steps_used", 20),
    "ConvergenceReport": ("fitted_order", 1.9),
    "IncrementMoments": ("n", 20),
    "VarianceCheck": ("passed", False),
}


def _value_classes():
    classes = {}
    for info in pkgutil.iter_modules(patchlab.__path__):
        module = importlib.import_module(f"patchlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if isinstance(obj, type) and inspect.get_annotations(obj):
                classes[name] = obj
    return [classes[name] for name in sorted(classes)]


VALUE_CLASSES = _value_classes()


def _fields(cls):
    return list(inspect.get_annotations(cls))


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def _holds_arrays(value):
    return any(isinstance(getattr(value, name), np.ndarray) for name in _fields(type(value)))


def _build(cls, **changes):
    return cls(**{**SAMPLES[cls.__name__](), **changes})


def test_every_value_class_has_a_sample():
    names = {cls.__name__ for cls in VALUE_CLASSES}
    assert names == set(SAMPLES) == set(CHANGES)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_keyword(cls):
    sample = SAMPLES[cls.__name__]()
    by_keyword = cls(**sample)
    by_position = cls(*SAMPLES[cls.__name__]().values())
    for name in _fields(cls):
        assert _same(getattr(by_position, name), getattr(by_keyword, name)), name
    # a field left out takes the class's default
    defaults = {name: vars(cls)[name] for name in _fields(cls) if name in vars(cls)}
    bare = cls(**{key: value for key, value in sample.items() if key not in defaults})
    for name, default in defaults.items():
        assert _same(getattr(bare, name), default), name
    # a binding error names the class
    named = re.escape(f"{cls.__name__}(): ")
    with pytest.raises(TypeError, match=named + "too many positional"):
        cls(*sample.values(), None)
    with pytest.raises(TypeError, match=named + ".*'not_a_field'"):
        cls(**sample, not_a_field=None)
    with pytest.raises(TypeError, match=named + "multiple values"):
        cls(*list(sample.values())[:1], **sample)
    if len(defaults) < len(sample):
        with pytest.raises(TypeError, match=named + "missing a required argument"):
            cls()


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = _build(cls)
    for name in _fields(cls):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    value = _build(cls)
    twin = copy.copy(value)  # the same field objects in a distinct instance
    assert twin is not value and twin == value and not twin != value
    assert value != tuple(getattr(value, name) for name in _fields(cls))
    fields = tuple(getattr(value, name) for name in _fields(cls))
    if not _holds_arrays(value):  # arrays compare elementwise, so only by identity here
        assert _build(cls) == value  # built again from equal arguments
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == expected


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_repr_names_the_class_and_fields(cls):
    value = _build(cls)
    text = repr(value)
    assert text.startswith(f"{cls.__qualname__}(") and text.endswith(")")
    for name in _fields(cls):
        assert f"{name}={getattr(value, name)!r}" in text


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_replace_changes_only_the_named_field(cls):
    value = _build(cls)
    name, new = CHANGES[cls.__name__]
    changed = replace(value, **{name: new})
    assert type(changed) is cls and changed is not value
    assert _same(getattr(changed, name), getattr(_build(cls, **{name: new}), name))
    assert not _same(getattr(changed, name), getattr(value, name))
    for other in _fields(cls):
        if other != name:
            assert _same(getattr(changed, other), getattr(value, other)), other
    if not _holds_arrays(value):
        assert changed != value and not changed == value
    with pytest.raises(TypeError):
        replace(value, not_a_field=None)


def test_replace_checks_the_new_value():
    with pytest.raises(ValueError, match="dt_macro must be positive"):
        replace(_build(patchlab.CoarseStepConfig), dt_macro=-1.0)
    with pytest.raises(TypeError):
        replace((1, 2), count=1)


def test_equal_pde_specs_share_the_cached_propagator():
    a, b = PdeSpec.heat(1.0), PdeSpec({2: 1.0, 3: 0.0})
    assert a is not b and a == b and hash(a) == hash(b)
    assert propagator_matrix(a, 4, 0.125) is propagator_matrix(b, 4, 0.125)
    assert propagator_matrix(PdeSpec.heat(2.0), 4, 0.125) is not propagator_matrix(a, 4, 0.125)


@value_type
class _Span:
    lo: float
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        return {"lo": float(self.lo)}


@value_type
class _Label:
    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("empty label")


def test_post_init_returns_the_fields_it_normalises():
    span = _Span(0, 2)
    # the returned field replaces the value given; the others stay as given
    assert type(span.lo) is float and span.lo == 0.0
    assert type(span.hi) is int and span.hi == 2
    label = _Label("x")  # a None return keeps every field
    assert label.text == "x"
    for value, name in ((span, "lo"), (span, "hi"), (label, "text")):
        with pytest.raises(AttributeError):
            setattr(value, name, 5.0)
    with pytest.raises(ValueError, match="lo < hi"):
        _Span(3)
    with pytest.raises(ValueError, match="empty label"):
        _Label("")


def test_metric_result_refuses_an_unknown_verdict():
    with pytest.raises(ValueError, match="bad verdict 'maybe'"):
        MetricResult("x", 1.0, verdict="maybe")


# every array field of the value types, kept as a read-only float64 copy
ARRAY_FIELDS = {
    "MacroState": ("values",),
    "RandomForceField": ("amplitudes", "wavenumbers", "phases"),
    "ScaledTrajectory": ("times", "positions", "velocities", "energy_error"),
    "MsdFit": ("lags", "msd"),
    "CoarseTrajectory": ("values",),
}


def test_array_fields_are_listed():
    holding = {cls.__name__ for cls in VALUE_CLASSES if _holds_arrays(_build(cls))}
    assert holding == set(ARRAY_FIELDS)


@pytest.mark.parametrize("name, fields", ARRAY_FIELDS.items(), ids=ARRAY_FIELDS.keys())
def test_array_fields_are_read_only_copies(name, fields):
    sample = SAMPLES[name]()
    inputs = {field: np.array([1.0, 2.0] if sample[field] is None else sample[field])
              for field in fields}
    value = _build(getattr(patchlab, name), **inputs)
    before = {field: np.array(getattr(value, field)) for field in fields}
    for field, array in inputs.items():
        array += 1
        stored = getattr(value, field)
        assert stored.dtype == np.float64 and not stored.flags.writeable, field
        np.testing.assert_array_equal(stored, before[field])
        with pytest.raises(ValueError):
            stored[...] = 0.0
