"""A knob stays configurable only where callers set different values.

No name below is a config field or parameter: no caller set one to
anything but its default, so each is a module constant, or gone with
its behaviour (early stopping, the lifecycle's q-error probe trigger).
"""

import pytest

import repro.core
from repro.core.maintenance import detect_drift
from repro.core.training import Trainer, TrainingResult
from repro.datasets.imdb import ImdbConfig
from repro.datasets.tpch import TpchConfig
from repro.serve.lifecycle import LifecycleConfig, LifecycleManager
from repro.workload.generator import WorkloadSpec
from repro.workload.joblight import JobLightConfig
from repro.workload.suite import SuiteConfig

REMOVED_FIELDS = [
    (ImdbConfig, "n_titles"),
    (ImdbConfig, "n_keywords"),
    (ImdbConfig, "n_companies"),
    (ImdbConfig, "n_persons"),
    (ImdbConfig, "n_info_types"),
    (TpchConfig, "n_customers"),
    (TpchConfig, "n_suppliers"),
    (TpchConfig, "n_parts"),
    (TpchConfig, "orders_per_customer"),
    (TpchConfig, "lines_per_order"),
    (JobLightConfig, "year_predicate_prob"),
    (JobLightConfig, "kind_predicate_prob"),
    (JobLightConfig, "fact_predicate_prob"),
    (JobLightConfig, "max_attempts_factor"),
    (SuiteConfig, "min_joins"),
    (SuiteConfig, "max_predicates_per_table"),
    (SuiteConfig, "in_min_arity"),
    (SuiteConfig, "in_max_arity"),
    (SuiteConfig, "max_attempts_factor"),
    (WorkloadSpec, "operators"),
    (WorkloadSpec, "max_predicates_per_table"),
    (LifecycleConfig, "drift_threshold"),
    (LifecycleConfig, "qerror_threshold"),
    (LifecycleConfig, "swap_timeout_s"),
    (LifecycleConfig, "max_retries"),
    (LifecycleConfig, "backoff_s"),
    (LifecycleConfig, "backoff_cap_s"),
    (TrainingResult, "stopped_early"),
]

#: Required arguments, so the call fails on the removed name alone.
REQUIRED = {WorkloadSpec: {"tables": ("title",)}}


@pytest.mark.parametrize(
    "cls, name", REMOVED_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in REMOVED_FIELDS]
)
def test_removed_fields_are_not_fields(cls, name):
    with pytest.raises(TypeError, match=name):
        cls(**REQUIRED.get(cls, {}), **{name: None})


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda **kw: detect_drift(None, None, **kw), "threshold"),
        (lambda **kw: LifecycleManager(None, None, {}, **kw), "probes"),
        (lambda **kw: Trainer(None, None, **kw), "config"),
        (lambda **kw: Trainer(None, None, **kw), "patience"),
        (lambda **kw: Trainer(None, None, **kw), "validation_fraction"),
    ],
    ids=[
        "detect_drift.threshold",
        "LifecycleManager.probes",
        "Trainer.config",
        "Trainer.patience",
        "Trainer.validation_fraction",
    ],
)
def test_removed_parameters_are_rejected(call, name):
    with pytest.raises(TypeError, match=name):
        call(**{name: None})


def test_training_config_is_gone():
    # Its knobs are SketchConfig's; the Trainer takes them directly.
    with pytest.raises(AttributeError):
        repro.core.TrainingConfig
    assert "TrainingConfig" not in repro.core.__all__
