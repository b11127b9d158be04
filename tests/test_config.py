"""Property tests of the config tree: the dict form round-trips, a report's
config replays its run, and every single-key mutation of a valid config
into a wrong type, a wrong range or an unknown key fails at parse, and
fails the same way when the node is built directly or by `replace`."""

import copy
import json
import math
from dataclasses import MISSING, fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmbdf import data as data_mod
from kmbdf.balancing import ANCHOR_MODES, HINGE_MODES, BalanceConfig
from kmbdf.errors import ConfigError, node_fields
from kmbdf.harness import ExperimentConfig, train
from kmbdf.kernels import KernelSpec
from kmbdf.objectives import MseObjective

# Derandomised, so a run is repeatable, and capped to keep the suite fast.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

numbers = st.floats(-10.0, 10.0, allow_nan=False)
kernels = st.one_of(
    st.fixed_dictionaries(
        {"family": st.sampled_from(["exponential", "gaussian"])},
        optional={"sigma": st.one_of(st.just("median"), st.floats(0.01, 100.0))},
    ),
    st.fixed_dictionaries({"family": st.just("polynomial"), "degree": st.integers(1, 4)}),
    st.fixed_dictionaries({"family": st.sampled_from(["linear", "sigmoid"])}),
)
objectives = st.one_of(
    st.fixed_dictionaries({}, optional={"kind": st.just("mse")}),
    st.fixed_dictionaries({"kind": st.just("freq_l1")}, optional={"beta": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries({"kind": st.just("kmb_df")}, optional={
        "alpha": st.floats(0.0, 1.0),
        "top_k": st.integers(1, 8),
        "margin_c": st.floats(0.0, 1.0),
        "kernel": kernels,
        "anchor_mode": st.sampled_from(ANCHOR_MODES),
        "hinge_mode": st.sampled_from(HINGE_MODES),
    }),
)
sources = st.one_of(
    st.fixed_dictionaries({"length": st.integers(400, 3000)}, optional={
        "source": st.just("synthetic"),
        "kind": st.sampled_from(["ar", "seasonal_trend"]),
        "channels": st.integers(1, 4),
        "seed": st.integers(0, 2**40),
        # |phi_1| + |phi_2| < 1: always stationary.
        "coeffs": st.lists(st.floats(-0.45, 0.45), max_size=2),
        "noise_std": st.floats(0.0, 3.0),
        "period": st.integers(1, 48),
        "amplitude": numbers,
        "slope": numbers,
    }),
    st.fixed_dictionaries(
        {"source": st.just("csv"), "path": st.text(min_size=1)},
        optional={"date_column": st.booleans()},
    ),
)
configs = st.fixed_dictionaries({"data": sources, "objective": objectives}, optional={
    "split": st.fixed_dictionaries({}, optional={
        "convention": st.sampled_from(["extended", "strict"]),
        "standardize": st.booleans(),
    }),
    "history_len": st.integers(1, 16),
    "horizon": st.integers(1, 8),
    "lr": st.floats(1e-6, 1.0),
    "batch_size": st.integers(8, 64),
    "max_epochs": st.integers(1, 100),
    "patience": st.integers(1, 20),
    "seed": st.integers(0, 2**40),
    "out": st.one_of(st.none(), st.text()),
    "compute_mmd": st.booleans(),
    "mmd_max_samples": st.integers(2, 4096),
})


@PROPERTY
@given(configs)
def test_dict_form_round_trips(d):
    config = ExperimentConfig.from_dict(d)
    plain = config.to_dict()
    assert ExperimentConfig.from_dict(plain) == config
    # Every default is explicit and the form survives JSON.
    echoed = json.loads(json.dumps(plain))
    assert ExperimentConfig.from_dict(echoed) == config
    assert ExperimentConfig.from_dict(echoed).to_dict() == plain


TINY = {
    "data": {"length": 300, "seed": 5},
    "history_len": 8, "horizon": 4, "batch_size": 16, "max_epochs": 2, "patience": 2,
    "mmd_max_samples": 32,
}


@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(objective=objectives, seed=st.integers(0, 2**16))
def test_report_config_replays_the_run(objective, seed):
    if objective.get("top_k", 0) > TINY["batch_size"]:
        objective = {**objective, "top_k": TINY["batch_size"]}
    report = train(ExperimentConfig.from_dict({**TINY, "objective": objective, "seed": seed}))
    payload = json.loads(report.to_json())
    replayed = train(ExperimentConfig.from_dict(payload["config"]))
    assert replayed.to_json(include_timing=False) == report.to_json(include_timing=False)


def explicit(objective, data=None):
    """A valid config's normalised dict form, every key explicit, as JSON
    gives it back."""
    d = {**TINY, "objective": objective}
    if data is not None:
        d["data"] = data
    return json.loads(json.dumps(ExperimentConfig.from_dict(d).to_dict()))


BASES = {
    "ar-kmb_df-exponential": explicit({"kind": "kmb_df"}),
    "seasonal-kmb_df-polynomial": explicit(
        {"kind": "kmb_df", "kernel": {"family": "polynomial", "degree": 2}},
        {"kind": "seasonal_trend", "length": 300, "coeffs": [0.5, 0.2]},
    ),
    "csv-freq_l1": explicit({"kind": "freq_l1"}, {"source": "csv", "path": "x.csv"}),
    "ar-mse": explicit({"kind": "mse"}),
}

# Out of range for the key at that path, whatever the base.
OUT_OF_RANGE = {
    ("history_len",): [0, -3],
    ("horizon",): [0],
    ("batch_size",): [0],
    ("max_epochs",): [0],
    ("patience",): [0],
    ("seed",): [-1],
    ("lr",): [0.0, -1e-3],
    ("mmd_max_samples",): [1, 0],
    ("split", "train"): [0.0, 0.9],
    ("split", "val"): [-0.1],
    ("split", "test"): [0.5],
    ("split", "convention"): ["bogus"],
    ("data", "source"): ["parquet"],
    ("data", "kind"): ["bogus"],
    ("data", "length"): [0, 30],  # 30 rows leave a split without a window
    ("data", "channels"): [0],
    ("data", "seed"): [-1],
    ("data", "coeffs"): [[1.0], [0.6, 0.6]],
    ("data", "noise_std"): [-1.0],
    ("data", "period"): [0],
    ("objective", "kind"): ["huber"],
    ("objective", "alpha"): [1.5, -0.1],
    ("objective", "top_k"): [0, 17],
    ("objective", "margin_c"): [-1e-3],
    ("objective", "anchor_mode"): ["bogus"],
    ("objective", "hinge_mode"): ["bogus"],
    ("objective", "beta"): [2.0, -0.5],
    ("objective", "kernel", "family"): ["cosine"],
    ("objective", "kernel", "sigma"): [-1.0, 0.0, "auto", 1e300, 1e-200],  # sigma**2 inf or 0
    ("objective", "kernel", "degree"): [0],
}
# Keys whose annotation admits None besides their own type.
OPTIONAL = {"out", "degree"}
# Every valid choice of a string key: random text must not hit one.
CHOICES = {
    "synthetic", "csv", "ar", "seasonal_trend", "extended", "strict", "mse", "freq_l1",
    "kmb_df", "forecast", "real", "canonical", "paper_literal", "exponential", "gaussian",
    "linear", "polynomial", "sigmoid", "median",
}


def out_of_range(base, path):
    """Values out of range for the key at `path` of `base`: a parameter that
    its kernel family or series kind ignores has no range."""
    family = base["objective"].get("kernel", {}).get("family")
    ignored = {
        ("objective", "kernel", "sigma"): family not in ("exponential", "gaussian"),
        ("objective", "kernel", "degree"): family != "polynomial",
        ("data", "coeffs"): base["data"].get("kind") != "ar",
        ("data", "period"): base["data"].get("kind") != "seasonal_trend",
    }
    return [] if ignored.get(path) else OUT_OF_RANGE.get(path, [])


def leaves(d, path=()):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,), value


def nodes(d, path=()):
    yield path
    for key, value in d.items():
        if isinstance(value, dict):
            yield from nodes(value, path + (key,))


def mutated(base, path, value):
    d = json.loads(json.dumps(base))
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


def wrong_types(path, value):
    """A strategy of values whose type the key at `path`, now `value`, rejects."""
    others = [st.lists(st.integers(), max_size=2), st.dictionaries(st.text(), st.integers(),
                                                                   max_size=2)]
    if path[-1] not in OPTIONAL:
        others.append(st.none())
    if value is None:
        return st.one_of(st.booleans(), *others[:2])
    if isinstance(value, bool):
        return st.one_of(st.text(), st.integers(), st.floats(), *others)
    if isinstance(value, int):
        return st.one_of(st.text(), st.booleans(), st.floats(), *others)
    if isinstance(value, float):
        non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
        return st.one_of(st.text(), st.booleans(), non_finite, *others)
    if isinstance(value, list):
        return st.one_of(st.text(), st.booleans(), st.floats(),
                         st.lists(st.text(), min_size=1, max_size=2), st.none())
    if path[-1] == "path":
        return st.one_of(st.booleans(), st.integers(), st.floats(), *others)
    # The other strings are tags or choices: any other string is out of
    # range, and sigma takes numbers.
    text = st.text().filter(lambda s: s not in CHOICES)
    if path[-1] == "sigma":
        return st.one_of(text, st.booleans(), *others)
    return st.one_of(text, st.booleans(), st.integers(), st.floats(), *others)


def rejected_at_parse(d):
    """True if parsing `d` raises ConfigError; never builds data."""
    def forbidden(*args, **kwargs):
        raise AssertionError("data built for an invalid config")

    with mock.patch.object(data_mod, "generate", forbidden), \
            mock.patch.object(data_mod, "load_csv", forbidden):
        try:
            ExperimentConfig.from_dict(d)
        except ConfigError:
            return True
    return False


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_out_of_range_or_unknown_key_is_rejected(name):
    base = BASES[name]
    assert not rejected_at_parse(base)
    cases = [(path, value) for path, _ in leaves(base) for value in out_of_range(base, path)]
    cases += [(path + ("bogus_key",), 1) for path in nodes(base)]
    assert len(cases) > 10
    accepted = [(path, value) for path, value in cases
                if not rejected_at_parse(mutated(base, path, value))]
    assert accepted == []


@pytest.mark.parametrize("name", sorted(BASES))
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(data=st.data())
def test_every_wrong_type_is_rejected(name, data):
    base = BASES[name]
    path, value = data.draw(st.sampled_from(list(leaves(base))), label="key")
    wrong = data.draw(wrong_types(path, value), label="value")
    assert rejected_at_parse(mutated(base, path, wrong))


# The dict keys that pick a node's class: no field of any node.
TAGS = {("data", "source"), ("objective", "kind")}


def chain_to(config, path):
    """The (node, field) pairs from `config` down to the key at dict path
    `path`, through the flattened `KmbDfObjective.config`."""
    chain, node = [], config
    for key in path[:-1]:
        chain.append((node, key))
        node = getattr(node, key)
        flat = [f.name for f in fields(node) if f.metadata.get("flatten")]
        if flat:
            chain.append((node, flat[0]))
            node = getattr(node, flat[0])
    return chain + [(node, path[-1])]


def node_chains(node, chain=()):
    """The chain of (node, field) pairs to every node-valued field."""
    for f in fields(node):
        child = getattr(node, f.name)
        if is_dataclass(child):
            yield chain + ((node, f.name),)
            yield from node_chains(child, chain + ((node, f.name),))


def rebuilt(chain, value, build):
    """The root of `chain` with its last pair's field set to `value`: that
    node made by `build(node, changes)`, each node above it by `replace`."""
    node, name = chain[-1]
    new = build(node, {name: value})
    for parent, key in reversed(chain[:-1]):
        new = replace(parent, **{key: new})
    return new


def direct(node, changes):
    """A call of `node`'s class with every field of `node`, `changes` applied."""
    return type(node)(**{**{f.name: getattr(node, f.name) for f in fields(node)}, **changes})


BUILDERS = {"direct": direct, "replace": lambda node, changes: replace(node, **changes)}


def rejected(chain, value, build):
    """True if the tree rebuilt with `value` raises ConfigError; any other
    exception propagates and fails the test."""
    try:
        rebuilt(chain, value, BUILDERS[build])
    except ConfigError:
        return True
    return False


@pytest.mark.parametrize("build", sorted(BUILDERS))
@pytest.mark.parametrize("name", sorted(BASES))
def test_every_out_of_range_field_is_rejected_however_built(name, build):
    base = BASES[name]
    config = ExperimentConfig.from_dict(base)
    cases = [(path, value) for path, _ in leaves(base) if path not in TAGS
             for value in out_of_range(base, path)]
    assert len(cases) > 5
    accepted = [(path, value) for path, value in cases
                if not rejected(chain_to(config, path), value, build)]
    assert accepted == []


@pytest.mark.parametrize("build", sorted(BUILDERS))
@pytest.mark.parametrize("name", sorted(BASES))
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(data=st.data())
def test_every_wrong_type_is_rejected_however_built(name, build, data):
    base = BASES[name]
    keys = [(path, value) for path, value in leaves(base) if path not in TAGS]
    path, value = data.draw(st.sampled_from(keys), label="key")
    wrong = data.draw(wrong_types(path, value), label="value")
    assert rejected(chain_to(ExperimentConfig.from_dict(base), path), wrong, build)


@pytest.mark.parametrize("build", sorted(BUILDERS))
def test_every_wrong_node_is_rejected_however_built(build):
    config = ExperimentConfig.from_dict(BASES["ar-kmb_df-exponential"])
    chains = list(node_chains(config))
    # data, split, objective, its flattened BalanceConfig and that one's kernel
    assert [chain[-1][1] for chain in chains] == ["data", "split", "objective", "config",
                                                  "kernel"]
    for chain in chains:
        other = MseObjective() if chain[-1][1] == "split" else data_mod.SplitSpec()
        for value in (None, {}, "median", 1.0, other):
            assert rejected(chain, value, build), (chain[-1][1], value)


@pytest.mark.parametrize("build", sorted(BUILDERS))
@pytest.mark.parametrize("name", sorted(BASES))
def test_every_array_is_rejected_however_built(name, build):
    # A NumPy array is no scalar, whatever its elements.
    base = BASES[name]
    config = ExperimentConfig.from_dict(base)
    accepted = [path for path, value in leaves(base) if path not in TAGS
                if not rejected(chain_to(config, path), np.array([value, value]), build)]
    assert accepted == []


def missing_node_cases(cls, attrs=(), keys=(), picks=None):
    """(config dict, attribute path, Python default) for every field below
    the node class `cls` whose annotation is config nodes.  The dict picks
    each union member on the way by its tag and leaves the field's key out;
    a flattened field without a default has its class at its own defaults."""
    picks = {} if picks is None else picks
    for f, members in node_fields(cls):
        if not all(is_dataclass(m) for m in members):
            continue
        factory = members[0] if f.default_factory is MISSING else f.default_factory
        yield picks, attrs + (f.name,), factory()
        sub = keys if f.metadata.get("flatten") else keys + (f.name,)
        tag = f.metadata.get("tag")
        for member in members:
            d = copy.deepcopy(picks)
            node = d
            for key in sub:
                node = node.setdefault(key, {})
            if tag:
                node[tag] = getattr(member, tag)
            yield from missing_node_cases(member, attrs + (f.name,), sub, d)


def test_missing_node_parses_to_its_python_default():
    # A node left out of a dict parses to the node that Python builds when
    # its field is left out, at every depth (BalanceConfig's kernel too).
    cases = list(missing_node_cases(ExperimentConfig))
    assert [".".join(path) for _, path, _ in cases] == [
        "data", "split", "objective", "objective.config", "objective.config.kernel"]
    for d, path, default in cases:
        node = ExperimentConfig.from_dict(d)
        for name in path:
            node = getattr(node, name)
        assert node == default, (d, path)


def test_direct_construction_normalises_values():
    kernel = KernelSpec(family="polynomial", degree=np.int64(2), sigma=1)
    assert kernel.family == "polynomial"
    assert (kernel.degree, kernel.sigma) == (2, 1.0)
    assert [type(v) for v in (kernel.degree, kernel.sigma)] == [int, float]
    balance = BalanceConfig(alpha=1, top_k=np.int32(2), margin_c=np.float64(0.0), kernel=kernel)
    assert [type(v) for v in (balance.alpha, balance.top_k, balance.margin_c)] == [
        float, int, float]
    spec = data_mod.SyntheticSpec(length=np.int64(500), coeffs=[0.5, np.float32(0.25)])
    assert spec.coeffs == (0.5, 0.25) and type(spec.coeffs) is tuple
    assert [type(v) for v in (spec.length, *spec.coeffs)] == [int, float, float]
    config = replace(ExperimentConfig(data=spec), lr=1, seed=np.int64(4))
    assert (type(config.lr), type(config.seed)) == (float, int)
    # The normalised tree is plain JSON and replays to itself.
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
