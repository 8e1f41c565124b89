"""The JSON boundary of every config file.

Each shipped file is read by its own loader: ``TrainConfig.from_dict`` for
``demos/configs/train.json`` and the benchmark's ``mixture_config``,
``GameInstance.from_dict`` for ``oracle_instance.json`` and
``from_json(DatasetSpec, ...)`` for ``sample_spec.json``. A value is read as
written or refused with its JSON path; nothing is coerced.
"""

import importlib.util
import json
import math
import re
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgan import distributions as dist
from tvgan.divergence import HistogramEstimator
from tvgan.oracle import GameInstance
from tvgan.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "demos" / "configs"


def _mixture_config() -> dict:
    """``perfbench/workloads.py::mixture_config(11, 60)``, loaded from the file unmodified."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return json.loads(json.dumps(module.mixture_config(11, 60)))


TRAIN = (TrainConfig.from_dict, dist.to_json)
DOCUMENTS = {
    "train.json": (json.loads((CONFIGS / "train.json").read_text()), *TRAIN),
    "mixture_config": (_mixture_config(), *TRAIN),
    "oracle_instance.json": (
        json.loads((CONFIGS / "oracle_instance.json").read_text()),
        GameInstance.from_dict,
        GameInstance.to_dict,
    ),
    "sample_spec.json": (
        json.loads((CONFIGS / "sample_spec.json").read_text()),
        lambda raw: dist.from_json(dist.DatasetSpec, raw),
        dist.to_json,
    ),
}


def _train(edit) -> dict:
    raw = json.loads((CONFIGS / "train.json").read_text())
    edit(raw)
    return raw


def _ring(**fields) -> dict:
    return {"kind": "ring", "radius": 2.0, "noise_std": 0.05, **fields}


class TestRefusals:
    """Each input here used to be read as something else, or to escape as a
    ``TypeError`` or ``AttributeError``."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c: c["latent"].update(dimension=2.7), "latent.dimension must be a whole number, got 2.7"),
            (lambda c: c["datasets"][0]["noise"].update(gamma=True), "datasets[0].noise.gamma must be a number, got True"),
            (lambda c: c["datasets"][0].update(alpha="1.0"), "datasets[0].alpha must be a number, got '1.0'"),
            (lambda c: c["datasets"][0].update(spec=_ring(radius="2")), "datasets[0].spec.radius must be a number, got '2'"),
            (lambda c: c["datasets"][0].update(spec=_ring(radius=math.nan)), "datasets[0].spec.radius must be finite, got nan"),
            (
                lambda c: c["datasets"][0]["noise"].update(gamma=10**400),
                f"datasets[0].noise.gamma must be finite, got {10**400}",
            ),
            (
                lambda c: c["datasets"][0]["noise"].update(slab={"kind": "dirichlet_flat", "dimension": 2.9}),
                "datasets[0].noise.slab.dimension must be a whole number, got 2.9",
            ),
            (lambda c: c.update(eval_evry=5), "eval_evry is not a known key"),
            (lambda c: c["datasets"][0]["noise"].update(gama=0.25), "datasets[0].noise.gama is not a known key"),
            (lambda c: c.update(g_adam=None), "g_adam must be a JSON object, got None"),
            (lambda c: c.pop("latent"), "latent is required"),
        ],
        ids=[
            "fractional-dimension", "boolean-gamma", "string-alpha", "string-radius", "nan-radius",
            "gamma-past-float-range", "fractional-slab-dimension", "misspelled-key", "nested-misspelled-key", "null-object",
            "missing-field",
        ],
    )
    def test_train_config(self, edit, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig.from_dict(_train(edit))

    def test_infinite_mixture_mean_is_refused_with_its_path(self):
        text = (CONFIGS / "train.json").read_text().replace("-1.5", "-Infinity", 1)
        with pytest.raises(ValueError, match=r"^datasets\[0\]\.spec\.components\[0\]\.mean must be a rectangular"):
            TrainConfig.from_dict(json.loads(text))

    @pytest.mark.parametrize(
        "array",
        [[[0.0], [1.0, 2.0]], [[0.0], [True]], [[0.0], ["1"]], [[0.0], [None]], "[[0.0]]", [[0.0], [math.inf]]],
        ids=["ragged", "boolean", "string", "null", "not-a-list", "infinite"],
    )
    def test_arrays_are_lists_of_finite_numbers(self, array):
        with pytest.raises(ValueError, match=r"^support must be a rectangular list of finite numbers, got "):
            dist.discrete_dist_from_dict({"kind": "discrete", "support": array, "probs": [0.5, 0.5]})

    def test_game_instance_alpha_is_not_coerced(self):
        raw = json.loads((CONFIGS / "oracle_instance.json").read_text())
        raw["data_parts"][1]["alpha"] = "0.5"
        with pytest.raises(ValueError, match=r"^data_parts\[1\]\.alpha must be a number, got '0\.5'$"):
            GameInstance.from_dict(raw)

    def test_a_tagged_law_needs_its_kind(self):
        with pytest.raises(ValueError, match=r"^kind must be 'discrete', got None$"):
            dist.discrete_dist_from_dict({"support": [[0.0]], "probs": [1.0]})
        with pytest.raises(ValueError, match=r"^kind must be 'discrete', got 'ring'$"):
            dist.discrete_dist_from_dict({"kind": "ring", "support": [[0.0]], "probs": [1.0]})

    def test_constructor_errors_carry_the_path(self):
        with pytest.raises(ValueError, match=r"^estimator\.bins_per_dim must be >= 2$"):
            TrainConfig.from_dict(_train(lambda c: c["estimator"].update(bins_per_dim=1)))
        with pytest.raises(ValueError, match=r"^datasets\[0\]\.spec: the weights of components must be positive"):
            TrainConfig.from_dict(_train(lambda c: c["datasets"][0]["spec"]["components"][0].update(weight=0.6)))

    def test_reader_gives_the_declared_types(self):
        est = dist.from_json(HistogramEstimator, {"bounds": [[0, 1]], "bins_per_dim": 8.0})
        assert type(est.bins_per_dim) is int and est.smoothing == 1e-9
        assert dist.from_json(dist.LatentPrior, {"dimension": 3}) == dist.LatentPrior(3)
        assert dist.from_json(HistogramEstimator | None, None) is None


# --- property: one bad leaf -------------------------------------------------

BAD_LEAVES = [True, "2", 2.5, math.nan, math.inf, -1, None]
UNKNOWN_KEY = "unexpected"


def _walk(doc, keys=()):
    """``(keys, is_object)`` for every scalar leaf and every object of ``doc``."""
    if isinstance(doc, dict):
        yield keys, True
        for key, value in doc.items():
            yield from _walk(value, (*keys, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _walk(value, (*keys, i))
    else:
        yield keys, False


def _path(keys) -> str:
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def _same(a, b) -> bool:
    """JSON equality in which ``true`` is not ``1`` and NaN is never equal; ``64.0 == 64``."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@st.composite
def one_bad_leaf(draw):
    """A shipped document with one scalar leaf replaced, or one unknown key added
    to one of its objects; and the keys of that leaf."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc, read, write = DOCUMENTS[name]
    doc = json.loads(json.dumps(doc))
    keys, is_object = draw(st.sampled_from(list(_walk(doc))))
    if is_object:
        reduce(getitem, keys, doc)[UNKNOWN_KEY] = 1.0
        keys = (*keys, UNKNOWN_KEY)
    else:
        reduce(getitem, keys[:-1], doc)[keys[-1]] = draw(st.sampled_from(BAD_LEAVES))
    return name, doc, read, write, keys


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(one_bad_leaf())
def test_one_bad_leaf_is_refused_by_its_path_or_read_back_as_written(case):
    """Refused: the message names the leaf, or a list or object that holds it
    (a check across fields, such as alphas summing to 1, names the list).
    Accepted: writing the config back gives the document as edited."""
    name, doc, read, write, keys = case
    try:
        echo = write(read(doc))
    except ValueError as exc:
        held_by = [_path(keys[:n]) for n in range(1, len(keys) + 1)]
        assert any(p in str(exc) for p in held_by), (name, _path(keys), str(exc))
    else:
        assert _same(json.loads(json.dumps(echo)), doc), (name, _path(keys))
