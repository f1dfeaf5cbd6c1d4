"""``RunConfig`` accepts only integers in range, however it is built."""

import copy
import pickle

import pytest

from orbiteq import RunConfig
from orbiteq.config import MAX_DEPTH


def test_defaults_and_fields():
    cfg = RunConfig()
    assert (cfg.depth, cfg.max_pre, cfg.max_cyc) == (8, 3, 4)
    assert RunConfig(3, max_cyc=1) == RunConfig(depth=3, max_pre=3, max_cyc=1)
    assert RunConfig(MAX_DEPTH, 0, 1).depth == MAX_DEPTH


@pytest.mark.parametrize("field", ["depth", "max_pre", "max_cyc"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True, False, None])
def test_non_integers_are_rejected(field, value):
    # a float depth used to pass here and fail later inside classify, and
    # True used to read as depth 1
    with pytest.raises(ValueError, match="must be integers"):
        RunConfig(**{field: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"depth": 0}, "depth must be in"),
        ({"depth": MAX_DEPTH + 1}, "depth must be in"),
        ({"max_pre": -1}, "max_pre must be >= 0"),
        ({"max_cyc": 0}, "max_cyc >= 1"),
    ],
)
def test_out_of_range_values_are_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**kwargs)


@pytest.mark.parametrize("bad", [{"depth": 0}, {"depth": 2.5}, {"max_cyc": True}])
def test_every_way_to_build_one_checks(bad):
    cfg = RunConfig(depth=3)
    with pytest.raises(ValueError):
        cfg._replace(**bad)
    with pytest.raises(ValueError):
        RunConfig._make({**cfg._asdict(), **bad}.values())
    assert cfg._replace(max_cyc=1) == RunConfig(3, 3, 1)
    assert type(RunConfig._make([3, 0, 1])) is RunConfig


def test_copies_are_equal_configs():
    cfg = RunConfig(depth=5, max_pre=0)
    for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert twin == cfg and type(twin) is RunConfig
