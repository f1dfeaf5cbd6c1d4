"""``RunConfig`` accepts only an integer depth in range, however it is built."""

import copy
import pickle

import pytest

from orbiteq import RunConfig
from orbiteq.config import MAX_DEPTH


def test_defaults_and_fields():
    cfg = RunConfig()
    assert RunConfig._fields == ("depth",)
    assert (cfg.depth, cfg.max_pre, cfg.max_cyc) == (8, 3, 4)
    assert RunConfig(3) == RunConfig(depth=3)
    assert RunConfig(MAX_DEPTH).depth == MAX_DEPTH


@pytest.mark.parametrize("field", ["depth", "max_pre", "max_cyc"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True, False, None])
def test_non_integers_are_rejected(field, value):
    # a float depth used to pass here and fail later inside classify, and
    # True used to read as depth 1; the family sizes are constants that
    # no argument sets, so passing one fails rather than being ignored
    if field == "depth":
        with pytest.raises(ValueError, match="must be integers"):
            RunConfig(**{field: value})
    else:
        with pytest.raises(TypeError, match=field):
            RunConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            RunConfig()._replace(**{field: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"depth": 0}, "depth must be in"),
        ({"depth": MAX_DEPTH + 1}, "depth must be in"),
    ],
)
def test_out_of_range_values_are_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**kwargs)


@pytest.mark.parametrize("bad", [{"depth": 0}, {"depth": 2.5}, {"depth": True}])
def test_every_way_to_build_one_checks(bad):
    cfg = RunConfig(depth=3)
    with pytest.raises(ValueError):
        cfg._replace(**bad)
    with pytest.raises(ValueError):
        RunConfig._make({**cfg._asdict(), **bad}.values())
    assert cfg._replace(depth=4) == RunConfig(4)
    assert type(RunConfig._make([3])) is RunConfig


def test_copies_are_equal_configs():
    cfg = RunConfig(depth=5)
    for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert twin == cfg and type(twin) is RunConfig
