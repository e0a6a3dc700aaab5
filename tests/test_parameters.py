"""Each build parameter's range is checked in one place, by the layer that
uses it, and ``RunConfig`` calls that same check: the CLI and a library
caller accept and reject the same values, with the same message."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoph.adjacency import margin_level, queen_adjacency
from geoph.errors import InputError
from geoph.geometry import PointCloud
from geoph.levelset import MAX_SIDE, GridTransform, ScalarField, vertex_schedule
from geoph.pipeline import RunConfig
from geoph.precincts import parse_feature_collection
from geoph.rips import build_vr_complex
from geoph.synth import grid_fixture

GRID3 = parse_feature_collection(grid_fixture(3))
CLOUD = PointCloud(points=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
FIELD = ScalarField(
    values=np.array([[-3.0, -1.0, 0.5], [-2.0, 0.5, 1.5], [-4.0, -0.5, 2.0]]),
    transform=GridTransform(x0=0.0, y0=0.0, cell=1.0),
)

TINY = sys.float_info.min
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -TINY, 5e-324, 1e-310,
    math.nextafter(TINY, 0.0), TINY, math.nextafter(TINY, 1.0), 1e-12, 0.05, 1.0, 1e308,
]
# velocity * dt is too small exactly when MAX_SIDE / (velocity * dt) overflows
BOUND = MAX_SIDE / sys.float_info.max
NEAR_BOUND = [math.nextafter(BOUND, 0.0), BOUND, math.nextafter(BOUND, 1.0), 2 * BOUND]
FRONT_PAIRS = (
    [(1.0, p) for p in NEAR_BOUND]
    + [(p, 1.0) for p in NEAR_BOUND]
    + [(1e-200, p * 1e200) for p in NEAR_BOUND]
    + [(1e-200, 1e-200), (1e-300, 1e-10), (1e-154, 1e-154), (1e200, 1e200), (TINY, 1e308)]
)

floats = st.sampled_from(EDGE_FLOATS) | st.floats()
parameters = st.one_of(
    st.fixed_dictionaries({"eps_max": st.none() | floats}),
    st.fixed_dictionaries({"step": floats}),
    st.fixed_dictionaries({"tol": floats}),
    st.fixed_dictionaries({"velocity": floats}),
    st.fixed_dictionaries({"dt": floats}),
    st.sampled_from(FRONT_PAIRS).map(lambda p: {"velocity": p[0], "dt": p[1]}),
    st.fixed_dictionaries({"n_steps": st.none() | st.integers(-3, 3) | st.just(-(2**63))}),
    st.fixed_dictionaries({"stride": st.integers(-3, 4)}),
)


def layer_call(kwargs):
    """The layer function that takes these parameters, called with them."""
    if "eps_max" in kwargs:
        return build_vr_complex(CLOUD, **kwargs)
    if "step" in kwargs:
        return margin_level(0.5, **kwargs)
    if "tol" in kwargs:
        return queen_adjacency(GRID3, **kwargs)
    return vertex_schedule(FIELD, **kwargs)


def outcome(call):
    """None when ``call`` returns, else the type and message it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            call()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@given(parameters)
@settings(max_examples=300, deadline=None)
@example({"step": 5e-324})
@example({"tol": math.inf})
@example({"n_steps": -1})
@example({"velocity": 1e-300, "dt": 1e-10})
def test_run_config_and_layer_reject_alike(kwargs):
    config = outcome(lambda: RunConfig(method="vr", candidate="red", **kwargs))
    assert config is None or config[0] is InputError
    assert outcome(lambda: layer_call(kwargs)) == config


def test_input_error_is_a_value_error():
    assert issubclass(InputError, ValueError)
    with pytest.raises(ValueError, match="smallest normal"):
        margin_level(0.5, step=1e-310)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: margin_level(0.5, step=math.inf), "step must be finite and positive"),
        (lambda: build_vr_complex(CLOUD, eps_max=math.nan), "eps_max must be finite"),
        (lambda: build_vr_complex(CLOUD, eps_max=math.inf), "eps_max must be finite"),
        (lambda: vertex_schedule(FIELD, velocity=math.inf), "velocity must be finite"),
        (lambda: queen_adjacency(GRID3, tol=math.inf), "tol must be finite and non-negative"),
        (lambda: queen_adjacency(GRID3, tol=math.nan), "tol must be finite and non-negative"),
    ],
    ids=["step-inf", "eps-nan", "eps-inf", "velocity-inf", "tol-inf", "tol-nan"],
)
def test_library_rejects_what_the_cli_rejects(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_negative_step_budget_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="n_steps must be non-negative"):
            vertex_schedule(FIELD, n_steps=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"stride": 1.5},
        {"stride": 2.0},
        {"stride": True},
        {"stride": "2"},
        {"stride": None},
        {"n_steps": 2.5},
        {"n_steps": 3.0},
        {"n_steps": False},
        {"n_steps": "4"},
    ],
    ids=repr,
)
def test_stride_and_step_budget_must_be_ints(kwargs):
    (name,) = kwargs
    message = f"{name} must be an integer"
    with pytest.raises(InputError, match=message):
        RunConfig(method="levelset", candidate="red", **kwargs)
    with pytest.raises(InputError, match=message):
        vertex_schedule(FIELD, **kwargs)
