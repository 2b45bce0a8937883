"""Transfer payloads `fit` could never write are refused at load.

A `TransferPredictor` payload carries its monotone map under
``state.map``.  A knot array that is missing, non-numeric, non-finite or
of the wrong length, and an ``n_pairs`` that is missing, not an integer or
fewer than one pair per knot, are each refused by `predictor_from_payload`
(so by `load_predictor` and the server) with a `ValueError` naming the
field: ``state.map.x``, ``state.map.y`` or ``state.map.n_pairs``.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MonotoneLatencyMap, TransferPredictor
from repro.predictors import predictor_from_payload


def _valid_payload():
    rng = np.random.default_rng(0)
    X = rng.random((30, 4))
    y = X @ np.arange(1.0, 5.0) + 0.1 * rng.random(30) + 1.0
    return TransferPredictor(base="ridge").fit(X, y).to_payload()


VALID = _valid_payload()
N_KNOTS = len(VALID["state"]["map"]["x"])

# Values of the wrong JSON type for each field.
KNOT_RETYPES = st.sampled_from(
    ["torn", None, 3.0, {"0": 1.0}, ["a", "b"], [[1.0, 2.0]], [None] * N_KNOTS]
)
COUNT_RETYPES = st.sampled_from(
    ["12", None, 12.0, [12], {"n": 12}, True, math.nan, math.inf]
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def broken_payloads(draw):
    """A valid payload with one map field dropped, retyped, made
    non-finite or truncated, and the field that must be named."""
    payload = copy.deepcopy(VALID)
    state_map = payload["state"]["map"]
    field = draw(st.sampled_from(["x", "y", "n_pairs"]))
    how = draw(st.sampled_from(["drop", "retype", "non_finite", "truncate"]))
    if how == "drop":
        del state_map[field]
    elif how == "retype":
        state_map[field] = draw(COUNT_RETYPES if field == "n_pairs" else KNOT_RETYPES)
    elif field == "n_pairs":  # non-finite or truncated: too few pairs
        state_map[field] = draw(NON_FINITE | st.integers(-3, N_KNOTS - 1))
    elif how == "non_finite":
        state_map[field][draw(st.integers(0, N_KNOTS - 1))] = draw(NON_FINITE)
    else:
        del state_map[field][draw(st.integers(0, N_KNOTS - 1)):]
        if field == "x" and state_map["x"]:
            field = "y"  # more values than knot positions
    return payload, field


def test_the_valid_payload_round_trips():
    model = predictor_from_payload(copy.deepcopy(VALID))
    assert model.to_payload() == VALID
    assert N_KNOTS >= 2


@settings(max_examples=200)
@given(broken_payloads())
def test_a_broken_map_field_is_refused_by_name(broken):
    payload, field = broken
    with pytest.raises(ValueError, match=rf"^state\.map\.{field}\b"):
        predictor_from_payload(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_all_non_finite_knot_values_no_longer_load(bad):
    """Before, ``y`` all ``inf`` loaded and then predicted ``inf``."""
    payload = copy.deepcopy(VALID)
    payload["state"]["map"]["y"] = [bad] * N_KNOTS
    with pytest.raises(ValueError, match=r"^state\.map\.y\.0: .* is not finite"):
        predictor_from_payload(payload)


def test_a_standalone_map_names_its_fields_under_map():
    d = MonotoneLatencyMap().fit([1.0, 2.0], [3.0, 4.0]).to_dict()
    del d["x"]
    with pytest.raises(ValueError, match=r"^map\.x: missing"):
        MonotoneLatencyMap.from_dict(d)
