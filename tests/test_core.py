"""Variables, factor tables and evidence: validation and read-only tables.

Core claims:
    - a variable needs a non-negative id and distinct state labels
    - a factor reshapes a flat row-major table to its cards, rejects any
      other shape, and keeps its table read-only
    - evidence keeps each vector as a tuple; an all-zero or non-0/1
      vector is representable (inference rejects it, see
      test_input_checks and test_inference)
"""

import numpy as np
import pytest

from factorbn import Evidence, Factor, ValidationError, Variable


# -- Variable ----------------------------------------------------------------


def test_variable_accepts_single_state():
    v = Variable(0, "const", ("only",))
    assert v.card == 1


def test_variable_rejects_empty_states_and_duplicates():
    with pytest.raises(ValidationError):
        Variable(0, "v", ())
    with pytest.raises(ValidationError):
        Variable(0, "v", ("a", "a"))
    with pytest.raises(ValidationError):
        Variable(-1, "v", ("a", "b"))


# -- Factor ------------------------------------------------------------------


def test_factor_reshapes_a_flat_table_and_rejects_other_shapes():
    f = Factor((0, 2), (2, 3), [1, 2, 3, 4, 5, 6])
    assert f.values.shape == (2, 3)
    assert f.values[1, 0] == 4
    assert f.flat().tolist() == [1, 2, 3, 4, 5, 6]
    assert f == Factor((0, 2), (2, 3), np.arange(1, 7).reshape(2, 3))
    assert f != (0, 2) and f != "f"  # not a Factor: never equal
    assert Factor((), (), [0.5]).values[()] == 0.5
    with pytest.raises(ValidationError):
        Factor((0, 2), (2, 3), [1, 2, 3, 4, 5])
    with pytest.raises(ValidationError):
        Factor((0, 2), (2, 3), np.ones((3, 2)))
    with pytest.raises(ValidationError):
        Factor((2, 0), (2, 3), np.ones(6))


def test_factor_values_read_only():
    f = Factor((0,), (2,), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        f.values[0] = 9.0


# -- evidence ----------------------------------------------------------------


def test_evidence_all_zero_vector_is_allowed():
    # zero-mass evidence is representable; inference reports it later
    ev = Evidence({0: (0, 0)})
    assert ev.findings == {0: (0, 0)}


def test_evidence_keeps_each_vector_as_a_tuple():
    # inference checks the entries against the network, so any are kept
    ev = Evidence({0: [0, 2], 1: np.array([1, 0])})
    assert ev.findings == {0: (0, 2), 1: (1, 0)}
    assert all(type(vec) is tuple for vec in ev.findings.values())
