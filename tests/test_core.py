"""Variables, factor tables and evidence: validation and read-only tables.

Core claims:
    - a variable needs a non-negative id and distinct state labels
    - a factor reshapes a flat row-major table to its cards, rejects any
      other shape, and keeps its table read-only
    - evidence vectors must be 0/1; an all-zero vector is representable
      (inference reports zero mass later)
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
    assert f[(1, 0)] == 4
    assert f.flat().tolist() == [1, 2, 3, 4, 5, 6]
    assert f == Factor((0, 2), (2, 3), np.arange(1, 7).reshape(2, 3))
    assert Factor((), (), [0.5])[()] == 0.5
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


def test_evidence_rejects_non_binary_entries():
    with pytest.raises(ValidationError):
        Evidence({0: (0, 2)})
