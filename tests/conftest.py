import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest


def _check_value_contract(cls, fields, expected_repr, defaults=()):
    """Pin what every frozen value type promises, whatever implements it.

    ``fields`` maps each field, in order, to a value; the fields named in
    ``defaults`` must hold their default values, so that leaving them out
    builds the same value.
    """
    value = cls(*fields.values())
    assert repr(value) == expected_repr
    by_keyword = cls(**fields)
    assert by_keyword == value and hash(by_keyword) == hash(value)
    required = {name: field for name, field in fields.items() if name not in defaults}
    assert cls(**required) == value
    for name in required:
        with pytest.raises(TypeError):
            cls(**{other: field for other, field in required.items() if other != name})
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=None)
    # A full positional set takes the constructor's fast path; it must refuse what the merge refuses.
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    for name, field in fields.items():
        with pytest.raises(TypeError):
            cls(*fields.values(), **{name: field})

    class Sibling(cls):
        pass

    assert Sibling(*fields.values()) != value and value != Sibling(*fields.values())
    assert value != tuple(fields.values())
    for name in [*fields, "no_such_field"]:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert repr(value) == expected_repr
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is cls and clone == value and hash(clone) == hash(value)
        assert repr(clone) == expected_repr


@pytest.fixture
def value_contract():
    """Checker for the frozen value types: repr, equality and hashing,
    construction by keyword and with defaults, refusal of assignment and
    deletion, and pickle and copy round trips."""
    return _check_value_contract
