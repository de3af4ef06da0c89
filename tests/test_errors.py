from __future__ import annotations

import inspect
import pickle

import pytest

from randgroup import errors
from randgroup.errors import BudgetExceededError, PresentationFormatError

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if cls.__module__ == errors.__name__]
# constructor arguments of the errors that take more than a message
ARGS = {BudgetExceededError: ("incidence_index", 200000000, "m=10^12"),
        PresentationFormatError: (3, "malformed relator 'x'")}


def test_every_error_class_is_listed():
    assert set(ARGS) <= set(ERRORS)
    assert all(issubclass(cls, Exception) for cls in ERRORS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    # an error raised in a sweep worker reaches the parent by pickle
    exc = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert vars(back) == vars(exc)
    assert str(back) == str(exc)
