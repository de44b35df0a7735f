"""Storage tests close every file they open."""

import gc
import sys
import warnings

import pytest


@pytest.fixture(autouse=True)
def closes_what_it_opens(monkeypatch):
    """Fail a test that leaves a file unclosed.

    An unclosed file warns from its finalizer, where the error filter
    below turns the warning into an exception the interpreter hands to
    ``sys.unraisablehook``; the ``gc.collect()`` at the end reaches
    handles a reference cycle still holds.
    """
    leaked = []
    previous = sys.unraisablehook

    def collect(unraisable):
        if isinstance(unraisable.exc_value, ResourceWarning):
            leaked.append(str(unraisable.exc_value))
        else:
            previous(unraisable)

    monkeypatch.setattr(sys, "unraisablehook", collect)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        yield
        gc.collect()
    assert not leaked, f"{len(leaked)} unclosed file(s): {leaked[0]}"
