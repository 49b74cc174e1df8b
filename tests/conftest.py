"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """Run a test under the interpreter's default int/str digit limit, as a
    library host does (the CLI lifts it)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit on this interpreter")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
