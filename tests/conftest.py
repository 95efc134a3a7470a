import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Pin CPython's int -> str digit limit to its default of 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int -> str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)
