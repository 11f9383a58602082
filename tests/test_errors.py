"""The one grammar for spec strings and number lists."""

import pytest

from hrlmc.errors import InvalidParameters, parse_numbers, parse_spec


@pytest.mark.parametrize("spec, parsed", [
    ("burg", ("burg", {})),
    (" Burg ", ("burg", {})),
    ("GAMMA:a=5;b=1", ("gamma", {"a": [5.0], "b": [1.0]})),
    ("gamma:a=5,b=1", ("gamma", {"a": [5.0], "b": [1.0]})),
    ("gamma:a=5,5;b=1,1", ("gamma", {"a": [5.0, 5.0], "b": [1.0, 1.0]})),
    ("mixed:a=0.3;0.7", ("mixed", {"a": [0.3, 0.7]})),
    ("mixed: a = 0.3 , 0.7 ,", ("mixed", {"a": [0.3, 0.7]})),
    ("gamma:a=5,,;b=1", ("gamma", {"a": [5.0], "b": [1.0]})),
], ids=["bare", "bare-spaced", "upper-head", "comma-keys", "lists", "semicolon-values",
        "spaced", "empty-tokens"])
def test_parse_spec(spec, parsed):
    assert parse_spec(spec) == parsed


@pytest.mark.parametrize("spec, message", [
    ("burg:x", "cannot parse 'burg:x': dangling value 'x'"),
    ("gaussian:A=", "cannot parse 'A': a key needs at least one value"),
    ("gamma:a=,b=1", "cannot parse 'a': a key needs at least one value"),
    ("gamma:a=q,b=1", "cannot parse 'q' as a finite float"),
    ("constant:h=inf", "cannot parse 'inf' as a finite float"),
    ("gamma:a=5;b=1;a=6", "cannot parse 'gamma:a=5;b=1;a=6': repeated key 'a'"),
], ids=["dangling", "no-values", "no-values-before-key", "malformed", "non-finite",
        "repeated-key"])
def test_parse_spec_rejects(spec, message):
    with pytest.raises(InvalidParameters) as err:
        parse_spec(spec)
    assert str(err.value) == message


def test_parse_numbers_skips_empty_tokens():
    assert parse_numbers("1,") == [1.0]
    assert parse_numbers(" 1, ,2 ", int) == [1, 2]
    assert parse_numbers("") == []
    with pytest.raises(InvalidParameters, match="cannot parse '1.5' as a finite int"):
        parse_numbers("1,1.5", int)
