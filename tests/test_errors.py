"""The one grammar for spec strings and number lists, and the one seed rule."""

import numpy as np
import pytest

from hrlmc import metrics
from hrlmc.analysis import estimate_constants
from hrlmc.entropy import burg
from hrlmc.errors import InvalidParameters, check_seed, parse_numbers, parse_spec
from hrlmc.target import exact_sample, gamma_target, r_constant


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


@pytest.mark.parametrize("seed", [0, 7, np.int64(3), 2**70, (3, 7733, 10, 2), ()],
                         ids=["zero", "int", "numpy-int", "wide-int", "tuple", "empty-tuple"])
def test_check_seed_accepts_integers_and_tuples_of_them(seed):
    assert check_seed(seed) is seed


_REFUSED_SEEDS = pytest.mark.parametrize("seed", [
    -1, [1, 2], np.random.SeedSequence(1), 1.0, None, "1", (1, -2), (1, 2.0), (1, (2, 3)),
], ids=["negative", "list", "seed-sequence", "float", "none", "text", "tuple-negative",
        "tuple-float", "nested-tuple"])


@_REFUSED_SEEDS
def test_check_seed_refuses_everything_else(seed):
    with pytest.raises(InvalidParameters, match="a seed must be a non-negative integer or a "
                       "tuple of them"):
        check_seed(seed)


@_REFUSED_SEEDS
@pytest.mark.parametrize("draw", [
    lambda seed: exact_sample(gamma_target([5], [1]), 2, seed=seed),
    lambda seed: estimate_constants(burg(1), gamma_target([5], [1]), n_pairs=10, seed=seed),
    lambda seed: metrics.w2phi(burg(1), [[1.0], [2.0]], [[1.5], [2.5]], method="sliced",
                               seed=seed),
    lambda seed: r_constant(gamma_target([5], [1]), method="monte-carlo", n=1000, seed=seed,
                            entropy=burg(1)),
], ids=["exact_sample", "estimate_constants", "w2phi", "r_constant"])
def test_library_draws_refuse_seeds_outside_the_rule(draw, seed, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made before the seed was refused")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(InvalidParameters):
        draw(seed)
