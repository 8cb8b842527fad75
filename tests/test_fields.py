import pytest
from hypothesis import given, strategies as st

from cryslift.fields import (
    DigitVector,
    FiniteFieldSpec,
    MultChar,
    digits,
    from_digits,
    is_prime,
    norm_exponent,
    restrict,
)

SMALL_FIELDS = [
    (p, f)
    for p in (2, 3, 5, 7, 11, 13, 31)
    for f in range(1, 11)
    if p ** f <= 2 ** 10
]


def test_digits_examples():
    assert digits(MultChar(FiniteFieldSpec(3, 2), 5)).digits == (2, 1)
    assert digits(MultChar(FiniteFieldSpec(5, 1), 0)).digits == (0,)
    assert digits(MultChar(FiniteFieldSpec(2, 3), 6)).digits == (0, 1, 1)


def test_exponent_out_of_range_rejected():
    with pytest.raises(ValueError):
        MultChar(FiniteFieldSpec(3, 2), 8)  # q-1 is not canonical
    with pytest.raises(ValueError):
        MultChar(FiniteFieldSpec(3, 2), -1)


def test_from_digits_examples():
    field = FiniteFieldSpec(3, 2)
    assert from_digits(DigitVector((2, 1), 3), field).b == 5
    assert from_digits(DigitVector((0, 0), 3), field).b == 0


def test_all_p_minus_one_digits_rejected():
    with pytest.raises(ValueError):
        DigitVector((1, 1), 2)
    with pytest.raises(ValueError):
        DigitVector((2, 2, 2), 3)


def test_digit_length_must_match_field():
    with pytest.raises(ValueError):
        from_digits(DigitVector((2, 1), 3), FiniteFieldSpec(3, 3))
    with pytest.raises(ValueError):
        from_digits(DigitVector((2, 1), 3), FiniteFieldSpec(5, 2))


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_round_trip_exhaustive(p, f):
    field = FiniteFieldSpec(p, f)
    seen = set()
    for b in range(field.q - 1):
        d = digits(MultChar(field, b))
        assert d.value() == b
        assert from_digits(d, field).b == b
        assert d.digits not in seen  # uniqueness: one vector per exponent
        seen.add(d.digits)
    # every canonical digit vector is hit: p^f - 1 of them
    assert len(seen) == field.q - 1


@pytest.mark.parametrize("p,f", [(p, f) for p, f in SMALL_FIELDS if f > 1])
def test_restriction_consistency_exhaustive(p, f):
    # exponent of the restriction agrees with evaluation at every element
    # of the subfield's multiplicative group, realized as exponents
    for f_sub in [g for g in range(1, f) if f % g == 0]:
        big = FiniteFieldSpec(p, f)
        small = FiniteFieldSpec(p, f_sub)
        # subfield^x sits inside big^x as the subgroup of index (q^d-1)/(q-1)
        embed = (big.q - 1) // (small.q - 1)
        for b in range(big.q - 1):
            r = restrict(MultChar(big, b), small)
            for h in range(small.q - 1):
                # element with subfield exponent h has big-field exponent h*embed
                assert b * (h * embed) % (big.q - 1) == (
                    r.b * h % (small.q - 1)
                ) * embed % (big.q - 1)


def test_restrict_examples():
    assert restrict(MultChar(FiniteFieldSpec(3, 2), 5), FiniteFieldSpec(3, 1)).b == 1
    assert restrict(MultChar(FiniteFieldSpec(3, 2), 0), FiniteFieldSpec(3, 1)).b == 0
    assert restrict(MultChar(FiniteFieldSpec(2, 4), 3), FiniteFieldSpec(2, 2)).b == 0


def test_restrict_incompatible_fields():
    with pytest.raises(ValueError):
        restrict(MultChar(FiniteFieldSpec(3, 2), 5), FiniteFieldSpec(2, 1))
    with pytest.raises(ValueError):
        restrict(MultChar(FiniteFieldSpec(3, 3), 5), FiniteFieldSpec(3, 2))


def test_norm_exponent():
    assert norm_exponent(3, 2) == 4
    assert norm_exponent(2, 3) == 7
    assert norm_exponent(5, 1) == 1
    with pytest.raises(ValueError):
        norm_exponent(1, 2)


@given(st.integers(2, 50), st.integers(1, 8))
def test_norm_exponent_is_geometric_sum(q, d):
    assert norm_exponent(q, d) == sum(q ** i for i in range(d))


@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_round_trip_property(pf, data):
    p, f = pf
    field = FiniteFieldSpec(p, f)
    b = data.draw(st.integers(0, field.q - 2))
    assert from_digits(digits(MultChar(field, b)), field).b == b


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))

    # the sieve table below 2^16 and Miller-Rabin above it
    assert [n for n in range(-2, 200_000) if is_prime(n)] == [
        n for n in range(-2, 200_000) if trial(n)]


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,  # strong pseudoprimes to small bases
    561, 41041, 825265,  # Carmichael numbers
    2 ** 64 - 1, 4294967297,  # 2^64 - 1 and F_5 = 641 * 6700417
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("p", [65537, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59])
def test_is_prime_accepts_large_primes(p):
    assert is_prime(p)


def test_primality_is_decided_below_2_64_only():
    FiniteFieldSpec(2 ** 64 - 59, 1)
    for p in (2 ** 64 + 13, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="below 2\\^64"):
            FiniteFieldSpec(p, 1)
