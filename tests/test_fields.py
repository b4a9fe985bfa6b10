import pytest
from fractions import Fraction
from math import isqrt, prod

from cubesquare import fields
from cubesquare.fields import QQ, FieldError, PrimeField, field_from_json, is_prime


def test_primality_small():
    primes = [5, 7, 11, 13, 101, 1009, 2**61 - 1]
    for p in primes:
        assert is_prime(p)
    for n in [0, 1, 4, 9, 15, 49, 91, 1007, 2**61 + 1]:
        assert not is_prime(n)


def test_field_construction_guards():
    with pytest.raises(FieldError):
        PrimeField(2)
    with pytest.raises(FieldError):
        PrimeField(3)
    with pytest.raises(FieldError):
        PrimeField(15)
    with pytest.raises(FieldError):
        PrimeField(2**62 + 1)
    assert PrimeField(5).p == 5


def test_field_from_json_names_the_field():
    assert field_from_json({"kind": "Fp", "p": "7"}) == PrimeField(7)
    assert field_from_json({"kind": "Q"}) == QQ
    bad = [
        {"kind": "Fp", "p": "x"},
        {"kind": "Fp"},
        {"kind": "Fp", "p": None},
        {"kind": "Fp", "p": True},
        {"kind": "Fp", "p": 15},
        {"kind": "F4"},
        "Fp",
    ]
    for obj in bad:
        with pytest.raises(FieldError, match=r"^F\.field"):
            field_from_json(obj, "F.field")


def test_rational_arithmetic_and_sqrt():
    assert QQ.sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-4)) is None
    assert QQ.parse("3/7") == (3, 7)
    assert QQ.format(Fraction(-5, 3)) == "-5/3"
    assert QQ.format(Fraction(4)) == "4"


def test_rational_parse_and_format_agree_with_fraction():
    # "n" and "n/d" are read without a Fraction; any other spelling goes
    # through Fraction, which also raises the errors.
    spellings = ["0", "-0", "+7", "12/8", "-12/8", "0/5", "00012/0004", "10" * 30 + "/3",
                 "0.5", " 3", "-1e3", "1_000", "3/-4", "1/0", "x", "", "1/2/3", "--1"]
    for text in spellings:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                QQ.parse(text)
            continue
        assert QQ.parse(text) == (value.numerator, value.denominator), text
    for num, den in [(0, 1), (6, 4), (-6, 4), (-5, 3), (7, 7), (10**30, 3)]:
        assert QQ.format(num, den) == str(Fraction(num, den))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009, 10007])
def test_prime_field_sqrt_canonical(p):
    F = PrimeField(p)
    squares = {}
    for r in range(p):
        squares.setdefault(r * r % p, set()).add(r)
    for a in range(p):
        r = F.sqrt(a)
        if a in squares:
            assert r in squares[a]
            assert r == min(squares[a] & {r, p - r}) or r == 0
            assert r * r % p == a
            assert r <= p - r  # the smaller residue is canonical
        else:
            assert r is None


def test_prime_field_parse_fraction_strings():
    F = PrimeField(13)
    assert F.parse("1/2") == (F.inv(2), 1)
    assert F.parse("-1") == (12, 1)
    with pytest.raises(ZeroDivisionError):
        F.coerce(Fraction(1, 13))


def test_field_equality_and_coercion():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert QQ != PrimeField(7)
    assert PrimeField(7).coerce(Fraction(1, 2)) == 4  # 1/2 = 4 mod 7


def test_rationals_coerce_returns_a_fraction_as_it_is():
    x = Fraction(-7, 3)
    assert QQ.coerce(x) is x
    assert QQ.coerce(5) == Fraction(5) and type(QQ.coerce(5)) is Fraction
    assert QQ.coerce("1/2") == Fraction(1, 2)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_10_4():
    assert [n for n in range(10**4) if is_prime(n)] == [n for n in range(10**4) if _trial_division(n)]


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


# The least strong pseudoprime to the first k prime bases (OEIS A014233),
# with its factors, for k = 1..9; k = 7 and k = 8 share theirs.
STRONG_PSEUDOPRIMES = [
    (1, (23, 89)),
    (2, (829, 1657)),
    (3, (2251, 11251)),
    (4, (151, 751, 28351)),
    (5, (6763, 10627, 29947)),
    (6, (1303, 16927, 157543)),
    (8, (10670053, 32010157)),
    (9, (149491, 747451, 34233211)),
]


def test_is_prime_rejects_the_strong_pseudoprimes_to_the_first_witnesses():
    for k, factors in STRONG_PSEUDOPRIMES:
        n = prod(factors)
        assert all(_strong_probable_prime(n, a) for a in fields._MR_WITNESSES[:k]), n
        assert not is_prime(n)


def test_field_from_json_checks_each_prime_once(monkeypatch):
    fields._prime_field.cache_clear()
    calls = []
    check = fields.is_prime
    monkeypatch.setattr(fields, "is_prime", lambda n: calls.append(n) or check(n))
    first = field_from_json({"kind": "Fp", "p": 1009})
    assert field_from_json({"kind": "Fp", "p": "1009"}) is first
    assert field_from_json({"kind": "Fp", "p": 1013}) == PrimeField(1013)
    assert calls == [1009, 1013, 1013]  # the last from PrimeField(1013) itself
    with pytest.raises(FieldError, match="not prime"):
        field_from_json({"kind": "Fp", "p": 1007})
    fields._prime_field.cache_clear()


def test_prime_field_coerce_of_int_fraction_and_bool():
    F = PrimeField(7)
    assert [F.coerce(v) for v in (-1, 7, 10**30, True)] == [6, 0, 10**30 % 7, 1]
    assert F.coerce(Fraction(1, 3)) == 5
