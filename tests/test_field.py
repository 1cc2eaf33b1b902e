import pytest

from laguerre import GF, FieldError, NONSQUARE, SQUARE, ZERO
from laguerre.field import is_prime


def test_make_accepts_primes():
    assert GF(5).q == 5
    assert GF(2).char2
    assert not GF(7).char2


def test_make_rejects_non_primes_and_out_of_range():
    with pytest.raises(FieldError) as e:
        GF(4)
    assert e.value.code == "not_prime"
    with pytest.raises(FieldError):
        GF(1)
    with pytest.raises(FieldError) as e:
        GF(103)
    assert e.value.code == "out_of_range"
    assert GF(101).q == 101


def test_arithmetic_examples():
    g5 = GF(5)
    assert g5.inv(4) == 4
    assert GF(7).inv(3) == 5
    assert g5.sub(1, 3) == 3
    assert g5.div(1, 2) == 3


def test_inverse_of_zero_rejected():
    with pytest.raises(FieldError) as e:
        GF(5).inv(0)
    assert e.value.code == "div_zero"


def test_square_class_enumeration_oracle():
    # oracle: enumerate {k^2 : k nonzero} directly
    g5 = GF(5)
    squares = {k * k % 5 for k in range(1, 5)}
    assert squares == {1, 4}
    assert g5.square_class(4) == SQUARE
    assert g5.square_class(2) == NONSQUARE
    assert g5.square_class(0) == ZERO


def test_square_class_char2_rejected():
    with pytest.raises(FieldError) as e:
        GF(2).square_class(1)
    assert e.value.code == "char2_square_class"


def test_inverse_law_all_odd_primes_up_to_bound():
    for q in range(3, 102):
        if not is_prime(q):
            continue
        gf = GF(q)
        for a in range(1, q):
            assert a * gf.inv(a) % q == 1


def test_square_class_group_law():
    # nonzero classes multiply like the two-element group
    for q in (3, 5, 7, 11, 13):
        gf = GF(q)
        for a in range(1, q):
            for b in range(1, q):
                ca, cb = gf.square_class(a), gf.square_class(b)
                expect = SQUARE if ca == cb else NONSQUARE
                assert gf.square_class(a * b) == expect


def test_square_and_nonsquare_counts():
    for q in range(3, 102):
        if not is_prime(q):
            continue
        gf = GF(q)
        classes = [gf.square_class(a) for a in range(1, q)]
        assert classes.count(SQUARE) == (q - 1) // 2
        assert classes.count(NONSQUARE) == (q - 1) // 2


def test_sqrts():
    g7 = GF(7)
    assert g7.sqrts(0) == (0,)
    assert g7.sqrts(2) == (3, 4)
    assert g7.sqrts(3) == ()
    assert GF(2).sqrts(1) == (1,)
