import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cryslift.errors import InfeasibleError
from cryslift.ledger import (
    WeightProfile,
    shift_for_extension,
    twist,
    twist_shout,
)
from cryslift.lifting import LocalFieldShape
from cryslift.units import UnitExpr


class TestUnitExpr:
    def test_normalization_merges_labels(self):
        u = UnitExpr(1, (("x", Fraction(1)), ("x", Fraction(2))))
        assert u == UnitExpr(1, (("x", Fraction(3)),))

    def test_int_and_float_exponents_become_fractions(self):
        u = UnitExpr(1, (("x", 2), ("y", 1), ("y", 0.5)))
        assert u.factors == (("x", Fraction(2)), ("y", Fraction(3, 2)))
        assert all(type(e) is Fraction for _, e in u.factors)
        assert u.to_json()["factors"] == [["x", "2", "1"], ["y", "3", "2"]]

    def test_zero_exponent_dropped(self):
        u = UnitExpr.symbol("x") * UnitExpr(1, (("x", Fraction(-1)),))
        assert u == UnitExpr.one()

    def test_sign_arithmetic(self):
        u = UnitExpr.symbol("x").negate()
        assert (u * u).sign == 1
        assert (u ** 3).sign == -1
        assert (u ** 2).sign == 1

    def test_negate_shares_normal_factors(self):
        u = UnitExpr(1, (("b", Fraction(2, 3)), ("a", Fraction(1)), ("b", Fraction(1, 3))))
        neg = u.negate()
        assert neg == UnitExpr(-1, (("a", Fraction(1)), ("b", Fraction(1))))
        assert neg.factors is u.factors
        assert neg.negate() == u and hash(neg.negate()) == hash(u)
        with pytest.raises(dataclasses.FrozenInstanceError):
            neg.sign = 1

    def test_fractional_power_of_negative_rejected(self):
        with pytest.raises(ValueError):
            UnitExpr.symbol("x").negate() ** Fraction(1, 2)

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(-3, 3)), max_size=6))
    def test_multiplication_order_irrelevant(self, pairs):
        units = [UnitExpr(1, ((l, Fraction(e)),)) for l, e in pairs]
        shuffled = list(units)
        random.Random(0).shuffle(shuffled)
        prod1 = UnitExpr.one()
        for u in units:
            prod1 = prod1 * u
        prod2 = UnitExpr.one()
        for u in shuffled:
            prod2 = prod2 * u
        assert prod1 == prod2


class TestWeightProfile:
    def test_must_be_descending(self):
        with pytest.raises(ValueError):
            WeightProfile(((1, 2),))

    def test_regularity(self):
        assert WeightProfile(((2, 1),)).regular
        assert not WeightProfile(((2, 2),)).regular

    def test_twist_examples(self):
        prof = WeightProfile(((1, 0),))
        assert twist(prof, 0) == prof
        assert twist(prof, 3).weights == ((4, 3),)
        assert twist(prof, -5).regular == prof.regular

    def test_det_exponents_shift(self):
        prof = WeightProfile(((1, 0), (7, 2)))
        shifted = twist(prof, 3)
        assert shifted.det_exponents() == tuple(
            v + prof.dim * 3 for v in prof.det_exponents()
        )


class TestShiftForExtension:
    def test_worked_example(self):
        N, p1, p2, ledger = shift_for_extension(
            WeightProfile(((-2,),)), WeightProfile(((4,),)), 3
        )
        assert N == 3
        assert p1.weights == ((4,),)
        assert p2.weights == ((-2,),)
        assert ledger["det_shift_1"] == 6

    def test_already_separated(self):
        N, *_ = shift_for_extension(
            WeightProfile(((3, 1),)), WeightProfile(((-1, -4),)), 3
        )
        assert N == 0

    def test_embedding_counts_must_match(self):
        with pytest.raises(ValueError, match="2 and 1 embeddings"):
            shift_for_extension(WeightProfile(((1,), (2,))), WeightProfile(((-1,),)), 3)

    def test_p2_zero_weights(self):
        N, *_ = shift_for_extension(WeightProfile(((0,),)), WeightProfile(((0,),)), 2)
        assert N == 1

    def test_random_minimality_and_ledger(self):
        rng = random.Random(5)
        for _ in range(300):
            d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
            p = rng.choice([2, 3, 5, 7])
            w1 = tuple(sorted((rng.randint(-20, 20) for _ in range(d1)), reverse=True))
            w2 = tuple(sorted((rng.randint(-20, 20) for _ in range(d2)), reverse=True))
            prof1, prof2 = WeightProfile((w1,)), WeightProfile((w2,))
            N, s1, s2, ledger = shift_for_extension(prof1, prof2, p)
            assert all(w > 0 for w in s1.all_weights())
            assert all(w < 0 for w in s2.all_weights())
            assert ledger["det_sum_preserved"]
            assert ledger["slightly_less"]
            if N >= 1:
                bad1 = twist(prof1, d2 * (p - 1) * (N - 1))
                bad2 = twist(prof2, -d1 * (p - 1) * (N - 1))
                assert any(w <= 0 for w in bad1.all_weights()) or any(
                    w >= 0 for w in bad2.all_weights()
                )

    def test_wide_weights_in_closed_form(self):
        started = time.perf_counter()
        N, s1, s2, ledger = shift_for_extension(
            WeightProfile(((-10 ** 6, -10 ** 6 - 1),)),
            WeightProfile(((10 ** 6 + 1, 10 ** 6),)), 2,
        )
        assert time.perf_counter() - started < 0.1
        assert N == 500001
        assert s1.weights == ((2, 1),)
        assert s2.weights == ((-1, -2),)

    @given(
        p=st.sampled_from([2, 3, 5, 7, 101, 2 ** 61 - 1]),
        n=st.integers(1, 3),
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        data=st.data(),
    )
    def test_least_shift_for_wide_weights(self, p, n, d1, d2, data):
        def profile(d):
            weight = st.integers(-10 ** 12, 10 ** 12)
            rows = data.draw(st.lists(st.lists(weight, min_size=d, max_size=d),
                                      min_size=n, max_size=n))
            return WeightProfile(tuple(tuple(sorted(r, reverse=True)) for r in rows))

        prof1, prof2 = profile(d1), profile(d2)
        N, s1, s2, ledger = shift_for_extension(prof1, prof2, p)
        assert all(w > 0 for w in s1.all_weights())
        assert all(w < 0 for w in s2.all_weights())
        assert ledger["slightly_less"] and ledger["det_sum_preserved"]
        if N >= 1:
            bad1 = twist(prof1, d2 * (p - 1) * (N - 1))
            bad2 = twist(prof2, -d1 * (p - 1) * (N - 1))
            assert any(w <= 0 for w in bad1.all_weights()) or any(
                w >= 0 for w in bad2.all_weights()
            )

    def test_p_below_2_rejected(self):
        with pytest.raises(ValueError):
            shift_for_extension(WeightProfile(((0,),)), WeightProfile(((0,),)), 1)


class TestDthRoot:
    def test_exact_root(self):
        u = UnitExpr(1, (("x", Fraction(2)),))
        assert u.root(2) == UnitExpr.symbol("x")

    def test_formal_root_round_trip(self):
        u = UnitExpr.symbol("x")
        assert u.root(3) ** 3 == u

    def test_negative_unit_rejected(self):
        with pytest.raises(ValueError):
            UnitExpr.symbol("x").negate().root(2)


class TestTwistShout:
    def shape(self, d, t, e=1):
        # p=3, f=1 gives q-1=2; any even t works
        return LocalFieldShape(3, 1, e, d, t)

    def test_worked_example(self):
        theta = twist_shout(
            WeightProfile(((5, 1),)),
            WeightProfile(((1, -3),)),
            self.shape(2, 2),
        )
        assert theta.k == (4,)
        assert theta.uniformizer ** 2 == UnitExpr.symbol("eta(varpi_F)")

    def test_identity_twist(self):
        prof = WeightProfile(((5, 1),))
        theta = twist_shout(prof, prof, self.shape(2, 2))
        assert theta.k == (0,)

    def test_congruence_violation_rejected(self):
        with pytest.raises(InfeasibleError):
            twist_shout(
                WeightProfile(((5, 1),)),
                WeightProfile(((4, 0),)),
                self.shape(2, 2),
            )

    def test_random_uniform_shifts_reproduce_weights(self):
        rng = random.Random(9)
        for _ in range(300):
            d = rng.randint(1, 4)
            t = 2 * rng.randint(1, 3)
            n_embed = rng.randint(1, 3)
            shape = self.shape(d, t, e=n_embed)
            rho = WeightProfile(
                tuple(
                    tuple(sorted((rng.randint(-30, 30) for _ in range(d)), reverse=True))
                    for _ in range(n_embed)
                )
            )
            shifts = [rng.randint(-3, 3) * d * t for _ in range(n_embed)]
            rho_x = WeightProfile(
                tuple(
                    tuple(w - sh for w in tup)
                    for tup, sh in zip(rho.weights, shifts)
                )
            )
            theta = twist_shout(rho, rho_x, shape)
            rebuilt = tuple(
                tuple(w + ks for w in tup)
                for tup, ks in zip(rho_x.weights, theta.k)
            )
            assert rebuilt == rho.weights
            assert all(ks % t == 0 for ks in theta.k)

    def test_random_perturbed_pairs_rejected(self):
        rng = random.Random(10)
        for _ in range(300):
            d = rng.randint(1, 4)
            t = 2 * rng.randint(1, 3)
            shape = self.shape(d, t)
            base = tuple(
                sorted((rng.randint(-30, 30) * d * t for _ in range(d)), reverse=True)
            )
            # subtract a non-multiple of d*t from the smallest entry so the
            # positionwise pairing survives sorting but the congruence breaks
            delta = rng.randint(1, d * t - 1)
            perturbed = base[:-1] + (base[-1] - delta,)
            with pytest.raises(InfeasibleError):
                twist_shout(
                    WeightProfile((base,)), WeightProfile((perturbed,)), shape
                )
