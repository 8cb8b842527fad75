import itertools
import random

import pytest

from cryslift.fields import norm_exponent
from cryslift.induction import (
    FrobeniusModel,
    MonomialRep,
    _walk,
    det_of,
    verify_det_induction,
)


class TestModel:
    def test_group_axioms_small(self):
        m = FrobeniusModel(3, 2)
        elems = [(h, s) for h in range(m.M) for s in range(m.d)]
        ident = (0, 0)
        for g in elems:
            assert m.mul(g, ident) == g
            assert m.mul(ident, g) == g
        for g1, g2, g3 in itertools.islice(
            itertools.product(elems, repeat=3), 500
        ):
            assert m.mul(m.mul(g1, g2), g3) == m.mul(g1, m.mul(g2, g3))

    def test_frobenius_power_returns_to_subgroup(self):
        m = FrobeniusModel(3, 2)
        g = (5, 1)
        gd = m.power(g, m.d)
        assert gd[1] == 0
        assert gd[0] == norm_exponent(3, 2) * 5 % m.M

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            FrobeniusModel(1, 2)
        with pytest.raises(ValueError):
            FrobeniusModel(3, 0)


class TestInduce:
    def test_diagonal_on_subgroup(self):
        rep = MonomialRep(FrobeniusModel(3, 2), 1)
        mat = rep.matrix((1, 0))
        assert mat.perm == (0, 1)
        assert mat.exps == (1, 3)

    def test_trivial_character_is_permutation(self):
        rep = MonomialRep(FrobeniusModel(3, 2), 0)
        assert rep.matrix((5, 0)).exps == (0, 0)

    def test_d1_is_the_character(self):
        rep = MonomialRep(FrobeniusModel(7, 1), 4)
        mat = rep.matrix((3, 0))
        assert mat.perm == (0,)
        assert mat.exps == (4 * 3 % 6,)

    def test_b_out_of_range(self):
        with pytest.raises(ValueError):
            MonomialRep(FrobeniusModel(3, 2), 8)

    def test_homomorphism_full_enumeration(self):
        # |G| = 16: check every pair
        m = FrobeniusModel(3, 2)
        rep = MonomialRep(m, 3)
        elems = [(h, s) for h in range(m.M) for s in range(m.d)]
        for g1 in elems:
            for g2 in elems:
                assert rep.matrix(g1) * rep.matrix(g2) == rep.matrix(m.mul(g1, g2))

    def test_homomorphism_random_larger(self):
        rng = random.Random(3)
        m = FrobeniusModel(5, 3)
        rep = MonomialRep(m, rng.randrange(m.M))
        for _ in range(300):
            g1 = (rng.randrange(m.M), rng.randrange(m.d))
            g2 = (rng.randrange(m.M), rng.randrange(m.d))
            assert rep.matrix(g1) * rep.matrix(g2) == rep.matrix(m.mul(g1, g2))


class TestDeterminant:
    def test_cycle_sign(self):
        rep = MonomialRep(FrobeniusModel(3, 2), 1)
        assert det_of(rep, (0, 1)) == (-1, 0)

    def test_diagonal_det(self):
        rep = MonomialRep(FrobeniusModel(3, 2), 1)
        sign, exp = det_of(rep, (1, 0))
        assert (sign, exp) == (1, 4)  # 1 + 3 mod 8

    def test_multiplicativity_full(self):
        m = FrobeniusModel(2, 3)
        rep = MonomialRep(m, 5)
        elems = [(h, s) for h in range(m.M) for s in range(m.d)]
        for g1 in elems:
            for g2 in elems:
                s1, e1 = det_of(rep, g1)
                s2, e2 = det_of(rep, g2)
                s, e = det_of(rep, m.mul(g1, g2))
                assert (s, e) == (s1 * s2, (e1 + e2) % m.M)


class TestVerifyDetInduction:
    def test_q3_d2_b1(self):
        report = verify_det_induction(FrobeniusModel(3, 2), 1)
        assert report["pass"], report["counterexamples"]

    def test_q2_d3_norm_trivial(self):
        # norm exponent 7 == 0 mod 7, so det restricted to H is trivial
        assert norm_exponent(2, 3) % (2 ** 3 - 1) == 0
        report = verify_det_induction(FrobeniusModel(2, 3), 1)
        assert report["pass"]

    def test_d1_identity(self):
        report = verify_det_induction(FrobeniusModel(5, 1), 2)
        assert report["pass"]

    def test_numpy_and_loop_paths_agree(self):
        m = FrobeniusModel(4, 3)
        for b in (0, 1, 17, m.M - 1):
            fast = verify_det_induction(m, b)
            slow = _walk(MonomialRep(m, b))
            assert fast["pass"] is True and slow == []

    def test_small_grid(self):
        for q in (2, 3, 4, 5):
            for d in (1, 2, 3):
                m = FrobeniusModel(q, d)
                for b in range(min(m.M, 40)):
                    assert verify_det_induction(m, b)["pass"], (q, d, b)


class TestOracleCatchesWrongDeterminant:
    """det_of is made to return an exponent off by one; an oracle that can
    fail must report the identity broken."""

    CASE = (4, 3, 17)

    @staticmethod
    def _perturb(monkeypatch):
        from cryslift import induction

        exact = induction.det_of

        def off_by_one(rep, element):
            sign, exp = exact(rep, element)
            return sign, (exp + 1) % rep.model.M

        monkeypatch.setattr(induction, "det_of", off_by_one)

    def test_loop_path_catches_it(self, monkeypatch):
        q, d, b = self.CASE
        self._perturb(monkeypatch)
        counterexamples = _walk(MonomialRep(FrobeniusModel(q, d), b))
        assert counterexamples
        assert {c["where"] for c in counterexamples} == {"H", "generators"}

    def test_default_path_at_m_1_is_the_walk(self, monkeypatch):
        # M = 1 (q = 2, d = 1) has no vectorized path: the walk reads det_of,
        # here with its sign flipped, since every exponent mod 1 is 0
        from cryslift import induction

        exact = induction.det_of
        monkeypatch.setattr(induction, "det_of",
                            lambda rep, element: (-exact(rep, element)[0], 0))
        report = verify_det_induction(FrobeniusModel(2, 1), 0)
        assert report["counterexamples"] == [
            {"where": "H", "h": 0, "det": [-1, 0], "expected": [1, 0]}]

    @pytest.mark.xfail(reason="the vectorized path never reads det_of's "
                       "exponents: both of its sides follow from sum b*q^i = b*N mod M")
    def test_default_path_catches_it(self, monkeypatch):
        q, d, b = self.CASE
        self._perturb(monkeypatch)
        assert not verify_det_induction(FrobeniusModel(q, d), b)["pass"]
