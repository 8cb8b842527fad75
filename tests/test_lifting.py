import dataclasses
import json
import pickle
import random

import pytest

from cryslift import cli, lifting
from cryslift.errors import InfeasibleError
from cryslift.fields import FiniteFieldSpec, MultChar, digits
from cryslift.lifting import (
    DetSpec,
    LocalFieldShape,
    irr_crys_lift,
)
from cryslift.sweep import SweepConfig, run_sweep
from cryslift.units import UnitExpr

U = UnitExpr.symbol("psi(varpi_F)")


def make_shape(p, f, e, d, t=None):
    return LocalFieldShape(p, f, e, d, t if t is not None else p ** f - 1)


def sigma_E_pairs(f, e, d):
    """(Sigma_F index, Sigma_E0 index) of every Sigma_E index, enumerated
    from the wire-format definition: the flat index i0*e*d + r*d + l is
    the embedding above i0*e + r and i0 + f*l."""
    return [(i0 * e + r, i0 + f * l) for i0 in range(f) for r in range(e) for l in range(d)]


def e0_fibres(shape, k):
    """Sigma_E0 fibres as the builder reads them: column l of the Sigma_F
    fibres above i0 is the fibre of j = i0 + f*l."""
    fibres = shape.F_fibres(k)
    return {i0 + shape.f * l: col for i0 in range(shape.f)
            for l, col in enumerate(zip(*fibres[shape.F_blocks[i0]]))}


class TestLayout:
    def test_counting_small(self):
        shape = make_shape(3, 1, 1, 2)
        assert (shape.size_F, shape.f * shape.d, shape.size_E) == (1, 2, 2)

    def test_counting_ramified(self):
        shape = make_shape(2, 2, 3, 2)
        assert (shape.size_F, shape.f * shape.d, shape.size_E) == (6, 4, 12)
        a, b, k = range(shape.size_F), range(shape.f * shape.d), range(shape.size_E)
        assert all(len(a[shape.F_blocks[i0]]) == 3 for i0 in range(shape.f))
        assert all(len(b[shape.J_blocks[i0]]) == 2 for i0 in range(shape.f))
        assert all(len(k[shape.E_blocks[i0]]) == 6 for i0 in range(shape.f))

    def test_degenerate_d1(self):
        shape = make_shape(5, 1, 1, 1)
        assert shape.size_F == shape.size_E == 1

    def test_pairing_bijection(self):
        shape = make_shape(3, 2, 2, 3)
        idx = tuple(range(shape.size_E))
        above_F = {t: s for s, fib in enumerate(shape.F_fibres(idx)) for t in fib}
        above_E0 = {t: j for j, fib in e0_fibres(shape, idx).items() for t in fib}
        assert len(above_F) == len(above_E0) == shape.size_E  # the fibres cover Sigma_E
        assert len({(above_F[t], above_E0[t]) for t in idx}) == shape.size_E
        for t in idx:
            # both restrict to the same sigma_0
            assert above_F[t] // shape.e == above_E0[t] % shape.f

    def test_order_depends_on_f_e_d_only(self):
        # every slice of the order is the same for any p and t
        x, y = make_shape(3, 2, 2, 3), make_shape(5, 2, 2, 3, 48)
        assert (x.size_F, x.f * x.d, x.size_E) == (y.size_F, y.f * y.d, y.size_E)
        assert (x.F_blocks, x.J_blocks, x.E_blocks) == (y.F_blocks, y.J_blocks, y.E_blocks)
        idx = tuple(range(x.size_E))
        assert x.F_fibres(idx) == y.F_fibres(idx)
        assert e0_fibres(x, idx) == e0_fibres(y, idx)

    @pytest.mark.parametrize("f,e,d", [
        (f, e, d) for f in range(1, 5) for e in range(1, 5) for d in range(1, 5)
    ])
    def test_slice_fibres_match_sigma_E_scans(self, f, e, d):
        shape = make_shape(2, f, e, d)
        pairs = sigma_E_pairs(f, e, d)
        k = tuple(range(100, 100 + shape.size_E))
        assert shape.F_fibres(k) == [
            tuple(k[t] for t, (sig, _) in enumerate(pairs) if sig == s)
            for s in range(shape.size_F)
        ]
        columns = e0_fibres(shape, k)
        assert sorted(columns) == list(range(shape.f * shape.d))
        for j0 in range(shape.f * shape.d):
            scan = [k[t] for t, (_, j) in enumerate(pairs) if j == j0]
            assert list(columns[j0]) == scan
        for i0 in range(f):
            assert list(range(shape.size_F)[shape.F_blocks[i0]]) == [
                s for s in range(shape.size_F) if s // e == i0]
            assert list(range(shape.f * shape.d)[shape.J_blocks[i0]]) == [
                j for j in range(shape.f * shape.d) if j % f == i0]
            assert list(k[shape.E_blocks[i0]]) == [
                k[t] for t, (sig, _) in enumerate(pairs) if sig // e == i0]

    def test_cached_values_keep_identity(self):
        """The per-shape slices and shape object are built once, on first
        use.  They change no ==, hash or repr, ride along a pickle (the
        sweep sends shapes to its workers by pickle), and
        dataclasses.replace builds them anew."""
        shape, fresh = make_shape(3, 2, 2, 3), make_shape(3, 2, 2, 3)
        assert shape.F_blocks == [slice(0, 2), slice(2, 4)]
        assert shape.J_blocks == [slice(0, 6, 2), slice(1, 6, 2)]
        assert shape.E_blocks == [slice(0, 6), slice(6, 12)]
        doc = shape.to_json()
        assert doc == {"p": "3", "f": "2", "e": "2", "d": "3", "t": "8"}
        doc["d"] = "4"  # each call returns a copy of its own
        assert shape.to_json()["d"] == "3"
        assert shape == fresh and hash(shape) == hash(fresh)
        assert repr(shape) == repr(fresh) == "LocalFieldShape(p=3, f=2, e=2, d=3, t=8)"
        clone = pickle.loads(pickle.dumps(shape))
        assert clone == shape and hash(clone) == hash(shape)
        assert (clone.F_blocks, clone.J_blocks, clone.E_blocks, clone.to_json()) == (
            shape.F_blocks, shape.J_blocks, shape.E_blocks, shape.to_json())
        wider = dataclasses.replace(shape, f=1, e=3, t=2)
        assert (wider.F_blocks, wider.J_blocks, wider.E_blocks) == (
            [slice(0, 3)], [slice(0, 3, 1)], [slice(0, 9)])
        assert wider.to_json() == {"p": "3", "f": "1", "e": "3", "d": "3", "t": "2"}

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            LocalFieldShape(4, 1, 1, 1, 3)
        with pytest.raises(ValueError):
            LocalFieldShape(3, 2, 1, 1, 3)  # t not multiple of q-1=8


class TestCompatCheck:
    """The compatibility congruence, through the builder: a compatible
    input gets a certificate that records it, an incompatible one none."""

    def test_known_example_true(self):
        shape = make_shape(3, 1, 1, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 2), 5)
        assert irr_crys_lift(tb, DetSpec((3,), U), shape).checks["eq_one_compat"] is True

    def test_known_example_false(self):
        shape = make_shape(3, 1, 1, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 2), 5)
        with pytest.raises(InfeasibleError, match="incompatible"):
            irr_crys_lift(tb, DetSpec((4,), U), shape)

    def test_trivial_character(self):
        shape = make_shape(3, 1, 1, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 2), 0)
        assert irr_crys_lift(tb, DetSpec((0,), U), shape).checks["eq_one_compat"] is True

    def test_wrong_residue_field(self):
        shape = make_shape(3, 1, 1, 2, 2)
        with pytest.raises(ValueError):
            irr_crys_lift(
                MultChar(FiniteFieldSpec(3, 1), 1),
                DetSpec((0,), U),
                shape,
            )

    @pytest.mark.parametrize("n", [3, 5])
    def test_wrong_exponent_count_rejected(self, n):
        # |Sigma_F| = e*f = 4: a tuple one short or one long is bad input
        shape = make_shape(3, 2, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 4), 5)
        psi = DetSpec((0,) * n, U)
        with pytest.raises(ValueError, match=rf"length {n}, expected \|Sigma_F\| = 4"):
            irr_crys_lift(tb, psi, shape)


def check_lift_conditions(k, theta_bar, a, shape):
    """Conditions of the weight construction, recomputed from scratch."""
    p, e, d, f = shape.p, shape.e, shape.d, shape.f
    pairs = sigma_E_pairs(f, e, d)
    # (3): exact sums over Sigma_F fibres
    for s in range(shape.size_F):
        assert sum(k[t] for t, (sig, _) in enumerate(pairs) if sig == s) == a[s]
    if d == 1:
        return
    # (1): global distinctness
    assert len(set(k)) == shape.size_E
    # (2): digit congruences over Sigma_E0 fibres
    b = digits(theta_bar).digits
    for j0 in range(shape.f * shape.d):
        tot = sum(k[t] for t, (_, j) in enumerate(pairs) if j == j0)
        assert (tot - b[j0]) % (p - 1) == 0
    # block separation in canonical sigma_0 order
    prev = None
    for i0 in range(f):
        block = [abs(v) for v in k[shape.E_blocks[i0]]]
        if prev is not None:
            assert min(block) > prev
        prev = max(block)


class TestLiftTheta:
    def test_worked_example(self):
        shape = make_shape(3, 1, 1, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 2), 5)
        k = irr_crys_lift(tb, DetSpec((3,), U), shape).weights
        assert k == (2, 1)
        check_lift_conditions(k, tb, (3,), shape)

    def test_p2_vacuous_congruences(self):
        shape = make_shape(2, 1, 2, 3)
        tb = MultChar(FiniteFieldSpec(2, 3), 5)
        a = (4, -1)
        k = irr_crys_lift(tb, DetSpec(a, U), shape).weights
        check_lift_conditions(k, tb, a, shape)

    def test_d1_forced(self):
        shape = make_shape(5, 1, 2, 1)
        tb = MultChar(FiniteFieldSpec(5, 1), 2)
        a = (2, 0)
        # compat: a_0 + a_1 = 2 == digit of b=2 mod 4
        k = irr_crys_lift(tb, DetSpec(a, U), shape).weights
        assert k == a

    def test_incompatible_rejected(self):
        shape = make_shape(3, 1, 1, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 2), 5)
        with pytest.raises(InfeasibleError):
            irr_crys_lift(tb, DetSpec((4,), U), shape)

    def test_multi_block_shapes(self):
        rng = random.Random(11)
        for p, f, e, d in [(3, 2, 2, 2), (2, 2, 3, 2), (5, 1, 3, 3), (3, 1, 1, 4)]:
            shape = make_shape(p, f, e, d)
            big_q = p ** (f * d)
            for _ in range(25):
                b = rng.randrange(big_q - 1)
                tb = MultChar(FiniteFieldSpec(p, f * d), b)
                bd = digits(tb).digits
                a = []
                for i0 in range(f):
                    block = [rng.randint(-10, 10) for _ in range(e)]
                    target = sum(bd[j] for j in range(i0, f * d, f))
                    block[0] += (target - sum(block)) % (p - 1)
                    a.extend(block)
                k = irr_crys_lift(tb, DetSpec(tuple(a), U), shape).weights
                check_lift_conditions(k, tb, tuple(a), shape)


class TestIrrCrysLift:
    def test_worked_example_certificate(self):
        shape = make_shape(3, 1, 1, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 2), 5)
        cert = irr_crys_lift(tb, DetSpec((3,), U), shape)
        assert cert.weights == (2, 1)
        assert cert.theta_uniformizer == U.negate()
        assert all(v is not False for v in cert.checks.values())

    def test_d1_identity_case(self):
        shape = make_shape(5, 1, 1, 1)
        tb = MultChar(FiniteFieldSpec(5, 1), 2)
        cert = irr_crys_lift(tb, DetSpec((2,), U), shape)
        assert cert.weights == (2,)
        assert cert.theta_uniformizer == U  # (-1)^0 twist
        assert cert.checks["lifts_theta_bar"] is None
        assert cert.checks["weights_distinct"] is None
        assert cert.checks["regular"] is True

    def test_incompatible_inputs_no_certificate(self):
        shape = make_shape(3, 1, 1, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 2), 5)
        with pytest.raises(InfeasibleError):
            irr_crys_lift(tb, DetSpec((4,), U), shape)

    def test_odd_d_keeps_sign(self):
        shape = make_shape(2, 1, 1, 3)
        tb = MultChar(FiniteFieldSpec(2, 3), 5)
        cert = irr_crys_lift(tb, DetSpec((0,), U), shape)
        assert cert.theta_uniformizer == U


class TestRecordedChecksCanFail:
    """Weights that break an identity are recorded as failing it: the
    weight builder is replaced by one that returns tampered weights."""

    CASES = [(3, 2, 2, 3, 11), (5, 1, 3, 2, 7), (2, 2, 2, 2, 9), (3, 1, 2, 4, 20),
             (2, 1, 3, 3, 5)]

    @staticmethod
    def _lift(monkeypatch, case, tamper):
        p, f, e, d, b = case
        shape = make_shape(p, f, e, d)
        tb = MultChar(FiniteFieldSpec(p, f * d), b)
        bd = digits(tb).digits
        a = []
        for i0 in range(f):
            block = [2 * i0 + 1] * e
            block[0] += (sum(bd[j] for j in range(i0, f * d, f)) - sum(block)) % (p - 1)
            a.extend(block)
        build = lifting._build_weights

        def tampered(*args):
            k = list(build(*args))
            tamper(k, d)
            return tuple(k)

        monkeypatch.setattr(lifting, "_build_weights", tampered)
        return irr_crys_lift(tb, DetSpec(tuple(a), U), shape).checks

    @pytest.mark.parametrize("case", CASES)
    def test_untampered_weights_pass(self, monkeypatch, case):
        checks = self._lift(monkeypatch, case, lambda k, d: None)
        assert all(v is not False for v in checks.values())

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("index", [0, 1, -1])
    def test_perturbed_entry_breaks_det_on_units(self, monkeypatch, case, index):
        def perturb(k, d):
            k[index] += 1

        assert self._lift(monkeypatch, case, perturb)["det_on_units"] is False

    @pytest.mark.parametrize("case", CASES)
    def test_swap_across_fibres_breaks_det_on_units(self, monkeypatch, case):
        def swap(k, d):  # first entries of the Sigma_F fibres 0 and 1
            k[0], k[d] = k[d], k[0]

        assert self._lift(monkeypatch, case, swap)["det_on_units"] is False

    @pytest.mark.parametrize("case", [c for c in CASES if c[0] > 2])
    def test_shift_within_fibre_breaks_lifts_theta_bar(self, monkeypatch, case):
        def shift(k, d):  # keeps the row sum, moves two column sums by +-1
            k[0] += 1
            k[1] -= 1

        checks = self._lift(monkeypatch, case, shift)
        assert checks["det_on_units"] is True
        assert checks["lifts_theta_bar"] is False

    @pytest.mark.parametrize("case", [c for c in CASES if c[0] == 2])
    def test_repeated_weight_breaks_weights_distinct(self, monkeypatch, case):
        def repeat(k, d):  # p = 2: every column congruence is mod 1
            delta = k[d] - k[0]
            k[0] += delta
            k[1] -= delta

        checks = self._lift(monkeypatch, case, repeat)
        assert checks["det_on_units"] is True and checks["lifts_theta_bar"] is True
        assert checks["weights_distinct"] is False

    @pytest.mark.parametrize("case", CASES)
    def test_repeat_inside_fibre_breaks_regular(self, monkeypatch, case):
        def repeat(k, d):  # the first two weights of the Sigma_F fibre 0
            k[1] = k[0]

        checks = self._lift(monkeypatch, case, repeat)
        assert checks["weights_distinct"] is False
        assert checks["regular"] is False

    @pytest.mark.parametrize("case", CASES)
    def test_repeat_across_fibres_keeps_regular(self, monkeypatch, case):
        def repeat(k, d):  # the Sigma_F fibre 1 takes fibre 0's first weight
            k[d] = k[0]

        checks = self._lift(monkeypatch, case, repeat)
        assert checks["weights_distinct"] is False
        assert checks["regular"] is True

    @pytest.mark.parametrize("case", [c for c in CASES if c[1] >= 2])
    def test_swap_across_blocks_breaks_block_separation(self, monkeypatch, case):
        e = case[2]

        def swap(k, d):  # the first weights of the i0-blocks 0 and 1
            k[0], k[e * d] = k[e * d], k[0]

        checks = self._lift(monkeypatch, case, swap)
        assert checks["weights_distinct"] is True and checks["regular"] is True
        assert checks["block_separation"] is False

    @pytest.mark.parametrize("case", CASES)
    def test_unflipped_sign_breaks_det_at_uniformizer(self, monkeypatch, case):
        """With negate returning its unit unchanged, theta(varpi_E) keeps
        psi(varpi_F)'s sign: an even d records the identity as failing."""
        monkeypatch.setattr(UnitExpr, "negate", lambda self: self)
        checks = self._lift(monkeypatch, case, lambda k, d: None)
        assert checks["det_at_uniformizer"] is (case[3] % 2 == 1)


class TestSolverFaultFailsARecordedCheck:
    """A transport block off by one in a single entry reaches every caller
    of the real lift path as a failing recorded check, not as an exception."""

    @pytest.fixture
    def faulty_transport(self, monkeypatch):
        solve = lifting.regular_transport

        def faulty(a, b, m, C):
            sol = solve(a, b, m, C)
            sol[0][0] += 1
            return sol

        monkeypatch.setattr(lifting, "regular_transport", faulty)

    def test_lift_records_det_on_units_false(self, faulty_transport):
        shape = make_shape(3, 1, 1, 2, 2)
        tb = MultChar(FiniteFieldSpec(3, 2), 5)
        assert irr_crys_lift(tb, DetSpec((3,), U), shape).checks["det_on_units"] is False

    def test_cli_lift_exits_4(self, faulty_transport, capsys):
        code = cli.main(["lift", "--p", "3", "--f", "1", "--e", "1", "--d", "2", "--t", "2",
                         "--theta-bar", "5", "--a", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc["kind"] == "internal-invariant"
        assert "identity det_on_units fails on recomputation" in doc["error"]

    def test_sweep_records_the_failing_rows(self, faulty_transport):
        report = run_sweep(SweepConfig(p_values=(3,), f_max=1, e_max=2, d_max=2,
                                       thetas_per_cell=None, record="failures"))
        rows = report["instances"]
        # every d = 2 instance runs the faulty transport; d = 1 does not
        assert [r["id"] for r in rows] == [
            f"p=3,f=1,e={e},d=2,t=2,b={b}" for e in (1, 2) for b in range(8)]
        assert report["totals"] == {"instances": 20, "passed": 4, "failed": 16}
        assert all("identity det_on_units fails on recomputation" in r["violations"]
                   for r in rows)
