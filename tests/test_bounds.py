"""Bounds module tests: published comparison values and global invariants."""

import copy
import dataclasses
import hashlib
import inspect
import pickle
import random
from fractions import Fraction

import pytest
from conftest import unlimited_int_digits
from hypothesis import given, strategies as st
from oracles import (
    band_cutoff_by_steps,
    biran_product_value,
    candidates_by_interval,
    compare_bounds_by_fractions,
    dominance_scan_bands,
)

import seshadri.bounds as bounds
import seshadri.exact as exact
from seshadri.bounds import (
    BoundEntry,
    BoundReport,
    compare_bounds,
    enumerate_exceptional_candidates,
    generic_lower_value,
    harbourne_bound,
    main_lower_bound,
    upper_bound,
)
from seshadri.exact import Surd, _sqrt_ratio, isqrt, render_decimal
from seshadri.inequalities import el_xu_feasible, is_square, is_subgeneric, subgeneric_unit_length
from seshadri.pell import fsst_applicable, szemberg_single_point_bound
from seshadri.plane import BoundValue, PlaneValueStatus, nagata_plane_value
from seshadri.threshold import dominance_scan, szemberg_floor_bound


class TestUpperBound:
    def test_35_101(self):
        u = upper_bound(35, 101)
        assert not u.attained
        assert render_decimal(u.value, 4) == "0.5886"

    def test_perfect_ratio(self):
        assert upper_bound(9, 1).value == Fraction(3)

    def test_canonicalization(self):
        u = upper_bound(6, 2).value
        assert (u.coeff, u.radicand) == (Fraction(1), 3)


class TestMainLowerBound:
    def test_150_10(self):
        res = main_lower_bound(150, 10)
        assert res.bound.value == Surd.sqrt(Fraction(180, 13))
        assert render_decimal(res.bound.value, 2) == "3.72"

    def test_two_six_special_case(self):
        # the CLI's note on it is pinned by the golden case bounds-two-six
        res = main_lower_bound(6, 2)
        assert res.bound.value == Fraction(3, 2)
        assert not res.bound.conditional
        assert res.candidates == ()
        # strictly below the generic formula value sqrt(12/5)
        assert res.bound.value < generic_lower_value(6, 2)

    def test_35_101(self):
        res = main_lower_bound(35, 101)
        assert res.bound.conditional
        assert render_decimal(res.bound.value, 4) == "0.5858"

    def test_guaranteed_takes_candidate_minimum(self):
        res = main_lower_bound(1, 5)
        assert res.candidates
        assert res.guaranteed == Fraction(2, 5)

    def test_guaranteed_matches_the_checked_constructor(self):
        seen = 0
        for k in range(1, 61):
            for r in range(2, 61):
                res = main_lower_bound(k, r)
                ours = res.guaranteed
                if res.candidates:
                    seen += 1
                    least = Surd(res.candidates[0].value)
                    assert (ours.num, ours.den, ours.radicand) == (least.num, least.den, least.radicand), (k, r)
                else:
                    assert ours is res.bound.value
        assert seen > 0


class TestExceptionalCandidates:
    def test_6_2_empty(self):
        assert enumerate_exceptional_candidates(6, 2) == ()

    def naive_candidates(self, k, r):
        """Independent double-loop oracle over a safely large d range."""
        g_sq = Fraction((r + 2) * k, (r + 3) * r)
        out = []
        for d in range(1, isqrt(r // k) + 2 if k <= r else 2):
            for s in range(1, r + 1):
                if s - 1 <= d * d * k and Fraction(d * k, s) ** 2 < g_sq:
                    out.append((d, s, Fraction(d * k, s)))
        out.sort(key=lambda t: (t[2], t[0], t[1]))
        return out

    @pytest.mark.parametrize(
        "k,r",
        [(1, 2), (1, 5), (1, 9), (2, 7), (3, 11), (6, 2), (2, 50),
         (1, 2000), (55, 600), (3, 400), (50, 50)],
    )
    def test_against_naive_oracle(self, k, r):
        ours = [(c.d, c.s, c.value) for c in enumerate_exceptional_candidates(k, r)]
        assert ours == self.naive_candidates(k, r)


class TestCandidatesAgainstIntervals:
    """The one-point candidate list against its predecessor, which built
    an interval of s for each d from an isqrt estimate and sorted them."""

    @staticmethod
    def assert_same(pairs):
        found = 0
        for k, r in pairs:
            expected = candidates_by_interval(k, r)
            assert enumerate_exceptional_candidates(k, r) == expected, (k, r)
            found += len(expected)
        return found

    def test_every_k_to_60_and_r_to_300(self):
        assert self.assert_same((k, r) for k in range(1, 61) for r in range(2, 301)) > 0

    def test_wide_shaped_queries(self):
        rng = random.Random(25)
        pairs = [(_log_uniform(rng, 1, 10**9), _log_uniform(rng, 2, 10**4)) for _ in range(3000)]
        pairs += [(1, r) for r in range(9800, 10**4 + 1)]
        pairs += [(k, r) for k in range(50, 61) for r in range(2400, 2601)]
        assert self.assert_same(pairs) > 0

    def test_one_and_two_points_past_each_budget(self):
        # r = d^2*k + 1 and d^2*k + 2 are the only r at which d can hit.
        pairs = [(k, d * d * k + j) for k in range(1, 61) for d in range(1, 201) for j in (1, 2)]
        assert self.assert_same(pairs) > 0


class TestSubgenericUnitLength:
    def test_against_the_definition(self):
        # Every s <= r whose all-ones vector is EL-Xu feasible and
        # sub-generic at r: at most one, the top length min(r, d2k + 1),
        # and only for d2k < r <= d2k + 2.
        hits = 0
        for d2k in range(1, 201):
            for r in range(2, 401):
                lengths = [
                    s for s in range(1, r + 1) if el_xu_feasible(d2k, s, 1) and is_subgeneric(d2k, s, r)
                ]
                assert lengths in ([], [min(r, d2k + 1)]), (d2k, r)
                assert not lengths or d2k < r <= d2k + 2, (d2k, r)
                assert subgeneric_unit_length(d2k, r) == sum(lengths), (d2k, r)
                hits += len(lengths)
        assert hits > 0


class TestSzembergFloor:
    @pytest.mark.parametrize(
        "k,r,expected",
        [(150, 10, 3), (1050, 10, 10), (5, 10, 0), (2500, 10, 15), (9, 1, 3)],
    )
    def test_examples(self, k, r, expected):
        assert szemberg_floor_bound(k, r) == expected

    def test_zero_iff_k_below_r(self):
        for k in range(1, 60):
            for r in range(1, 60):
                assert (szemberg_floor_bound(k, r) == 0) == (k < r)


class TestHarbourne:
    def test_6_10(self):
        res = harbourne_bound(6, 10)
        assert res.bound.value == Fraction(3, 4)
        winner = max(res.elements, key=lambda e: e.value)
        assert winner.source == "ceil-multiple"
        assert (winner.num, winner.den) == (6, 8)

    def test_7_10(self):
        res = harbourne_bound(7, 10)
        assert res.bound.value == Fraction(4, 5)
        assert max(res.elements, key=lambda e: e.value).source == "floor-multiple"

    def test_35_101(self):
        res = harbourne_bound(35, 101)
        assert res.bound.value == Fraction(59, 101)
        assert Fraction(35, 60) in {e.value for e in res.elements}
        raw = {(e.num, e.den) for e in res.elements}
        assert {(59, 101), (35, 60), (1, 2)} == raw

    def test_exceptional_case(self):
        # k <= r and r*k a perfect square: supremum only
        res = harbourne_bound(1, 4)
        assert not res.bound.attained
        assert res.bound.value == Surd.sqrt(Fraction(1, 4))

    def test_exceptional_value_against_the_factored_root(self):
        # The exceptional value is built as isqrt(r*k)/r over one gcd; it
        # must be the canonical Surd that factoring k and r apart gives.
        pairs = [(k, r) for r in range(1, 501) for k in range(1, r + 1) if is_square(r * k)]
        assert len(pairs) > 500
        for k, r in pairs:
            res = harbourne_bound(k, r)
            got, want = res.bound.value, _sqrt_ratio(k, r)
            assert not res.bound.attained, (k, r)
            assert (got._num, got._den, got._rad) == (want._num, want._den, want._rad), (k, r)

    def test_the_maximum_builds_no_fraction(self, monkeypatch):
        # The maximum is found by cross-multiplying each element's num/den
        # and reduced by one gcd, so no element's value is built.
        want = {(k, r): harbourne_bound(k, r) for k, r in ((1, 50), (35, 101))}

        def no_fraction(*args):
            raise AssertionError(f"harbourne_bound built Fraction{args}")

        monkeypatch.setattr(bounds, "Fraction", no_fraction)
        assert {(k, r): harbourne_bound(k, r) for k, r in want} == want
        assert want[35, 101].bound.value == Fraction(59, 101)

    def test_k_above_r_only_singleton(self):
        res = harbourne_bound(35, 10)
        assert [e.source for e in res.elements] == ["unit-reciprocal"]
        assert res.bound.value == Fraction(1, 1)


class TestBiranProduct:
    def test_35_101(self):
        rep = compare_bounds(35, 101)
        prod = next(e for e in rep.entries if e.name == "biran-product").value.value
        assert prod == Surd(Fraction(35, 606), 101)
        assert render_decimal(prod, 4) == "0.5804"

    def test_identity(self):
        x = Surd.sqrt(Fraction(7, 3))
        assert Surd(Fraction(1)) * x == x

    def test_rational_product(self):
        assert Surd(Fraction(1)) * Fraction(2, 5) == Fraction(2, 5)

    # Four k from each of the benchmark's Pell tables: solutions of about
    # 2,600 and 4,500 digits.
    PELL_K = (106887466, 391454951, 719426705, 970814363)
    OVERFLOW_K = (129813574, 417416365, 683838295, 967662097)

    def test_matches_the_fraction_product_on_large_pell_k(self):
        for k in self.PELL_K + self.OVERFLOW_K:
            for r in (2, 8, 9, 150, 10**4):
                entry = next(e for e in compare_bounds(k, r).entries if e.name == "biran-product")
                with unlimited_int_digits():
                    assert entry.value.value == biran_product_value(k, r), (k, r)
                    assert entry.detail.pell.single_point_bound == szemberg_single_point_bound(k)

    def test_matches_the_fraction_product_to_k_200(self):
        for k in range(2, 201):
            if is_square(k):
                continue
            for r in list(range(2, 13)) + [16, 25, 49, 101]:
                entry = next(e for e in compare_bounds(k, r).entries if e.name == "biran-product")
                assert entry.value.value == biran_product_value(k, r), (k, r)


class TestNagataPlaneValue:
    @pytest.mark.parametrize(
        "r,value,status",
        [
            (1, Fraction(1), PlaneValueStatus.KNOWN),
            (2, Fraction(1, 2), PlaneValueStatus.KNOWN),
            (3, Fraction(1, 2), PlaneValueStatus.KNOWN),
            (4, Fraction(1, 2), PlaneValueStatus.KNOWN),
            (5, Fraction(2, 5), PlaneValueStatus.KNOWN),
            (6, Fraction(2, 5), PlaneValueStatus.KNOWN),
            (7, Fraction(3, 8), PlaneValueStatus.KNOWN),
            (8, Fraction(6, 17), PlaneValueStatus.KNOWN),
            (9, Fraction(1, 3), PlaneValueStatus.PROVED_SQUARE),
            (16, Fraction(1, 4), PlaneValueStatus.PROVED_SQUARE),
        ],
    )
    def test_exact_values(self, r, value, status):
        res = nagata_plane_value(r)
        assert res.bound.value == value
        assert res.status is status

    def test_conjectural_above_nine(self):
        res = nagata_plane_value(101)
        assert res.status is PlaneValueStatus.CONJECTURAL
        assert res.bound.value == Surd(Fraction(1, 101), 101)

    def test_all_values_at_most_optimal(self):
        for r in range(1, 200):
            res = nagata_plane_value(r)
            assert res.bound.value <= Surd.sqrt(Fraction(1, r))


class TestCompareBounds:
    def test_comparison_table_150_10(self):
        rep = compare_bounds(150, 10, very_ample=True)
        by_name = {e.name: e for e in rep.entries}
        assert render_decimal(by_name["main"].value.value, 2) == "3.72"
        assert by_name["szemberg-floor"].value.value == Fraction(3)
        # main beats floor here
        assert by_name["main"].value.value > by_name["szemberg-floor"].value.value

    def test_comparison_table_1050_10(self):
        rep = compare_bounds(1050, 10, very_ample=True)
        by_name = {e.name: e for e in rep.entries}
        assert render_decimal(by_name["main"].value.value, 2) == "9.84"
        assert by_name["szemberg-floor"].value.value == Fraction(10)
        assert by_name["szemberg-floor"].value.value > by_name["main"].value.value

    def test_comparison_table_2500_10(self):
        rep = compare_bounds(2500, 10, very_ample=True)
        by_name = {e.name: e for e in rep.entries}
        assert render_decimal(by_name["main"].value.value, 2) == "15.19"
        assert by_name["szemberg-floor"].value.value == Fraction(15)
        assert by_name["main"].value.value > by_name["szemberg-floor"].value.value

    def test_entries_sorted_descending_with_tied_ranks(self):
        rep = compare_bounds(35, 101, very_ample=True)
        values = [e.value.value * e.value.value for e in rep.entries]
        assert values == sorted(values, reverse=True)
        assert rep.ranks[0] == 1
        # biran-product and harbourne are both 2/3 here: equal values share a rank
        tied = compare_bounds(2, 3, very_ample=True)
        assert [e.name for e in tied.entries] == ["main", "biran-product", "harbourne", "szemberg-floor"]
        assert tied.ranks == (1, 2, 2, 4)

    def test_every_desk_scale_report_is_pinned(self):
        # One digest over the repr of every report with k <= 200, 2 <= r <= 50,
        # with and without very-ampleness: values, order, ranks, candidates
        # and details.  It was taken from the Fraction-based Surd kernel, and
        # retaken when the records lost their prose fields (applicability,
        # attribution, annotation, winner, exceptional, note, form), and again
        # when the product's factor record stopped storing the single-point
        # value p0*k/q0, which its Pell solution gives, and again when the
        # n^2 +- 1 witness became its n (or None) and a Harbourne element
        # stopped storing its reduced value: each time the old reprs with
        # exactly those fields cut out hash to the new value.
        digest = hashlib.sha256()
        for very_ample in (False, True):
            for k in range(1, 201):
                for r in range(2, 51):
                    digest.update(repr(compare_bounds(k, r, very_ample=very_ample)).encode() + b"\n")
        assert digest.hexdigest() == "7a57f072ed645ab5f676058a9a0cb2f1b3faff096551ca96907d6f55570a1bb4"

    def test_harbourne_omitted_without_very_ample(self):
        rep = compare_bounds(35, 101, very_ample=False)
        assert "harbourne" not in {e.name for e in rep.entries}

    def test_biran_skipped_on_square_k(self):
        # the CLI's note on it is pinned by the golden case bounds-square-k
        rep = compare_bounds(36, 10, very_ample=False)
        assert "biran-product" not in {e.name for e in rep.entries}

    def test_biran_conjectural_flag(self):
        # k = 35 is 6^2 - 1 (proven single-point) but r = 101 is not a
        # square, so the plane factor keeps the product conjectural.
        rep = compare_bounds(35, 101, very_ample=False)
        biran = next(e for e in rep.entries if e.name == "biran-product")
        assert biran.conjectural
        # proven plane factor and proven single-point factor: not conjectural
        rep2 = compare_bounds(35, 9, very_ample=False)
        biran2 = next(e for e in rep2.entries if e.name == "biran-product")
        assert not biran2.conjectural

    def test_pell_solution_past_int_str_limit(self):
        # q0 has about 4500 digits, past the interpreter's default limit
        # for int-to-str conversion; the report holds it as data.
        rep = compare_bounds(129813574, 150)
        biran = next(e for e in rep.entries if e.name == "biran-product")
        sol = biran.detail.pell
        assert sol.q0 * sol.q0 - 129813574 * sol.p0 * sol.p0 == 1
        assert sol.q0 > 10**4300

    def test_entries_carry_their_source(self):
        rep = compare_bounds(35, 101, very_ample=True)
        by_name = {e.name: e for e in rep.entries}
        assert by_name["main"].detail == main_lower_bound(35, 101)
        assert by_name["harbourne"].detail == harbourne_bound(35, 101)
        assert by_name["szemberg-floor"].detail is None
        factors = by_name["biran-product"].detail
        assert (factors.pell.single_point_bound, factors.pell.q0, factors.witness) == (Fraction(35, 6), 6, 6)
        assert factors.plane == nagata_plane_value(101)


class TestReportRecords:
    """BoundEntry and BoundReport are frozen dataclasses with an __init__ of
    their own.  tests/oracles.py builds its reports through the same
    __init__, so a misassigned field would not show in a comparison with
    the oracle: these tests pin the constructor to the dataclass fields."""

    REPORT = compare_bounds(35, 101, very_ample=True)  # all four entries

    @pytest.fixture(params=["entry", "report"])
    def record(self, request):
        return self.REPORT.entries[0] if request.param == "entry" else self.REPORT

    def test_the_report_has_all_four_entries(self):
        assert {e.name for e in self.REPORT.entries} == {"main", "szemberg-floor", "harbourne", "biran-product"}

    @pytest.mark.parametrize("cls", [BoundEntry, BoundReport])
    def test_signature_is_the_fields_in_order_with_their_defaults(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in params] == [f.name for f in fields]
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
        for p, f in zip(params, fields):
            if f.default is dataclasses.MISSING:
                assert p.default is inspect.Parameter.empty, f.name
            else:
                assert p.default == f.default and type(p.default) is type(f.default), f.name

    @pytest.mark.parametrize("cls", [BoundEntry, BoundReport])
    def test_each_argument_lands_in_its_field(self, cls):
        args = {f.name: object() for f in dataclasses.fields(cls)}
        for built in (cls(**args), cls(*args.values())):
            assert all(getattr(built, name) is arg for name, arg in args.items())

    def test_replace_sets_each_field_alone(self, record):
        for field in dataclasses.fields(record):
            new = object()
            changed = dataclasses.replace(record, **{field.name: new})
            assert type(changed) is type(record)
            for other in dataclasses.fields(record):
                want = new if other is field else getattr(record, other.name)
                assert getattr(changed, other.name) is want, (field.name, other.name)

    def test_equal_records_are_equal_with_equal_hashes(self, record):
        twin = type(record)(**{f.name: getattr(record, f.name) for f in dataclasses.fields(record)})
        assert twin == record and hash(twin) == hash(record)
        again = compare_bounds(35, 101, very_ample=True)
        assert again is not self.REPORT
        assert again == self.REPORT and hash(again) == hash(self.REPORT)
        assert dataclasses.replace(record, **{dataclasses.fields(record)[0].name: None}) != record

    def test_repr_is_the_dataclass_repr(self, record):
        fields = ", ".join(f"{f.name}={getattr(record, f.name)!r}" for f in dataclasses.fields(record))
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_fields_cannot_be_set_or_deleted(self, record):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)
        assert self.REPORT == compare_bounds(35, 101, very_ample=True)

    def test_pickle_and_deepcopy_round_trips(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(self.REPORT, protocol))
            assert type(back) is BoundReport and back == self.REPORT
        copied = copy.deepcopy(self.REPORT)
        assert copied is not self.REPORT and copied == self.REPORT
        assert all(type(e) is BoundEntry for e in copied.entries)


def _log_uniform(rng, lo, hi):
    return round(lo * (hi / lo) ** rng.random())


class TestAgainstFractionAssembly:
    """compare_bounds against its predecessor, which built every value
    through a Fraction and ordered the entries with a comparator."""

    @staticmethod
    def assert_same_report(k, r, very_ample):
        # The overflowing Pell solutions print past the interpreter's
        # default int-to-str limit.
        with unlimited_int_digits():
            ours = repr(compare_bounds(k, r, very_ample=very_ample))
            assert ours == repr(compare_bounds_by_fractions(k, r, very_ample=very_ample)), (k, r, very_ample)

    def test_wide_shaped_inputs(self):
        rng = random.Random(23)
        queries = [(_log_uniform(rng, 10**3, 10**6), _log_uniform(rng, 10, 10**4)) for _ in range(60)]
        queries += [(rng.randint(50, 60), rng.randint(2400, 2600)) for _ in range(4)]
        queries += [(1, rng.randint(9800, 10**4)) for _ in range(2)]
        for k, r in queries:
            for very_ample in (False, True):
                self.assert_same_report(k, r, very_ample)

    def test_long_pell_solutions(self):
        rng = random.Random(5)
        for k in TestBiranProduct.PELL_K + TestBiranProduct.OVERFLOW_K:
            self.assert_same_report(k, rng.randint(100, 200), rng.random() < 0.5)

    @given(st.integers(1, 10**6), st.integers(2, 10**3), st.booleans())
    def test_random_draws(self, k, r, very_ample):
        self.assert_same_report(k, r, very_ample)


class TestWorkPerReport:
    """Each report takes its square roots from ints and builds no Surd
    through Surd.sqrt or the checked constructor: a Fraction round-trip
    that comes back shows up in these counts."""

    GRID = [(k, r) for k in range(1, 201, 3) for r in range(2, 51)] + [(6, 2), (2, 8), (35, 9)]

    @staticmethod
    def roots_taken(k, r, very_ample):
        """upper, the generic value and the plane value for r >= 9.
        Harbourne's exceptional value sqrt(k/r) is rational and is built
        from isqrt(r*k) and one gcd, so it factors nothing."""
        return 1 + ((r, k) != (2, 6)) + (k >= 2 and not is_square(k) and r >= 9)

    def test_counts_over_the_desk_grid(self, monkeypatch):
        counts = {"init": 0, "sqrt": 0, "squarefree": 0}
        post_init, sqrt, decompose = Surd.__post_init__, Surd.sqrt, exact.squarefree_decompose

        def counted_post_init(self, *args):
            counts["init"] += 1
            post_init(self, *args)

        def counted_sqrt(cls, q):
            counts["sqrt"] += 1
            return sqrt(q)

        def counted_decompose(n):
            counts["squarefree"] += 1
            return decompose(n)

        monkeypatch.setattr(Surd, "__post_init__", counted_post_init)
        monkeypatch.setattr(Surd, "sqrt", classmethod(counted_sqrt))
        monkeypatch.setattr(exact, "squarefree_decompose", counted_decompose)
        seen = set()
        for k, r in self.GRID:
            for very_ample in (False, True):
                counts.update(init=0, sqrt=0, squarefree=0)
                compare_bounds(k, r, very_ample=very_ample)
                assert counts["init"] == 0, (k, r, very_ample)
                assert counts["sqrt"] == 0, (k, r, very_ample)
                roots = self.roots_taken(k, r, very_ample)
                assert counts["squarefree"] == 2 * roots, (k, r, very_ample)
                seen.add(roots)
        assert seen == {1, 2, 3}


def _low_upper_bound(k, r):
    return BoundValue(Surd(Fraction(1)), attained=False)  # below floor(sqrt(150/10)) = 3


def _upper_three_halves(k, r):
    # At (35, 9) the floor 1 stays below it and the product 35/18 does not.
    return BoundValue(Surd(Fraction(3, 2)), attained=False)


class TestInvariantChecks:
    def test_unconditional_entry_above_optimal_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "upper_bound", _low_upper_bound)
        with pytest.raises(RuntimeError, match="szemberg-floor"):
            compare_bounds(150, 10)

    def test_product_alone_above_optimal_raises(self, monkeypatch):
        rep = compare_bounds(35, 9)
        by_name = {e.name: e.value for e in rep.entries}
        assert by_name["szemberg-floor"].value == 1 and not by_name["biran-product"].conditional
        assert by_name["biran-product"].value == Fraction(35, 18)
        monkeypatch.setattr(bounds, "upper_bound", _upper_three_halves)
        with pytest.raises(RuntimeError, match="unconditional biran-product bound"):
            compare_bounds(35, 9)


class TestGlobalDominance:
    def test_biran_with_proven_inputs_below_optimal(self):
        for k in range(2, 201):
            if isqrt(k) ** 2 == k or fsst_applicable(k) is None:
                continue
            single = szemberg_single_point_bound(k)
            for r in list(range(2, 10)) + [16, 25, 36, 49]:
                plane = nagata_plane_value(r)
                assert plane.status is not PlaneValueStatus.CONJECTURAL
                prod = plane.bound.value * single
                assert prod <= upper_bound(k, r).value


class TestDataBehindTheNotes:
    """The CLI keys its two-six and exceptional-case notes on these flags."""

    def test_main_is_unconditional_only_at_two_six(self):
        for k in range(1, 201):
            for r in range(2, 51):
                assert main_lower_bound(k, r).bound.conditional == ((r, k) != (2, 6)), (k, r)

    def test_harbourne_is_a_supremum_only_in_the_exceptional_case(self):
        for k in range(1, 201):
            for r in range(2, 51):
                exceptional = k <= r and isqrt(r * k) ** 2 == r * k
                assert harbourne_bound(k, r).bound.attained == (not exceptional), (k, r)


class TestRatioExactness:
    def test_ratio_of_main_to_upper(self):
        for k in (1, 6, 35, 150):
            for r in (2, 3, 10, 101):
                main, upper = generic_lower_value(k, r), upper_bound(k, r).value
                main_sq, upper_sq = (main * main).coeff, (upper * upper).coeff
                assert main_sq / upper_sq == Fraction(r + 2, r + 3)

    def test_ratio_increases_and_stays_below_one(self):
        prev = Fraction(0)
        for r in range(2, 500):
            ratio_sq = Fraction(r + 2, r + 3)
            assert prev < ratio_sq < 1
            prev = ratio_sq

    def test_ratio_approaches_one(self):
        # for any rational t < 1 some r makes the ratio exceed t
        for t in (Fraction(9, 10), Fraction(99, 100), Fraction(9999, 10000)):
            a, b = t.numerator, t.denominator
            r = max(2, (3 * a * a - 2 * b * b) // (b * b - a * a) + 1)
            assert Fraction(r + 2, r + 3) > t * t


class TestDominanceThreshold:
    def test_r2(self):
        assert dominance_scan(2, 1000).threshold == 162

    def test_cap_too_small(self):
        assert dominance_scan(10, 100).threshold is None

    def test_against_naive_scan_oracle(self):
        # direct Fraction-based re-scan, no shared code with the implementation
        def naive(r, cap):
            failures = [
                k
                for k in range(1, cap + 1)
                if Fraction(isqrt(k // r)) ** 2 < Fraction((r + 2) * k, (r + 3) * r)
            ]
            if not failures:
                return 1
            return None if failures[-1] == cap else failures[-1] + 1

        for r, cap in [(2, 1000), (3, 2000), (10, 10000), (7, 300)]:
            assert dominance_scan(r, cap).threshold == naive(r, cap)

    def test_band_certificate(self):
        scan = dominance_scan(10, 10000)
        assert scan.stable_beyond_cap
        assert scan.last_failure == 6249
        # every k from the cutoff up to a margin past the cap dominates
        for k in range(scan.band_cutoff, 12000):
            j = isqrt(k // 10)
            assert j * j * 13 * 10 >= 12 * k

    def test_against_bands_at_band_edges(self):
        # Caps at and next to every band edge j^2 r - 1, j^2 r, (j+1)^2 r - 1,
        # up to the band past the cutoff, so stable_beyond_cap flips too.
        for r in range(2, 41):
            cutoff = dominance_scan(r, 1).band_cutoff
            top = isqrt(cutoff // r) + 1
            caps = {
                cap
                for j in range(top + 1)
                for cap in (j * j * r - 1, j * j * r, (j + 1) ** 2 * r - 1)
                if cap >= 1
            }
            for cap in caps:
                assert dominance_scan(r, cap) == dominance_scan_bands(r, cap), (r, cap)

    def test_against_band_loop(self):
        # Every r below 300 on caps 1..399 and a cap far past every cutoff;
        # a few r past the band-edge test's range also at every band edge
        # j^2 r and (j+1)^2 r - 1 and its neighbours, up to the band past
        # the cutoff.
        for r in range(2, 300):
            caps = set(range(1, 400)) | {10**12}
            if r in (41, 97, 151):
                top = isqrt(band_cutoff_by_steps(r) // r) + 1
                caps |= {
                    edge + step
                    for j in range(top + 1)
                    for edge in (j * j * r, (j + 1) ** 2 * r - 1)
                    for step in (-1, 0, 1)
                    if edge + step >= 1
                }
            for cap in caps:
                assert dominance_scan(r, cap) == dominance_scan_bands(r, cap), (r, cap)

    def test_ten_million_points(self):
        # At r = 10^7 the certificate's j* is about 2 * 10^7, too far to
        # step to; (j* - 1, j*) bracket the certificate.
        r = 10**7
        scan = dominance_scan(r, 1)
        j = isqrt(scan.band_cutoff // r)
        assert j * j * r == scan.band_cutoff

        def certified(j):
            return j * j * r * (r + 3) >= (r + 2) * (r * (j + 1) ** 2 + r - 1)

        assert certified(j) and not certified(j - 1)
        assert (scan.threshold, scan.last_failure, scan.stable_beyond_cap) == (None, 1, False)

        def fails(k):
            f = isqrt(k // r)
            return f * f * (r + 3) * r < (r + 2) * k

        # Past the cutoff, the last failure ends a band, and the next band
        # end dominates.
        far = dominance_scan(r, 10**30)
        big_j = isqrt((far.last_failure + 1) // r)
        assert big_j * big_j * r == far.last_failure + 1
        assert fails(far.last_failure) and not fails((big_j + 1) ** 2 * r - 1)
        assert far.threshold == far.last_failure + 1 and far.stable_beyond_cap

    def test_far_cap_matches_near_cap(self):
        far = dominance_scan(10, 10**15)
        near = dominance_scan(10, 10**4)
        assert far.last_failure == near.last_failure == 6249
        assert far.threshold == near.threshold == 6250
