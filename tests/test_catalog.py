"""Surface catalog tests."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import seshadri.cli as cli
from seshadri.bounds import upper_bound
from seshadri.catalog import SurfaceKind, SurfaceSyntaxError, make_surface, known_value, parse_surface
from seshadri.plane import PlaneValueStatus


class TestMakeSurface:
    def test_plane(self):
        s = make_surface(SurfaceKind.PROJECTIVE_PLANE)
        assert s.k == 1 and s.very_ample

    def test_hypersurface(self):
        s = make_surface(SurfaceKind.HYPERSURFACE_P3, 5)
        assert s.k == 5 and s.very_ample

    def test_k3_parity(self):
        assert make_surface(SurfaceKind.GENERAL_K3, 4).k == 4
        with pytest.raises(ValueError):
            make_surface(SurfaceKind.GENERAL_K3, 5)

    def test_k3_degree_two_not_very_ample(self):
        assert not make_surface(SurfaceKind.GENERAL_K3, 2).very_ample
        assert make_surface(SurfaceKind.GENERAL_K3, 4).very_ample

    def test_abelian_doubles_parameter(self):
        s = make_surface(SurfaceKind.ABELIAN_TYPE_1D, 3)
        assert s.k == 6 and not s.very_ample

    def test_custom_flags_assumption(self, capsys):
        s = make_surface(SurfaceKind.CUSTOM, 35, very_ample=True)
        assert s.k == 35 and s.very_ample
        assert cli.main(["bounds", "--surface", s.label(), "--r", "101", "--format", "json"]) == 0
        notes = json.loads(capsys.readouterr().out)["notes"]
        assert any("assumption" in n for n in notes)

    @given(st.integers(min_value=1, max_value=500))
    def test_kind_invariants_hold_for_any_parameter(self, p):
        ab = make_surface(SurfaceKind.ABELIAN_TYPE_1D, p)
        assert ab.k == 2 * p
        if p % 2 == 0 and p >= 2:
            assert make_surface(SurfaceKind.GENERAL_K3, p).k % 2 == 0
        if p >= 4:
            assert make_surface(SurfaceKind.HYPERSURFACE_P3, p).k == p


class TestKnownValue:
    def test_plane_seven_points(self):
        res = known_value(make_surface(SurfaceKind.PROJECTIVE_PLANE), 7)
        assert res.bound.value == Fraction(3, 8)
        assert res.status is PlaneValueStatus.KNOWN

    def test_plane_sixteen_points(self):
        res = known_value(make_surface(SurfaceKind.PROJECTIVE_PLANE), 16)
        assert res.bound.value == Fraction(1, 4)
        assert res.status is PlaneValueStatus.PROVED_SQUARE

    def test_k3_has_no_recorded_value(self):
        assert known_value(make_surface(SurfaceKind.GENERAL_K3, 4), 5) is None

    def test_known_values_respect_upper_bound(self):
        plane = make_surface(SurfaceKind.PROJECTIVE_PLANE)
        for r in range(1, 100):
            res = known_value(plane, r)
            assert res.bound.value <= upper_bound(1, r).value


class TestParseSurface:
    @pytest.mark.parametrize(
        "text,kind,k,va",
        [
            ("p2", SurfaceKind.PROJECTIVE_PLANE, 1, True),
            ("k3:4", SurfaceKind.GENERAL_K3, 4, True),
            ("hyp:150", SurfaceKind.HYPERSURFACE_P3, 150, True),
            ("ab:3", SurfaceKind.ABELIAN_TYPE_1D, 6, False),
            ("custom:35,va", SurfaceKind.CUSTOM, 35, True),
            ("custom:35", SurfaceKind.CUSTOM, 35, False),
        ],
    )
    def test_round_trips(self, text, kind, k, va):
        s = parse_surface(text)
        assert (s.kind, s.k, s.very_ample) == (kind, k, va)
        assert parse_surface(s.label()) == s

    @pytest.mark.parametrize("bad", ["", "p2:1", "p2:", "k3:", "k3:x", "weird:3", "hyp:3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_surface(bad)

    @pytest.mark.parametrize("bad", ["", "weird:3", "P2", "CUSTOM:3", "k3 :4"])
    def test_unknown_kind_is_a_syntax_error(self, bad):
        with pytest.raises(SurfaceSyntaxError, match="unknown surface"):
            parse_surface(bad)

    @pytest.mark.parametrize("bad", ["custom:0", "custom:0,va", "k3:0", "ab:00", "hyp:0", "k3:\u00b2"])
    def test_parameter_must_be_a_positive_decimal(self, bad):
        with pytest.raises(SurfaceSyntaxError):
            parse_surface(bad)
