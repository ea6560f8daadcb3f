"""Finite Lorentzian length structures: relations, tau, verdicts."""

import itertools
import math

import numpy as np
import pytest

from lorcone import (CatalogError, CurveCatalog, check_bare_llspace,
                     derived_relations, derived_tau, llstructure)
from lorcone.bruteforce import enumerate_tau


def cat(curves, points=()):
    pts = list(points) + [c[0] for c in curves] + [c[1] for c in curves]
    return CurveCatalog(pts, curves)


class TestRelations:
    def test_single_causal_edge(self):
        c = cat([("x", "y", 1.0, "causal")])
        rel = derived_relations(c)
        i, j = rel.index("x"), rel.index("y")
        assert rel.le[i, j] and not rel.ll[i, j]

    def test_timelike_chain_closure(self):
        c = cat([("x", "y", 1.0, "timelike"), ("y", "z", 1.0, "timelike")])
        rel = derived_relations(c)
        assert rel.ll[rel.index("x"), rel.index("z")]

    def test_timelike_then_causal_not_chronological(self):
        # no push-up in the bare setting
        c = cat([("x", "y", 1.0, "timelike"), ("y", "z", 0.0, "causal")])
        rel = derived_relations(c)
        assert rel.le[rel.index("x"), rel.index("z")]
        assert not rel.ll[rel.index("x"), rel.index("z")]

    def test_empty_catalog_reflexive(self):
        c = CurveCatalog(["a", "b"], [])
        rel = derived_relations(c)
        assert rel.le[0, 0] and rel.le[1, 1]
        assert not rel.le[0, 1] and not rel.le[1, 0]
        assert not rel.ll.any()


class TestTau:
    def test_longest_concatenation(self):
        c = cat([("x", "y", 1.0, "timelike"), ("y", "z", 1.0, "timelike"),
                 ("x", "z", 3.0, "timelike")])
        tt = derived_tau(c)
        assert tt.tau("x", "z") == 3.0
        assert tt.tau("x", "y") == 1.0

    def test_chain_beats_direct(self):
        c = cat([("x", "y", 2.0, "timelike"), ("y", "z", 2.0, "timelike"),
                 ("x", "z", 3.0, "timelike")])
        assert derived_tau(c).tau("x", "z") == 4.0

    def test_positive_cycle_infinite(self):
        c = cat([("x", "y", 1.0, "timelike"), ("y", "x", 1.0, "timelike"),
                 ("y", "z", 0.5, "causal")])
        tt = derived_tau(c)
        assert tt.tau("x", "z") == math.inf
        assert tt.tau("x", "x") == math.inf
        assert tt.tau("z", "z") == 0.0

    def test_zero_cycle_finite(self):
        c = cat([("x", "y", 0.0, "causal"), ("y", "x", 0.0, "causal"),
                 ("y", "z", 2.0, "timelike")])
        tt = derived_tau(c)
        assert tt.tau("x", "z") == 2.0
        assert tt.tau("x", "x") == 0.0

    def test_unrelated_zero(self):
        c = cat([("x", "y", 1.0, "timelike")], points=["w"])
        tt = derived_tau(c)
        assert tt.tau("y", "x") == 0.0
        assert tt.tau("w", "x") == 0.0


class TestValidation:
    def test_timelike_zero_length_rejected(self):
        with pytest.raises(CatalogError):
            cat([("x", "y", 0.0, "timelike")])

    def test_negative_length_rejected(self):
        with pytest.raises(CatalogError):
            cat([("x", "y", -1.0, "causal")])

    def test_bad_class_rejected(self):
        with pytest.raises(CatalogError):
            cat([("x", "y", 1.0, "spacelike")])


class TestTextFormat:
    def test_roundtrip(self):
        text = "point w\ncurve x y 1.5 timelike\ncurve y z 0 causal\n"
        c = CurveCatalog.from_text(text)
        assert set(c.points) == {"w", "x", "y", "z"}
        assert len(c.curves) == 2
        back = CurveCatalog.from_text(c.to_text())
        assert back.points == c.points
        assert back.curves == c.curves

    def test_malformed(self):
        with pytest.raises(CatalogError):
            CurveCatalog.from_text("curve x y\n")
        with pytest.raises(CatalogError):
            CurveCatalog.from_text("curve x y one timelike\n")


class TestBareLLSpace:
    def test_valid_catalog_passes(self):
        c = cat([("x", "y", 1.0, "timelike"), ("y", "z", 2.0, "causal"),
                 ("x", "z", 0.5, "causal")])
        verdict = check_bare_llspace(c)
        assert verdict.ok
        assert verdict.failures == ()

    def test_monotone_under_adding_curves(self):
        curves = [("x", "y", 1.0, "timelike"), ("y", "z", 1.0, "timelike")]
        before = derived_tau(cat(curves))
        after = derived_tau(cat(curves + [("x", "z", 5.0, "timelike")]))
        n = before.values.shape[0]
        assert np.all(after.values + 1e-12 >= before.values)

    def test_random_vs_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            pts = [f"p{i}" for i in range(n)]
            curves = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.uniform() < 0.35:
                        length = float(rng.uniform(0, 2)) if rng.uniform() > 0.2 else 0.0
                        timelike = length > 0 and rng.uniform() < 0.5
                        curves.append((pts[i], pts[j], length,
                                       "timelike" if timelike else "causal"))
            if rng.uniform() < 0.3 and n >= 3:
                curves.append((pts[2], pts[0], 0.0, "causal"))
            if rng.uniform() < 0.2 and n >= 4:
                curves.append((pts[3], pts[0], float(rng.uniform(0.1, 1)),
                               "causal"))
            c = CurveCatalog(pts, curves)
            tt = derived_tau(c)
            values, infinite = enumerate_tau(c)
            assert np.allclose(tt.values, values, atol=1e-9)
            assert np.array_equal(tt.infinite, infinite)
            assert check_bare_llspace(c).ok

    def test_tau_intrinsic_catches_a_wrong_table(self, monkeypatch):
        # doubling every value keeps positivity, vanishing and the reverse
        # triangle inequality, so only the enumeration route can see it
        c = cat([("x", "y", 1.0, "timelike"), ("y", "z", 2.0, "causal"),
                 ("x", "z", 0.5, "causal")])
        real = llstructure.derived_tau

        def scaled(catalog):
            tt = real(catalog)
            return llstructure.TauTable(tt.points, 2.0 * tt.values, tt.infinite)

        monkeypatch.setattr(llstructure, "derived_tau", scaled)
        verdict = check_bare_llspace(c)
        assert verdict.failures == (("tau-intrinsic",),)

    def test_dense_cycle_stays_within_the_enumeration_budget(self):
        # every ordered pair of five points joined by a zero-length curve:
        # exhaustive enumeration would walk for minutes, so it stops at its
        # step budget and the remaining checks still run
        pts = [f"p{i}" for i in range(5)]
        c = CurveCatalog(pts, [(a, b, 0.0, "causal")
                               for a, b in itertools.permutations(pts, 2)])
        with pytest.raises(CatalogError):
            enumerate_tau(c)
        verdict = check_bare_llspace(c)
        assert verdict.ok
        assert verdict.triples_checked == 125
