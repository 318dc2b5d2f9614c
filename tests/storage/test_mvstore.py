"""Unit tests for the multiversion store with VTNC visibility."""

import pytest

from repro.storage.mvstore import MultiVersionStore, NoVisibleVersion


@pytest.fixture
def store():
    return MultiVersionStore()


class TestInstallRead:
    def test_read_latest(self, store):
        store.install("x", "v1", 1)
        store.install("x", "v2", 2)
        assert store.read_latest("x").value == "v2"

    def test_read_missing_raises(self, store):
        with pytest.raises(NoVisibleVersion):
            store.read_latest("x")

    def test_out_of_order_install_sorted(self, store):
        store.install("x", "v3", 3)
        store.install("x", "v1", 1)
        assert [v.txn_number for v in store.versions_of("x")] == [1, 3]
        assert store.read_latest("x").value == "v3"

    def test_read_at_bound(self, store):
        store.install("x", "v1", 1)
        store.install("x", "v5", 5)
        assert store.read_at("x", 3).value == "v1"
        assert store.read_at("x", 5).value == "v5"

    def test_read_at_below_all_raises(self, store):
        store.install("x", "v5", 5)
        with pytest.raises(NoVisibleVersion):
            store.read_at("x", 2)


class TestVTNC:
    def test_vtnc_monotone(self, store):
        store.advance_vtnc(5)
        store.advance_vtnc(3)
        assert store.vtnc == 5

    def test_read_visible_respects_vtnc(self, store):
        store.install("x", "stable", 1)
        store.install("x", "unstable", 5)
        store.advance_vtnc(2)
        assert store.read_visible("x").value == "stable"

    def test_unstable_versions(self, store):
        store.install("x", "a", 1)
        store.install("x", "b", 5)
        store.advance_vtnc(2)
        unstable = store.unstable_versions("x")
        assert [v.txn_number for v in unstable] == [5]

    def test_no_visible_version_raises(self, store):
        store.install("x", "v", 9)
        store.advance_vtnc(1)
        with pytest.raises(NoVisibleVersion):
            store.read_visible("x")


class TestOrderIndependence:
    def test_install_order_does_not_matter(self):
        """RITU convergence: same version set -> same visible state."""
        installs = [("x", "v%d" % i, i) for i in (4, 1, 3, 2, 5)]
        a, b = MultiVersionStore(), MultiVersionStore()
        for key, value, n in installs:
            a.install(key, value, n)
        for key, value, n in reversed(installs):
            b.install(key, value, n)
        assert {k: a.read_latest(k).value for k in a.keys()} == {
            k: b.read_latest(k).value for k in b.keys()
        }
        assert a.read_at("x", 3).value == b.read_at("x", 3).value
