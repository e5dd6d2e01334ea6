"""The Odyssey namespace: mounts, longest-prefix routing, readdir."""

import pytest

from repro.core.namespace import Namespace, normalize
from repro.errors import NoSuchObject, OdysseyError


class FakeWarden:
    def __init__(self, name):
        self.name = name

    def vfs_readdir(self, rest):
        return [f"{self.name}:{rest or 'root'}"]


def test_normalize():
    assert normalize("/a/b/../c") == "/a/c"
    assert normalize("/a/") == "/a"
    with pytest.raises(NoSuchObject):
        normalize("relative/path")
    with pytest.raises(NoSuchObject):
        normalize("")


def test_mount_and_resolve():
    ns = Namespace()
    video = FakeWarden("video")
    ns.mount("/odyssey/video", video)
    warden, rest = ns.resolve("/odyssey/video/movie1")
    assert warden is video
    assert rest == "movie1"
    warden, rest = ns.resolve("/odyssey/video")
    assert rest == ""


def test_longest_prefix_wins():
    ns = Namespace()
    outer, inner = FakeWarden("outer"), FakeWarden("inner")
    ns.mount("/odyssey/data", outer)
    ns.mount("/odyssey/data/special", inner)
    assert ns.resolve("/odyssey/data/x")[0] is outer
    assert ns.resolve("/odyssey/data/special/x")[0] is inner


def test_prefix_match_respects_component_boundaries():
    ns = Namespace()
    ns.mount("/odyssey/web", FakeWarden("web"))
    with pytest.raises(NoSuchObject):
        ns.resolve("/odyssey/webby/object")


def test_nested_mounts_resolve_to_the_deepest():
    ns = Namespace()
    a, ab = FakeWarden("a"), FakeWarden("ab")
    ns.mount("/odyssey/a", a)
    ns.mount("/odyssey/a/b", ab)
    assert ns.resolve("/odyssey/a") == (a, "")
    assert ns.resolve("/odyssey/a/c/d") == (a, "c/d")
    assert ns.resolve("/odyssey/a/b") == (ab, "")
    assert ns.resolve("/odyssey/a/b/c/d") == (ab, "c/d")
    assert ns.resolve("/odyssey/a/bb/c") == (a, "bb/c")


def test_mount_at_the_root_catches_what_no_deeper_mount_claims():
    ns = Namespace()
    root, video = FakeWarden("root"), FakeWarden("video")
    ns.mount("/odyssey", root)
    ns.mount("/odyssey/video", video)
    assert ns.resolve("/odyssey") == (root, "")
    assert ns.resolve("/odyssey/other/x") == (root, "other/x")
    assert ns.resolve("/odyssey/video/x") == (video, "x")
    for outside in ("/odysseys/x", "/etc/passwd", "/"):
        with pytest.raises(NoSuchObject):
            ns.resolve(outside)


def test_sibling_whose_name_is_a_string_prefix_of_another():
    ns = Namespace()
    vid, video = FakeWarden("vid"), FakeWarden("video")
    ns.mount("/odyssey/vid", vid)
    ns.mount("/odyssey/video", video)
    assert ns.resolve("/odyssey/vid/clip") == (vid, "clip")
    assert ns.resolve("/odyssey/video/clip") == (video, "clip")
    assert ns.resolve("/odyssey/video") == (video, "")
    with pytest.raises(NoSuchObject):
        ns.resolve("/odyssey/vide/clip")


def test_resolve_normalizes_before_matching():
    ns = Namespace()
    a = FakeWarden("a")
    ns.mount("/odyssey/a", a)
    assert ns.resolve("/odyssey/a/x/../y/") == (a, "y")
    assert ns.resolve("/odyssey//a///z") == (a, "z")


def test_mount_outside_root_rejected():
    ns = Namespace()
    with pytest.raises(OdysseyError):
        ns.mount("/usr/local", FakeWarden("w"))


def test_double_mount_rejected():
    ns = Namespace()
    ns.mount("/odyssey/a", FakeWarden("a"))
    with pytest.raises(OdysseyError):
        ns.mount("/odyssey/a", FakeWarden("b"))


def test_unmount():
    ns = Namespace()
    ns.mount("/odyssey/a", FakeWarden("a"))
    ns.unmount("/odyssey/a")
    with pytest.raises(NoSuchObject):
        ns.resolve("/odyssey/a/x")
    with pytest.raises(OdysseyError):
        ns.unmount("/odyssey/a")


def test_unclaimed_path_raises():
    ns = Namespace()
    with pytest.raises(NoSuchObject):
        ns.resolve("/odyssey/nothing")


def test_readdir_root_lists_mounts():
    ns = Namespace()
    ns.mount("/odyssey/video", FakeWarden("v"))
    ns.mount("/odyssey/web", FakeWarden("w"))
    assert ns.readdir("/odyssey") == ["video", "web"]


def test_readdir_delegates_to_warden():
    ns = Namespace()
    ns.mount("/odyssey/video", FakeWarden("video"))
    assert ns.readdir("/odyssey/video/dir") == ["video:dir"]


def test_is_odyssey_path():
    ns = Namespace()
    assert ns.is_odyssey_path("/odyssey/anything")
    assert ns.is_odyssey_path("/odyssey")
    assert not ns.is_odyssey_path("/etc/passwd")


def test_mount_resolve_property():
    """Any mounted prefix resolves its own subtree to itself."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    name_strategy = st.text(
        alphabet="abcdefgh", min_size=1, max_size=6
    )

    @settings(max_examples=50, deadline=None)
    @given(names=st.lists(name_strategy, min_size=1, max_size=6,
                          unique=True),
           child=name_strategy)
    def check(names, child):
        ns = Namespace()
        wardens = {}
        for name in names:
            warden = FakeWarden(name)
            ns.mount(f"/odyssey/{name}", warden)
            wardens[name] = warden
        for name in names:
            resolved, rest = ns.resolve(f"/odyssey/{name}/{child}")
            assert resolved is wardens[name]
            assert rest == child
        assert ns.readdir("/odyssey") == sorted(names)

    check()
