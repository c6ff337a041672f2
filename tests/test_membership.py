"""contains and is_subgroup against a naive closure, on both of contains'
paths: the representatives modulo G^2 for a group that generate built, and
the element set for a group that keeps no G^2, such as one that _dimino
built. Also the element sets that membership leaves unbuilt: the lattice
workload's parents and G_4 in a default verify --all."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import closure, generated, relabel
from sylow2 import cli
from sylow2 import group_engine as ge
from sylow2.sylow_builders import s_beta, syl2_S_generators, w_subgroup_generators

_ROOT = Path(__file__).resolve().parent.parent


def _keys(perms) -> list[bytes]:
    return [p.key for _, p in perms.permutation_entries()]


# named generator sets, each built on both sides of contains: generate keeps
# G^2 and reads the representatives, also for W_4, S_2 and the Klein group,
# whose G^2 is trivial, and C_8, whose G^2 is half of it; _dimino keeps no
# G^2 and reads the element set
_FAMILIES = {
    "trivial": ([], 5),
    "S_2": ([bytes([1, 0])], 2),
    "Klein": ([bytes([1, 0, 3, 2]), bytes([2, 3, 0, 1])], 4),
    "C_8": ([bytes([1, 2, 3, 4, 5, 6, 7, 0])], 8),
    "Syl_2(S_4)": ([bytes([1, 2, 3, 0]), bytes([2, 1, 0, 3])], 4),
    "W_4": (_keys(w_subgroup_generators(4)), 16),
    "G_3": (_keys(s_beta(3)), 8),
    "Syl_2(S_8)": (_keys(syl2_S_generators(8)), 8),
}
_MEMBERS = {name: closure(gens, degree) for name, (gens, degree) in _FAMILIES.items()}
_BUILDERS = {
    "generate": generated,
    "_dimino": lambda gens, degree: ge._dimino(gens, degree, ge.DEFAULT_CAP),
}


def _reads_the_set(G: ge.EnumeratedGroup) -> bool:
    return G.square_closure is None


def test_the_families_cover_both_paths():
    for name, (gens, d) in _FAMILIES.items():
        assert not _reads_the_set(_BUILDERS["generate"](gens, d)), name
        assert _reads_the_set(_BUILDERS["_dimino"](gens, d)), name


def _candidate(draw, degree: int, members: list[bytes]) -> bytes:
    kind = draw(st.sampled_from(["member", "member moved", "permutation", "map", "byte"]))
    if kind == "member":
        return draw(st.sampled_from(members))
    if kind == "member moved":
        # a member with two images swapped: a member again only sometimes
        key = bytearray(draw(st.sampled_from(members)))
        i, j = draw(st.integers(0, degree - 1)), draw(st.integers(0, degree - 1))
        key[i], key[j] = key[j], key[i]
        return bytes(key)
    if kind == "permutation":
        return bytes(draw(st.permutations(range(degree))))
    if kind == "map":
        # a byte key of the right degree that repeats an image
        return bytes(draw(st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree)))
    return bytes(draw(st.lists(st.integers(0, 255), min_size=degree, max_size=degree)))


@settings(max_examples=60)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(_FAMILIES)),
    builder=st.sampled_from(sorted(_BUILDERS)),
)
def test_contains_matches_a_naive_closure_on_named_groups(data, name, builder):
    gens, degree = _FAMILIES[name]
    members = _MEMBERS[name]
    G = _BUILDERS[builder](gens, degree)
    assert G.order == len(members)
    candidates = [_candidate(data.draw, degree, sorted(members)) for _ in range(8)]
    assert [ge.contains(G, x) for x in candidates] == [x in members for x in candidates]
    # the representatives' path leaves the element set unbuilt
    assert ("elements" in vars(G)) == _reads_the_set(G)
    # once the set is built, contains reads it and answers the same
    G.elements
    assert [ge.contains(G, x) for x in candidates] == [x in members for x in candidates]


# the elements of Syl_2(S_d) for d up to 6
_SYL2_KEYS = {1: [bytes(1)]} | {
    d: ge.generate(syl2_S_generators(d)).sorted_keys() for d in range(2, 7)
}


@settings(max_examples=40)
@given(
    data=st.data(),
    degree=st.integers(1, 6),
    count=st.integers(0, 3),
)
def test_contains_matches_a_naive_closure_on_random_generators(data, degree, count):
    # random elements of Syl_2(S_d), d up to 6, conjugated by one random
    # permutation of the points: 2-groups with G^2 trivial or proper
    points = data.draw(st.permutations(range(degree)))
    gens = [relabel(data.draw(st.sampled_from(_SYL2_KEYS[degree])), points) for _ in range(count)]
    members = closure(gens, degree)
    G = generated(gens, degree)
    assert G.order == len(members)
    candidates = [_candidate(data.draw, degree, sorted(members)) for _ in range(8)]
    assert [ge.contains(G, x) for x in candidates] == [x in members for x in candidates]
    H = generated([x for x in candidates if x in members], degree)
    assert ge.is_subgroup(H, G)


def test_is_subgroup_is_false_for_a_group_with_an_outside_element():
    G3 = ge.generate(s_beta(3))
    S8 = ge.generate(syl2_S_generators(8))
    assert ge.is_subgroup(G3, S8)
    assert not ge.is_subgroup(S8, G3)
    assert "elements" not in vars(G3) and "elements" not in vars(S8)


def test_g4_membership_over_all_of_syl2_s16():
    G4 = ge.generate(s_beta(4))
    S16 = ge.generate(syl2_S_generators(16))
    members = [key for key in ge.iter_keys(S16) if ge.contains(G4, key)]
    assert "elements" not in vars(G4) and "elements" not in vars(S16)
    # G_4 is the even half of Syl_2(S_16)
    assert len(members) == S16.order // 2 == 1 << 14
    assert set(members) == ge.generate(s_beta(4)).elements


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _element_set_builds():
    """Record (degree, order) of every element set built inside the block."""
    builds = []
    prop = vars(ge.EnumeratedGroup)["elements"]  # the cached_property
    build = prop.func

    def spy(group):
        builds.append((group.degree, group.order))
        return build(group)

    with mock.patch.object(prop, "func", spy):
        yield builds


def test_lattice_set_up_builds_no_element_set(tmp_path):
    lattice = _load("lattice", _ROOT / "benchmark" / "lattice.py")
    strata = json.loads((_ROOT / "benchmark" / "reference" / "lattice_pool.json").read_text())
    queries = [q for stratum in strata["strata"].values() for q in stratum]
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"queries": queries}))
    with _element_set_builds() as builds:
        state = lattice.prepare(str(job))
    assert state["members_ok"]
    assert state["parent_orders"] == {"G_4": 1 << 14, "S_16": 1 << 15}
    assert builds == []


def test_default_verify_all_never_builds_g4s_element_set():
    with _element_set_builds() as builds, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--all"]) == 0
    assert builds, "the spy saw no element set built"
    assert (16, 1 << 14) not in builds
    assert max(order for _, order in builds) < 1 << 10


@pytest.mark.parametrize("name", ["W_4", "S_2"])
def test_the_set_side_builds_the_set_once(name):
    gens, degree = _FAMILIES[name]
    # generate's buffers without its G^2: the set is built on first read
    generated = _BUILDERS["generate"](gens, degree)
    G = ge.EnumeratedGroup(degree, generated.gen_keys, generated.cosets)
    with _element_set_builds() as builds:
        assert ge.contains(G, bytes(range(degree)))
        assert ge.contains(G, bytes(range(degree)))
    assert builds == [(degree, G.order)]
