import pytest
from hypothesis import given
from hypothesis import strategies as st

from awhile.ifc_static import LabelMap, PUBLIC, SECRET
from awhile.state import (
    ArrayState,
    DLoad,
    DStore,
    FORCE,
    OBranch,
    OPAQUE,
    ORead,
    ScalarState,
    SecretDependence,
    STEP,
    StateFormatError,
    format_dirs,
    format_state,
    format_trace,
    parse_dirs,
    parse_state,
    parse_state_full,
    pub_equiv,
)


def test_scalar_state_update_then_lookup():
    rho = ScalarState().set("x", 7)
    assert rho.get("x") == 7
    assert rho.get("never_written") == 0


def test_scalar_state_updates_are_persistent():
    rho = ScalarState({"x": 1})
    rho2 = rho.set("x", 2)
    assert rho.get("x") == 1 and rho2.get("x") == 2


def test_scalar_state_keeps_an_opaque_entry_and_drops_zeros():
    # the constructor tests an entry as ``set`` does, without comparing it
    rho = ScalarState({"k": OPAQUE, "z": 0, "x": 2})
    assert rho.get("k") is OPAQUE and rho.names() == {"k", "x"}
    assert rho == ScalarState().set("k", OPAQUE).set("x", 2)
    assert ScalarState({"z": 0}) == ScalarState()


def test_array_state_inbounds_update_is_pointwise():
    mu = ArrayState({"a": (1, 2, 3)})
    mu2 = mu.set("a", 1, 9)
    assert mu2.vector("a") == (1, 9, 3)
    assert mu.vector("a") == (1, 2, 3)
    assert mu2.size("a") == 3


def test_array_state_out_of_bounds_update_rejected():
    with pytest.raises(IndexError):
        ArrayState({"a": (1,)}).set("a", 1, 0)


def test_missing_array_has_size_zero():
    assert ArrayState().size("ghost") == 0


def test_states_of_the_two_kinds_never_compare_equal():
    # both stores hold a dict of bindings; equality also asks for one kind
    assert ScalarState() != ArrayState() and ArrayState() != ScalarState()
    assert ScalarState({"x": 1}) == ScalarState({"x": 1})
    assert hash(ArrayState({"a": (1,)})) == hash(ArrayState({"a": [1]}))
    assert ScalarState({"x": 1}) != {"x": 1}


# --- state files ------------------------------------------------------------


def test_opaque_value_absorbs_arithmetic_and_leaves_comparisons_unknown():
    for v in (OPAQUE + 1, 2 + OPAQUE, OPAQUE - 3, 3 - OPAQUE, OPAQUE * 0, 5 * OPAQUE,
              OPAQUE + OPAQUE):
        assert v is OPAQUE
    assert OPAQUE  # truthy, so a binding to it is kept
    rho = ScalarState().set("k", OPAQUE)
    assert rho.get("k") is OPAQUE and rho.names() == {"k"}
    assert hash(rho) == hash(ScalarState().set("k", OPAQUE))  # hashes by identity
    # a comparison is unknown, even of the value with itself: deciding on it,
    # hashing the answer, or indexing with it raises
    for unknown in (OPAQUE == OPAQUE, OPAQUE != OPAQUE, OPAQUE < 1, 1 <= OPAQUE,
                    OPAQUE > 0, 0 >= OPAQUE, 0 == OPAQUE):
        for decide in (bool, hash, (1, 2).__getitem__):
            with pytest.raises(SecretDependence):
                decide(unknown)
    with pytest.raises(SecretDependence):
        (1, 2)[OPAQUE]
    # containers compare it by identity, so a store holding it equals itself
    assert ArrayState({"a": (OPAQUE, 1)}) == ArrayState({"a": (OPAQUE, 1)})


def test_parse_state_example():
    rho, mu = parse_state("i = 4\na1 = [0,7,1,2]")
    assert rho.get("i") == 4
    assert mu.vector("a1") == (0, 7, 1, 2)


def test_parse_state_empty():
    rho, mu = parse_state("")
    assert rho.get("anything") == 0
    assert mu.names() == frozenset()


def test_parse_state_duplicate_name():
    with pytest.raises(StateFormatError, match="duplicate"):
        parse_state("a = [42]\na = [1]")


def test_parse_state_empty_array_flagged():
    rho, mu, warnings = parse_state_full("a = []")
    assert mu.size("a") == 0
    assert len(warnings) == 1 and "non-empty" in warnings[0]


def test_parse_state_rejects_malformed_arrays():
    # each used to end in int()'s ValueError
    for text in ("a = [1,,2]", "a = [1 2]", "a = [1,2,]", "a = [,]"):
        with pytest.raises(StateFormatError, match="line 1: expected"):
            parse_state(text)
    assert parse_state("a = [ 1 , 2 ]\nb = [ ]")[1].vector("a") == (1, 2)


def test_parse_state_comments_ignored():
    rho, mu = parse_state("# setup\ni = 1  # index\n")
    assert rho.get("i") == 1


def test_format_state_round_trip():
    rho, mu = parse_state("i = 4\nx = 2\na1 = [0,7,1,2]")
    assert parse_state(format_state(rho, mu)) == (rho, mu)


# --- directives and traces --------------------------------------------------


def test_parse_dirs():
    assert parse_dirs("step force load a3 0 store a 1") == [
        STEP,
        FORCE,
        DLoad("a3", 0),
        DStore("a", 1),
    ]


def test_parse_dirs_round_trip():
    dirs = [FORCE, DLoad("a3", 0), STEP]
    assert parse_dirs(format_dirs(dirs)) == dirs


def test_parse_dirs_bad_token():
    with pytest.raises(StateFormatError):
        parse_dirs("step jump")
    with pytest.raises(StateFormatError):
        parse_dirs("load a3")
    # '²' is a digit but no decimal numeral
    with pytest.raises(StateFormatError, match="must be a natural"):
        parse_dirs("load a3 ²")


def test_format_trace():
    trace = [OBranch(True), ORead("a1", 4)]
    assert format_trace(trace) == "branch true\nread a1 4"


# --- public equivalence -----------------------------------------------------


def _lab(**names):
    return LabelMap({k: PUBLIC if v else SECRET for k, v in names.items()})


def test_pub_equiv_identical_states():
    s = (ScalarState({"x": 1}), ArrayState({"a": (1, 2)}))
    assert pub_equiv(_lab(x=True), _lab(a=True), s, s)


def test_pub_equiv_secret_array_may_differ():
    # two stores identical except for a secret one-element array
    rho = ScalarState({"i": 4})
    s1 = (rho, ArrayState({"a1": (0, 7, 1, 2), "a3": (42,)}))
    s2 = (rho, ArrayState({"a1": (0, 7, 1, 2), "a3": (43,)}))
    P = _lab(i=True)
    PA = _lab(a1=True, a3=False)
    assert pub_equiv(P, PA, s1, s2)
    assert not pub_equiv(P, _lab(a1=True, a3=True), s1, s2)


def test_pub_equiv_public_array_size_matters():
    s1 = (ScalarState(), ArrayState({"a": (0, 0)}))
    s2 = (ScalarState(), ArrayState({"a": (0,)}))
    assert not pub_equiv(LabelMap(), _lab(a=True), s1, s2)


states = st.builds(
    lambda sc, ar: (ScalarState(sc), ArrayState(ar)),
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 3)),
    st.dictionaries(
        st.sampled_from(["a", "c"]),
        st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple),
    ),
)
labelmaps = st.builds(
    LabelMap,
    st.dictionaries(
        st.sampled_from(["x", "y", "a", "c"]),
        st.sampled_from([PUBLIC, SECRET]),
    ),
)


@given(labelmaps, labelmaps, states, states, states)
def test_pub_equiv_is_an_equivalence(P, PA, s1, s2, s3):
    assert pub_equiv(P, PA, s1, s1)
    if pub_equiv(P, PA, s1, s2):
        assert pub_equiv(P, PA, s2, s1)
        if pub_equiv(P, PA, s2, s3):
            assert pub_equiv(P, PA, s1, s3)


@given(labelmaps, labelmaps, states, states, st.sampled_from(["x", "y", "a", "c"]))
def test_pub_equiv_monotone_under_more_secrets(P, PA, s1, s2, name):
    if pub_equiv(P, PA, s1, s2):
        assert pub_equiv(P.set(name, SECRET), PA, s1, s2)
        assert pub_equiv(P, PA.set(name, SECRET), s1, s2)
