import hashlib
import random

import pytest

from awhile.flow_ifc import AARead, AAWrite, ABranch, AIf, ASKIP, ASeq, AWhileC, flow_track
from awhile.gen import NamePools, gen_program, random_labeling
from awhile.harden import (
    FISLH,
    FVSLH,
    FlagCollisionError,
    ISLH,
    SISLH,
    SISLH_NO_STORE_MASK,
    SVSLH,
    USLH,
    BranchNodeError,
    harden,
    harden_fs,
)
from awhile.ifc_static import PUBLIC, all_public, all_secret, parse_labeling
from awhile.lang import Asgn, Num, Seq, parse_com, pretty_com, program_names, syntax_repr
from awhile.record import Record
from awhile.seccheck import (
    enum_spec_runs,
    enum_states,
)
from awhile.seq_sem import RunKind, seq_run
from awhile.spec_sem import Speculative, run
from awhile.state import SpecConfig, parse_state
from awhile.fixtures import FIXTURES

LISTING1 = parse_com("if i < a1_size then j <- a1[i]; x <- a2[j] end")

LISTING2_TEXT = """
if i < a1_size then
  b := (i < a1_size ? b : 1);
  j <- a1[(b = 1 ? 0 : i)];
  x <- a2[(b = 1 ? 0 : j)]
else
  b := (i < a1_size ? 1 : b)
end
"""

pools = NamePools(("x", "y", "i", "k"), ("a", "c"))


def _squash(text):
    return " ".join(text.split())


def test_islh_on_listing1_is_listing2():
    hardened = harden(ISLH, LISTING1, all_secret(), all_secret())
    assert hardened == parse_com(LISTING2_TEXT)
    assert _squash(pretty_com(hardened)) == _squash(LISTING2_TEXT)


def test_a_translation_shares_the_flag_nodes():
    # one b, 0, 1 and b = 1 serve every mask and flag update
    hardened = harden(ISLH, LISTING1, all_secret(), all_secret())
    stay, leave = hardened.then.first.expr, hardened.other.expr
    mask_j, mask_x = hardened.then.second.first.index, hardened.then.second.second.index
    assert mask_j.cond is mask_x.cond and mask_j.then is mask_x.then
    assert stay.then is leave.other is mask_j.cond.left
    assert stay.other is leave.then is mask_j.cond.right


def test_flag_collision_rejected():
    with pytest.raises(FlagCollisionError):
        harden(ISLH, parse_com("b := 1"), all_secret(), all_secret())
    hardened = harden(ISLH, parse_com("x := 1"), all_secret(), all_secret(),
                      flag_var="flag")
    assert "flag" not in program_names(Asgn("x", Num(1)))[0]
    assert hardened == parse_com("x := 1")


def _rebuilt(x):
    """An equal copy of a syntax tree, built by hand: it shares no node
    with the parsed one, so its names come from a walk."""
    return type(x)(*map(_rebuilt, x)) if isinstance(x, Record) else x


@pytest.mark.parametrize("text, why", [
    ("if b < 1 then skip end", "is used by the program"),
    ("while x < b do skip end", "is used by the program"),
    ("x <- a[b]", "is used by the program"),
    ("a[0] <- b + 1", "is used by the program"),
    ("x := (b = 1 ? 0 : 1)", "is used by the program"),
    ("x <- b[0]", "names an array of the program"),
])
def test_a_flag_the_program_only_reads_is_refused(text, why):
    lab = all_secret()
    parsed = parse_com(text)
    for com in (parsed, _rebuilt(parsed)):
        with pytest.raises(FlagCollisionError, match=f"^flag variable 'b' {why}$"):
            harden(USLH, com, lab, lab)
        with pytest.raises(FlagCollisionError, match=f"^flag variable 'b' {why}$"):
            harden_fs(flow_track(com, lab, lab, PUBLIC)[0])


def test_custom_flag_variable():
    com = parse_com("if x < 1 then skip end")
    hardened = harden(USLH, com, all_secret(), all_secret(), flag_var="spec_flag")
    assert "spec_flag" in program_names(hardened)[0]
    assert "b" not in program_names(hardened)[0]


def test_sislh_store_mask_depends_on_value_label():
    labels = parse_labeling("i: public\ne: public")
    com = parse_com("a[i] <- key")  # key defaults to secret
    protected = harden(SISLH, com, labels, labels)
    assert protected != com  # index masked for a secret value
    pub_store = parse_com("a[i] <- e")
    assert harden(SISLH, pub_store, labels, labels) == pub_store
    # the diagnostic variant never masks stores
    assert harden(SISLH_NO_STORE_MASK, com, labels, labels) == com


def test_svslh_masks_value_not_index():
    labels = parse_labeling("x: public")
    hardened = harden(SVSLH, parse_com("x <- a[i]"), labels, labels)
    assert isinstance(hardened, Seq)
    assert hardened.first == parse_com("x <- a[i]")  # index untouched
    assert hardened.second == parse_com("x := (b = 1 ? 0 : x)")
    # secret destination: nothing to do under value SLH
    assert harden(SVSLH, parse_com("s <- a[i]"), labels, labels) == parse_com(
        "s <- a[i]"
    )


def test_fislh_equals_sislh_on_cct_programs():
    from awhile.ifc_static import wt_cct

    rng = random.Random(11)
    everything_public = all_public(pools.scalars + pools.arrays)
    count = 0
    while count < 120:
        com = gen_program(rng.randrange(10**9), 12, pools)
        if count % 2 == 0:
            P = PA = everything_public
        else:
            P, PA = random_labeling(rng, pools)
        if not wt_cct(P, PA, com):
            continue
        assert harden(FISLH, com, P, PA) == harden(SISLH, com, P, PA)
        count += 1


def _annotation_labels(acom):
    todo = [acom]
    while todo:
        a = todo.pop()
        if isinstance(a, ASeq):
            todo += (a.first, a.second)
        elif isinstance(a, AIf):
            yield a.lbl
            todo += (a.then, a.other)
        elif isinstance(a, AWhileC):
            yield a.lbl
            todo.append(a.body)
        elif isinstance(a, AARead):
            yield from (a.lbl_target, a.lbl_index)
        elif isinstance(a, AAWrite):
            yield a.lbl_index


def test_fislh_and_fvslh_equal_uslh_when_all_secret():
    secret = all_secret()
    fs_compared = 0
    for seed in range(120):
        com = gen_program(seed, 12, pools)
        uslh = harden(USLH, com, secret, secret)
        assert harden(FISLH, com, secret, secret) == uslh
        assert harden(FVSLH, com, secret, secret) == uslh
        # the flow-sensitive analysis lowers a name to public after a public
        # assignment (y := 1), and harden_fs then rightly masks less; where
        # it keeps every annotation secret it must agree with uslh
        acom = flow_track(com, secret, secret, PUBLIC)[0]
        if not any(lbl.is_public for lbl in _annotation_labels(acom)):
            assert harden_fs(acom) == uslh
            fs_compared += 1
    assert fs_compared == 119  # all but seed 8


ALL_VARIANTS = (ISLH, SISLH, SISLH_NO_STORE_MASK, FISLH, USLH, SVSLH, FVSLH)


def test_sequential_transparency():
    """With the flag at 0, hardening changes neither the sequential trace
    nor the final state outside the flag variable."""
    rng = random.Random(3)
    rho0, mu0 = parse_state("x = 1\ny = 2\ni = 0\nk = 1\na = [1,2]\nc = [3]")
    for seed in range(150):
        com = gen_program(seed, 12, pools)
        P, PA = random_labeling(rng, pools)
        base = seq_run(com, rho0, mu0, 500)
        targets = [harden(v, com, P, PA) for v in ALL_VARIANTS]
        targets.append(harden_fs(flow_track(com, P, PA, PUBLIC)[0]))
        for hardened in targets:
            out = seq_run(hardened, rho0, mu0, 2000)
            assert out.trace == base.trace
            if base.kind is RunKind.TERMINATED:
                assert out.kind is RunKind.TERMINATED
                names = (out.rho.names() | base.rho.names()) - {"b"}
                assert all(out.rho.get(n) == base.rho.get(n) for n in names)
                assert out.mu == base.mu
                assert out.rho.get("b") == 0


def test_harden_fs_trivial_cases():
    assert harden_fs(ASKIP) == parse_com("skip")
    with pytest.raises(BranchNodeError):
        harden_fs(ABranch(PUBLIC, ASKIP))


def test_harden_fs_public_read_gets_value_mask():
    labels = parse_labeling("x: public\ni: public\na: public")
    acom, _ = flow_track(parse_com("x <- a[i]"), labels, labels, PUBLIC)
    hardened = harden_fs(acom)
    assert hardened == parse_com("x <- a[i]; x := (b = 1 ? 0 : x)")


def test_harden_fs_secret_target_public_index_left_alone():
    labels = parse_labeling("i: public")
    acom, _ = flow_track(parse_com("x <- a[i]"), labels, labels, PUBLIC)
    assert harden_fs(acom) == parse_com("x <- a[i]")


def test_harden_fs_all_secret_matches_uslh_traces_on_fixtures():
    """Flow-sensitive hardening from the all-secret labeling produces the
    same observations as ultimate hardening under every directive sequence
    feasible for either, on all fixture programs and states."""
    secret = all_secret()
    for fx in FIXTURES.values():
        if fx.number == 2:
            continue  # already-hardened artifact, reserves the flag itself
        com = fx.program()
        uslh = harden(USLH, com, secret, secret)
        acom, _ = flow_track(com, secret, secret, PUBLIC)
        fs = harden_fs(acom)
        for rho, mu in enum_states(fx.space()):
            for a, b in ((uslh, fs), (fs, uslh)):
                runs = enum_spec_runs(
                    SpecConfig(a, rho, mu, False), max_dirs=4, fuel=300
                )
                for dirs, trace, _kind in runs:
                    other = run(Speculative(), SpecConfig(b, rho, mu, False), dirs, 300)
                    n = min(len(trace), len(other.trace))
                    assert trace[:n] == other.trace[:n]


# One program that reaches every cell of the decision table: reads with a
# public or secret target and index, writes with a public or secret value
# and index, public and secret conditions of if and while, and a read whose
# index is secret under the fixed labeling but public in the flow-sensitive
# annotation (z := 1).  Each variant's output is pinned: the text, and a
# digest of the exact tree (sequence nesting included).
CELLS = parse_com("""
x <- a[p]; x <- a[s]; y <- d[p]; z <- a[s]; z := 1; y <- a[z];
c[p] <- p; c[s] <- p; c[p] <- s; c[s] <- s;
if p < 1 then x := 1 end;
if s < 1 then skip else y := 2 end;
while p < 2 do p := p + 1 end;
while s < 2 do s := s + 1 end
""")
CELLS_LABELS = parse_labeling("p: public\nx: public\na: public\nc: public")

PINNED = {
    "islh": ("e306e76e3f03f0f4", (
        "x <- a[(b = 1 ? 0 : p)]; x <- a[(b = 1 ? 0 : s)]; "
        "y <- d[(b = 1 ? 0 : p)]; z <- a[(b = 1 ? 0 : s)]; z := 1; "
        "y <- a[(b = 1 ? 0 : z)]; c[(b = 1 ? 0 : p)] <- p; "
        "c[(b = 1 ? 0 : s)] <- p; c[(b = 1 ? 0 : p)] <- s; "
        "c[(b = 1 ? 0 : s)] <- s; if p < 1 then b := (p < 1 ? b : 1); "
        "x := 1 else b := (p < 1 ? 1 : b) end; "
        "if s < 1 then b := (s < 1 ? b : 1) else b := (s < 1 ? 1 : b); "
        "y := 2 end; while p < 2 do b := (p < 2 ? b : 1); p := p + 1 end; "
        "b := (p < 2 ? 1 : b); while s < 2 do b := (s < 2 ? b : 1); "
        "s := s + 1 end; b := (s < 2 ? 1 : b)"
    )),
    "sislh": ("16b4274ba37a463a", (
        "x <- a[(b = 1 ? 0 : p)]; x <- a[(b = 1 ? 0 : s)]; y <- d[p]; "
        "z <- a[s]; z := 1; y <- a[z]; c[p] <- p; c[s] <- p; "
        "c[(b = 1 ? 0 : p)] <- s; c[(b = 1 ? 0 : s)] <- s; "
        "if p < 1 then b := (p < 1 ? b : 1); "
        "x := 1 else b := (p < 1 ? 1 : b) end; "
        "if s < 1 then b := (s < 1 ? b : 1) else b := (s < 1 ? 1 : b); "
        "y := 2 end; while p < 2 do b := (p < 2 ? b : 1); p := p + 1 end; "
        "b := (p < 2 ? 1 : b); while s < 2 do b := (s < 2 ? b : 1); "
        "s := s + 1 end; b := (s < 2 ? 1 : b)"
    )),
    "sislh-nostore": ("180e2c5f48dbcd8a", (
        "x <- a[(b = 1 ? 0 : p)]; x <- a[(b = 1 ? 0 : s)]; y <- d[p]; "
        "z <- a[s]; z := 1; y <- a[z]; c[p] <- p; c[s] <- p; c[p] <- s; "
        "c[s] <- s; if p < 1 then b := (p < 1 ? b : 1); "
        "x := 1 else b := (p < 1 ? 1 : b) end; "
        "if s < 1 then b := (s < 1 ? b : 1) else b := (s < 1 ? 1 : b); "
        "y := 2 end; while p < 2 do b := (p < 2 ? b : 1); p := p + 1 end; "
        "b := (p < 2 ? 1 : b); while s < 2 do b := (s < 2 ? b : 1); "
        "s := s + 1 end; b := (s < 2 ? 1 : b)"
    )),
    "fislh": ("6f6be969a8ff707a", (
        "x <- a[(b = 1 ? 0 : p)]; x <- a[(b = 1 ? 0 : s)]; y <- d[p]; "
        "z <- a[(b = 1 ? 0 : s)]; z := 1; y <- a[(b = 1 ? 0 : z)]; c[p] <- p; "
        "c[(b = 1 ? 0 : s)] <- p; c[(b = 1 ? 0 : p)] <- s; "
        "c[(b = 1 ? 0 : s)] <- s; if p < 1 then b := (p < 1 ? b : 1); "
        "x := 1 else b := (p < 1 ? 1 : b) end; "
        "if b = 0 && s < 1 then b := (b = 0 && s < 1 ? b : 1) else b := (b = 0 && s < 1 ? 1 : b); "
        "y := 2 end; while p < 2 do b := (p < 2 ? b : 1); p := p + 1 end; "
        "b := (p < 2 ? 1 : b); "
        "while b = 0 && s < 2 do b := (b = 0 && s < 2 ? b : 1); "
        "s := s + 1 end; b := (b = 0 && s < 2 ? 1 : b)"
    )),
    "uslh": ("eabfd54ff6b2271e", (
        "x <- a[(b = 1 ? 0 : p)]; x <- a[(b = 1 ? 0 : s)]; "
        "y <- d[(b = 1 ? 0 : p)]; z <- a[(b = 1 ? 0 : s)]; z := 1; "
        "y <- a[(b = 1 ? 0 : z)]; c[(b = 1 ? 0 : p)] <- p; "
        "c[(b = 1 ? 0 : s)] <- p; c[(b = 1 ? 0 : p)] <- s; "
        "c[(b = 1 ? 0 : s)] <- s; "
        "if b = 0 && p < 1 then b := (b = 0 && p < 1 ? b : 1); "
        "x := 1 else b := (b = 0 && p < 1 ? 1 : b) end; "
        "if b = 0 && s < 1 then b := (b = 0 && s < 1 ? b : 1) else b := (b = 0 && s < 1 ? 1 : b); "
        "y := 2 end; while b = 0 && p < 2 do b := (b = 0 && p < 2 ? b : 1); "
        "p := p + 1 end; b := (b = 0 && p < 2 ? 1 : b); "
        "while b = 0 && s < 2 do b := (b = 0 && s < 2 ? b : 1); "
        "s := s + 1 end; b := (b = 0 && s < 2 ? 1 : b)"
    )),
    "svslh": ("dad6935ddd741eba", (
        "x <- a[p]; x := (b = 1 ? 0 : x); x <- a[s]; x := (b = 1 ? 0 : x); "
        "y <- d[p]; z <- a[s]; z := 1; y <- a[z]; c[p] <- p; c[s] <- p; "
        "c[p] <- s; c[s] <- s; if p < 1 then b := (p < 1 ? b : 1); "
        "x := 1 else b := (p < 1 ? 1 : b) end; "
        "if s < 1 then b := (s < 1 ? b : 1) else b := (s < 1 ? 1 : b); "
        "y := 2 end; while p < 2 do b := (p < 2 ? b : 1); p := p + 1 end; "
        "b := (p < 2 ? 1 : b); while s < 2 do b := (s < 2 ? b : 1); "
        "s := s + 1 end; b := (s < 2 ? 1 : b)"
    )),
    "fvslh": ("4daaeba777f956f0", (
        "x <- a[p]; x := (b = 1 ? 0 : x); x <- a[(b = 1 ? 0 : s)]; y <- d[p]; "
        "z <- a[(b = 1 ? 0 : s)]; z := 1; y <- a[(b = 1 ? 0 : z)]; c[p] <- p; "
        "c[(b = 1 ? 0 : s)] <- p; c[p] <- s; c[(b = 1 ? 0 : s)] <- s; "
        "if p < 1 then b := (p < 1 ? b : 1); "
        "x := 1 else b := (p < 1 ? 1 : b) end; "
        "if b = 0 && s < 1 then b := (b = 0 && s < 1 ? b : 1) else b := (b = 0 && s < 1 ? 1 : b); "
        "y := 2 end; while p < 2 do b := (p < 2 ? b : 1); p := p + 1 end; "
        "b := (p < 2 ? 1 : b); "
        "while b = 0 && s < 2 do b := (b = 0 && s < 2 ? b : 1); "
        "s := s + 1 end; b := (b = 0 && s < 2 ? 1 : b)"
    )),
    "fsfvslh": ("ad47ce80708e3ee7", (
        "x <- a[p]; x := (b = 1 ? 0 : x); x <- a[(b = 1 ? 0 : s)]; y <- d[p]; "
        "z <- a[(b = 1 ? 0 : s)]; z := 1; y <- a[z]; y := (b = 1 ? 0 : y); "
        "c[p] <- p; c[(b = 1 ? 0 : s)] <- p; c[p] <- s; "
        "c[(b = 1 ? 0 : s)] <- s; if p < 1 then b := (p < 1 ? b : 1); "
        "x := 1 else b := (p < 1 ? 1 : b) end; "
        "if b = 0 && s < 1 then b := (b = 0 && s < 1 ? b : 1) else b := (b = 0 && s < 1 ? 1 : b); "
        "y := 2 end; while p < 2 do b := (p < 2 ? b : 1); p := p + 1 end; "
        "b := (p < 2 ? 1 : b); "
        "while b = 0 && s < 2 do b := (b = 0 && s < 2 ? b : 1); "
        "s := s + 1 end; b := (b = 0 && s < 2 ? 1 : b)"
    )),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_every_table_cell_output_is_pinned(name):
    lab = CELLS_LABELS
    if name == "fsfvslh":
        hardened = harden_fs(flow_track(CELLS, lab, lab, PUBLIC)[0])
    else:
        names = ("islh", "sislh", "sislh-nostore", "fislh", "uslh", "svslh", "fvslh")
        hardened = harden(dict(zip(names, ALL_VARIANTS))[name], CELLS, lab, lab)
    digest, text = PINNED[name]
    assert _squash(pretty_com(hardened)) == "".join(text)
    assert hashlib.sha256(syntax_repr(hardened).encode()).hexdigest()[:16] == digest
