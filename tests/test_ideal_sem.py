import random

from awhile.flow_ifc import ABranch, AIf, flow_track, terminal
from awhile.gen import (
    NamePools,
    gen_program,
    random_labeling,
    random_spec_walk,
    random_state,
)
from awhile.ideal_sem import (
    FsIdealConfig,
    IdealFS,
    IdealFiSLH,
    IdealFvSLH,
)
from awhile.ifc_static import PUBLIC, SECRET, all_secret, parse_labeling
from awhile.lang import ARead, Var, parse_com
from awhile.seccheck import (
    check_bcc,
    transform,
)
from awhile.seq_sem import seq_run
from awhile.spec_sem import Speculative, StepTag, run
from awhile.state import (
    ArrayState,
    DLoad,
    OBranch,
    ORead,
    OWrite,
    ScalarState,
    SpecConfig,
    STEP,
    parse_dirs,
    parse_state,
)

pools = NamePools(("x", "y", "i", "k"), ("a", "c"))


def test_fislh_masks_secret_branch_condition_under_misspeculation():
    # the inner branch of the unreachable-code gadget: once misspeculating,
    # a secret condition is observed as false regardless of the secret
    inner = parse_com("if secret = 0 then y := 1 end")
    variant = IdealFiSLH(all_secret(), all_secret())
    for secret_value in (0, 1):
        cfg = SpecConfig(inner, ScalarState({"secret": secret_value}), ArrayState(), True)
        assert variant.step(cfg, STEP).obs == OBranch(False)


def test_fislh_branch_unmasked_when_not_misspeculating():
    inner = parse_com("if secret = 0 then y := 1 end")
    variant = IdealFiSLH(all_secret(), all_secret())
    cfg = SpecConfig(inner, ScalarState({"secret": 0}), ArrayState(), False)
    assert variant.step(cfg, STEP).obs == OBranch(True)


def test_fislh_read_force_requires_public_index_secret_target():
    labels = parse_labeling("i: public\nx: public")
    mu = ArrayState({"a": (5,), "c": (7,)})
    rho = ScalarState({"i": 3})
    com = ARead("x", "a", Var("i"))
    # public destination: the step rule masks the index instead; the force
    # rule is not applicable and the load directive gets stuck
    cfg = SpecConfig(com, rho, mu, True)
    variant = IdealFiSLH(labels, labels)
    assert variant.step(cfg, DLoad("c", 0)).tag is StepTag.STUCK
    stepped = variant.step(cfg, STEP)
    assert stepped.tag is StepTag.STEPPED
    assert stepped.obs == ORead("a", 0)  # masked to index 0
    # secret destination with public index: the force rule applies
    labels2 = parse_labeling("i: public")
    variant2 = IdealFiSLH(labels2, labels2)
    cfg2 = SpecConfig(ARead("x", "a", Var("i")), rho, mu, True)
    res = variant2.step(cfg2, DLoad("c", 0))
    assert res.tag is StepTag.STEPPED
    assert res.obs == ORead("a", 3)
    assert res.cfg.rho.get("x") == 7  # actually loaded from c[0]


def test_fvslh_read_force_masks_value_loaded_into_public():
    labels = parse_labeling("i: public\nx: public")
    variant = IdealFvSLH(labels, labels)
    mu = ArrayState({"a": (5,), "a3": (42,)})
    cfg = SpecConfig(ARead("x", "a", Var("i")),
                     ScalarState({"i": 9}), mu, True)
    res = variant.step(cfg, DLoad("a3", 0))
    assert res.tag is StepTag.STEPPED
    assert res.obs == ORead("a", 9)
    assert res.cfg.rho.get("x") == 0  # the secret 42 never reaches x


def test_fvslh_write_force_allows_secret_values():
    labels = parse_labeling("i: public")
    variant = IdealFvSLH(labels, labels)
    mu = ArrayState({"a": (5,), "pub": (0,)})
    cfg = SpecConfig(parse_com("a[i] <- key"), ScalarState({"i": 7, "key": 3}), mu, True)
    from awhile.state import DStore

    res = variant.step(cfg, DStore("pub", 0))
    assert res.tag is StepTag.STEPPED
    assert res.obs == OWrite("a", 7)
    assert res.cfg.mu.vector("pub") == (3,)  # value lands where directed


def test_fs_if_wraps_branch_and_raises_pc():
    labels = parse_labeling("y: public")
    com = parse_com("if secret = 0 then y := 1 end")
    acom, _ = flow_track(com, labels, labels, PUBLIC)
    assert isinstance(acom, AIf) and acom.lbl is SECRET
    cfg = FsIdealConfig(acom, ScalarState({"secret": 0}), ArrayState(), False,
                        PUBLIC, labels, labels)
    res = IdealFS().step(cfg, STEP)
    assert res.tag is StepTag.STEPPED
    nxt = res.cfg
    assert isinstance(nxt.acom, ABranch) and nxt.acom.lbl is PUBLIC
    assert nxt.pc is SECRET


def test_fs_seq_skip_restores_pc():
    labels = all_secret()
    com = parse_com("if x = 0 then y := 1 end; k := 2")
    acom, _ = flow_track(com, labels, labels, PUBLIC)
    cfg = FsIdealConfig(acom, ScalarState(), ArrayState(), False, PUBLIC,
                        labels, labels)
    variant = IdealFS()
    # drive: branch step (pc rises), assignment, then the sequence skip
    cfg = variant.step(cfg, STEP).cfg
    assert cfg.pc is SECRET
    cfg = variant.step(cfg, None).cfg  # y := 1 under the wrapper
    cfg = variant.step(cfg, None).cfg  # pop the finished head
    assert cfg.pc is PUBLIC  # restored by the branch wrapper
    cfg = variant.step(cfg, None).cfg  # k := 2
    assert terminal(cfg.acom)


def test_fs_write_index_masked_on_listing6():
    labels = parse_labeling("epublic: public")
    com = parse_com("if false then a[isecret] <- epublic end")
    acom, _ = flow_track(com, labels, labels, PUBLIC)
    cfg = FsIdealConfig(acom, ScalarState({"isecret": 1, "epublic": 5}),
                        ArrayState({"a": (0, 0)}), False, PUBLIC, labels, labels)
    out = run(IdealFS(), cfg, parse_dirs("force step"), 100)
    assert out.trace == (OBranch(False), OWrite("a", 0))  # index masked to 0
    assert out.final.mu.vector("a") == (5, 0)


def test_ideal_step_only_runs_match_sequential():
    rng = random.Random(9)
    rho0, mu0 = parse_state("x = 1\ny = 2\ni = 0\nk = 1\na = [1,2]\nc = [3]")
    for seed in range(80):
        com = gen_program(seed, 10, pools)
        P, PA = random_labeling(rng, pools)
        base = seq_run(com, rho0, mu0, 400)
        for variant, cfg in (
            (IdealFiSLH(P, PA), SpecConfig(com, rho0, mu0, False)),
            (IdealFvSLH(P, PA), SpecConfig(com, rho0, mu0, False)),
            (IdealFS(), FsIdealConfig(flow_track(com, P, PA, PUBLIC)[0],
                                      rho0, mu0, False, PUBLIC, P, PA)),
        ):
            out = run(variant, cfg, [STEP] * 100, 400)
            assert out.trace == base.trace
            assert out.final.rho == base.rho
            assert out.final.mu == base.mu


def test_bcc_trivially_true_with_no_directives():
    labels = parse_labeling("i: public")
    rho, mu = parse_state("i = 0\na = [1]")
    ok, why = check_bcc("fislh", parse_com("x := i"), labels, labels, rho, mu, [], 100)
    assert ok, why


def test_bcc_on_listing1_attack_directives():
    l1 = parse_com("if i < a1_size then j <- a1[i]; x <- a2[j] end")
    labels = parse_labeling(
        "i: public\na1_size: public\nj: public\nx: public\na1: public\na2: public"
    )
    rho, mu = parse_state("i = 4\na1_size = 4\na1 = [0,7,1,2]\na2 = [0,0,0,0]\na3 = [42]")
    for variant in ("fislh", "fvslh", "fsfvslh"):
        ok, why = check_bcc(
            variant, l1, labels, labels, rho, mu, parse_dirs("force load a3 0 step"), 500
        )
        assert ok, (variant, why)


def test_bcc_randomized():
    rng = random.Random(21)
    for variant in ("fislh", "fvslh", "fsfvslh"):
        for _ in range(150):
            com = gen_program(rng.randrange(10**9), 12, pools)
            P, PA = random_labeling(rng, pools)
            rho, mu = random_state(rng, pools)
            if rng.random() < 0.3:
                rho = rho.set("b", 1)
            hardened = transform(variant, com, P, PA)
            flag = rho.get("b") == 1
            walk = random_spec_walk(rng, Speculative(), SpecConfig(hardened, rho, mu, flag), 8,
                                    2000)
            ok, why = check_bcc(variant, com, P, PA, rho, mu, walk, 2000)
            assert ok, (variant, why, com)
