"""Acceptance suite: one test per criterion, each checked at its stated
bounds and wall-clock budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines."""

import random
import time

from awhile.flow_ifc import Labeling, flow_track, well_labeled
from awhile.gen import (
    NamePools,
    gen_program,
    random_labeling,
    random_state,
)
from awhile.harden import FISLH, FVSLH, ISLH, SISLH, USLH, harden
from awhile.ideal_sem import FsIdealConfig, IdealFS
from awhile.ifc_static import PUBLIC, all_public, all_secret, wt_cct, wt_ifc
from awhile.lang import parse_com, pretty_com
from awhile.seccheck import (
    Bounds,
    VerdictStatus,
    check_bcc,
    check_relative_security,
    check_sct,
    check_spec_obs_equiv,
    check_unwinding,
    check_wl_preservation,
    transform,
)
from awhile.seq_sem import RunKind, seq_run
from awhile.spec_sem import Speculative, StepTag, feasible, run
from awhile.state import (
    OBranch,
    ORead,
    SpecConfig,
    STEP,
    parse_dirs,
    parse_state,
    pub_equiv_arrays,
    pub_equiv_scalars,
)
from awhile.fixtures import FIXTURES, PROTECTING_VARIANTS, repro_listing

pools = NamePools(("x", "y", "i", "k"), ("a", "c"))


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.criterion}] {status} ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget"
            )
        return False


def test_criterion_1_example2_sequential_traces():
    with _Budget("1", 1):
        fx = FIXTURES[1]
        com = fx.program()
        (rho, mu), _ = fx.pair()
        assert mu.size("a2") == 1000
        out1 = seq_run(com, rho.set("i", 1), mu, 200)
        assert out1.kind is RunKind.TERMINATED
        assert out1.trace == (OBranch(True), ORead("a1", 1), ORead("a2", 7))
        out4 = seq_run(com, rho.set("i", 4), mu, 200)
        assert out4.kind is RunKind.TERMINATED
        assert out4.trace == (OBranch(False),)


def test_criterion_2_example3_attack_and_repro():
    with _Budget("2", 1):
        fx = FIXTURES[1]
        com = fx.program()
        s1, s2 = fx.pair()
        dirs = parse_dirs("force load a3 0 step")
        r1 = run(Speculative(), SpecConfig(com, s1[0], s1[1], False), dirs, 200)
        r2 = run(Speculative(), SpecConfig(com, s2[0], s2[1], False), dirs, 200)
        assert r1.trace[-1] == ORead("a2", 42)
        assert r2.trace[-1] == ORead("a2", 43)
        code, results = repro_listing(1)
        assert code == 1
        w = results[0][1].witness
        assert list(w.dirs) == dirs
        assert w.trace1 == r1.trace and w.trace2 == r2.trace
        assert w.divergence_index == 2


def test_criterion_3_listing2_protection():
    with _Budget("3", 10):
        src = FIXTURES[1]
        hardened = harden(ISLH, src.program(), src.labeling(), src.labeling())
        assert hardened == FIXTURES[2].program()
        squash = lambda t: " ".join(t.split())
        assert squash(pretty_com(hardened)) == squash(FIXTURES[2].program_text)
        s1, s2 = src.pair()
        v = check_spec_obs_equiv(hardened, s1, s2, False, 10, 200)
        assert v.holds


def test_criterion_4_listing3_store_mask_necessity():
    with _Budget("4", 60):
        fx = FIXTURES[3]
        lab, space = fx.labeling(), fx.space()
        bounds = Bounds(6, 200)
        broken = transform("sislh-nostore", fx.program(), lab, lab)
        v = check_sct(broken, lab, lab, space, bounds)
        assert v.status is VerdictStatus.VIOLATED
        assert v.witness is not None
        for kind in ("sislh", "svslh"):
            protected = transform(kind, fx.program(), lab, lab)
            assert check_sct(protected, lab, lab, space, bounds).holds, kind


def test_criterion_5_listings_4_to_6_relative_security():
    with _Budget("5", 120):
        bounds = Bounds(6, 200)
        for n in (4, 5, 6):
            fx = FIXTURES[n]
            lab, space = fx.labeling(), fx.space()
            bad = check_relative_security("none", fx.program(), lab, lab, space, bounds)
            assert bad.status is VerdictStatus.VIOLATED, n
            for kind in PROTECTING_VARIANTS:
                good = check_relative_security(kind, fx.program(), lab, lab, space, bounds)
                assert good.holds, (n, kind, good.message)


def test_criterion_6_transformation_equalities():
    with _Budget("6", 30):
        rng = random.Random(1006)
        everything_public = all_public(pools.scalars + pools.arrays)
        cct_checked = 0
        while cct_checked < 100:
            com = gen_program(rng.randrange(10**9), 14, pools)
            if cct_checked % 2 == 0:
                P = PA = everything_public
            else:
                P, PA = random_labeling(rng, pools)
            if not wt_cct(P, PA, com):
                continue
            assert harden(FISLH, com, P, PA) == harden(SISLH, com, P, PA)
            cct_checked += 1
        secret = all_secret()
        for n in range(100):
            com = gen_program(rng.randrange(10**9), 14, pools)
            uslh = harden(USLH, com, secret, secret)
            assert harden(FISLH, com, secret, secret) == uslh
            assert harden(FVSLH, com, secret, secret) == uslh


def test_criterion_7_backwards_compiler_correctness():
    with _Budget("7", 300):
        rng = random.Random(1007)
        for variant in ("fislh", "fvslh", "fsfvslh"):
            for _ in range(1000):
                com = gen_program(rng.randrange(10**9), 15, pools)
                P, PA = random_labeling(rng, pools)
                rho, mu = random_state(rng, pools, max_value=3, max_array_size=3)
                if rng.random() < 0.3:
                    rho = rho.set("b", 1)
                hardened = transform(variant, com, P, PA)
                flag = rho.get("b") == 1
                walk = []
                run(Speculative(), SpecConfig(hardened, rho, mu, flag), walk, 4000,
                    lambda cfg, feas: rng.choice(feas) if len(walk) < 8 else None)
                ok, why = check_bcc(variant, com, P, PA, rho, mu, walk, 4000)
                assert ok, (variant, why, pretty_com(com))


def test_criterion_8_analysis_produces_well_labeled_programs():
    with _Budget("8", 60):
        from awhile.ifc_static import SECRET

        rng = random.Random(1008)
        for n in range(1000):
            com = gen_program(rng.randrange(10**9), 12, pools)
            for _ in range(3):
                P, PA = random_labeling(rng, pools)
                pc = PUBLIC if rng.getrandbits(1) else SECRET
                acom, out = flow_track(com, P, PA, pc)
                assert well_labeled(acom, Labeling(P, PA), pc, out)


def test_criterion_9_ideal_fs_steps_preserve_well_labeledness():
    with _Budget("9", 60):
        rng = random.Random(1009)
        steps = 0
        while steps < 1000:
            com = gen_program(rng.randrange(10**9), 12, pools)
            P, PA = random_labeling(rng, pools)
            acom, final = flow_track(com, P, PA, PUBLIC)
            rho, mu = random_state(rng, pools)
            cfg = FsIdealConfig(acom, rho, mu, bool(rng.getrandbits(1)), PUBLIC, P, PA)
            for _ in range(30):
                feas = feasible(IdealFS(), cfg)
                probe = IdealFS().step(cfg, None)
                d = rng.choice(feas) if (probe.tag is StepTag.NEED_DIR and feas) else None
                ok, why = check_wl_preservation(
                    cfg.acom, Labeling(cfg.P, cfg.PA), cfg.pc, final,
                    cfg.rho, cfg.mu, cfg.flag, d,
                )
                assert ok, why
                steps += 1
                r = IdealFS().step(cfg, d)
                if r.tag is not StepTag.STEPPED:
                    break
                cfg = r.cfg


def _related_pair(rng, P, PA, flag, value_based):
    s1 = random_state(rng, pools)
    rho2 = s1[0]
    for n in pools.scalars:
        if not P.get(n).is_public:
            rho2 = rho2.set(n, rng.randrange(4))
    mu2 = s1[1]
    from awhile.state import ArrayState

    for n in pools.arrays:
        if not PA.get(n).is_public or (flag and value_based):
            mu2 = ArrayState(
                {**dict(mu2.items()), n: tuple(rng.randrange(4) for _ in mu2.vector(n))}
            )
    return s1, (rho2, mu2)


def _ni_walk(variant, com, P, PA, s1, s2, rng, max_steps=40):
    """Step two related ideal runs in lockstep, asserting the single-step
    noninterference conclusions whenever the observations agree."""
    from awhile.ideal_sem import IdealFiSLH, IdealFvSLH

    if variant == "fsfvslh":
        acom, _ = flow_track(com, P, PA, PUBLIC)
        iv = IdealFS()
        cfg1 = FsIdealConfig(acom, s1[0], s1[1], False, PUBLIC, P, PA)
        cfg2 = FsIdealConfig(acom, s2[0], s2[1], False, PUBLIC, P, PA)
    else:
        iv = IdealFiSLH(P) if variant == "fislh" else IdealFvSLH(P)
        cfg1 = SpecConfig(com, s1[0], s1[1], False)
        cfg2 = SpecConfig(com, s2[0], s2[1], False)
    for _ in range(max_steps):
        probe = iv.step(cfg1, None)
        if probe.tag is StepTag.STUCK:
            return
        if probe.tag is StepTag.NEED_DIR:
            feas = feasible(iv, cfg1)
            if not feas:
                return
            d = rng.choice(feas)
        else:
            d = None
        r1 = iv.step(cfg1, d)
        r2 = iv.step(cfg2, d)
        if r1.tag is not StepTag.STEPPED or r2.tag is not StepTag.STEPPED:
            return
        if r1.obs != r2.obs:
            return
        n1, n2 = r1.cfg, r2.cfg
        if isinstance(n1, FsIdealConfig):
            assert n1.acom == n2.acom
            assert (n1.pc, n1.P, n1.PA) == (n2.pc, n2.P, n2.PA)
            cur_P, cur_PA = n1.P, n1.PA
        else:
            assert n1.com == n2.com
            cur_P, cur_PA = P, PA
        assert n1.flag == n2.flag
        assert pub_equiv_scalars(cur_P, n1.rho, n2.rho)
        if variant == "fislh" or not n1.flag:
            assert pub_equiv_arrays(cur_PA, n1.mu, n2.mu)
        cfg1, cfg2 = n1, n2


def test_criterion_10_noninterference_and_unwinding():
    with _Budget("10", 300):
        rng = random.Random(1010)
        bounds = Bounds(5, 400)
        for variant in ("fislh", "fvslh", "fsfvslh"):
            ni_done = unwind_done = 0
            while ni_done < 300 or unwind_done < 150:
                com = gen_program(rng.randrange(10**9), 10, pools)
                P, PA = random_labeling(rng, pools)
                if variant != "fsfvslh" and not wt_ifc(P, PA, PUBLIC, com):
                    continue
                if ni_done < 300:
                    s1, s2 = _related_pair(rng, P, PA, False, variant != "fislh")
                    _ni_walk(variant, com, P, PA, s1, s2, rng)
                    ni_done += 1
                if unwind_done < 150:
                    s1, s2 = _related_pair(rng, P, PA, True, variant != "fislh")
                    v = check_unwinding(variant, com, P, PA, s1, s2, bounds)
                    assert v.status is not VerdictStatus.VIOLATED, (variant, v.witness)
                    unwind_done += 1


def test_criterion_11_erasure_and_sequential_transparency():
    with _Budget("11", 60):
        rng = random.Random(1011)
        rho0, mu0 = parse_state("x = 1\ny = 2\ni = 0\nk = 1\na = [1,2]\nc = [3]")
        variants = ("islh", "sislh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh")
        for n in range(1000):
            com = gen_program(rng.randrange(10**9), 12, pools)
            base = seq_run(com, rho0, mu0, 500)
            spec = run(Speculative(), SpecConfig(com, rho0, mu0, False), [STEP] * 120, 500)
            assert spec.trace == base.trace
            assert spec.final.rho == base.rho and spec.final.mu == base.mu
            P, PA = random_labeling(rng, pools)
            kind = variants[n % len(variants)]
            hardened = transform(kind, com, P, PA)
            out = seq_run(hardened, rho0, mu0, 3000)
            assert out.trace == base.trace
            if base.kind is RunKind.TERMINATED:
                names = (out.rho.names() | base.rho.names()) - {"b"}
                assert all(out.rho.get(x) == base.rho.get(x) for x in names)
                assert out.mu == base.mu


def test_criterion_12_parser_round_trip():
    with _Budget("12", 10):
        for seed in range(1000):
            com = gen_program(seed, 14, pools)
            assert parse_com(pretty_com(com)) == com
