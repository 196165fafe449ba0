"""Right-module layer tests.

Expected values fixed by hand before the implementation:

* over the path algebra of 1 -> 2 ("ladder-1") the projectives are
  P1 = (e1, a) with dimension vector [1, 1] and P2 = (e2) = S2; the
  almost split sequence 0 -> S2 -> P1 -> S1 -> 0 forces tau(S1) = S2;
* over nakayama-2 (x: 1 -> 2, y: 2 -> 1, xy = yx = 0) the translate
  swaps the two simples: min pres of S1 is P2 --x--> P1, transposing
  gives Ae1 -> Ae2 with cokernel the left simple at 2, whose dual is S2;
* Hom(e_s A, e_t A) is the block e_t A e_s, so hom dimensions between
  projectives must equal basis-block counts of the algebra itself.
"""
from __future__ import annotations

import hashlib

import pytest

from tautilt import catalog
from tautilt.complexes import hom_homotopy
from tautilt.engine import enumerate_graph
from tautilt.fields import PrimeField
from tautilt.modules import Module, ModuleError, is_stau_pair


@pytest.fixture(scope="module")
def ladder1():
    return catalog.build("ladder-1")


@pytest.fixture(scope="module")
def nak2():
    return catalog.build("nakayama-2")


def test_projective_dim_vectors(ladder1):
    P1 = Module.projective(ladder1, 1)
    P2 = Module.projective(ladder1, 2)
    assert P1.dim_vector() == [1, 1]
    assert P2.dim_vector() == [0, 1]
    assert P1.dim == 2 and P2.dim == 1


def test_simple_dim_vectors(ladder1):
    assert Module.simple(ladder1, 1).dim_vector() == [1, 0]
    assert Module.simple(ladder1, 2).dim_vector() == [0, 1]


def test_projective_validates(ladder1, nak2):
    for A in (ladder1, nak2):
        for v in A.vertex_labels:
            Module.projective(A, v).validate()
            Module.simple(A, v).validate()


def test_hom_dims_ladder1(ladder1):
    P1 = Module.projective(ladder1, 1)
    P2 = Module.projective(ladder1, 2)
    S1 = Module.simple(ladder1, 1)
    assert P2.hom_dim(P1) == 1      # inclusion rad P1 = P2
    assert P1.hom_dim(P2) == 0
    assert P1.hom_dim(S1) == 1      # the top surjection
    assert S1.hom_dim(P1) == 0
    assert P1.hom_dim(P1) == 1


def test_hom_between_projectives_counts_blocks():
    # Hom(e_s A, e_t A) = e_t A e_s, computed two ways
    for key in ("A5", "L2", "preproj-A3", "nakayama-2"):
        A = catalog.build(key)
        projs = {v: Module.projective(A, v) for v in A.vertex_labels}
        for s_i, s in enumerate(A.vertex_labels):
            for t_i, t in enumerate(A.vertex_labels):
                block = sum(1 for k in range(A.dim)
                            if A.src[k] == t_i and A.tgt[k] == s_i)
                assert projs[s].hom_dim(projs[t]) == block, (key, s, t)


def test_direct_sum(ladder1):
    P1 = Module.projective(ladder1, 1)
    S1 = Module.simple(ladder1, 1)
    M = Module.direct_sum([P1, S1, S1])
    assert M.dim_vector() == [3, 1]
    M.validate()


def test_min_presentation_slots_a5():
    A = catalog.build("A5")
    S1 = Module.simple(A, 1)
    S2 = Module.simple(A, 2)
    p1 = S1.min_presentation()
    # cover is P1; relations generated by the two arrows out of vertex 1
    assert p1.zero == [1]
    assert sorted(p1.neg) == [1, 2]
    p2 = S2.min_presentation()
    assert p2.zero == [2]
    assert sorted(p2.neg) == [1]


def test_tau_of_projectives_vanishes():
    for key in ("ladder-1", "A5", "nakayama-2", "preproj-A3"):
        A = catalog.build(key)
        for v in A.vertex_labels:
            assert Module.projective(A, v).tau().dim == 0


def test_tau_simple_ladder1(ladder1):
    S1 = Module.simple(ladder1, 1)
    S2 = Module.simple(ladder1, 2)
    T = S1.tau()
    assert T.dim_vector() == [0, 1]
    assert T.is_iso(S2)
    # S2 is projective here
    assert S2.tau().dim == 0


def test_tau_swaps_nakayama_simples(nak2):
    S1 = Module.simple(nak2, 1)
    S2 = Module.simple(nak2, 2)
    assert S1.tau().is_iso(S2)
    assert S2.tau().is_iso(S1)


def test_tau_additive(nak2):
    S1 = Module.simple(nak2, 1)
    S2 = Module.simple(nak2, 2)
    M = Module.direct_sum([S1, S2])
    assert sorted(t for t in M.tau().dim_vector()) == [1, 1]


@pytest.mark.parametrize("p", [None, 2147483647], ids=["QQ", "GFp"])
@pytest.mark.parametrize("key", ["nakayama-2", "A5", "L1", "preproj-A3",
                                 "exrs0-1"])
def test_tau_matches_hom_complex(key, p):
    """Hom(N, tau M) = 0 exactly when Hom(P_M, P_N[1]) = 0 in the homotopy
    category (Adachi-Iyama-Reiten), over the module summands of the closed
    walk: tau read off the transposed presentation against the Hom
    complex of the presentations themselves."""
    A = catalog.build(key, field=PrimeField(p)) if p else catalog.build(key)
    by_g = {t.g_vector(): t.h0_module()
            for node in enumerate_graph(A).nodes.values()
            for t in node.summands if t.zero}
    mods = [by_g[g] for g in sorted(by_g)]
    pres = [M.min_presentation() for M in mods]
    taus = [M.tau() for M in mods]
    for XM, TM in zip(pres, taus):
        for N, XN in zip(mods, pres):
            assert (N.hom_dim(TM) == 0) == (hom_homotopy(XM, XN, 1) == 0)


def test_end_local(nak2):
    P1 = Module.projective(nak2, 1)
    P2 = Module.projective(nak2, 2)
    S1 = Module.simple(nak2, 1)
    assert P1.end_is_local()
    assert S1.end_is_local()
    assert not Module.direct_sum([P1, P2]).end_is_local()
    assert not Module.direct_sum([S1, S1]).end_is_local()


def test_end_radical_needs_large_characteristic():
    # the trace form gives the End radical only in characteristic 0 or
    # above dim End, and End(S1 + S1) = M_2(k) has dimension 4
    def square(p):
        S1 = Module.simple(catalog.build("ladder-1", field=PrimeField(p)), 1)
        return Module.direct_sum([S1, S1])
    with pytest.raises(ModuleError):
        square(2).end_is_local()
    assert not square(5).end_is_local()


def test_stau_pairs_nakayama(nak2):
    P1 = Module.projective(nak2, 1)
    P2 = Module.projective(nak2, 2)
    S1 = Module.simple(nak2, 1)
    S2 = Module.simple(nak2, 2)
    assert is_stau_pair(nak2, [P1, P2], [])
    assert is_stau_pair(nak2, [S1], [2])
    assert is_stau_pair(nak2, [], [1, 2])           # the zero pair
    assert not is_stau_pair(nak2, [S1, S2], [])     # Hom(S1, tau S2) != 0
    assert not is_stau_pair(nak2, [P1], [])         # too few summands
    assert not is_stau_pair(nak2, [S1], [1])        # support meets removed
    assert not is_stau_pair(nak2, [S1, S1], [])     # repeated summand


def test_invalid_action_rejected(nak2):
    F = nak2.field
    one, zero = F.one, F.zero
    # x and y both acting by 1 contradicts x*y = 0
    vtx = [0, 1]
    act = {}
    for k in range(nak2.dim):
        act[k] = [[zero, zero], [zero, zero]]
    act[0] = [[one, zero], [zero, zero]]
    act[1] = [[zero, zero], [zero, one]]
    xk = next(k for k in range(nak2.dim) if nak2.labels[k] == "x")
    yk = next(k for k in range(nak2.dim) if nak2.labels[k] == "y")
    act[xk] = [[zero, one], [zero, zero]]
    act[yk] = [[zero, zero], [one, zero]]
    with pytest.raises(ModuleError):
        Module.from_action(nak2, vtx, act)


def test_unknown_vertex_rejected(ladder1):
    with pytest.raises(ModuleError):
        Module.projective(ladder1, 99)


def _projective_oracle(A, v):
    """The action matrices of P_v filled entry by entry from A.mul."""
    F = A.field
    basis = [k for k in range(A.dim) if A.src[k] == v]
    pos = {k: i for i, k in enumerate(basis)}
    act = []
    for g in range(A.dim):
        Mg = [[F.zero] * len(basis) for _ in basis]
        for i, k in enumerate(basis):
            for kk, c in A.mul({k: F.one}, {g: F.one}).items():
                Mg[i][pos[kk]] = c
        act.append(Mg)
    return act


def _direct_sum_oracle(F, acts):
    """Block-diagonal action matrices copied entry by entry."""
    total = sum(len(act[0]) for act in acts)
    out = []
    for g in range(len(acts[0])):
        big = [[F.zero] * total for _ in range(total)]
        off = 0
        for act in acts:
            m = len(act[g])
            for i in range(m):
                for j in range(m):
                    big[off + i][off + j] = act[g][i][j]
            off += m
        out.append(big)
    return out


def _typed_act(act):
    return [[[(type(x), x) for x in row] for row in Mg] for Mg in act]


@pytest.mark.parametrize("p", [None, 101], ids=["QQ", "GF101"])
@pytest.mark.parametrize("key", ["A3", "L10", "preproj-A3", "nakayama-2"])
def test_projective_and_direct_sum_match_mul_oracle(key, p):
    """Module.projective reads each product off one table row and
    direct_sum copies row slices; both give the action matrices of the
    entry-by-entry construction, values and types."""
    A = catalog.build(key, field=PrimeField(p)) if p else catalog.build(key)
    projs, oracles = [], []
    for v in range(A.n):
        P = Module.projective(A, A.vertex_labels[v])
        oracles.append(_projective_oracle(A, v))
        assert _typed_act(P.act) == _typed_act(oracles[-1])
        projs.append(P)
    picks = [list(range(A.n)), [A.n - 1, 0, A.n - 1]]
    for pick in picks:
        S = Module.direct_sum([projs[v] for v in pick])
        want = _direct_sum_oracle(A.field, [oracles[v] for v in pick])
        assert _typed_act(S.act) == _typed_act(want)
        assert S.vtx == [x for v in pick for x in projs[v].vtx]


def test_quotient_and_submodule_reject_unstable_rows(nak2):
    # over nakayama-2, P1 = (e1, x): e1 generates P1, so span{e1} is not a
    # submodule, while span{x} = soc P1 = S2 is
    P1 = Module.projective(nak2, 1)
    F = nak2.field
    top, soc = [F.one, F.zero], [F.zero, F.one]
    with pytest.raises(ModuleError):
        P1.quotient([top])
    with pytest.raises(ModuleError):
        P1.submodule([top])
    with pytest.raises(ModuleError):
        Module.direct_sum([P1, P1]).quotient([top + soc])
    assert P1.quotient([soc]).is_iso(Module.simple(nak2, 1))
    sub, basis = P1.submodule([soc])
    assert sub.is_iso(Module.simple(nak2, 2)) and basis == [soc]


def _sub_quotient_modules(A):
    """Quotients and submodules of each projective P by its socle and
    radical, and the quotient of P + P by the socle embedded as
    x -> (2x, 3x), whose last pivots have entry 3."""
    F = A.field
    out = []
    for v in A.vertex_labels:
        P = Module.projective(A, v)
        for rows in (P.socle_rows(), P.radical_rows()):
            out.append(P.quotient(rows))
            out.append(P.submodule(rows)[0])
        two, three = F.of(2), F.of(3)
        out.append(Module.direct_sum([P, P]).quotient(
            [[F.mul(two, x) for x in r] + [F.mul(three, x) for x in r]
             for r in P.socle_rows()]))
    return out


# frozen from the quotient and submodule that read coordinates off a
# coefficient-tracking span
SUB_QUOTIENT_DIGESTS = {
    ("A3", None):
        "4151bd3241c87042fd8f0bfd33c2e2f6bf936bcc7b0681ab4ce204574519be64",
    ("A3", 101):
        "090ea8246a7b60256171a6cd7b21b2f049862c97787f90a23f49abb184c56f56",
    ("nakayama-2", None):
        "c621c32715d9a723773c8e842d6fdfd99c4b10a8da55ef6e12f81f0d15d26fb3",
    ("nakayama-2", 101):
        "19a44dc7df8e407edf12fa0fb33ef0c0401cfda9dd9b3b45f7c9b2e4fc50a576",
    ("preproj-A3", None):
        "c4286144d78dfca24a9001073ad3948c539d8f04d42e5df03f084639df983e97",
    ("preproj-A3", 101):
        "449f46df08557d248b9451a0137473f1d773ebcaa52218ffcf1b321efdbbc9f7",
    ("exrs0-1", None):
        "a37774fa7a06886fd0456d26dd6a3bbced159be87cc2322ff153b04b6dfd5dfb",
    ("exrs0-1", 101):
        "a8909cf326ffcd1811947301856ae44870ebb9ed0c03f74135fe3fc663062aca",
}


@pytest.mark.parametrize("p", [None, 101], ids=["QQ", "GF101"])
@pytest.mark.parametrize("key", ["A3", "nakayama-2", "preproj-A3",
                                 "exrs0-1"])
def test_sub_quotient_digests(key, p):
    """The action matrices of _sub_quotient_modules, values and types."""
    A = catalog.build(key, field=PrimeField(p)) if p else catalog.build(key)
    payload = [(M.vtx, _typed_act(M.act)) for M in _sub_quotient_modules(A)]
    digest = hashlib.sha256(repr(payload).encode()).hexdigest()
    assert digest == SUB_QUOTIENT_DIGESTS[key, p]


def _presentation_modules(A):
    """Each simple, projective, P/soc P and rad P."""
    out = []
    for v in A.vertex_labels:
        P = Module.projective(A, v)
        out += [Module.simple(A, v), P, P.quotient(P.socle_rows()),
                P.submodule(P.radical_rows())[0]]
    return out


def _presentation_digest(A):
    """sha256 of (zero, neg, d) of min_presentation() and of
    (vtx, act) of tau() over _presentation_modules, scalar types
    included."""
    payload = []
    for M in _presentation_modules(A):
        pres = M.min_presentation()
        entries = [[sorted((k, type(c), c) for k, c in e.items())
                    for e in row] for row in pres.d]
        T = M.tau()
        payload.append((pres.zero, pres.neg, entries,
                        T.vtx, _typed_act(T.act)))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# frozen from the cover and presentation that added unit vectors to a span
# one by one and kept those that enlarged it
PRESENTATION_DIGESTS = {
    ("nakayama-2", None):
        "cad878eb31be5107322b6a5bd5db98d5288d372d8cb00f44c7e27bd70c3df7c4",
    ("nakayama-2", 101):
        "cad878eb31be5107322b6a5bd5db98d5288d372d8cb00f44c7e27bd70c3df7c4",
    ("A5", None):
        "6c73c329e5229db0e94ec38f863f477ccfcfa22d28245cd871c6e1ef3605affa",
    ("A5", 101):
        "7453a364923fcc91b3b5b689f62595cd2a89d055fad0bfd355fcddc6fde706c8",
    ("L1", None):
        "2dfaeadb97bed0b5143b2f359e48dc536b580f2fee4afc0eaa113b50e7e7792c",
    ("L1", 101):
        "49adb87e14f6aa7db968d222e18608f7d7031f15117f0db5c76ad7d26c96c2c5",
    ("preproj-A3", None):
        "3941ecb2c957ac393c7e8114e4a477642a1ca76e6937405313ed5f8a0f1e35c0",
    ("preproj-A3", 101):
        "de125f3b7a63cc8291bdb677dd93faacb9412875e492488e06f00dc66549181c",
    ("exrs0-1", None):
        "09db4c5592229522af5ef2bf7c0f555326e584ca346449e4fff67a39e5ed700b",
    ("exrs0-1", 101):
        "597c7de3f010336ce9153e91bc62f320faf4a6f48f8a5a76282545990c44a572",
    ("ladder-2", None):
        "41e449ba99a912441b77909c81b822efe24db611e5e872529ccdc39153093224",
    ("ladder-2", 101):
        "66cafb46918378f26ba12330a72251307d3d841d693b14b1b32a99fdf8dcacf8",
}


@pytest.mark.parametrize("p", [None, 101], ids=["QQ", "GF101"])
@pytest.mark.parametrize("key", ["nakayama-2", "A5", "L1", "preproj-A3",
                                 "exrs0-1", "ladder-2"])
def test_min_presentation_digests(key, p):
    A = catalog.build(key, field=PrimeField(p)) if p else catalog.build(key)
    assert _presentation_digest(A) == PRESENTATION_DIGESTS[key, p]
