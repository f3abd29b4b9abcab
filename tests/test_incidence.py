"""Profiles, the pair-count identity, parity, tables, abstraction, files."""

import itertools
import json
from array import array
from collections import Counter

import pytest

from conftest import brute_force_tvec, random_arrangement

from triplelines.certificates import (
    CERTIFICATE_NAMES,
    builtin,
    dual_hesse_from_pg23,
    instantiate,
)
from triplelines.constraints import default_battery
from triplelines.errors import IndexOutOfRange, UnknownLabel
from triplelines.field import make_field, roots_of
from triplelines.incidence import (
    AbstractIncidence,
    Arrangement,
    abstract,
    arrangement_from_json,
    arrangement_to_json,
    check_identity,
    isomorphic,
    load_arrangement,
    parity_check,
    profile,
    remove_line,
    save_arrangement,
    table,
)
from triplelines.projective import ProjLine, ProjPoint, cross, enumerate_lines, incident, meet
from triplelines.torsion import torsion_dual, torsion_model


def lines_of(F, coords):
    return [ProjLine(F, c) for c in coords]


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_ten_e2(gf5):
    prof = profile(instantiate("TEN_E2", gf5))
    assert prof.tvec == {3: 13, 2: 6}
    assert prof.triple_count("exact3") == 13
    assert prof.triple_count("atleast3") == 13


def test_profile_ten_e1(gf4):
    prof = profile(instantiate("TEN_E1", gf4))
    assert prof.tvec == {4: 1, 3: 12, 2: 3}
    assert prof.triple_count("exact3") == 12
    assert prof.triple_count("atleast3") == 13


def test_profile_star(gf5):
    # four lines in general position: all C(4,2) meets distinct
    A = Arrangement(gf5, lines_of(gf5, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))
    assert profile(A).tvec == {2: 6}


def test_profile_matches_plane_scan_oracle(gf5, rng):
    for s in (3, 5, 8):
        for _ in range(20):
            A = random_arrangement(gf5, s, rng)
            assert profile(A).tvec == brute_force_tvec(A)


def _all_pairs_oracle(A):
    """Lines through each meet, parity rows and blocks, by testing every
    meet against every line."""
    through = {}
    for L1, L2 in itertools.combinations(A.lines, 2):
        P = meet(L1, L2)
        through[P] = tuple(i for i, L in enumerate(A.lines) if incident(P, L))
    points = {P: len(b) for P, b in through.items()}
    mults = [tuple(sorted(m for P, m in points.items() if incident(P, L)))
             for L in A.lines]
    blocks = sorted(through.values(), key=lambda b: (len(b), b))
    return through, mults, tuple(blocks)


def _oracle_corpus(rng):
    for F in (make_field(5), make_field(3, 2), make_field(2, 4)):
        for s in range(1, 13):
            for _ in range(3):
                yield random_arrangement(F, s, rng)
    F = make_field(5)
    pencil = [(1, c, 0) for c in range(5)] + [(0, 1, 0)]   # all six through (0:0:1)
    yield Arrangement(F, lines_of(F, pencil))
    yield Arrangement(F, lines_of(F, pencil[:5] + [(0, 0, 1)]))   # a near-pencil


def test_profile_parity_abstract_match_all_pairs_oracle(rng):
    for A in _oracle_corpus(rng):
        through, mults, blocks = _all_pairs_oracle(A)
        points = {P: len(b) for P, b in through.items()}
        prof = profile(A)
        assert prof.lines_through == through
        assert prof.points == points
        assert list(prof.points) == sorted(points)
        assert list(prof.tvec) == sorted(prof.tvec)
        assert prof.tvec == dict(Counter(points.values()))
        assert [r.point_multiplicities for r in parity_check(A, prof).rows] == mults
        assert abstract(A, prof).blocks == blocks
        tab = table(A)
        assert [sum(row[j] for row in tab.cells) for j in range(len(tab.col_labels))] \
            == [points[P] for P in sorted(points)]


def _assert_profile_matches_cross_products(A):
    """profile() against meets taken as FieldElement cross products."""
    through = {}
    for (i, L1), (j, L2) in itertools.combinations(enumerate(A.lines), 2):
        P = ProjPoint(A.field, cross(L1.coords, L2.coords))
        assert meet(L1, L2) == P
        through.setdefault(P, set()).update((i, j))
    lines_through = [(P, tuple(sorted(through[P]))) for P in sorted(through)]
    prof = profile(A)
    assert list(prof.lines_through.items()) == lines_through
    assert [P.key() for P in prof.lines_through] == sorted(P.key() for P in through)
    assert [P.coords for P in prof.lines_through] == [P.coords for P, _ in lines_through]
    assert all(P.field is A.field for P in prof.lines_through)
    assert list(prof.points.items()) == [(P, len(ix)) for P, ix in lines_through]
    assert list(prof.tvec.items()) == sorted(Counter(len(ix) for _, ix in lines_through).items())


def test_profile_matches_cross_products_on_certificates():
    for name in CERTIFICATE_NAMES:
        cert = builtin(name)
        for F in default_battery():
            if cert.eligibility(F) is not None:
                continue
            values = roots_of(cert.param.poly, F) if cert.param else [None]
            for value in values:
                _assert_profile_matches_cross_products(instantiate(cert, F, value))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_profile_matches_cross_products_on_random_arrangements(p, k, rng):
    F = make_field(p, k)
    lines = enumerate_lines(F)
    for s in range(2, min(len(lines), 13)):
        for _ in range(3):
            _assert_profile_matches_cross_products(Arrangement(F, rng.sample(lines, s)))


def test_single_line_profile(gf5):
    A = Arrangement(gf5, lines_of(gf5, [(1, 0, 0)]))
    assert profile(A).tvec == {}


def test_duplicate_lines_rejected(gf5):
    with pytest.raises(ValueError):
        Arrangement(gf5, lines_of(gf5, [(1, 0, 0), (2, 0, 0)]))


# ---------------------------------------------------------------------------
# the pair-count identity
# ---------------------------------------------------------------------------

def test_check_identity_examples():
    assert check_identity(11, {3: 17, 2: 4})     # 51 + 4 = 55
    assert check_identity(11, {3: 16, 2: 7})     # 48 + 7 = 55
    assert not check_identity(7, {3: 8})         # 24 != 21


def test_identity_holds_on_random_arrangements(rng):
    for q, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]:
        F = make_field(q, k)
        n = F.order ** 2 + F.order + 1
        for _ in range(60):
            s = rng.randint(2, min(9, n))
            prof = profile(random_arrangement(F, s, rng))
            assert check_identity(s, prof.tvec)


# ---------------------------------------------------------------------------
# per-line parity
# ---------------------------------------------------------------------------

def test_parity_fano(gf2):
    A = Arrangement(gf2, enumerate_lines(gf2))
    rep = parity_check(A)
    assert rep.all_pass
    assert len(rep.lines_with_only_triples) == 7
    # a line carrying only triple points forces s - 1 to be even
    assert rep.s % 2 == 1


def test_parity_ten_e2_has_no_pure_triple_line(gf5):
    rep = parity_check(instantiate("TEN_E2", gf5))
    assert rep.all_pass
    # s = 10 is even, so the parity consequence forbids such a line
    assert rep.lines_with_only_triples == ()


def test_parity_random_sweep(gf5, rng):
    for _ in range(40):
        A = random_arrangement(gf5, rng.randint(2, 9), rng)
        assert parity_check(A).all_pass


# ---------------------------------------------------------------------------
# incidence tables
# ---------------------------------------------------------------------------

def test_table_structure(gf5):
    A = instantiate("TEN_E2", gf5)
    tab = table(A)
    assert len(tab.row_labels) == 10
    assert len(tab.col_labels) == 19            # 13 triples + 6 doubles
    column_sums = [sum(row[j] for row in tab.cells) for j in range(len(tab.col_labels))]
    assert sorted(column_sums, reverse=True)[:13] == [3] * 13
    csv = tab.to_csv()
    assert csv.count("\n") == 11
    with pytest.raises(UnknownLabel):
        tab.cell("L_1", "nonexistent")


def test_table_single_line(gf5):
    A = Arrangement(gf5, lines_of(gf5, [(1, 0, 0)]))
    assert table(A).col_labels == ()


# ---------------------------------------------------------------------------
# line removal
# ---------------------------------------------------------------------------

def test_remove_line_dual_hesse():
    A = dual_hesse_from_pg23()
    assert profile(A).tvec == {3: 12}
    for i in range(A.s):
        assert profile(remove_line(A, i)).tvec == {3: 8, 2: 4}


def test_remove_line_fano(gf2):
    A = Arrangement(gf2, enumerate_lines(gf2))
    assert profile(remove_line(A, 3)).tvec == {3: 4, 2: 3}


def test_remove_line_errors(gf5):
    A = Arrangement(gf5, lines_of(gf5, [(1, 0, 0)]))
    with pytest.raises(IndexOutOfRange):
        remove_line(A, 0)
    B = Arrangement(gf5, lines_of(gf5, [(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(IndexOutOfRange):
        remove_line(B, 5)


def test_remove_line_only_touches_removed_incidences(gf5, rng):
    # multiplicity drops by exactly one on the removed line's points (falling
    # out of the profile when it reaches 1) and is unchanged elsewhere
    from triplelines.projective import incident

    for _ in range(15):
        A = random_arrangement(gf5, 7, rng)
        prof = profile(A)
        idx = rng.randrange(A.s)
        removed = A.lines[idx]
        after = profile(remove_line(A, idx))
        for P, m in prof.points.items():
            if incident(P, removed):
                if m == 2:
                    assert P not in after.points
                else:
                    assert after.points[P] == m - 1
            else:
                assert after.points[P] == m


# ---------------------------------------------------------------------------
# abstraction and isomorphism
# ---------------------------------------------------------------------------

def _assert_matches_recount(ab):
    """`pair`, `signature` and the columns against a recount from the
    blocks, one by one."""
    holding = {}
    through = [[] for _ in range(ab.num_lines)]
    for k, b in enumerate(ab.blocks):
        for u, v in itertools.permutations(b, 2):
            holding.setdefault((u, v), []).append(k)
        for u in b:
            through[u].append(len(b))
    for u, v in itertools.product(range(ab.num_lines), repeat=2):
        assert [ab.pair[u][v]] == holding.get((u, v), [-1])
    assert ab.signature == [tuple(sorted(Counter(sizes).items())) for sizes in through]
    assert AbstractIncidence(ab.num_lines, ab.blocks).blocks == ab.blocks
    assert all(type(c) is array and c.typecode == "i" for cols in ab.runs for c in cols)


def test_abstract_blocks_are_partial_linear(gf5, rng):
    ab = abstract(instantiate("TEN_E2", gf5))
    assert ab.num_lines == 10
    assert sorted(len(b) for b in ab.blocks) == [2] * 6 + [3] * 13
    _assert_matches_recount(ab)
    # packings whose blocks of sizes 2, 3 and 4 come in many runs of each size
    for _ in range(20):
        candidates = [c for k in (2, 3, 4) for c in itertools.combinations(range(12), k)]
        rng.shuffle(candidates)
        covered, blocks = set(), []
        for c in candidates:
            pairs = set(itertools.combinations(c, 2))
            if not pairs & covered:
                covered |= pairs
                blocks.append(c)
        sizes = Counter(map(len, blocks))
        assert len(sizes) == 3 and min(sizes.values()) >= 2
        while min(Counter(k for k, _ in itertools.groupby(map(len, blocks))).values()) < 2:
            rng.shuffle(blocks)
        _assert_matches_recount(AbstractIncidence(12, tuple(blocks)))
    duals = {p: torsion_dual(torsion_model(p)) for p in (5, 7)}
    for dual in duals.values():
        _assert_matches_recount(dual)

    def relabelled(ab, perm):
        return AbstractIncidence(ab.num_lines,
                                 tuple(tuple(sorted(perm[i] for i in b)) for b in ab.blocks))

    # a random relabelling of the p = 5 dual, which the backtracking must undo
    perm = list(range(25))
    rng.shuffle(perm)
    assert isomorphic(duals[5], relabelled(duals[5], perm))
    # the p = 7 dual relabelled by an invertible linear map of (Z/7)^2: the
    # same blocks, listed in another order (a random relabelling of 49 lines
    # leaves the backtracking too many dead branches)
    while True:
        a, b, c, d = (rng.randrange(7) for _ in range(4))
        if (a * d - b * c) % 7:
            break
    perm = [(a * x + b * y) % 7 * 7 + (c * x + d * y) % 7 for x, y in torsion_model(7).points]
    linear = relabelled(duals[7], perm)
    assert linear.blocks != duals[7].blocks
    assert isomorphic(duals[7], linear) and isomorphic(linear, duals[7])


@pytest.mark.parametrize("blocks, message", [
    pytest.param(((0, 1, 2), (0, 1, 3)), "more than one block", id="pair-in-two-blocks"),
    pytest.param(((0, 1, 2), (0, 1, 2)), "more than one block", id="duplicate-block"),
    pytest.param(((0, 1, 2), (1, 2)), "more than one block", id="pair-in-blocks-of-two-sizes"),
    pytest.param(((0, 1, 2), (3,)), "at least two lines", id="one-line-block"),
    pytest.param(((-1, 0, 1),), "out of range", id="index-minus-one"),
    pytest.param(((0, 1, 4),), "out of range", id="index-num-lines"),
    pytest.param(((0, 1, 2), (2, 4)), "out of range", id="index-num-lines-in-a-later-run"),
    pytest.param(((0, 2 ** 40),), "out of range", id="index-beyond-a-c-int"),
    pytest.param(((0, 3), frozenset({0, 1, 2})), "strictly increasing tuple", id="frozenset"),
    pytest.param(((0, 3), (0, 2, 1)), "strictly increasing tuple", id="unsorted-tuple"),
    pytest.param(((0, 1, 2), (3, 0)), "strictly increasing tuple", id="unsorted-in-a-later-run"),
    pytest.param(((0, 3), (0, 1, 1)), "strictly increasing tuple", id="repeated-member"),
    pytest.param([(0, 1), (2, 3)], "strictly increasing tuple", id="list-of-blocks"),
    pytest.param(((True, 2),), "strictly increasing tuple", id="bool-member"),
    pytest.param(((0, 1.0, 2),), "strictly increasing tuple", id="float-member"),
])
def test_abstract_rejects_bad_blocks(blocks, message):
    with pytest.raises(ValueError, match=message):
        AbstractIncidence(4, blocks)


def _columns(blocks: tuple) -> tuple:
    """The blocks as from_runs takes them: per run of one size, its array('i')
    columns."""
    return tuple(tuple(array("i", col) for col in zip(*run))
                 for _, run in itertools.groupby(blocks, len))


@pytest.mark.parametrize("blocks, message", [
    pytest.param(((0, 3), (2, 1)), r"block \(2, 1\) is not a strictly increasing tuple",
                 id="decreasing-block"),
    pytest.param(((0, 1, 2), (0, 4)), "out of range", id="index-out-of-range"),
    pytest.param(((0, 1, 2), (2, 3), (0, 2)), "more than one block", id="pair-held-twice"),
])
def test_tuples_and_columns_are_rejected_alike(blocks, message):
    errors = []
    for build in (lambda: AbstractIncidence(4, blocks),
                  lambda: AbstractIncidence.from_runs(4, _columns(blocks))):
        with pytest.raises(ValueError, match=message) as caught:
            build()
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("runs, message", [
    pytest.param(((array("i", [0]), (1,)),), "array", id="tuple-column"),
    pytest.param(((array("i", [0]), array("l", [1])),), "array", id="long-column"),
    pytest.param(((array("i", [0, 1]), array("i", [2])),), "differ in length",
                 id="columns-of-two-lengths"),
    pytest.param(((array("i", [0]),),), "at least two lines", id="one-column"),
])
def test_from_runs_rejects_bad_columns(runs, message):
    with pytest.raises(ValueError, match=message):
        AbstractIncidence.from_runs(4, runs)


def test_from_runs_matches_the_tuple_input():
    """Columns keep their runs (an empty one too) and give the structure
    that the same blocks as tuples give."""
    blocks = ((0, 1, 2), (3, 4), (0, 3, 5), (1, 4, 5), (2, 5))
    runs = _columns(blocks) + ((array("i"), array("i")),)
    X, Y = AbstractIncidence(6, blocks), AbstractIncidence.from_runs(6, runs)
    assert Y.runs is runs and Y.blocks == X.blocks == blocks
    assert Y.signature == X.signature == [((3, 2),), ((3, 2),), ((2, 1), (3, 1)),
                                          ((2, 1), (3, 1)), ((2, 1), (3, 1)),
                                          ((2, 1), (3, 2))]
    assert [list(row) for row in Y.pair] == [list(row) for row in X.pair]
    assert isomorphic(X, Y)


def test_isomorphic_reflexive_and_relabelling(gf2, rng):
    fano = Arrangement(gf2, enumerate_lines(gf2))
    ab = abstract(fano)
    assert isomorphic(ab, ab)
    for _ in range(5):
        perm = list(range(7))
        rng.shuffle(perm)
        shuffled = Arrangement(gf2, [fano.lines[i] for i in perm])
        assert isomorphic(ab, abstract(shuffled))
        assert isomorphic(abstract(shuffled), ab)


def test_isomorphic_distinguishes(gf2, gf5):
    fano = abstract(Arrangement(gf2, enumerate_lines(gf2)))
    star7 = abstract(Arrangement(gf5, lines_of(gf5, [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 4), (1, 4, 2)])))
    assert not isomorphic(fano, star7)


def test_isomorphic_reflexive_symmetric_on_certificates(rng):
    corpus = [
        instantiate("FANO", make_field(2)),
        instantiate("MOEBIUS_KANTOR", make_field(3)),
        instantiate("DUAL_HESSE", make_field(3)),
        instantiate("TEN_E1", make_field(2, 2)),
        instantiate("TEN_E2", make_field(5)),
        instantiate("ELEVEN_16", make_field(11)),
        instantiate("SMALL_6", make_field(7)),
    ]
    classes = [abstract(A) for A in corpus]
    for i, X in enumerate(classes):
        assert isomorphic(X, X)
        # invariance under random relabelling
        A = corpus[i]
        perm = list(range(A.s))
        rng.shuffle(perm)
        assert isomorphic(X, abstract(Arrangement(A.field, [A.lines[j] for j in perm])))
        for j, Y in enumerate(classes):
            assert isomorphic(X, Y) == isomorphic(Y, X)
            if i != j:
                assert not isomorphic(X, Y)


def test_isomorphic_cross_checked_with_networkx(gf5, rng):
    """Random arrangements, plus maximal packings of triangles into K9 and
    K10 and sparse spaces of 2- and 3-blocks on six lines (pairs in no
    block): these often share their line signatures without being
    isomorphic, so the backtracking has work to do."""
    networkx = pytest.importorskip("networkx")
    from networkx.algorithms import isomorphism as nxiso

    def to_graph(ab):
        g = networkx.Graph()
        for i in range(ab.num_lines):
            g.add_node(("line", i), kind="line")
        for j, blk in enumerate(ab.blocks):
            g.add_node(("block", j), kind=f"block{len(blk)}")
            for i in blk:
                g.add_edge(("block", j), ("line", i))
        return g

    def packing(n, sizes, max_blocks):
        candidates = [c for k in sizes for c in itertools.combinations(range(n), k)]
        rng.shuffle(candidates)
        covered, blocks = set(), []
        for c in candidates:
            pairs = set(itertools.combinations(c, 2))
            if not pairs & covered and len(blocks) < max_blocks:
                covered |= pairs
                blocks.append(c)
        return AbstractIncidence(n, tuple(blocks))

    def relabelled(ab):
        perm = list(range(ab.num_lines))
        rng.shuffle(perm)
        return AbstractIncidence(ab.num_lines,
                                 tuple(tuple(sorted(perm[i] for i in b)) for b in ab.blocks))

    def signature(ab):
        sig = [[] for _ in range(ab.num_lines)]
        for b in ab.blocks:
            for i in b:
                sig[i].append(len(b))
        return sorted(map(sorted, sig))

    pairs = [(abstract(random_arrangement(gf5, 6, rng)),
              abstract(random_arrangement(gf5, 6, rng))) for _ in range(10)]
    corpus = [packing(n, (3,), n * n) for n in (9, 10) for _ in range(15)]
    corpus += [packing(6, (2, 3), 5) for _ in range(80)]
    corpus += [relabelled(X) for X in corpus[::3]]
    pairs += [(X, Y) for X, Y in itertools.combinations(corpus, 2)
              if X.num_lines == Y.num_lines and signature(X) == signature(Y)]
    answers = Counter()
    for X, Y in pairs:
        expected = nxiso.GraphMatcher(
            to_graph(X), to_graph(Y),
            node_match=lambda x, y: x["kind"] == y["kind"]).is_isomorphic()
        assert isomorphic(X, Y) == expected
        answers[expected] += 1
    assert answers[True] >= 10 and answers[False] >= 10


# ---------------------------------------------------------------------------
# arrangement files
# ---------------------------------------------------------------------------

def test_json_round_trip(gf4, tmp_path):
    A = instantiate("TEN_E1", gf4)
    path = tmp_path / "a.json"
    save_arrangement(A, str(path))
    B = load_arrangement(str(path))
    assert B.field == A.field
    assert B.lines == A.lines
    assert B.labels == A.labels
    assert profile(B).tvec == profile(A).tvec


def test_json_prime_field_uses_plain_ints(gf5):
    d = arrangement_to_json(instantiate("TEN_E2", gf5))
    assert all(isinstance(c, int) for line in d["lines"] for c in line)
    back = arrangement_from_json(json.loads(json.dumps(d)))
    assert back.lines == instantiate("TEN_E2", gf5).lines


def test_json_extension_field_uses_coefficient_lists(gf4):
    d = arrangement_to_json(instantiate("TEN_E1", gf4))
    assert d["field"]["modulus"] == [1, 1, 1]
    assert all(isinstance(c, list) for line in d["lines"] for c in line)
