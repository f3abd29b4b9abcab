"""Search correctness: oracles, published optima, soundness, pruning honesty."""

import itertools
import os
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import brute_force_best_triples

from triplelines import forkpool, search
from triplelines.certificates import dual_hesse_from_pg23, instantiate
from triplelines.errors import FieldTooLarge
from triplelines.field import make_field, prime_power
from triplelines.incidence import (
    Arrangement,
    abstract,
    arrangement_to_json,
    isomorphic,
    profile,
)
from triplelines.projective import (
    FRAME_COORDS,
    ProjLine,
    enumerate_lines,
    enumerate_points,
    frame_stabilizer,
    incident,
    triple_position,
)
from triplelines.search import (
    Plane,
    SearchConfig,
    _Searcher,
    dual_search_seed,
    max_triple_search,
)


# ---------------------------------------------------------------------------
# seven lines: the characteristic-2 wall
# ---------------------------------------------------------------------------

def test_gf2_seven_lines_reaches_seven(gf2):
    rep = max_triple_search(SearchConfig(field=gf2, s=7, normalize_frame=False))
    assert rep.best == 7 and rep.exhaustive
    assert profile(rep.witnesses[0]).tvec == {3: 7}


def test_gf3_seven_lines_capped_at_six_vs_oracle(gf3):
    # independent oracle: all C(13,7) = 1716 subsets profiled directly
    assert brute_force_best_triples(gf3, 7) == 6
    rep = max_triple_search(SearchConfig(field=gf3, s=7, normalize_frame=False))
    assert rep.best == 6 and rep.exhaustive


def test_gf5_seven_lines_capped_at_six(gf5):
    rep = max_triple_search(SearchConfig(field=gf5, s=7, normalize_frame=True))
    assert rep.best == 6 and rep.exhaustive


def test_small_s_agrees_with_oracle(gf2, gf3):
    for F in (gf2, gf3):
        n = F.order ** 2 + F.order + 1
        for s in range(2, 7):
            if s > n:
                continue
            oracle = brute_force_best_triples(F, s)
            rep = max_triple_search(SearchConfig(field=F, s=s, normalize_frame=False))
            assert rep.best == oracle, (F, s)


def test_atleast3_metric_agrees_with_oracle(gf3):
    for s in (4, 5, 6):
        oracle = brute_force_best_triples(gf3, s, metric="atleast3")
        rep = max_triple_search(SearchConfig(field=gf3, s=s, metric="atleast3",
                                             normalize_frame=False))
        assert rep.best == oracle


# ---------------------------------------------------------------------------
# ten lines
# ---------------------------------------------------------------------------

def test_gf4_ten_lines_atleast3(gf4):
    rep = max_triple_search(SearchConfig(field=gf4, s=10, metric="atleast3"))
    assert rep.best == 13 and rep.exhaustive
    assert profile(rep.witnesses[0]).tvec == {4: 1, 3: 12, 2: 3}


def test_gf5_ten_lines_exact3_witness_matches_certificate(gf5):
    rep = max_triple_search(SearchConfig(field=gf5, s=10, metric="exact3"))
    assert rep.best == 13 and rep.exhaustive
    cert = abstract(instantiate("TEN_E2", gf5))
    assert any(isomorphic(abstract(w), cert) for w in rep.witnesses)


# ---------------------------------------------------------------------------
# eleven lines, target seventeen
# ---------------------------------------------------------------------------

def test_eleven_seventeen_unreachable_gf2_gf3(gf2, gf3):
    rep2 = max_triple_search(SearchConfig(field=gf2, s=11, target=17,
                                          normalize_frame=False))
    assert not rep2.target_reached and rep2.exhaustive
    assert any("has only 7 lines" in n for n in rep2.notes)
    rep3 = max_triple_search(SearchConfig(field=gf3, s=11, target=17,
                                          normalize_frame=False))
    assert not rep3.target_reached and rep3.exhaustive
    # every partial arrangement is cut before its eleventh line: no best exists
    assert rep3.best is None and not rep3.witnesses


def test_reports_flag_per_field_evidence(gf3):
    rep = max_triple_search(SearchConfig(field=gf3, s=6))
    assert any("per-field evidence" in n for n in rep.notes)


def test_eleven_sixteen_reachable_over_gf5(gf5):
    rep = max_triple_search(SearchConfig(field=gf5, s=11, target=16,
                                         metric="exact3"))
    assert rep.target_reached and rep.best == 16
    cert = abstract(instantiate("ELEVEN_16", gf5))
    assert any(isomorphic(abstract(w), cert) for w in rep.witnesses)


# ---------------------------------------------------------------------------
# witnesses via early stop, for isomorphism comparisons
# ---------------------------------------------------------------------------

def test_fano_witness_over_gf8(gf2):
    rep = max_triple_search(SearchConfig(field=make_field(2, 3), s=7, target=7))
    assert rep.target_reached
    fano = abstract(Arrangement(gf2, enumerate_lines(gf2)))
    assert isomorphic(abstract(rep.witnesses[0]), fano)


def test_dual_hesse_witness_over_gf4(gf4):
    rep = max_triple_search(SearchConfig(field=gf4, s=9, target=12))
    assert rep.target_reached
    assert isomorphic(abstract(rep.witnesses[0]), abstract(dual_hesse_from_pg23()))


def test_moebius_kantor_witness_over_gf4(gf4):
    rep = max_triple_search(SearchConfig(field=gf4, s=8, target=8))
    assert rep.target_reached
    from triplelines.incidence import remove_line
    mk = remove_line(dual_hesse_from_pg23(), 0)
    assert isomorphic(abstract(rep.witnesses[0]), abstract(mk))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_witness_soundness(gf3, gf5):
    for cfg in (SearchConfig(field=gf3, s=6, normalize_frame=False),
                SearchConfig(field=gf5, s=8),
                SearchConfig(field=gf3, s=9, metric="atleast3", normalize_frame=False)):
        rep = max_triple_search(cfg)
        assert rep.witnesses
        for w in rep.witnesses:
            assert profile(w).triple_count(cfg.metric) == rep.best


def test_frame_on_off_agreement(gf2, gf3, gf4):
    cases = [(gf2, 5), (gf2, 6), (gf2, 7), (gf3, 5), (gf3, 6), (gf3, 7),
             (gf3, 8), (gf3, 9), (gf4, 5), (gf4, 6), (gf4, 7), (gf4, 8), (gf4, 9)]
    for F, s in cases:
        on = max_triple_search(SearchConfig(field=F, s=s, normalize_frame=True))
        off = max_triple_search(SearchConfig(field=F, s=s, normalize_frame=False))
        assert on.best == off.best, (F, s)


def test_monotone_in_s_for_atleast3(gf3):
    # adding a line never removes a point of multiplicity >= 3
    n = len(enumerate_lines(gf3))
    best = [max_triple_search(SearchConfig(field=gf3, s=s, metric="atleast3",
                                           normalize_frame=False)).best
            for s in range(3, min(10, n) + 1)]
    assert best == sorted(best)


def test_exact3_not_monotone_near_full_plane(gf3):
    # regression: the exactly-3 count drops when the last line fills the plane
    r12 = max_triple_search(SearchConfig(field=gf3, s=12, normalize_frame=False))
    r13 = max_triple_search(SearchConfig(field=gf3, s=13, normalize_frame=False))
    assert r12.best == 4 and r13.best == 0


def test_node_budget_marks_report_non_exhaustive(gf5):
    rep = max_triple_search(SearchConfig(field=gf5, s=8, max_nodes=50))
    assert not rep.exhaustive and not rep.best_is_maximum


def test_config_rejects_meaningless_settings(gf5):
    with pytest.raises(ValueError, match="threads"):
        SearchConfig(field=gf5, s=8, threads=0)
    with pytest.raises(ValueError, match="max_nodes"):
        SearchConfig(field=gf5, s=8, max_nodes=-1)
    with pytest.raises(ValueError, match="target"):
        SearchConfig(field=gf5, s=8, target=-3)


@pytest.mark.parametrize("q, kwargs, expected", [
    (5, dict(s=10), (13, 1366, True)),
    (5, dict(s=10, threads=2), (13, 1366, True)),
    (5, dict(s=8), (7, 401, True)),
    (5, dict(s=8, metric="atleast3"), (7, 417, True)),
    (3, dict(s=7, normalize_frame=False), (6, 835, True)),
    # refutations of 11 lines with 17 triple points; GF(8) and GF(9) prune
    # under the Frobenius elements too
    (7, dict(s=11, target=17), (16, 7025, True)),
    (8, dict(s=11, target=17), (None, 4270, True)),
    (9, dict(s=11, target=17), (16, 12919, True)),
])
def test_node_counts_are_pinned(q, kwargs, expected):
    # exact node counts: a change here changes what the search visits
    rep = max_triple_search(SearchConfig(field=make_field(*prime_power(q)), **kwargs))
    assert (rep.best, rep.nodes_visited, rep.exhaustive) == expected


def _run_both(F, **kwargs):
    return [max_triple_search(SearchConfig(field=F, threads=t, **kwargs)) for t in (1, 2)]


def test_threads_match_sequential(gf3, gf5):
    # GF(5), s=8, atleast3 ties on more raw witnesses than the search keeps
    for F, kwargs in ((gf3, dict(s=7, normalize_frame=False)),
                      (gf5, dict(s=8, metric="atleast3")),
                      (gf5, dict(s=10))):
        seq, par = _run_both(F, **kwargs)
        assert (seq.best, seq.nodes_visited) == (par.best, par.nodes_visited)
        assert seq.exhaustive and par.exhaustive
        assert ([arrangement_to_json(w) for w in seq.witnesses]
                == [arrangement_to_json(w) for w in par.witnesses])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_leaves_no_worker_behind(gf5, monkeypatch):
    # every pass kills and reaps its workers, whether it stops early on the
    # target, runs out of branches, or fails
    rep = max_triple_search(SearchConfig(field=gf5, s=10, target=13, threads=2))
    assert rep.target_reached and not rep.exhaustive
    _no_child_left()
    rep = max_triple_search(SearchConfig(field=gf5, s=11, target=17, threads=3))
    assert rep.exhaustive and not rep.target_reached
    _no_child_left()

    def failing(self, *args):
        raise ZeroDivisionError("a failing worker")

    monkeypatch.setattr(search._Searcher, "branch", failing)
    with pytest.raises(RuntimeError, match="exited without the result"):
        max_triple_search(SearchConfig(field=gf5, s=10, threads=2))
    _no_child_left()


def test_threads_above_one_need_os_fork(gf5, monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        SearchConfig(field=gf5, s=8, threads=2)
    assert SearchConfig(field=gf5, s=8, threads=1).threads == 1


@pytest.mark.parametrize("q, s, live, passes", [
    (7, 10, 6, 2),      # 6 of the 48 first lines pass the symmetry test
    (5, 5, 27, 1),      # the first line is a leaf: all 27 branches are sent
])
def test_pool_gets_only_the_live_first_lines(monkeypatch, q, s, live, passes):
    F = make_field(q)
    sent = []

    def inline_fork_map(fn, items, workers):
        # a stand-in for forkpool.fork_map that runs each branch here and
        # records the first line of each branch handed to the pool
        sent.extend(items)
        yield from map(fn, items)

    monkeypatch.setattr(forkpool, "fork_map", inline_fork_map)
    par = max_triple_search(SearchConfig(field=F, s=s, threads=2))
    assert len(sent) == live * passes
    assert len(set(sent)) == live
    # a sequential run calls branch() for the live first lines only, in the
    # order the pool is sent them; a pass that collects its witnesses stops
    called = []
    branch = search._Searcher.branch

    def counting(self, first, *args):
        called.append(first)
        return branch(self, first, *args)

    monkeypatch.setattr(search._Searcher, "branch", counting)
    seq = max_triple_search(SearchConfig(field=F, s=s, threads=1))
    assert called == sent[:len(called)]
    assert set(called) == set(sent)
    assert par._replace(witnesses=[]) == seq._replace(witnesses=[])
    assert ([arrangement_to_json(w) for w in par.witnesses]
            == [arrangement_to_json(w) for w in seq.witnesses])
    # every branch not sent visits no node
    searcher = search._Searcher(SearchConfig(field=F, s=s), Plane.of(F), True)
    branches = len(searcher.candidates) - (s - 4) + 1
    for first in set(range(branches)) - set(sent):
        assert searcher.branch(first, 10 ** 9, 0, 1) == (-1, [], 0, False)


# GF(5), s=11, target 17 is refuted in 720 nodes: the root, then 248 in the
# first branch and 425 in the second
@pytest.mark.parametrize("s, target, max_nodes", [
    (10, 13, 10 ** 9),          # stops on the target
    (11, 17, 500),              # budget spent inside the second branch
    (11, 17, 719),              # budget spent on the very last node
    (11, 17, 720),              # exhaustive with no node to spare
])
def test_threads_agree_with_target(gf5, s, target, max_nodes):
    seq, par = _run_both(gf5, s=s, target=target, max_nodes=max_nodes)
    for rep in (seq, par):
        assert rep.nodes_visited <= max_nodes + 1
        assert rep.exhaustive == (not rep.target_reached and max_nodes >= 720)
    assert ((seq.best, seq.nodes_visited, seq.exhaustive, seq.target_reached)
            == (par.best, par.nodes_visited, par.exhaustive, par.target_reached))


# GF(5), s=8 without a target: after the root, the pass at t = U_3(8) = 8 is
# refuted in 213 nodes, then the pass at t = 7 reaches it and collects
# witnesses in 187
@pytest.mark.parametrize("max_nodes", [
    100,            # spent inside the refutation pass
    213,            # spent on the last node of the refutation pass
    214,            # the refutation pass ends with no node to spare
    300,            # spent inside the witness pass
    400,            # spent on the last node of the witness pass
    401,            # exhaustive with no node to spare
])
def test_threads_agree_on_budget_across_passes(gf5, max_nodes):
    seq, par = _run_both(gf5, s=8, max_nodes=max_nodes)
    for rep in (seq, par):
        assert rep.nodes_visited <= max_nodes + 1
        assert rep.best_is_maximum == rep.exhaustive == (max_nodes >= 401)
    assert ((seq.best, seq.nodes_visited, seq.exhaustive)
            == (par.best, par.nodes_visited, par.exhaustive))


def test_pass_notes_of_a_maximum(gf5):
    rep = max_triple_search(SearchConfig(field=gf5, s=8))
    assert ("target passes from U_3(s) down: t=8 refuted in 213 nodes, "
            "t=7 reached in 187 nodes") in rep.notes


def test_maxima_are_target_boundaries(gf2, gf3, gf4, gf5):
    # a maximum is reached by a search for it and refuted by one for one more
    for F in (gf2, gf3, gf4, gf5):
        for s in range(5, min(9, len(Plane.of(F).lines)) + 1):
            for metric in ("exact3", "atleast3"):
                rep = max_triple_search(SearchConfig(field=F, s=s, metric=metric))
                assert rep.best_is_maximum, (F, s, metric)
                hit, miss = (max_triple_search(SearchConfig(field=F, s=s, metric=metric,
                                                            target=rep.best + d))
                             for d in (0, 1))
                assert hit.target_reached and hit.best == rep.best, (F, s, metric)
                assert not miss.target_reached and miss.exhaustive, (F, s, metric)


def test_maxima_obey_the_line_deletion_lemma(gf2, gf3, gf4, gf5):
    # some line of s lines with t triple points carries at most floor(3t/s)
    # of them; deleting it leaves s - 1 lines with at least t - floor(3t/s)
    for F in (gf2, gf3, gf4, gf5):
        for metric in ("exact3", "atleast3"):
            best = {}
            for s in range(4, min(9, len(Plane.of(F).lines)) + 1):
                rep = max_triple_search(SearchConfig(field=F, s=s, metric=metric))
                assert rep.best_is_maximum, (F, s, metric)
                best[s] = rep.best
                if s - 1 in best:
                    assert best[s] - 3 * best[s] // s <= best[s - 1], (F, s, metric)


def test_pool_respects_node_budget(gf5):
    par = max_triple_search(SearchConfig(field=gf5, s=8, max_nodes=50, threads=2))
    assert par.nodes_visited <= 51 and not par.exhaustive


def test_threads_with_frame_normalization(gf5):
    par = max_triple_search(SearchConfig(field=gf5, s=10, threads=2))
    assert par.best == 13
    assert par.exhaustive
    for w in par.witnesses:
        assert profile(w).triple_count("exact3") == 13


def test_frame_skipped_for_small_s(gf5):
    # s = 4: the optimum is three concurrent lines plus one, which contains
    # no four lines in general position
    rep = max_triple_search(SearchConfig(field=gf5, s=4, normalize_frame=True))
    assert rep.best == 1
    assert any("skipped" in n for n in rep.notes)


def test_plane_cache_counts(gf5):
    plane = Plane.of(gf5)
    assert len(plane.lines) == 31
    assert all(len(pts) == 6 for pts in plane.line_points)


def _scanned_line_points(F, lines):
    # oracle: test every plane point against the line with a dot product
    points = enumerate_points(F)
    return [tuple(i for i, P in enumerate(points) if incident(P, L)) for L in lines]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4)])
def test_plane_incidence_matches_point_line_scan(p, k):
    F = make_field(p, k)
    plane = Plane.of(F)
    assert plane.lines == enumerate_lines(F)
    assert [tuple(row) for row in plane.line_points] == _scanned_line_points(F, plane.lines)
    assert all(triple_position(F.order, L.key()) == i for i, L in enumerate(plane.lines))


def test_plane_structure_gf81():
    F = make_field(3, 4)
    plane = Plane.of(F)
    q = F.order
    n = q * q + q + 1
    assert len(plane.lines) == n == 6643
    for pts in plane.line_points:
        assert len(pts) == q + 1
        assert all(a < b for a, b in zip(pts, pts[1:]))
    assert Counter(p for pts in plane.line_points for p in pts) == \
        {i: q + 1 for i in range(n)}
    sample = random.Random(81).sample(range(n), 8)
    assert [tuple(plane.line_points[i]) for i in sample] == \
        _scanned_line_points(F, [plane.lines[i] for i in sample])


def _kept_bytes(build):
    """The result of build() and the bytes it still holds once built."""
    tracemalloc.start()
    try:
        result = build()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, kept


def test_gf27_plane_rows_stay_small(monkeypatch):
    """Point rows kept in array('H') hold the GF(27) plane, 757 lines with
    their points, under 256 KiB."""
    F = make_field(3, 3)
    monkeypatch.setattr(Plane, "_cache", {})
    plane, kept = _kept_bytes(lambda: Plane.of(F))
    assert kept <= 256 << 10
    assert {row.typecode for row in plane.line_points} == {"H"}


def test_gf27_frame_stabilizer_stays_small():
    """The 72 permutations of the GF(27) frame stabilizer, kept in
    array('H'), take under 160 KiB."""
    F = make_field(3, 3)
    group, kept = _kept_bytes(lambda: frame_stabilizer(F))
    assert kept <= 160 << 10
    assert len(group) == 72 and {g.typecode for g in group} == {"H"}


def test_plane_beyond_16_bit_positions_is_rejected_before_any_row(monkeypatch):
    built = []
    monkeypatch.setattr(search, "line_point_indices", built.append)
    monkeypatch.setattr(search, "enumerate_lines", built.append)
    monkeypatch.setattr(Plane, "_cache", {})
    with pytest.raises(FieldTooLarge, match=r"PG\(2,257\) has 66307 lines"):
        Plane.of(make_field(257))
    assert built == [] and Plane._cache == {}
    # q = 251, the largest prime below 256: 63,253 lines, positions fit
    F = make_field(251)
    Plane.of(F)
    assert built == [F, F]


@pytest.mark.parametrize("q, searched", [(127, True), (151, True), (157, False),
                                         (251, False)])
def test_search_masks_past_the_limit_are_rejected_before_the_plane(monkeypatch, q,
                                                                   searched):
    # the masks take about q^4/8 bytes: up to GF(151) a search goes on to
    # build the plane, from GF(157) on it raises first, though the 16-bit
    # plane of GF(251) would build
    class PlaneBuilt(Exception):
        pass

    def plane_of(field):
        raise PlaneBuilt(field.order)

    monkeypatch.setattr(Plane, "of", plane_of)
    n = q * q + q + 1
    with pytest.raises(PlaneBuilt if searched else FieldTooLarge,
                       match=None if searched else rf"PG\(2,{q}\) has {n} lines.*64 MiB"):
        max_triple_search(SearchConfig(field=make_field(q), s=5, max_nodes=10))


# ---------------------------------------------------------------------------
# symmetry: the frame stabilizer and lex-leader pruning
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (2, 4), (5, 2), (3, 3)])
def test_frame_stabilizer_is_the_collineation_group_of_the_frame(p, k):
    plane = Plane.of(make_field(p, k))
    group = frame_stabilizer(plane.field)
    n = len(plane.lines)
    assert len(group) == len({tuple(g) for g in group}) == 24 * k
    assert [tuple(g) for g in group] == sorted(tuple(g) for g in group)
    assert tuple(group[0]) == tuple(range(n))
    assert all(sorted(g) == list(range(n)) for g in group)
    frame = [triple_position(plane.field.order, c) for c in FRAME_COORDS]
    assert [plane.lines[i] for i in frame] == [ProjLine(plane.field, c) for c in FRAME_COORDS]
    # every permutation of the frame lines, each by the k field automorphisms
    assert Counter(tuple(g[i] for i in frame) for g in group) == \
        {perm: k for perm in itertools.permutations(frame)}
    # incidence: the lines through a point go to the lines through one point
    through = [[] for _ in range(n)]
    for line_id, pts in enumerate(plane.line_points):
        for point in pts:
            through[point].append(line_id)
    pencils = {frozenset(lines) for lines in through}
    for g in group:
        assert all(frozenset(g[i] for i in lines) in pencils for lines in through)


@pytest.mark.parametrize("p, k", [(2, 2), (7, 1), (2, 3), (3, 2)])
def test_packed_symmetry_test_matches_the_images(p, k, rng):
    # the guard-bit verdict on a child X + c equals max_g g(X + c) > X + c,
    # computed from the permutations with line id i as bit N-1-i
    plane = Plane.of(make_field(p, k))
    searcher = _Searcher(SearchConfig(field=plane.field, s=8), plane, use_frame=True)
    group, n = frame_stabilizer(plane.field), len(plane.lines)

    def mask(line_ids):
        return sum(1 << n - 1 - i for i in line_ids)

    verdicts = Counter()
    for _ in range(400):
        # half the draws from the first 12 candidates, where lex-leaders are common
        last = rng.choice((len(searcher.candidates), 12)) - 1
        xs = sorted(rng.sample(range(last), rng.randint(1, 6)))
        c = rng.randint(xs[-1] + 1, last)
        gaps = searcher.guard - searcher.rep + sum(searcher.delta(i) for i in xs + [c])
        cut = gaps & searcher.guard != 0
        lines = [searcher.candidates[i] for i in xs + [c]]
        assert cut == (max(mask(g[i] for i in lines) for g in group[1:]) > mask(lines))
        verdicts[cut] += 1
    assert verdicts[False] and verdicts[True], verdicts


def test_deltas_past_the_table_limit_are_built_on_each_use(monkeypatch):
    monkeypatch.setattr(search, "DELTA_TABLE_LIMIT", 0)
    plane = Plane.of(make_field(3, 2))
    searcher = _Searcher(SearchConfig(field=plane.field, s=11), plane, use_frame=True)
    assert searcher.delta(5) == searcher.delta(5)
    assert searcher.deltas == [None] * len(searcher.candidates)
    rep = max_triple_search(SearchConfig(field=plane.field, s=11, target=17))
    assert (rep.best, rep.nodes_visited, rep.exhaustive) == (16, 12919, True)


def _subset_best(F, s):
    """Oracle maxima (exact3, atleast3) over every s-subset of lines,
    counted on Plane.line_points."""
    best = {"exact3": -1, "atleast3": -1}
    for combo in itertools.combinations(Plane.of(F).line_points, s):
        mult = Counter(Counter(p for pts in combo for p in pts).values())
        best["exact3"] = max(best["exact3"], mult[3])
        best["atleast3"] = max(best["atleast3"],
                               sum(t for m, t in mult.items() if m >= 3))
    return best


def test_symmetry_pruning_keeps_best_values(gf2, gf3, gf4, gf5):
    cases = [(gf2, s) for s in (5, 6, 7)] + [(gf3, s) for s in range(5, 10)] + \
        [(gf4, s) for s in range(5, 10)] + [(gf5, 5)]
    for F, s in cases:
        oracle = None if F.order == 4 and s > 5 else _subset_best(F, s)
        for metric in ("exact3", "atleast3"):
            off = max_triple_search(SearchConfig(field=F, s=s, metric=metric,
                                                 normalize_frame=False))
            on = max_triple_search(SearchConfig(field=F, s=s, metric=metric))
            assert any(f"under the {24 * F.k} collineations" in n for n in on.notes)
            assert ((on.best, on.exhaustive, on.best_is_maximum)
                    == (off.best, off.exhaustive, off.best_is_maximum)), (F, s)
            if oracle is not None:
                assert on.best == oracle[metric], (F, s, metric)
            if F.order == 2:
                assert on.best == brute_force_best_triples(F, s, metric), (s, metric)


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
def test_no_frame_targets_at_the_maximum(p, k):
    # with no fixed line the first child leaves r = s - 1 lines to add, where
    # the gain bound's C(r+1, 2) pair term is largest: a maximum must be
    # reached by a search for it and refuted by one for one more
    F = make_field(p, k)
    for s in range(5, min(8, len(Plane.of(F).lines)) + 1):
        oracle = _subset_best(F, s) if F.order < 4 else None
        for metric in ("exact3", "atleast3"):
            best = (oracle[metric] if oracle is not None else
                    max_triple_search(SearchConfig(field=F, s=s, metric=metric)).best)
            hit, miss = (max_triple_search(SearchConfig(field=F, s=s, metric=metric,
                                                        target=best + d,
                                                        normalize_frame=False))
                         for d in (0, 1))
            assert hit.target_reached and hit.best == best, (F, s, metric)
            assert not miss.target_reached and miss.exhaustive, (F, s, metric)


# ---------------------------------------------------------------------------
# dual seeds
# ---------------------------------------------------------------------------

def test_dual_of_pencil(gf3):
    pencil = Arrangement(gf3, [L for L in enumerate_lines(gf3)
                               if L.coords[0] == gf3.zero][:3])
    d = dual_search_seed(pencil)
    assert d.s == 1


def test_hesse_round_trip():
    dual_hesse = dual_hesse_from_pg23()
    hesse = dual_search_seed(dual_hesse)          # 12 lines, the affine plane
    assert hesse.s == 12
    assert profile(hesse).tvec == {4: 9, 3: 4}
    back = dual_search_seed(hesse, min_multiplicity=4)
    assert back.s == 9
    assert profile(back).tvec == {3: 12}
    assert isomorphic(abstract(back), abstract(dual_hesse))


def test_dual_requires_intersections(gf5):
    single = Arrangement(gf5, enumerate_lines(gf5)[:1])
    with pytest.raises(ValueError):
        dual_search_seed(single)


@pytest.mark.parametrize("min_multiplicity", [1, 0, -2])
def test_dual_rejects_multiplicity_below_two(gf5, min_multiplicity):
    # a point on a single line is no intersection point
    A = Arrangement(gf5, enumerate_lines(gf5)[:4])
    with pytest.raises(ValueError, match="min_multiplicity"):
        dual_search_seed(A, min_multiplicity)
